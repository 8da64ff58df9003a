"""Line restriction, pole data, and the Garnier parametrization report."""

import dataclasses
import random
from fractions import Fraction

import pytest

from quintic_garnier.connections import MatConnection, flat_quintic2_connection
from quintic_garnier.forms import ScalarOneForm
from quintic_garnier.fractions import FactoredFraction, Substitution, frac_eq
from quintic_garnier.garnier import (B_AB, B_AC, CTX_AB, CTX_AC,
                                     RestrictionError,
                                     _assembles, _residues_sum_to_zero,
                                     alphas_report,
                                     garnier_parametrization,
                                     h21_extract, parity_invariance,
                                     pole_positions, pole_positions_at,
                                     poles_factor_denominator,
                                     reference_alphas, restrict_to_line,
                                     specialize_connection)
from quintic_garnier.ring import parse_poly, serialize_poly


def _substitute(f, images, target):
    """``f`` at the images through a new substitution for this one call."""
    return Substitution(f.ctx, images, target).fraction(f)


@pytest.fixture(scope="module")
def quintic():
    return flat_quintic2_connection()


@pytest.fixture(scope="module")
def line_ab(quintic):
    return restrict_to_line(quintic, "ab")


@pytest.fixture(scope="module")
def line_ac(quintic):
    return restrict_to_line(quintic, "ac")


def test_restricted_denominator_divides_declared_shape(line_ab):
    rest = line_ab
    # clearing against 2y(y-1)Q must produce polynomials for all coefficients
    a2, a1, a0 = rest.alphas()
    assert a1.min_exponent("y") >= 0
    assert a0.min_exponent("y") >= 0


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_restriction_kernel_matches_the_one_call_path(seed):
    """One substitution per parameter point and per line restriction gives,
    entry by entry, what a new substitution per entry gives."""
    rng = random.Random(seed)
    values = {name: Fraction(rng.randint(-7, 7), rng.randint(1, 5))
              for name in ("lam0", "lam1")}
    conn = flat_quintic2_connection()
    special = specialize_connection(conn, values)
    for row, srow in zip(conn.omega, special.omega):
        for w, s in zip(row, srow):
            assert frac_eq(s.A, _substitute(w.A, values, conn.basis))
            assert frac_eq(s.B, _substitute(w.B, values, conn.basis))
    a, b, y = CTX_AB.var("a"), CTX_AB.var("b"), CTX_AB.var("y")
    aa, c, yc = CTX_AC.var("a"), CTX_AC.var("c"), CTX_AC.var("y")
    b_of_c = Fraction(1, 4) * (1 - c ** 2) * aa ** -1
    lines = {"ab": (B_AB, {"x": a * y + b}),
             "ac": (B_AC, {"x": aa * yc + b_of_c})}
    for mode, (basis, images) in lines.items():
        rest = restrict_to_line(special, mode)
        avar = basis.ctx.var("a")
        for row, srow in zip(rest.matrix, special.omega):
            for got, w in zip(row, srow):
                want = (_substitute(w.A, images, basis) * avar
                        + _substitute(w.B, images, basis))
                assert frac_eq(got, want), (mode, values)


def test_restriction_refuses_a_connection_over_another_chart(quintic):
    """``x = a y + b`` reads each ``A`` as the dx coefficient, so a
    connection over (y, x) is refused, not restricted with dx and dy swapped."""
    swapped = MatConnection("swapped", tuple(tuple(
        ScalarOneForm(w.basis, ("y", "x"), w.B, w.A) for w in row)
        for row in quintic.omega))
    with pytest.raises(RestrictionError, match=r"swapped is over \('y', 'x'\)"):
        restrict_to_line(swapped, "ab")


def test_alpha1_and_alpha0_match_reference(line_ab):
    rep = alphas_report(line_ab)
    assert rep["alpha1"]["matches"]
    assert rep["alpha0"]["matches"]


def test_alpha2_differs_by_known_delta(line_ab):
    rep = alphas_report(line_ab)
    assert not rep["alpha2"]["matches"]
    assert rep["alpha2"]["delta_vs_reference"] == "-2*y^1*a^1*lam0^1"


def test_alphas_require_the_ab_chart(line_ac):
    with pytest.raises(RestrictionError, match=r"\(a, b\) chart"):
        alphas_report(line_ac)


def test_lambda_zero_restriction_is_diagonal(quintic, line_ab):
    zero = {"lam0": 0, "lam1": 0}
    rest = restrict_to_line(specialize_connection(quintic, zero), mode="ab")
    assert rest.P2.is_zero() and rest.P0.is_zero()
    assert not rest.P1.is_zero()
    # the suite's route: the (a, b) restriction, then lam0 = lam1 = 0
    at_zero = Substitution(CTX_AB, zero, B_AB)
    for name in ("P2", "P1", "P0"):
        assert frac_eq(at_zero.fraction(getattr(line_ab, name)),
                       getattr(rest, name)), name


def test_pole_positions_and_vieta():
    assert poles_factor_denominator()
    t1, t2 = pole_positions()
    assert serialize_poly(t1) == "1/4*a^-2*c^2 + -1/2*a^-2*c^1 + 1/4*a^-2"
    # rational instances, with degeneracy flagged when c = 1
    v1, v2, notes = pole_positions_at(2, 3)
    assert (v1, v2) == (Fraction(1, 4), Fraction(1, 1))
    assert notes  # t2 == 1 collides with a fixed puncture
    v1, v2, notes = pole_positions_at(1, 4)
    assert (v1, v2) == (Fraction(9, 4), Fraction(25, 4)) and not notes
    v1, _, notes = pole_positions_at(1, 1)
    assert v1 == 0 and notes
    with pytest.raises(RestrictionError):
        pole_positions_at(0, 1)


def test_h21_quadratic_and_checks(line_ac):
    h = h21_extract(line_ac)
    assert h.numerator.max_exponent("y") == 2
    assert h.residue_at_infinity_vanishes
    assert h.assembly_verified
    # Vieta self-consistency against its own coefficients
    coeffs = h.numerator.coefficients_in("y")
    n2 = FactoredFraction(B_AC, coeffs[2])
    lhs = (h.S_q * n2).reduce()
    assert frac_eq(lhs, FactoredFraction(B_AC, -coeffs[1]))


def test_residue_at_infinity_flag_fails_for_a_cubic_numerator(line_ac):
    rest = line_ac
    num = h21_extract(rest).numerator
    assert _residues_sum_to_zero(rest, num)
    # the residues of y*num no longer sum to zero: the residue at infinity
    # is nonzero
    assert not _residues_sum_to_zero(rest, CTX_AC.var("y") * num)


def test_h21_assembly_fails_for_perturbed_fields(line_ac):
    rest = line_ac
    h = h21_extract(rest)
    assert _assembles(rest, h.leading, h.S_q, h.P_q)
    assert not _assembles(rest, h.leading, -h.S_q, h.P_q)
    assert not _assembles(rest, h.leading, h.S_q, 2 * h.P_q)
    assert not _assembles(rest, 2 * h.leading, h.S_q, h.P_q)


def test_h21_requires_rational_pole_chart(line_ab):
    with pytest.raises(RestrictionError, match="rational-pole chart"):
        h21_extract(line_ab)


def test_h21_requires_a_quadratic_numerator(line_ac):
    # the lower-left coefficient times y^k has a numerator of degree 2 + k
    rest = line_ac
    y = CTX_AC.var("y")
    for k in (-1, 1):
        lower_left = rest.matrix[1][0] * B_AC.of(y ** k)
        matrix = [rest.matrix[0], [lower_left, rest.matrix[1][1]]]
        with pytest.raises(RestrictionError, match="degree is not 2"):
            h21_extract(dataclasses.replace(rest, matrix=matrix))


def test_garnier_report_agreements(line_ac):
    data, report = garnier_parametrization(line_ac)
    # movable poles match exactly one quoted variant
    assert report["t1"]["matches_44"] and not report["t1"]["matches_45"]
    assert report["t2"]["matches_44"] and not report["t2"]["matches_45"]
    assert report["S_q"]["matches_45"]
    assert not report["P_q"]["matches_45"]
    assert report["P_q"]["matches_45_repaired"]
    assert report["separant_nonzero"]
    # the lower-left checks are reported by h21_extract only
    assert set(report) == {"t1", "t2", "S_q", "P_q", "S_p", "gamma",
                           "separant_nonzero"}
    h = h21_extract(line_ac)
    assert frac_eq(data.S_q, h.S_q) and frac_eq(data.P_q, h.P_q)


def test_parity_invariance_of_garnier_fields(line_ac):
    data, _ = garnier_parametrization(line_ac)
    flags = parity_invariance(data)
    assert all(flags.values()), flags


def test_specialization_commutes_with_extraction(quintic, line_ac):
    conn = specialize_connection(quintic, {"lam0": 1, "lam1": 0})
    h_spec = h21_extract(restrict_to_line(conn, mode="ac"))
    h_full = h21_extract(line_ac)
    images = {"lam0": FactoredFraction(B_AC, CTX_AC.one()),
              "lam1": FactoredFraction(B_AC, CTX_AC.zero())}
    assert frac_eq(_substitute(h_full.S_q, images, B_AC), h_spec.S_q)
    assert frac_eq(_substitute(h_full.P_q, images, B_AC), h_spec.P_q)
