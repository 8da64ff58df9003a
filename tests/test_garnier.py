"""Line restriction, pole data, and the Garnier parametrization report."""

from fractions import Fraction

import pytest

from quintic_garnier.connections import flat_quintic2_connection
from quintic_garnier.fractions import FactoredFraction, frac_eq
from quintic_garnier.garnier import (B_AC, CTX_AC, RestrictionError,
                                     _residue_checks, alphas_report,
                                     garnier_parametrization,
                                     h21_extract, parity_invariance,
                                     pole_positions, pole_positions_at,
                                     poles_factor_denominator,
                                     reference_alphas, restrict_to_line,
                                     specialize_connection)
from quintic_garnier.ring import parse_poly, serialize_poly


def test_restricted_denominator_divides_declared_shape():
    rest = restrict_to_line(mode="ab")
    # clearing against 2y(y-1)Q must produce polynomials for all coefficients
    a2, a1, a0 = rest.alphas()
    assert a1.min_exponent("y") >= 0
    assert a0.min_exponent("y") >= 0


def test_alpha1_and_alpha0_match_reference():
    rep = alphas_report()
    assert rep["alpha1"]["matches"]
    assert rep["alpha0"]["matches"]


def test_alpha2_differs_by_known_delta():
    rep = alphas_report()
    assert not rep["alpha2"]["matches"]
    assert rep["alpha2"]["delta_vs_reference"] == "-2*y^1*a^1*lam0^1"


def test_lambda_zero_restriction_is_diagonal():
    conn = specialize_connection(flat_quintic2_connection(),
                                 {"lam0": 0, "lam1": 0})
    rest = restrict_to_line(conn, mode="ab")
    assert rest.P2.is_zero() and rest.P0.is_zero()
    assert not rest.P1.is_zero()


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


def test_h21_quadratic_and_checks():
    h = h21_extract()
    assert h.numerator.max_exponent("y") == 2
    assert h.residue_at_infinity_vanishes
    assert h.assembly_verified
    # Vieta self-consistency against its own coefficients
    coeffs = h.numerator.coefficients_in("y")
    n2 = FactoredFraction(B_AC, coeffs[2])
    lhs = (h.S_q * n2).reduce()
    assert frac_eq(lhs, FactoredFraction(B_AC, -coeffs[1]))


def test_residue_at_infinity_flag_fails_for_a_cubic_numerator():
    rest = restrict_to_line(mode="ac")
    num = h21_extract(rest).numerator
    assert _residue_checks(rest, num) == (True, True)
    # y*num still interpolates exactly through the four finite poles, but
    # its residues no longer sum to zero: the residue at infinity is nonzero
    assert _residue_checks(rest, CTX_AC.var("y") * num) == (False, True)


def test_h21_requires_rational_pole_chart():
    with pytest.raises(RestrictionError):
        h21_extract(restrict_to_line(mode="ab"))


def test_garnier_report_agreements():
    data, report = garnier_parametrization()
    # movable poles match exactly one quoted variant
    assert report["t1"]["matches_44"] and not report["t1"]["matches_45"]
    assert report["t2"]["matches_44"] and not report["t2"]["matches_45"]
    assert report["S_q"]["matches_45"]
    assert not report["P_q"]["matches_45"]
    assert report["P_q"]["matches_45_repaired"]
    assert report["residue_at_infinity_vanishes"]
    assert report["assembly_verified"]
    assert report["separant_nonzero"]


def test_parity_invariance_of_garnier_fields():
    data, _ = garnier_parametrization()
    flags = parity_invariance(data)
    assert all(flags.values()), flags


def test_specialization_commutes_with_extraction():
    conn = specialize_connection(flat_quintic2_connection(),
                                 {"lam0": 1, "lam1": 0})
    h_spec = h21_extract(restrict_to_line(conn, mode="ac"))
    h_full = h21_extract(restrict_to_line(mode="ac"))
    images = {"lam0": FactoredFraction(B_AC, CTX_AC.one()),
              "lam1": FactoredFraction(B_AC, CTX_AC.zero())}
    assert frac_eq(h_full.S_q.substitute(images, B_AC), h_spec.S_q)
    assert frac_eq(h_full.P_q.substitute(images, B_AC), h_spec.P_q)
