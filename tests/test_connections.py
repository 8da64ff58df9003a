"""Connections: curvature, residues, Riccati pullback, divisor factorization."""

import random
from fractions import Fraction

import pytest

from quintic_garnier.connections import (
    B_CASE1, B_PQ, B_UV, B_XY, CASE1_DIVISORS, CTX_PQ, CTX_UV, CTX_UVH, CTX_X,
    CTX_XY, CTX_XYH, QUINTIC2_DIVISORS, DivisorChart, MatConnection, build_case1_cover_form, build_omega0, build_omega1, build_riccati1,
    case1_connection, conjugate_two_forms, diagonal_cover_connection,
    flat_case1_connection, flat_quintic2_connection, flat_representative,
    cover_homogeneous, elementary_homogeneous, gauge_transform, is_flat,
    map_cover, map_cover_bar, map_elementary, map_involution, map_symmetric_cover, mat_curvature,
    pullback_riccati, quintic2_matrix_connection,
    quintic2_scaled_connection, residue, riccati_of_connection,
    riccati_plane_catalog, _sqrt_fraction)
from quintic_garnier.forms import RationalMap, ScalarOneForm, divisor_pullback
from quintic_garnier.fractions import (DenomBasis, FactoredFraction, Substitution,
                                       eval_poly, frac_eq, serialize_frac)
from quintic_garnier.ring import VarContext
from quintic_garnier.sl2 import Mat2


def test_omega0_is_closed():
    assert build_omega0().d().is_zero()


def test_omega1_pulls_back_to_omega0():
    assert map_elementary().pull_one_form(build_omega1()) == build_omega0()


def test_diagonal_cover_connection_is_flat():
    assert is_flat(diagonal_cover_connection())


def test_flat_representative_is_flat_and_trace_free():
    rep, _ = flat_representative()
    assert rep.is_trace_free()
    assert is_flat(rep)


def test_quintic2_catalog_variants_are_not_flat():
    assert not is_flat(quintic2_matrix_connection())
    assert not is_flat(quintic2_scaled_connection())


def test_discrepancy_report_is_nonempty_and_localized():
    _, report = flat_representative()
    scaled = report["variants"]["quintic2_scaled"]
    assert not scaled["matches"]
    # the scaled variant differs from the derived one only on the diagonal
    assert scaled["entries"]["12"] == {"dx": True, "dy": True}
    assert scaled["entries"]["21"] == {"dx": True, "dy": True}
    assert not scaled["entries"]["11"]["dy"]
    matrix = report["variants"]["quintic2_matrix"]
    assert not matrix["matches"]
    # the matrix variant agrees on the diagonal, differs off-diagonal
    assert matrix["entries"]["11"] == {"dx": True, "dy": True}
    assert matrix["entries"]["22"] == {"dx": True, "dy": True}
    assert not matrix["entries"]["12"]["dy"]
    assert not report["riccati_plane"]["matches"]


def test_involution_fixes_riccati1():
    r1 = build_riccati1()
    assert pullback_riccati(r1, map_involution()) == r1


def test_cover_bar_pulls_derived_riccati_to_riccati1():
    rep, _ = flat_representative()
    ric = riccati_of_connection(rep)
    assert pullback_riccati(ric, map_cover_bar()) == build_riccati1()


def test_riccati_of_diagonal_connection():
    # d + diag(h, -h) projectivizes to dw - 2h w
    conn = diagonal_cover_connection()
    ric = riccati_of_connection(conn)
    assert ric.P2.is_zero() and ric.P0.is_zero()
    assert ric.P1 == build_omega0() * B_UV.const(-1)


def test_riccati_of_zero_connection():
    z = ScalarOneForm.zero(B_XY, ("x", "y"))
    conn = MatConnection("zero", B_XY, ("x", "y"), ((z, z), (z, z)))
    ric = riccati_of_connection(conn)
    assert ric.P2.is_zero() and ric.P1.is_zero() and ric.P0.is_zero()


def test_identity_fiber_pullback_is_base_substitution():
    rep, _ = flat_representative()
    ric = riccati_of_connection(rep)
    pulled = pullback_riccati(ric, map_cover())
    # commutes with projectivization for base-only maps
    ric2 = riccati_of_connection(rep.pull_back(map_cover()))
    assert pulled == ric2


def test_curvature_nonzero_witness():
    x = CTX_XY.var("x")
    z = ScalarOneForm.zero(B_XY, ("x", "y"))
    xdy = ScalarOneForm(B_XY, ("x", "y"), B_XY.zero(), B_XY.of(x))
    conn = MatConnection("witness", B_XY, ("x", "y"), ((z, xdy), (z, z)))
    F = mat_curvature(conn)
    assert not F[0][1].is_zero()
    assert frac_eq(F[0][1].coeff, B_XY.one())


def test_flatness_is_gauge_invariant():
    rng = random.Random(61)
    rep, _ = flat_representative()
    ctx = rep.basis.ctx
    for _ in range(12):
        m = ctx.monomial(rng.choice([1, -1, 2]),
                         {"x": rng.randint(-1, 1), "y": rng.randint(-1, 1)})
        g = Mat2.diagonal(m)
        assert is_flat(gauge_transform(rep, g))


def test_curvature_conjugates_under_gauge():
    rng = random.Random(67)
    ctx = CTX_XY
    x = ctx.var("x")
    z = ScalarOneForm.zero(B_XY, ("x", "y"))
    xdy = ScalarOneForm(B_XY, ("x", "y"), B_XY.zero(), B_XY.of(x))
    ydx = ScalarOneForm(B_XY, ("x", "y"), B_XY.of(ctx.var("y")), B_XY.zero())
    conn = MatConnection("witness", B_XY, ("x", "y"), ((z, xdy), (ydx, z)))
    for _ in range(10):
        m = ctx.monomial(rng.choice([1, -1, 3]),
                         {"x": rng.randint(-1, 1), "y": rng.randint(-1, 1)})
        g = Mat2.diagonal(m)
        lhs = mat_curvature(gauge_transform(conn, g))
        rhs = conjugate_two_forms(mat_curvature(conn), g, B_XY)
        for i in (0, 1):
            for j in (0, 1):
                assert frac_eq(lhs[i][j].coeff, rhs[i][j].coeff)


EXPECTED_EIGENVALUES = {
    "y": ("1/4", Fraction(1, 4)),
    "y-1": ("lam1/2", None),
    "conic": ("lam0/2", None),
    "infinity": ("1/4", Fraction(1, 4)),
}


def test_residue_table_of_flat_representative():
    rep, _ = flat_representative()
    charts = QUINTIC2_DIVISORS
    lam0 = "1/2*lam0^1"
    lam1 = "1/2*lam1^1"
    expected = {"y": "1/4", "y-1": lam1, "conic": lam0, "infinity": "1/4"}
    for name, chart in charts.items():
        rd = residue(rep, chart)
        assert rd.consistent, rd.notes
        assert rd.eigenvalues is not None
        vals = sorted(serialize_frac(e) for e in rd.eigenvalues)
        want = sorted([expected[name], "-" + expected[name]])
        assert vals == want, (name, vals)


def test_residue_entries_along_the_conic():
    rep, _ = flat_representative()
    rd = residue(rep, QUINTIC2_DIVISORS["conic"])
    flat = [serialize_frac(e) for row in rd.matrix for e in row]
    assert flat == ["0", "1/2*x^1*lam0^1", "1/2*x^-1*lam0^1", "0"]


def test_scalar_residue_example():
    # lam * dy/y along y = 0 has residue lam
    ctx = CTX_XY
    lam = ctx.var("lam0")
    w = ScalarOneForm(B_XY, ("x", "y"), B_XY.zero(), B_XY.of(lam * ctx.var("y") ** -1))
    z = ScalarOneForm.zero(B_XY, ("x", "y"))
    conn = MatConnection("scalar", B_XY, ("x", "y"), ((w, z), (z, z)))
    rd = residue(conn, QUINTIC2_DIVISORS["y"])
    assert serialize_frac(rd.matrix[0][0]) == "1*lam0^1"


def test_double_pole_is_flagged():
    rd = residue(quintic2_scaled_connection(), QUINTIC2_DIVISORS["y"])
    assert not rd.consistent
    assert any("order > 1" in n for n in rd.notes)


def test_sqrt_fraction_takes_roots_of_monomial_squares_only():
    x, y = CTX_XY.var("x"), CTX_XY.var("y")
    assert _sqrt_fraction(B_XY.zero()).is_zero()
    root = _sqrt_fraction(B_XY.over(Fraction(4, 9) * x ** 2, y - 1, y - 1))
    assert frac_eq(root, B_XY.over(Fraction(2, 3) * x, y - 1))
    for value in (B_XY.of(x ** 3),                    # odd exponent
                  B_XY.over(x ** 2, y - 1),           # odd denominator exponent
                  B_XY.of(-(x ** 2)),                 # negative coefficient
                  B_XY.of(2 * x ** 2),                # no rational root
                  B_XY.of(x ** 2 + 1)):               # more than one term
        assert _sqrt_fraction(value) is None, value


def test_residue_notes_a_double_pole_along_a_basis_factor_and_a_failed_restriction():
    """Along y = 1, a declared factor of the basis, dy/(y-1)^2 has a pole of
    order two; dy/((y-1)(x^2-y)) restricts to 1/(x^2-1), which a chart with
    no denominator factors cannot hold."""
    x, y = CTX_XY.var("x"), CTX_XY.var("y")
    z = ScalarOneForm.zero(B_XY, ("x", "y"))

    def notes(B, chart):
        w = ScalarOneForm(B_XY, ("x", "y"), B_XY.zero(), B)
        rd = residue(MatConnection("probe", B_XY, ("x", "y"), ((w, z), (z, z))), chart)
        assert not rd.consistent
        return rd.notes
    one = CTX_XY.one()
    assert notes(B_XY.over(one, y - 1, y - 1), QUINTIC2_DIVISORS["y-1"]) == [
        "entry (1,1): pole of order > 1 along y-1"]
    bare = DivisorChart("y-1", y - 1, "y", {"y": CTX_X.one()}, DenomBasis(CTX_X, []))
    assert notes(B_XY.over(one, y - 1, x ** 2 - y), bare) == [
        "entry (1,1): restriction failed along y-1: residual factor outside basis: "
        "1*x^2 + -1"]


def test_trace_free_residues_pair_up():
    rep, _ = flat_representative()
    for chart in QUINTIC2_DIVISORS.values():
        rd = residue(rep, chart)
        assert rd.eigenvalues is not None
        s = (rd.eigenvalues[0] + rd.eigenvalues[1]).reduce()
        assert s.is_zero()


def test_divisor_pullback_chain_identities():
    x, y = CTX_XY.var("x"), CTX_XY.var("y")
    u, v = CTX_UV.var("u"), CTX_UV.var("v")
    cov, elem = map_cover(), map_elementary()
    unit, f = divisor_pullback(cov.pull(x ** 2 - y),
                               {"u-v": u - v, "u+v": u + v})
    assert f == {"u-v": 1, "u+v": 1} and unit.is_one()
    unit, f = divisor_pullback(cov.pull(y - 1), {"v-1": v - 1, "v+1": v + 1})
    assert f == {"v-1": 1, "v+1": 1} and unit.is_one()
    unit, f = divisor_pullback(cov.pull(y), {"v": v})
    assert f == {"v": 2} and unit.is_one()
    unit, f = divisor_pullback(elem.pull(u - v), {"u-1": u - 1, "v": v})
    assert f == {"u-1": 1, "v": 1}
    unit, f = divisor_pullback(elem.pull(u + v), {"u+1": u + 1, "v": v})
    assert f == {"u+1": 1, "v": 1}


def test_divisor_pullback_at_infinity_homogeneous():
    u1, v1 = CTX_UVH.var("u1"), CTX_UVH.var("v1")
    Z = CTX_XYH.var("Z")
    unit, f = divisor_pullback(cover_homogeneous().poly(Z),
                               {"u1": u1, "v1": v1})
    assert f == {"u1": 1, "v1": 2}
    unit, f = divisor_pullback(elementary_homogeneous().poly(u1),
                               {"u1": u1, "v1": v1})
    assert f == {"u1": 1, "v1": 1}


def test_symmetric_cover_divisors():
    cov = map_symmetric_cover()
    p, q = CTX_PQ.var("p"), CTX_PQ.var("q")
    x, y = CTX_XY.var("x"), CTX_XY.var("y")
    dc = x ** 2 + y ** 2 + 1 - 2 * x * y - 2 * x - 2 * y
    unit, f = divisor_pullback(cov.pull(dc), {"p-q": p - q})
    assert f == {"p-q": 2}
    unit, f = divisor_pullback(cov.pull(x), {"p+1": p + 1, "q+1": q + 1})
    assert f == {"p+1": 1, "q+1": 1}
    unit, f = divisor_pullback(cov.pull(y), {"p-1": p - 1, "q-1": q - 1})
    assert f == {"p-1": 1, "q-1": 1}


def test_case1_cover_form_properties():
    eta = build_case1_cover_form()
    assert eta.d().is_zero()
    swap = RationalMap("swap", B_PQ, B_PQ, ("p", "q"), ("p", "q"),
                       {"p": B_PQ.of(CTX_PQ.var("q")),
                        "q": B_PQ.of(CTX_PQ.var("p"))})
    assert swap.pull_one_form(eta) == -eta


def test_case1_flat_connection():
    cf = flat_case1_connection()
    assert cf.is_trace_free()
    assert is_flat(cf)
    # descent identities through the symmetric cover
    cov = map_symmetric_cover()
    eta = build_case1_cover_form()
    p, q = CTX_PQ.var("p"), CTX_PQ.var("q")
    half_over = FactoredFraction(B_PQ, CTX_PQ.const(Fraction(1, 2))) \
        * B_PQ.over(CTX_PQ.one(), p - q)
    assert cov.pull_one_form(cf.omega[1][0]) == eta * half_over
    assert cov.pull_one_form(cf.omega[0][1]) == eta * FactoredFraction(
        B_PQ, Fraction(1, 2) * (p - q))


def test_case1_transcription_is_not_flat():
    # known transcription defect, surfaced instead of patched
    assert not is_flat(case1_connection())
    assert case1_connection().is_trace_free()


def test_case1_flat_residues():
    cf = flat_case1_connection()
    charts = CASE1_DIVISORS
    expected = {"x": "1/2*lam0^1", "y": "1/2*lam1^1", "tangent-conic": "1/4"}
    for name, want in expected.items():
        rd = residue(cf, charts[name])
        assert rd.consistent, rd.notes
        vals = sorted(serialize_frac(e) for e in rd.eigenvalues)
        assert vals == sorted([want, "-" + want]), (name, vals)


def test_case1_flat_has_a_double_pole_at_infinity():
    rd = residue(flat_case1_connection(), CASE1_DIVISORS["infinity"])
    assert not rd.consistent
    assert rd.notes == ["entry (1,2): pole of order > 1 along infinity"]


def _one_call_residue_side(coeff, var, chart):
    """One side of a residue with a new substitution for the entry and
    another for the derivative."""
    f = coeff.ctx.var(chart.var) if chart.poly is None else chart.poly
    df = f.derivative(var)
    if df.is_zero():
        return None
    scaled = (coeff * f).reduce()
    return (Substitution(scaled.ctx, chart.subs, chart.target).fraction(scaled)
            * eval_poly(df, chart.subs, chart.target).inverse())


@pytest.mark.parametrize("build,charts", [
    (flat_quintic2_connection, QUINTIC2_DIVISORS),
    (quintic2_matrix_connection, QUINTIC2_DIVISORS),
    (quintic2_scaled_connection, QUINTIC2_DIVISORS),
    (flat_case1_connection, CASE1_DIVISORS),
    (case1_connection, CASE1_DIVISORS)],
    ids=["quintic2_flat", "quintic2_matrix", "quintic2_scaled", "case1_flat",
         "case1"])
def test_residue_kernel_matches_the_one_call_path(build, charts):
    """One substitution per chart gives, entry by entry, the residue that a
    new substitution per entry and side gives; an entry with a pole of
    higher order has no residue to compare."""
    conn = build()
    compared = 0
    for chart in charts.values():
        rd = residue(conn, chart)
        pulled = conn.pull_back(chart.chart) if chart.chart is not None else conn
        x, y = pulled.base_vars
        higher = {n.split(":")[0] for n in rd.notes if "order > 1" in n}
        for i in (0, 1):
            for j in (0, 1):
                if f"entry ({i + 1},{j + 1})" in higher:
                    continue
                w = pulled.omega[i][j]
                want = _one_call_residue_side(w.B, y, chart)
                if want is None:
                    want = _one_call_residue_side(w.A, x, chart)
                assert frac_eq(rd.matrix[i][j], want), (chart.name, i, j)
                compared += 1
    assert compared
