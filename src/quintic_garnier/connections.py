"""Logarithmic flat connections on the plane: catalog and verification tools.

A :class:`MatConnection` stores the matrix of one-forms of ``d + omega`` (so
items quoted with a global minus sign are stored negated).  The module
provides exact curvature, residues with eigenvalue extraction,
projectivization to a Riccati form, Riccati pullback under rational maps
with a Moebius fiber action, and divisor pullback factorization.

The polar locus of each catalog quintic is declared once, as a table of
residue charts: :data:`QUINTIC2_DIVISORS` (y, y-1, the conic, the line at
infinity) and :data:`CASE1_DIVISORS` (x, y, the tangent conic, the line at
infinity).

Two transcription variants of the quintic-polar connection are kept in the
catalog (``quintic2_matrix`` and ``quintic2_scaled``); both carry known
defects, so the ground truth is :func:`flat_representative`, the connection
rebuilt from the covering construction.  It is flat, its residues are
logarithmic and consistent, and its projectivization pulls back to the
diagonal Riccati form upstairs.  The discrepancy report records entrywise
where each catalog variant differs from it.

Projectivization convention: for ``d + omega`` in the fiber chart carried by
flat sections, the Riccati form is

    dw + P2 w^2 + P1 w + P0,   P2 = -omega12, P1 = omega22 - omega11,
                               P0 = omega21.

This is the unique choice under which a diagonal connection
``d + diag(h, -h)`` projectivizes to ``dw - 2h w`` and the covering chain of
this catalog closes exactly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from .forms import MobiusAction, RationalMap, ScalarOneForm, ScalarTwoForm
from .fractions import (BasisError, DenomBasis, FactoredFraction,
                        Substitution, frac_eq, serialize_frac)
from .ring import ContextError, LaurentPoly, UnitError, VarContext

# ---------------------------------------------------------------------------
# contexts and denominator bases

CTX_UV = VarContext(["u", "v", "lam0", "lam1"])
CTX_XY = VarContext(["x", "y", "lam0", "lam1"])
CTX_INF = VarContext(["xt", "yt", "lam0", "lam1"])

_u, _v, _uv_l0, _uv_l1 = (CTX_UV.var(n) for n in CTX_UV.names)
_x, _y, _l0, _l1 = (CTX_XY.var(n) for n in CTX_XY.names)
_xt, _yt = CTX_INF.var("xt"), CTX_INF.var("yt")

B_UV = DenomBasis(CTX_UV, [_u - 1, _u + 1, _v - 1, _v + 1, _u - _v, _u + _v],
                  names=["u-1", "u+1", "v-1", "v+1", "u-v", "u+v"])
_UM1, _UP1, _VM1, _VP1, _UMV, _UPV = range(6)   # factor indices of B_UV
B_XY = DenomBasis(CTX_XY, [_y - 1, _x ** 2 - _y], names=["y-1", "conic"])
B_INF = DenomBasis(CTX_INF, [_yt - _xt, 1 - _xt * _yt],
                   names=["yt-xt", "conic-inf"])

_dc = (_x ** 2 + _y ** 2 + 1 - 2 * _x * _y - 2 * _x - 2 * _y)
B_CASE1 = DenomBasis(CTX_XY, [_dc], names=["tangent-conic"])
_dc_inf = (_xt ** 2 + _yt ** 2 + 1 - 2 * _xt * _yt - 2 * _xt - 2 * _yt)
B_C1INF = DenomBasis(CTX_INF, [_dc_inf], names=["tangent-conic-inf"])


# ---------------------------------------------------------------------------
# connection and Riccati containers

FormMatrix = tuple[tuple[ScalarOneForm, ScalarOneForm],
                   tuple[ScalarOneForm, ScalarOneForm]]


class MatConnection:
    """``d + omega`` with a 2x2 matrix of one-forms."""

    __slots__ = ("name", "basis", "base_vars", "omega")

    def __init__(self, name: str, basis: DenomBasis, base_vars: tuple[str, str],
                 omega: FormMatrix):
        self.name = name
        self.basis = basis
        self.base_vars = base_vars
        self.omega = omega

    def trace_form(self) -> ScalarOneForm:
        return self.omega[0][0] + self.omega[1][1]

    def is_trace_free(self) -> bool:
        return self.trace_form().is_zero()

    def pull_back(self, phi: RationalMap) -> "MatConnection":
        om = tuple(tuple(phi.pull_one_form(w) for w in row) for row in self.omega)
        return MatConnection(f"{phi.name}*{self.name}", phi.src,
                             phi.src_base, om)

    def __repr__(self):
        return f"MatConnection({self.name})"


class RiccatiForm:
    """``dw + P2 w^2 + P1 w + P0`` in the fiber coordinate ``w``."""

    __slots__ = ("name", "basis", "base_vars", "P2", "P1", "P0")

    def __init__(self, name: str, basis: DenomBasis, base_vars: tuple[str, str],
                 P2: ScalarOneForm, P1: ScalarOneForm, P0: ScalarOneForm):
        self.name = name
        self.basis = basis
        self.base_vars = base_vars
        self.P2, self.P1, self.P0 = P2, P1, P0

    def __eq__(self, other):
        if not isinstance(other, RiccatiForm):
            return NotImplemented
        return (self.P2 == other.P2 and self.P1 == other.P1
                and self.P0 == other.P0)

    def __repr__(self):
        return f"RiccatiForm({self.name})"


# ---------------------------------------------------------------------------
# matrix-of-forms helpers

def _fraction_entries(g, basis: DenomBasis) -> tuple[list, list]:
    """The entries of ``g`` and of ``g^-1`` as fractions over ``basis``."""
    return tuple([[FactoredFraction(basis, m.a), FactoredFraction(basis, m.b)],
                  [FactoredFraction(basis, m.c), FactoredFraction(basis, m.d)]]
                 for m in (g, g.inverse()))


def mat_curvature(conn: MatConnection) -> tuple[tuple[ScalarTwoForm, ...], ...]:
    """``d omega + omega ^ omega``, entry by entry."""
    om = conn.omega
    out = []
    for i in (0, 1):
        row = []
        for j in (0, 1):
            val = om[i][j].d()
            for k in (0, 1):
                val = val + om[i][k].wedge(om[k][j])
            row.append(val)
        out.append(tuple(row))
    return tuple(out)


def is_flat(conn: MatConnection) -> bool:
    return all(entry.is_zero() for row in mat_curvature(conn) for entry in row)


def gauge_transform(conn: MatConnection, g) -> MatConnection:
    """``omega -> g^-1 omega g + g^-1 dg`` for a unimodular scalar matrix."""
    basis, bv = conn.basis, conn.base_vars
    ge, gi = _fraction_entries(g, basis)
    dg = [[ScalarOneForm.d_of(ge[i][j], bv) for j in (0, 1)] for i in (0, 1)]
    out = []
    for i in (0, 1):
        row = []
        for j in (0, 1):
            val = ScalarOneForm.zero(basis, bv)
            for k in (0, 1):
                for l in (0, 1):
                    val = val + conn.omega[k][l] * (gi[i][k] * ge[l][j])
                val = val + dg[k][j] * gi[i][k]
            row.append(val)
        out.append(tuple(row))
    return MatConnection(conn.name + "-gauge", basis, bv, tuple(out))


def conjugate_two_forms(curv, g, basis) -> tuple:
    """``g^-1 F g`` for a curvature matrix (two-form entries)."""
    ge, gi = _fraction_entries(g, basis)
    out = []
    for i in (0, 1):
        row = []
        for j in (0, 1):
            coeff = basis.zero()
            for k in (0, 1):
                for l in (0, 1):
                    coeff = coeff + gi[i][k] * curv[k][l].coeff * ge[l][j]
            row.append(ScalarTwoForm(basis, curv[0][0].base_vars, coeff))
        out.append(tuple(row))
    return tuple(out)


# ---------------------------------------------------------------------------
# residues

@dataclass
class DivisorChart:
    """A polar divisor with a rational chart of the divisor itself.

    ``subs`` substitutes the cut variable (solving ``poly = 0``), carrying
    fractions into ``target``; :attr:`chart` optionally transforms the whole
    connection first (used for the line at infinity).  It is built by
    ``build_chart`` on first read, so importing the catalog builds no map.
    """

    name: str
    poly: Optional[LaurentPoly]      # None: monomial divisor `var`
    var: str                         # variable with nonzero partial, solved
    subs: dict
    target: DenomBasis
    build_chart: Optional[Callable[[], RationalMap]] = None

    @functools.cached_property
    def chart(self) -> Optional[RationalMap]:
        return None if self.build_chart is None else self.build_chart()


@dataclass
class ResidueData:
    divisor: str
    matrix: list[list[FactoredFraction]]
    eigenvalues: Optional[tuple[FactoredFraction, FactoredFraction]]
    charpoly: Optional[dict]
    consistent: bool
    notes: list[str] = field(default_factory=list)

    def as_dict(self) -> dict:
        out = {
            "divisor": self.divisor,
            "residue": [serialize_frac(e) for row in self.matrix for e in row],
            "consistent": self.consistent,
            "notes": list(self.notes),
        }
        if self.eigenvalues is not None:
            out["eigenvalues"] = [serialize_frac(e) for e in self.eigenvalues]
        if self.charpoly is not None:
            out["charpoly"] = {k: serialize_frac(f) for k, f in self.charpoly.items()}
        return out


def _sqrt_fraction(f: FactoredFraction) -> Optional[FactoredFraction]:
    """Square root of a monomial square, if one exists over the basis."""
    r = f.reduce()
    if r.is_zero():
        return r
    if not r.num.is_monomial():
        return None
    exps, coeff = r.num.monomial_term()
    if any(e % 2 for e in exps) or any(e % 2 for e in r.exps):
        return None
    num_c, den_c = coeff.numerator, coeff.denominator
    if num_c < 0:
        return None
    rn, rd = math.isqrt(num_c), math.isqrt(den_c)
    if rn * rn != num_c or rd * rd != den_c:
        return None
    half = r.basis.ctx.monomial(Fraction(rn, rd),
                                {n: e // 2 for n, e in
                                 zip(r.basis.ctx.names, exps)})
    return FactoredFraction(r.basis, half, tuple(e // 2 for e in r.exps))


def _residue_side(coeff: FactoredFraction, var: str, chart: DivisorChart,
                  at: Substitution
                  ) -> tuple[Optional[FactoredFraction], Optional[str]]:
    """Residue via the ``d var`` coefficient of one entry, evaluated along
    the chart by its kernel ``at``; returns (value, error-note)."""
    basis = coeff.basis
    f_poly = basis.ctx.var(chart.var) if chart.poly is None else chart.poly
    df = f_poly.derivative(var)
    if df.is_zero():
        return None, None  # side undefined
    scaled = (coeff * f_poly).reduce()
    # pole order check: no remaining power of the divisor may survive
    if chart.poly is None:
        if not scaled.is_zero() and scaled.num.min_exponent(chart.var) < 0:
            return None, f"pole of order > 1 along {chart.name}"
    else:
        idx = [i for i, g in enumerate(basis.factors) if g == chart.poly]
        if idx and scaled.exps[idx[0]] > 0:
            return None, f"pole of order > 1 along {chart.name}"
    try:
        return at.fraction(scaled) * at.poly(df).inverse(), None
    except (BasisError, ContextError, UnitError) as exc:
        return None, f"restriction failed along {chart.name}: {exc}"


def residue(conn: MatConnection, chart: DivisorChart) -> ResidueData:
    """Residue matrix along a divisor, from both components where defined.

    The dx- and dy-derived values must agree wherever both are defined
    (logarithmicity); disagreement or a higher-order pole clears the
    consistency flag.  One substitution evaluates every entry on the chart.
    """
    if chart.chart is not None:
        conn = conn.pull_back(chart.chart)
    at = Substitution(conn.basis.ctx, chart.subs, chart.target)
    x, y = conn.base_vars
    notes: list[str] = []
    consistent = True
    matrix: list[list[FactoredFraction]] = []
    for i in (0, 1):
        row = []
        for j in (0, 1):
            vx, ex = _residue_side(conn.omega[i][j].A, x, chart, at)
            vy, ey = _residue_side(conn.omega[i][j].B, y, chart, at)
            for err in (ex, ey):
                if err:
                    notes.append(f"entry ({i + 1},{j + 1}): {err}")
                    consistent = False
            if vx is not None and vy is not None:
                if not frac_eq(vx, vy):
                    notes.append(f"entry ({i + 1},{j + 1}): dx/dy residues disagree")
                    consistent = False
            val = vy if vy is not None else vx
            if val is None:
                val = chart.target.zero()
            row.append(val)
        matrix.append(row)
    eig, charpoly = _eigenvalues(matrix)
    return ResidueData(chart.name, matrix, eig, charpoly, consistent, notes)


def _eigenvalues(m):
    a, b = m[0][0], m[0][1]
    c, d = m[1][0], m[1][1]
    if b.is_zero() or c.is_zero():
        return (a, d), None
    if a.is_zero() and d.is_zero():
        root = _sqrt_fraction(b * c)
        if root is not None:
            return (root, -root), None
    trace = a + d
    det = a * d - b * c
    if trace.is_zero():
        root = _sqrt_fraction(-det)
        if root is not None:
            return (root, -root), None
    return None, {"trace": trace, "det": det}


# ---------------------------------------------------------------------------
# projectivization and Riccati pullback

def riccati_of_connection(conn: MatConnection) -> RiccatiForm:
    """Fiber chart on flat sections: P2 = -w12, P1 = w22 - w11, P0 = w21."""
    om = conn.omega
    return RiccatiForm("P(" + conn.name + ")", conn.basis, conn.base_vars,
                       -om[0][1], om[1][1] - om[0][0], om[1][0])


def pullback_riccati(ric: RiccatiForm, phi: RationalMap) -> RiccatiForm:
    """Base substitution plus Moebius fiber change, renormalized to monic dw.

    For ``w = (p w' + q)/(r w' + t)`` with base-dependent coefficients the
    new coefficients pick up derivative terms of p, q, r, t.
    """
    base = phi.src_base
    P2 = phi.pull_one_form(ric.P2)
    P1 = phi.pull_one_form(ric.P1)
    P0 = phi.pull_one_form(ric.P0)
    mob = phi.fiber
    if mob is None:
        return RiccatiForm(f"{phi.name}*{ric.name}", phi.src, base,
                           P2, P1, P0)
    p, q, r, t = mob.p, mob.q, mob.r, mob.t
    den = mob.determinant().inverse()
    dp = ScalarOneForm.d_of(p, base)
    dq = ScalarOneForm.d_of(q, base)
    dr = ScalarOneForm.d_of(r, base)
    dt = ScalarOneForm.d_of(t, base)
    new2 = (dp * r - dr * p + P2 * (p * p) + P1 * (p * r) + P0 * (r * r)) * den
    new1 = (dq * r + dp * t - dt * p - dr * q
            + P2 * (2 * p * q) + P1 * (p * t + q * r) + P0 * (2 * r * t)) * den
    new0 = (dq * t - dt * q + P2 * (q * q) + P1 * (q * t) + P0 * (t * t)) * den
    return RiccatiForm(f"{phi.name}*{ric.name}", phi.src, base,
                       new2, new1, new0)


# ---------------------------------------------------------------------------
# catalog: scalar one-forms and maps of the covering construction

def _one(basis, base, A=None, B=None) -> ScalarOneForm:
    return ScalarOneForm(basis, base,
                         A if A is not None else basis.zero(),
                         B if B is not None else basis.zero())


def build_omega0() -> ScalarOneForm:
    A = B_UV.of(_uv_l0, {_UM1: 1}) - B_UV.of(_uv_l0, {_UP1: 1})
    B = B_UV.of(_uv_l1, {_VM1: 1}) - B_UV.of(_uv_l1, {_VP1: 1})
    return _one(B_UV, ("u", "v"), A, B)


def build_omega1() -> ScalarOneForm:
    A = B_UV.of(_uv_l0, {_UMV: 1}) - B_UV.of(_uv_l0, {_UPV: 1})
    B = (B_UV.of(_uv_l0 * _u * _v ** -1, {_UPV: 1})
         - B_UV.of(_uv_l0 * _u * _v ** -1, {_UMV: 1})
         + B_UV.of(_uv_l1, {_VM1: 1}) - B_UV.of(_uv_l1, {_VP1: 1}))
    return _one(B_UV, ("u", "v"), A, B)


def build_riccati1() -> RiccatiForm:
    w1 = build_omega1()
    z = _one(B_UV, ("u", "v"))
    return RiccatiForm("riccati1", B_UV, ("u", "v"), z, -w1, z)


def diagonal_cover_connection() -> MatConnection:
    """``d + (1/2) diag(omega0, -omega0)`` on the product of two lines."""
    w0 = build_omega0()
    half = B_UV.const(Fraction(1, 2))
    z = _one(B_UV, ("u", "v"))
    return MatConnection("cover-diagonal", B_UV, ("u", "v"),
                         ((w0 * half, z), (z, w0 * (-half))))


def map_cover() -> RationalMap:
    """Affine double cover (u, v) -> (x, y) = (u, v^2)."""
    return RationalMap("cover", B_UV, B_XY, ("u", "v"), ("x", "y"),
                       {"x": B_UV.of(_u), "y": B_UV.of(_v ** 2)})


def map_elementary() -> RationalMap:
    """Elementary transform (u, v) -> (uv, v)."""
    return RationalMap("elementary", B_UV, B_UV, ("u", "v"), ("u", "v"),
                       {"u": B_UV.of(_u * _v), "v": B_UV.of(_v)})


def map_involution() -> RationalMap:
    """Deck involution (u, v, w) -> (u, -v, 1/w) of the covering chain."""
    fiber = MobiusAction(B_UV.zero(), B_UV.one(), B_UV.one(), B_UV.zero())
    return RationalMap("involution", B_UV, B_UV, ("u", "v"), ("u", "v"),
                       {"u": B_UV.of(_u), "v": B_UV.of(-_v)}, fiber=fiber)


def map_cover_bar() -> RationalMap:
    """Cover extended to the projectivized bundle.

    Base (u, v) -> (u, v^2); fiber ``w_plane = (1 - w)/(v (1 + w))``, i.e.
    Moebius coefficients (-1, 1, v, v).
    """
    fiber = MobiusAction(B_UV.const(-1), B_UV.one(), B_UV.of(_v), B_UV.of(_v))
    return RationalMap("cover_bar", B_UV, B_XY, ("u", "v"), ("x", "y"),
                       {"x": B_UV.of(_u), "y": B_UV.of(_v ** 2)}, fiber=fiber)


def map_infinity_chart(src: DenomBasis, dst: DenomBasis) -> RationalMap:
    """Chart at infinity (xt, yt) -> (x, y) = (1/xt, yt/xt), from a basis
    over ``CTX_INF`` to one over ``CTX_XY``."""
    return RationalMap("inf-chart", src, dst, ("xt", "yt"), ("x", "y"),
                       {"x": FactoredFraction(src, _xt ** -1),
                        "y": FactoredFraction(src, _yt * _xt ** -1)})


# ---------------------------------------------------------------------------
# symmetric double cover for the conic-with-tangents quintic

CTX_PQ = VarContext(["p", "q", "lam0", "lam1"])
_p, _q = CTX_PQ.var("p"), CTX_PQ.var("q")
B_PQ = DenomBasis(CTX_PQ, [_p - 1, _p + 1, _q - 1, _q + 1, _p - _q],
                  names=["p-1", "p+1", "q-1", "q+1", "p-q"])


def build_case1_cover_form() -> ScalarOneForm:
    """Anti-invariant logarithmic form on the symmetric square cover.

    Poles along p = +-1 and q = +-1; flips sign under the factor swap."""
    l0 = CTX_PQ.var("lam0")
    l1 = CTX_PQ.var("lam1")
    A = B_PQ.of(l0, {1: 1}) + B_PQ.of(l1, {0: 1})
    B = B_PQ.of(-l0, {3: 1}) + B_PQ.of(-l1, {2: 1})
    return ScalarOneForm(B_PQ, ("p", "q"), A, B)


def map_symmetric_cover() -> RationalMap:
    """(p, q) -> (x, y) = ((p+1)(q+1)/4, (p-1)(q-1)/4).

    Quotient by the factor swap; the branch locus is the tangent conic,
    whose pullback is the squared diagonal.
    """
    quarter = Fraction(1, 4)
    return RationalMap("sym-cover", B_PQ, B_CASE1, ("p", "q"), ("x", "y"),
                       {"x": B_PQ.of(quarter * (_p + 1) * (_q + 1)),
                        "y": B_PQ.of(quarter * (_p - 1) * (_q - 1))})


def flat_case1_connection() -> MatConnection:
    """Derived two-parameter family on the conic-with-tangents quintic.

    Pushed down from ``d + (1/2) diag(eta, -eta)`` on the cover in the frame
    ``(e1 + e2, (p - q)(e1 - e2))``; flat by construction and logarithmic
    along the affine polar components x, y and the conic.  The frame leaves a
    double pole on the line at infinity, which the residue along
    ``CASE1_DIVISORS["infinity"]`` reports (pinned in
    ``tests/test_connections.py``).
    """
    s = _x + _y - 1
    # eta / (2(p-q)) descends to:
    cA = B_CASE1.of(Fraction(1, 4) * _l0 * s * _x ** -1
                    + Fraction(1, 2) * _l1, {0: 1})
    cB = B_CASE1.of(-Fraction(1, 2) * _l0
                    - Fraction(1, 4) * _l1 * s * _y ** -1, {0: 1})
    C = ScalarOneForm(B_CASE1, ("x", "y"), cA, cB)
    # (p-q) eta / 2 descends to 4 * conic * C:
    Bf = ScalarOneForm(B_CASE1, ("x", "y"),
                       B_CASE1.of(_l0 * s * _x ** -1 + 2 * _l1),
                       B_CASE1.of(-2 * _l0 - _l1 * s * _y ** -1))
    theta_A = B_CASE1.of(Fraction(1, 4) * _dc.derivative("x"), {0: 1})
    theta_B = B_CASE1.of(Fraction(1, 4) * _dc.derivative("y"), {0: 1})
    theta = ScalarOneForm(B_CASE1, ("x", "y"), theta_A, theta_B)
    return MatConnection("case1_flat", B_CASE1, ("x", "y"),
                         ((-theta, Bf), (C, theta)))


# homogeneous models for the divisor identities through the line at infinity:
# substitutions of monomials, so their images have no denominator
CTX_UVH = VarContext(["u0", "u1", "v0", "v1"])
CTX_XYH = VarContext(["X", "Y", "Z"])
_u0, _u1, _v0, _v1 = (CTX_UVH.var(n) for n in ("u0", "u1", "v0", "v1"))
B_UVH = DenomBasis(CTX_UVH, [])


def cover_homogeneous() -> Substitution:
    """[(u0:u1), (v0:v1)] -> [u0 v1^2 : u1 v0^2 : u1 v1^2]."""
    return Substitution(CTX_XYH, {"X": _u0 * _v1 ** 2, "Y": _u1 * _v0 ** 2,
                                  "Z": _u1 * _v1 ** 2}, B_UVH)


def elementary_homogeneous() -> Substitution:
    """[(u0:u1), (v0:v1)] -> [(u0 v0 : u1 v1), (v0 : v1)]."""
    return Substitution(CTX_UVH, {"u0": _u0 * _v0, "u1": _u1 * _v1}, B_UVH)


# ---------------------------------------------------------------------------
# catalog: the plane connections

def lower_left_form() -> ScalarOneForm:
    """The derived lower-left entry: the one-form pushed down from half of
    the diagonal cover form, divided by the odd coordinate."""
    A = B_XY.of(_l0, {1: 1})                       # lam0 / (x^2 - y)
    B = (B_XY.of(-Fraction(1, 2) * _l0 * _x * _y ** -1, {1: 1})
         + B_XY.of(Fraction(1, 2) * _l1 * _y ** -1, {0: 1}))
    return _one(B_XY, ("x", "y"), A, B)


def flat_quintic2_connection() -> MatConnection:
    """The corrected quintic-polar connection: flat by construction."""
    C = lower_left_form()
    yC = C * B_XY.of(_y)
    quarter = B_XY.of(-Fraction(1, 4) * _y ** -1)
    w11 = _one(B_XY, ("x", "y"), None, quarter)
    w22 = _one(B_XY, ("x", "y"), None, -quarter)
    return MatConnection("quintic2_flat", B_XY, ("x", "y"),
                         ((w11, yC), (C, w22)))


def quintic2_matrix_connection() -> MatConnection:
    """Catalog variant quoted directly as a matrix of logarithmic forms."""
    w11 = _one(B_XY, ("x", "y"), None, B_XY.of(-Fraction(1, 4) * _y ** -1))
    w22 = _one(B_XY, ("x", "y"), None, B_XY.of(Fraction(1, 4) * _y ** -1))
    w12 = _one(B_XY, ("x", "y"),
               B_XY.of(-_l0 * _y, {1: 1}),
               B_XY.of(Fraction(1, 2) * _l0 * _x * _y ** -1, {1: 1})
               - B_XY.of(Fraction(1, 2) * _l1, {0: 1}))
    w21 = _one(B_XY, ("x", "y"),
               B_XY.of(_l0, {1: 1}),
               B_XY.of(_l0 * _x * _y ** -1, {1: 1})
               - B_XY.of(Fraction(1, 2) * _l1 * _y ** -1, {0: 1}))
    return MatConnection("quintic2_matrix", B_XY, ("x", "y"),
                         ((w11, w12), (w21, w22)))


def quintic2_scaled_connection() -> MatConnection:
    """Catalog variant quoted as ``d - Omega / (y (y-1) (x^2-y))``."""
    def over_q(dx_num, dy_num) -> ScalarOneForm:
        A = B_XY.over(dx_num * _y ** -1, _y - 1, _x ** 2 - _y).reduce()
        B = B_XY.over(dy_num * _y ** -1, _y - 1, _x ** 2 - _y).reduce()
        return _one(B_XY, ("x", "y"), A, B)

    # omega = -Omega/q, entered entrywise (q = y (y-1) (x^2-y))
    om11 = over_q(CTX_XY.zero(),
                  Fraction(1, 4) * (_y - 1) * (_x ** 2 - _y) * _y ** -1)
    om12 = over_q(_l0 * _y ** 2 * (_y - 1),
                  Fraction(1, 2) * _y * (_l0 * _x * (1 - _y) + _l1 * (_x ** 2 - _y)))
    om21 = over_q(_l0 * _y * (_y - 1),
                  Fraction(1, 2) * (_l0 * _x * (1 - _y) + _l1 * (_x ** 2 - _y)))
    om22 = over_q(CTX_XY.zero(),
                  -Fraction(1, 4) * (_y - 1) * (_x ** 2 - _y) * _y ** -1)
    return MatConnection("quintic2_scaled", B_XY, ("x", "y"),
                         ((om11, om12), (om21, om22)))


def riccati_plane_catalog() -> RiccatiForm:
    """The quoted plane Riccati form (transcribed with its defects)."""
    P2 = _one(B_XY, ("x", "y"),
              B_XY.of(_l0, {1: 1}),
              B_XY.of(_l0 * _x * _y ** -1, {1: 1})
              - B_XY.of(Fraction(1, 2) * _l1 * _y ** -1, {0: 1}))
    P1 = _one(B_XY, ("x", "y"), None, B_XY.of(-Fraction(1, 2) * _y ** -1))
    P0 = _one(B_XY, ("x", "y"),
              B_XY.of(-_l0 * _y, {1: 1}),
              B_XY.of(Fraction(1, 2) * _l0 * _x * _y ** -1, {1: 1})
              - B_XY.of(Fraction(1, 2) * _l1, {0: 1}))
    return RiccatiForm("riccati_plane", B_XY, ("x", "y"), P2, P1, P0)


def case1_connection() -> MatConnection:
    """The two-parameter family on the conic-with-tangents quintic."""
    def form(dx_num: LaurentPoly, dy_num: LaurentPoly) -> ScalarOneForm:
        return ScalarOneForm(B_CASE1, ("x", "y"),
                             B_CASE1.of(dx_num, {0: 1}),
                             B_CASE1.of(dy_num, {0: 1}))

    half = Fraction(1, 2)
    a0_11 = form(2 * (_x - 1) * _y, (_x ** 2 + _x * (_y - 2) - _y + 1) * _x * _y ** -1)
    a0_12 = form(2 * (2 * _x - _y + 2) * _y,
                 (2 * _x ** 2 + _y * (_x - _y + 3) - 2) * _x * _y ** -1)
    a0_21 = form(-2 * _y ** 2, (_x + _y - 1) * _x ** 2 * _y ** -1)
    a1_11 = form((_x ** 2 + (_x - 1) * (_y - 1)) * _y * _x ** -1, 2 * (_x - 1) * _x)
    a1_12 = form((_x ** 2 + _y * (_x - _y + 3) - 2) * _y * _x ** -1,
                 2 * (2 * _x - _y + 2) * _x)
    a1_21 = form(-(_x + _y - 1) * _y ** 2 * _x ** -1, -2 * _x ** 2)
    a2_11 = form(-(_x + _y + 1) * _y,
                 -(_x ** 2 - _x * (_y + 2) - _y + 1) * _x * _y ** -1)
    a2_12 = form(-2 * (_x - _y + 3) * _y,
                 -(_x ** 2 - 2 * _y * (_x + 1) + 1) * _x * _y ** -1)
    a2_21 = ScalarOneForm.zero(B_CASE1, ("x", "y"))

    l0f = B_CASE1.of(_l0)
    l1f = B_CASE1.of(_l1)
    mhalf = B_CASE1.const(-half)

    def entry(a0, a1, a2) -> ScalarOneForm:
        return (a0 * l0f + a1 * l1f + a2) * mhalf

    w11 = entry(a0_11, a1_11, a2_11)
    w12 = entry(a0_12, a1_12, a2_12)
    w21 = entry(a0_21, a1_21, a2_21)
    w22 = -w11
    return MatConnection("case1", B_CASE1, ("x", "y"),
                         ((w11, w12), (w21, w22)))


# ---------------------------------------------------------------------------
# residue charts: each polar component of the catalog connections with a
# rational parametrization, over one context per curve coordinate

CTX_X = VarContext(["x", "lam0", "lam1"])
CTX_Y = VarContext(["y", "lam0", "lam1"])
CTX_T = VarContext(["t", "lam0", "lam1"])
CTX_YT = VarContext(["yt", "lam0", "lam1"])
_xc, _yc = CTX_X.var("x"), CTX_Y.var("y")
_tc, _ytc = CTX_T.var("t"), CTX_YT.var("yt")
_B_XC = DenomBasis(CTX_X, [_xc - 1, _xc + 1], names=["x-1", "x+1"])

QUINTIC2_DIVISORS: dict[str, DivisorChart] = {
    "y": DivisorChart("y", None, "y", {"y": CTX_X.zero()}, _B_XC),
    "y-1": DivisorChart("y-1", _y - 1, "y", {"y": CTX_X.one()}, _B_XC),
    "conic": DivisorChart("conic", _x ** 2 - _y, "y", {"y": _xc ** 2}, _B_XC),
    "infinity": DivisorChart("infinity", None, "xt", {"xt": CTX_YT.zero()},
                             DenomBasis(CTX_YT, []),
                             functools.partial(map_infinity_chart, B_INF, B_XY)),
}

CASE1_DIVISORS: dict[str, DivisorChart] = {
    "x": DivisorChart("x", None, "x", {"x": CTX_Y.zero()},
                      DenomBasis(CTX_Y, [_yc - 1], names=["y-1"])),
    "y": DivisorChart("y", None, "y", {"y": CTX_X.zero()},
                      DenomBasis(CTX_X, [_xc - 1], names=["x-1"])),
    # rational parametrization of the tangent conic
    "tangent-conic": DivisorChart(
        "tangent-conic", _dc, "y",
        {"x": Fraction(1, 4) * (_tc + 1) ** 2,
         "y": Fraction(1, 4) * (_tc - 1) ** 2},
        DenomBasis(CTX_T, [_tc - 1, _tc + 1], names=["t-1", "t+1"])),
    "infinity": DivisorChart("infinity", None, "xt", {"xt": CTX_YT.zero()},
                             DenomBasis(CTX_YT, [_ytc - 1], names=["yt-1"]),
                             functools.partial(map_infinity_chart, B_C1INF, B_CASE1)),
}


# ---------------------------------------------------------------------------
# the flat representative report

def _compare_entry(a: ScalarOneForm, b: ScalarOneForm) -> dict:
    return {"dx": frac_eq(a.A, b.A), "dy": frac_eq(a.B, b.B)}


def flat_representative() -> tuple[MatConnection, dict]:
    """The corrected quintic connection plus the discrepancy report.

    The report lists, entry by entry, where the two catalog variants (and
    the quoted plane Riccati form) differ from the derived representative.
    """
    rep = flat_quintic2_connection()
    report: dict = {"variants": {}}
    labels = ("11", "12", "21", "22")
    for variant in (quintic2_matrix_connection(), quintic2_scaled_connection()):
        entries = {}
        for i in (0, 1):
            for j in (0, 1):
                entries[labels[2 * i + j]] = _compare_entry(
                    rep.omega[i][j], variant.omega[i][j])
        report["variants"][variant.name] = {
            "entries": entries,
            "matches": all(v["dx"] and v["dy"] for v in entries.values()),
        }
    derived_ric = riccati_of_connection(rep)
    quoted_ric = riccati_plane_catalog()
    report["riccati_plane"] = {
        "P2": _compare_entry(derived_ric.P2, quoted_ric.P2),
        "P1": _compare_entry(derived_ric.P1, quoted_ric.P1),
        "P0": _compare_entry(derived_ric.P0, quoted_ric.P0),
    }
    report["riccati_plane"]["matches"] = all(
        v["dx"] and v["dy"] for k, v in report["riccati_plane"].items()
        if isinstance(v, dict))
    return rep, report
