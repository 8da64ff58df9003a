"""Restriction of the quintic connection to generic lines and Garnier data.

A generic line is written ``x = a y + b`` with ``y`` the affine coordinate on
the line; the five punctures are then ``0, 1, t1, t2`` (the roots of
``a^2 y^2 + (2ab-1) y + b^2``) and infinity.  Eliminating ``b`` through
``c^2 = 1 - 4ab`` makes both roots rational:

    t1 = ((c-1)/2a)^2,   t2 = ((c+1)/2a)^2.

The restricted connection's lower-left coefficient assembles into a single
rational function with quadratic numerator whose normalized root sum and
product are the symmetrized solution coordinates ``S_q`` and ``P_q``.  The
reference formulas for ``S_q, P_q, S_p, gamma`` (and both quoted variants of
``t1, t2``) are transcribed verbatim and compared against the derived values
field by field; mismatches are reported with the derived correction, never
silently patched.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional

from .connections import MatConnection, flat_quintic2_connection
from .forms import ScalarOneForm
from .fractions import DenomBasis, FactoredFraction, frac_eq, serialize_frac
from .ring import LaurentPoly, Rat, VarContext, serialize_poly

# line context with both parametrizations
CTX_AB = VarContext(["y", "a", "b", "lam0", "lam1"])
_yab, _a, _b = CTX_AB.var("y"), CTX_AB.var("a"), CTX_AB.var("b")
Q_AB = _a ** 2 * _yab ** 2 + (2 * _a * _b - 1) * _yab + _b ** 2
B_AB = DenomBasis(CTX_AB, [_yab - 1, Q_AB], names=["y-1", "Q"])

CTX_AC = VarContext(["y", "a", "c", "lam0", "lam1"])
_yac, _aa, _c = CTX_AC.var("y"), CTX_AC.var("a"), CTX_AC.var("c")
_b_of_c = Fraction(1, 4) * (1 - _c ** 2) * _aa ** -1
Q_AC = Q_AB.substitute({"b": _b_of_c}, CTX_AC)
_l0, _l1 = CTX_AC.var("lam0"), CTX_AC.var("lam1")
B_AC = DenomBasis(CTX_AC, [
    _yac - 1, Q_AC, _l0 + _aa * _l1,
    _c - 1, _c + 1,
    2 * _aa + _c + 1, 2 * _aa + _c - 1,
    2 * _aa - _c + 1, 2 * _aa - _c - 1,
], names=["y-1", "Q", "lam0+a*lam1", "c-1", "c+1",
          "2a+c+1", "2a+c-1", "2a-c+1", "2a-c-1"])


class RestrictionError(ValueError):
    """The restriction hit a degenerate parameter or shape violation."""


@dataclass
class LineRestriction:
    """Connection and Riccati data of one generic-line restriction.

    ``matrix`` holds the dy-coefficients of the restricted connection;
    ``P2, P1, P0`` are the Riccati coefficients in the chart whose
    denominators factor as ``2 y (y-1) Q``.
    """

    mode: str                      # "ab" or "ac"
    basis: DenomBasis
    matrix: list[list[FactoredFraction]]
    P2: FactoredFraction
    P1: FactoredFraction
    P0: FactoredFraction
    denominator: LaurentPoly       # 2 y (y-1) Q

    def alphas(self) -> tuple[LaurentPoly, LaurentPoly, LaurentPoly]:
        """Numerators of (P2, P1, P0) over the common denominator."""
        return tuple(_clear(p, self.denominator)
                     for p in (self.P2, self.P1, self.P0))


def _clear(fr: FactoredFraction, denom: LaurentPoly) -> LaurentPoly:
    cleared = (fr * denom).reduce()
    if any(cleared.exps):
        raise RestrictionError("restricted coefficient does not divide the "
                               "declared denominator")
    return cleared.num


def restrict_to_line(conn: Optional[MatConnection] = None,
                     mode: str = "ab") -> LineRestriction:
    """Substitute ``x = a y + b`` (so ``dx = a dy``) into the connection.

    With ``mode='ac'`` the parameter ``b`` is eliminated via
    ``b = (1 - c^2)/(4a)``, which makes the two movable poles rational.
    """
    if conn is None:
        conn = flat_quintic2_connection()
    if mode == "ab":
        basis, images, q = B_AB, {"x": _a * _yab + _b}, Q_AB
    elif mode == "ac":
        basis, images, q = B_AC, {"x": _aa * _yac + _b_of_c}, Q_AC
    else:
        raise ValueError("mode is 'ab' or 'ac'")
    avar = basis.ctx.var("a")
    matrix = [[(w.A.substitute(images, basis) * avar
                + w.B.substitute(images, basis)).reduce() for w in row]
              for row in conn.omega]
    # fiber chart with denominators 2 y (y-1) Q: swap w -> -1/w of the
    # flat-section chart, i.e. (P2, P1, P0) = (m21, m11 - m22, -m12)
    P2 = matrix[1][0]
    P1 = matrix[0][0] - matrix[1][1]
    P0 = -matrix[0][1]
    yv = basis.ctx.var("y")
    denominator = 2 * yv * (yv - 1) * q
    return LineRestriction(mode, basis, matrix, P2, P1, P0, denominator)


def specialize_connection(conn: MatConnection,
                          values: Mapping[str, Rat]) -> MatConnection:
    """Substitute exact rational values for parameters (context unchanged)."""
    basis = conn.basis
    om = tuple(tuple(
        ScalarOneForm(basis, conn.base_vars, w.A.substitute(values, basis),
                      w.B.substitute(values, basis))
        for w in row) for row in conn.omega)
    return MatConnection(conn.name + "@", basis, conn.base_vars, om)


def pole_positions() -> tuple[LaurentPoly, LaurentPoly]:
    """The movable poles ``t1, t2`` in the (a, c) parameters."""
    t1 = Fraction(1, 4) * (_c - 1) ** 2 * _aa ** -2
    t2 = Fraction(1, 4) * (_c + 1) ** 2 * _aa ** -2
    return t1, t2


def pole_positions_at(a_val: Rat, c_val: Rat) -> tuple[Fraction, Fraction, list[str]]:
    """:func:`pole_positions` at rational ``(a, c)``, with a degeneracy note."""
    point = {"a": Fraction(a_val), "c": Fraction(c_val)}
    if point["a"] == 0:
        raise RestrictionError("a = 0 does not define a generic line")
    t1, t2 = (t.substitute(point).constant_value() for t in pole_positions())
    notes = []
    if len({Fraction(0), Fraction(1), t1, t2}) < 4:
        notes.append("degenerate line: movable pole meets a fixed puncture")
    return t1, t2, notes


def poles_factor_denominator() -> bool:
    """``Q = a^2 (y - t1)(y - t2)`` exactly."""
    t1, t2 = pole_positions()
    lhs = _aa ** 2 * (_yac - t1) * (_yac - t2)
    return lhs == Q_AC


@dataclass
class H21Data:
    """Lower-left residue assembly of the restricted connection."""

    leading: FactoredFraction      # c(t1, t2)
    S_q: FactoredFraction
    P_q: FactoredFraction
    numerator: LaurentPoly         # quadratic in y
    residue_at_infinity_vanishes: bool
    assembly_verified: bool


def h21_extract(rest: Optional[LineRestriction] = None) -> H21Data:
    """Extract the quadratic numerator data of the lower-left coefficient.

    Requires the rational-pole parametrization and a quadratic numerator.
    The lower-left residue at infinity vanishes when the four finite pole
    residues sum to zero (residue theorem); the same residues verify the
    partial-fraction assembly.
    """
    if rest is None:
        rest = restrict_to_line(mode="ac")
    if rest.mode != "ac":
        raise RestrictionError("extraction needs the rational-pole chart (mode='ac')")
    basis = rest.basis
    num = _clear(rest.matrix[1][0], rest.denominator)
    if num.max_exponent("y") > 2:
        raise RestrictionError("lower-left numerator degree is not 2")
    coeffs = num.coefficients_in("y")
    n2 = coeffs.get(2, basis.ctx.zero())
    n1 = coeffs.get(1, basis.ctx.zero())
    n0 = coeffs.get(0, basis.ctx.zero())
    if n2.is_zero():
        raise RestrictionError("lower-left numerator degree is not 2")
    n2f = FactoredFraction(basis, n2)
    inv_n2 = n2f.inverse()
    two_a2 = FactoredFraction(basis, 2 * basis.ctx.var("a") ** 2)
    leading = (n2f * two_a2.inverse()).reduce()
    S_q = (-FactoredFraction(basis, n1) * inv_n2).reduce()
    P_q = (FactoredFraction(basis, n0) * inv_n2).reduce()
    res_inf_zero, assembly = _residue_checks(rest, num)
    return H21Data(leading, S_q, P_q, num, res_inf_zero, assembly)


def _residue_checks(rest: LineRestriction, num: LaurentPoly) -> tuple[bool, bool]:
    """Residues of ``num / denominator`` at the four finite poles: whether
    they sum to zero (so the residue at infinity vanishes), and whether
    their partial fractions reassemble the lower-left coefficient exactly."""
    basis = rest.basis
    ctx = basis.ctx
    yv = ctx.var("y")
    t1, t2 = pole_positions()
    poles = [ctx.zero(), ctx.one(), t1, t2]
    ddenom = rest.denominator.derivative("y")
    res_sum = basis.zero()
    total = basis.zero()
    two_a2 = 2 * ctx.var("a") ** 2
    for i, p in enumerate(poles):
        n_at = FactoredFraction(basis, num.substitute({"y": p}))
        d_at = FactoredFraction(basis, ddenom.substitute({"y": p}))
        res = n_at * d_at.inverse()
        res_sum = res_sum + res
        other = ctx.one()
        for j, pj in enumerate(poles):
            if j != i:
                other = other * (yv - pj)
        total = total + res * FactoredFraction(basis, other * two_a2)
    return res_sum.is_zero(), frac_eq(total, FactoredFraction(basis, num))


# ---------------------------------------------------------------------------
# reference formulas and the agreement report

def reference_alphas() -> tuple[LaurentPoly, LaurentPoly, LaurentPoly]:
    """The quoted coefficient polynomials of the restricted Riccati form."""
    y, a, b = _yab, _a, _b
    l0, l1 = CTX_AB.var("lam0"), CTX_AB.var("lam1")
    alpha2 = ((l0 * a + l1 * a ** 2) * y ** 2
              + ((a - b) * l0 + (2 * a * b - 1) * l1) * y
              + l0 * b + l1 * b ** 2)
    alpha1 = (-(a ** 2) * y ** 3 + (a ** 2 - 2 * a * b + 1) * y ** 2
              + (2 * a * b - b ** 2 - 1) * y + b ** 2)
    alpha0 = (-(l0 * a + l1 * a ** 2) * y ** 3
              + ((a + b) * l0 + (1 - 2 * a * b) * l1) * y ** 2
              - (l0 * b + l1 * b ** 2) * y)
    return alpha2, alpha1, alpha0


def reference_garnier_fields() -> dict[str, FactoredFraction]:
    """The quoted (a, c) parametrization fields, transcribed verbatim."""
    a, c = _aa, _c
    l0, l1 = _l0, _l1
    i_l = 2   # lam0 + a lam1
    i_cm, i_cp = 3, 4
    i_pp, i_pm, i_mp, i_mm = 5, 6, 7, 8
    quarter = Fraction(1, 4)
    S_q = B_AC.of((1 - c ** 2 + 4 * a ** 2) * l0 + 2 * a * (c ** 2 + 1) * l1,
                  {i_l: 1}) * B_AC.of(quarter * a ** -2)
    P_q = B_AC.of(-(c - 1) * (c + 1) * (4 * a * l0 + (1 - c ** 2)),
                  {i_l: 1}) * B_AC.of(Fraction(1, 16) * a ** -3)
    P_q_repaired = B_AC.of(-(c - 1) * (c + 1) * (4 * a * l0 + (1 - c ** 2) * l1),
                           {i_l: 1}) * B_AC.of(Fraction(1, 16) * a ** -3)
    gamma = B_AC.of(8 * (1 + a) * a ** 3, {i_cm: 1, i_cp: 1, i_pp: 1, i_mp: 1}) \
        * B_AC.of((l0 + a * l1))
    S_p = B_AC.of(-(2 * a * (1 + 3 * a - c ** 2 + 4 * a ** 2
                            - 3 * a * c ** 2 + 4 * a ** 3) * l0
                    + (2 * a + 4 * a ** 2 + 2 * a * c ** 2) * l1),
                  {i_cm: 1, i_cp: 1, i_pp: 1, i_mp: 1})
    t1_45 = B_AC.of(quarter * (c - 1) ** 2)
    t2_45 = B_AC.of(quarter * (c + 1) ** 2)
    t1_44 = B_AC.of(quarter * (c - 1) ** 2 * a ** -2)
    t2_44 = B_AC.of(quarter * (c + 1) ** 2 * a ** -2)
    return {"S_q": S_q, "P_q": P_q, "P_q_repaired": P_q_repaired,
            "gamma": gamma, "S_p": S_p,
            "t1_45": t1_45, "t2_45": t2_45,
            "t1_44": t1_44, "t2_44": t2_44}


@dataclass
class GarnierData:
    t1: FactoredFraction
    t2: FactoredFraction
    S_q: FactoredFraction
    P_q: FactoredFraction
    S_p: FactoredFraction
    gamma: FactoredFraction


def garnier_parametrization() -> tuple[GarnierData, dict]:
    """Derived Garnier data plus the field-by-field agreement report.

    ``S_p`` and ``gamma`` have no independent derivation inside this library
    (the Hamiltonians live elsewhere); they are transcribed and checked for
    internal consistency only.
    """
    rest = restrict_to_line(mode="ac")
    h = h21_extract(rest)
    t1, t2 = pole_positions()
    refs = reference_garnier_fields()
    data = GarnierData(B_AC.of(t1), B_AC.of(t2), h.S_q, h.P_q,
                       refs["S_p"], refs["gamma"])
    report = {
        "t1": {
            "derived": serialize_frac(data.t1),
            "matches_44": frac_eq(data.t1, refs["t1_44"]),
            "matches_45": frac_eq(data.t1, refs["t1_45"]),
        },
        "t2": {
            "derived": serialize_frac(data.t2),
            "matches_44": frac_eq(data.t2, refs["t2_44"]),
            "matches_45": frac_eq(data.t2, refs["t2_45"]),
        },
        "S_q": {
            "derived": serialize_frac(data.S_q),
            "matches_45": frac_eq(data.S_q, refs["S_q"]),
        },
        "P_q": {
            "derived": serialize_frac(data.P_q),
            "matches_45": frac_eq(data.P_q, refs["P_q"]),
            "matches_45_repaired": frac_eq(data.P_q, refs["P_q_repaired"]),
        },
        "S_p": {"transcribed": serialize_frac(data.S_p)},
        "gamma": {"transcribed": serialize_frac(data.gamma)},
        "residue_at_infinity_vanishes": h.residue_at_infinity_vanishes,
        "assembly_verified": h.assembly_verified,
        "separant_nonzero": not (h.S_q * h.S_q - 4 * h.P_q).is_zero(),
    }
    return data, report


def alphas_report() -> dict:
    """Compare the restricted Riccati numerators with the quoted ones."""
    rest = restrict_to_line(mode="ab")
    a2, a1, a0 = rest.alphas()
    r2, r1, r0 = reference_alphas()
    delta2 = a2 - r2
    return {
        "alpha2": {"matches": a2 == r2,
                   "derived": serialize_poly(a2),
                   "delta_vs_reference": serialize_poly(delta2)},
        "alpha1": {"matches": a1 == r1, "derived": serialize_poly(a1)},
        "alpha0": {"matches": a0 == r0, "derived": serialize_poly(a0)},
    }


def parity_invariance(data: GarnierData) -> dict[str, bool]:
    """All fields are invariant under ``c -> -c`` combined with ``t1 <-> t2``."""
    flip = {"c": -_c}
    out = {}
    for name, val in [("S_q", data.S_q), ("P_q", data.P_q),
                      ("S_p", data.S_p), ("gamma", data.gamma)]:
        out[name] = frac_eq(val.substitute(flip), val)
    out["t_swap"] = (frac_eq(data.t1.substitute(flip), data.t2)
                     and frac_eq(data.t2.substitute(flip), data.t1))
    return out
