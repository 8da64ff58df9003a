"""Rational differential forms on a two-dimensional base, and rational maps.

A :class:`ScalarOneForm` is ``A dX + B dY`` with :class:`FactoredFraction`
coefficients over a declared denominator basis; a :class:`ScalarTwoForm`
stores the single coefficient of ``dX ^ dY``.  :class:`RationalMap` carries
the substitutions of a map between two such bases (target variable ->
fraction in source variables) plus an optional Moebius action on a fiber
coordinate, used for Riccati pullbacks.

Everything is exact: exterior derivative and pullback use the quotient and
chain rules symbolically, never numerics.
"""

from __future__ import annotations

from typing import Mapping, Optional

from .fractions import (BasisError, DenomBasis, FactoredFraction, eval_poly,
                        frac_eq, serialize_frac)
from .ring import ContextError, LaurentPoly


class ScalarOneForm:
    """``A dX + B dY`` over a fixed base-variable pair."""

    __slots__ = ("basis", "base_vars", "A", "B")

    def __init__(self, basis: DenomBasis, base_vars: tuple[str, str],
                 A: FactoredFraction, B: FactoredFraction):
        for v in base_vars:
            if v not in basis.ctx.index:
                raise ContextError(f"base variable {v!r} not in context")
        self.basis = basis
        self.base_vars = base_vars
        self.A = A
        self.B = B

    @classmethod
    def zero(cls, basis: DenomBasis, base_vars: tuple[str, str]) -> "ScalarOneForm":
        return cls(basis, base_vars, basis.zero(), basis.zero())

    @classmethod
    def d_of(cls, f: FactoredFraction, base_vars: tuple[str, str]) -> "ScalarOneForm":
        """Exterior derivative of a scalar function."""
        x, y = base_vars
        return cls(f.basis, base_vars, f.derivative(x), f.derivative(y))

    def __add__(self, other: "ScalarOneForm") -> "ScalarOneForm":
        self._check(other)
        return ScalarOneForm(self.basis, self.base_vars,
                             self.A + other.A, self.B + other.B)

    def __sub__(self, other: "ScalarOneForm") -> "ScalarOneForm":
        self._check(other)
        return ScalarOneForm(self.basis, self.base_vars,
                             self.A - other.A, self.B - other.B)

    def __neg__(self) -> "ScalarOneForm":
        return ScalarOneForm(self.basis, self.base_vars, -self.A, -self.B)

    def __mul__(self, f) -> "ScalarOneForm":
        """Multiply by a scalar (function or constant)."""
        return ScalarOneForm(self.basis, self.base_vars, self.A * f, self.B * f)

    __rmul__ = __mul__

    def _check(self, other: "ScalarOneForm"):
        if self.basis != other.basis or self.base_vars != other.base_vars:
            raise ContextError("forms live on different bases")

    def is_zero(self) -> bool:
        return self.A.is_zero() and self.B.is_zero()

    def __eq__(self, other):
        if not isinstance(other, ScalarOneForm):
            return NotImplemented
        self._check(other)
        return frac_eq(self.A, other.A) and frac_eq(self.B, other.B)

    def __repr__(self):
        x, y = self.base_vars
        return f"<({serialize_frac(self.A)}) d{x} + ({serialize_frac(self.B)}) d{y}>"

    def d(self) -> "ScalarTwoForm":
        """Exterior derivative: coefficient ``dB/dX - dA/dY``."""
        x, y = self.base_vars
        return ScalarTwoForm(self.basis, self.base_vars,
                             self.B.derivative(x) - self.A.derivative(y))

    def wedge(self, other: "ScalarOneForm") -> "ScalarTwoForm":
        self._check(other)
        return ScalarTwoForm(self.basis, self.base_vars,
                             self.A * other.B - self.B * other.A)


class ScalarTwoForm:
    """``c dX ^ dY``; antisymmetry is structural."""

    __slots__ = ("basis", "base_vars", "coeff")

    def __init__(self, basis: DenomBasis, base_vars: tuple[str, str],
                 coeff: FactoredFraction):
        self.basis = basis
        self.base_vars = base_vars
        self.coeff = coeff

    def is_zero(self) -> bool:
        return self.coeff.is_zero()

    def __add__(self, other: "ScalarTwoForm") -> "ScalarTwoForm":
        return ScalarTwoForm(self.basis, self.base_vars, self.coeff + other.coeff)

    def __sub__(self, other: "ScalarTwoForm") -> "ScalarTwoForm":
        return ScalarTwoForm(self.basis, self.base_vars, self.coeff - other.coeff)

    def __neg__(self) -> "ScalarTwoForm":
        return ScalarTwoForm(self.basis, self.base_vars, -self.coeff)

    def __eq__(self, other):
        if not isinstance(other, ScalarTwoForm):
            return NotImplemented
        return frac_eq(self.coeff, other.coeff)

    def __repr__(self):
        x, y = self.base_vars
        return f"<({serialize_frac(self.coeff)}) d{x}^d{y}>"


class MobiusAction:
    """Fiber substitution ``w -> (p w' + q) / (r w' + t)`` with coefficients
    that may depend on the source base variables."""

    __slots__ = ("p", "q", "r", "t")

    def __init__(self, p: FactoredFraction, q: FactoredFraction,
                 r: FactoredFraction, t: FactoredFraction):
        self.p, self.q, self.r, self.t = p, q, r, t

    def determinant(self) -> FactoredFraction:
        return self.p * self.t - self.q * self.r


class RationalMap:
    """A rational map between two coordinate charts.

    ``subs`` sends each target variable to a fraction in source variables;
    pullback therefore carries objects on the target to the source.  The
    optional ``fiber`` Moebius action transforms a projective fiber
    coordinate, for Riccati pullbacks.
    """

    __slots__ = ("name", "src", "dst", "src_base", "dst_base", "subs", "fiber")

    def __init__(self, name: str, src: DenomBasis, dst: DenomBasis,
                 src_base: tuple[str, str], dst_base: tuple[str, str],
                 subs: Mapping[str, FactoredFraction],
                 fiber: Optional[MobiusAction] = None):
        self.name = name
        self.src = src
        self.dst = dst
        self.src_base = src_base
        self.dst_base = dst_base
        self.subs = dict(subs)
        for v in dst_base:
            if v not in self.subs:
                raise ContextError(f"missing substitution for target variable {v!r}")
        self.fiber = fiber
        if fiber is not None and fiber.determinant().is_zero():
            raise ValueError("degenerate Moebius fiber action")

    def pull_one_form(self, omega: ScalarOneForm) -> ScalarOneForm:
        """Chain rule: substitute and differentiate the substitutions."""
        X, Y = self.dst_base
        a = omega.A.substitute(self.subs, self.src)
        b = omega.B.substitute(self.subs, self.src)
        dX = ScalarOneForm.d_of(self.subs[X], self.src_base)
        dY = ScalarOneForm.d_of(self.subs[Y], self.src_base)
        return dX * a + dY * b

    def pull_two_form(self, eta: ScalarTwoForm) -> ScalarTwoForm:
        """Pullback of ``c dX^dY`` is ``(c o phi) * Jacobian * dx^dy``."""
        X, Y = self.dst_base
        x, y = self.src_base
        c = eta.coeff.substitute(self.subs, self.src)
        fx, fy = self.subs[X], self.subs[Y]
        jac = (fx.derivative(x) * fy.derivative(y)
               - fx.derivative(y) * fy.derivative(x))
        return ScalarTwoForm(self.src, self.src_base, c * jac)

    def compose(self, inner: "RationalMap") -> "RationalMap":
        """``self o inner``: apply ``inner`` first (so substitutions chain)."""
        if inner.dst != self.src:
            raise ContextError("maps do not compose")
        subs = {v: f.substitute(inner.subs, inner.src)
                for v, f in self.subs.items()}
        return RationalMap(f"{self.name}*{inner.name}", inner.src, self.dst,
                           inner.src_base, self.dst_base, subs)


def divisor_pullback(f: LaurentPoly, phi: RationalMap,
                     declared: Mapping[str, LaurentPoly]
                     ) -> tuple[LaurentPoly, dict[str, int]]:
    """Pull a divisor polynomial back and factor it over a declared list.

    Returns ``(unit, {factor_name: exponent})``; the unit is a signed
    monomial.  The declared non-monomial factors are divided out by
    :meth:`DenomBasis.divide_out`, and a declared monomial then counts by
    its valuation; the order does not matter when, as for an irreducible
    factor written without a monomial content, each non-monomial factor has
    order 0 along every coordinate.  Raises :class:`BasisError` with the
    residual when a factor outside the declared list remains.
    """
    pulled = eval_poly(f, phi.subs, phi.src).reduce()
    polys = {name: g for name, g in declared.items() if not g.is_monomial()}
    basis = DenomBasis(phi.src.ctx, list(polys.values()), list(polys))
    # clear declared-basis denominators into the answer with negative signs
    out: dict[str, int] = {}
    for g, e in zip(phi.src.factors, pulled.exps):
        if e:
            name = next((n for n, h in polys.items() if h == g), None)
            if name is None:
                err = BasisError(f"denominator factor outside declared list: {g!r}")
                err.residual = g  # type: ignore[attr-defined]
                raise err
            out[name] = out.get(name, 0) - e
    p, counts = basis.divide_out(pulled.num)
    for name, k in zip(basis.names, counts):
        out[name] = out.get(name, 0) + k
    for name, g in declared.items():
        if name in polys:
            continue
        # valuation along a coordinate divisor (may be negative)
        (gexps, _), = g.terms.items()
        if any(a < 0 for a in gexps):
            raise BasisError(f"declared monomial divisor {name!r} has a pole")
        k = None
        for i, a in enumerate(gexps):
            if a > 0:
                cand = min(e[i] for e in p.terms) // a
                k = cand if k is None else min(k, cand)
        if k:
            p = p * (g ** k).inverse()
            out[name] = out.get(name, 0) + k
    if not p.is_monomial():
        err = BasisError("residual factor outside declared list")
        err.residual = p  # type: ignore[attr-defined]
        raise err
    return p, {k: v for k, v in out.items() if v}
