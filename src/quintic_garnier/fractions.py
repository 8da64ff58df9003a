"""Rational functions with declared factored denominators.

A :class:`FactoredFraction` is ``numerator / prod(f_i^e_i)`` where the ``f_i``
range over a fixed, declared :class:`DenomBasis` of non-monomial polynomials
and the exponents are non-negative integers.  A negative exponent given to
the constructor is folded into the numerator (``num * f_i^-e_i``), so every
value has one representation up to cancellation, and :meth:`reduce` makes it
unique.  Monomial denominators never appear: they are units of the Laurent
ring and are folded into the numerator's exponents.  No general gcd is
computed; equality is decided by cross-multiplication.

Declared factors are divided out in one loop, :meth:`DenomBasis.divide_out`:
:meth:`DenomBasis.factor_over` runs it unbounded, and
:meth:`FactoredFraction.reduce` runs it bounded by the denominator exponents.
Each basis remembers the complete factorizations that :meth:`factor_over`
found, keyed by the polynomial, so a pullback that inverts the same image of
a factor again divides nothing.  Only successes are stored (a residual
raises again on every call), and at most :data:`FACTOR_MEMO_CAP` per basis.

Substitution (:func:`eval_poly`) runs the loop and policy of
:func:`ring.evaluate`: images are rationals, polynomials or fractions, an
unmapped variable maps to the same-named target variable, and ``ContextError``
is raised only when a variable that occurs has no image.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Optional, Sequence, Union

from .ring import (ContextError, LaurentPoly, Rat, VarContext, evaluate,
                   exact_divide, serialize_poly)


#: Most factorizations one basis remembers; once full it stores no more.
FACTOR_MEMO_CAP = 1024


class BasisError(ValueError):
    """A denominator factor fell outside the declared basis."""


class DenomBasis:
    """Ordered list of declared denominator factors for one context.

    Factors must be non-monomial (units are handled by Laurent exponents)
    and pairwise non-associate; irreducibility is the caller's promise.
    """

    __slots__ = ("ctx", "factors", "names", "_factored")

    def __init__(self, ctx: VarContext, factors: Sequence[LaurentPoly],
                 names: Optional[Sequence[str]] = None):
        self.ctx = ctx
        for f in factors:
            if f.ctx != ctx:
                raise ContextError("factor context mismatch")
            if f.is_monomial():
                raise BasisError(f"monomial factor {f!r} belongs in the numerator")
        self.factors = tuple(factors)
        self.names = tuple(names) if names is not None else tuple(
            serialize_poly(f) for f in factors)
        self._factored: dict[LaurentPoly, tuple[LaurentPoly, tuple[int, ...]]] = {}

    def __eq__(self, other):
        return self is other or (isinstance(other, DenomBasis)
                                 and self.ctx == other.ctx
                                 and all(a == b for a, b in
                                         zip(self.factors, other.factors))
                                 and len(self.factors) == len(other.factors))

    def __repr__(self):
        return f"DenomBasis({', '.join(self.names)})"

    def nfactors(self) -> int:
        return len(self.factors)

    def zero(self) -> "FactoredFraction":
        return FactoredFraction(self, self.ctx.zero())

    def one(self) -> "FactoredFraction":
        return FactoredFraction(self, self.ctx.one())

    def const(self, c: Rat) -> "FactoredFraction":
        return FactoredFraction(self, self.ctx.const(c))

    def of(self, num: Union[LaurentPoly, Rat],
           denom: Optional[Mapping[int, int]] = None) -> "FactoredFraction":
        if isinstance(num, (int, Fraction)):
            num = self.ctx.const(num)
        exps = [0] * self.nfactors()
        for i, e in (denom or {}).items():
            exps[i] = e
        return FactoredFraction(self, num, tuple(exps))

    def over(self, num: Union[LaurentPoly, Rat], *factors: LaurentPoly
             ) -> "FactoredFraction":
        """Build ``num / (f1 * f2 * ...)`` with each listed factor declared."""
        exps = [0] * self.nfactors()
        for f in factors:
            for i, g in enumerate(self.factors):
                if f == g:
                    exps[i] += 1
                    break
            else:
                raise BasisError(f"factor {f!r} not in basis")
        if isinstance(num, (int, Fraction)):
            num = self.ctx.const(num)
        return FactoredFraction(self, num, tuple(exps))

    def divide_out(self, p: LaurentPoly, bounds: Optional[Sequence[int]] = None
                   ) -> tuple[LaurentPoly, tuple[int, ...]]:
        """Divide ``p`` by each factor in turn as often as it goes exactly,
        by factor ``i`` at most ``bounds[i]`` times when bounds are given.

        Returns the quotient and the number of divisions by each factor.
        Raises :class:`BasisError` for the zero polynomial when no bounds are
        given, since zero divides by every factor without end.
        """
        if bounds is None and p.is_zero():
            raise BasisError("cannot factor the zero polynomial")
        counts = []
        for i, f in enumerate(self.factors):
            k = 0
            while bounds is None or k < bounds[i]:
                q = exact_divide(p, f)
                if q is None:
                    break
                p, k = q, k + 1
            counts.append(k)
        return p, tuple(counts)

    def factor_over(self, p: LaurentPoly) -> tuple[LaurentPoly, tuple[int, ...]]:
        """Factor ``p`` as ``unit * prod(f_i^k_i)``.

        Returns ``(unit, exponents)``; raises :class:`BasisError` with the
        residual attached when a non-unit factor remains.  A result is
        remembered by this basis (up to :data:`FACTOR_MEMO_CAP` of them) and
        returned again for an equal ``p``; failures are not remembered.
        """
        hit = self._factored.get(p)
        if hit is not None:
            return hit
        unit, exps = self.divide_out(p)
        if not unit.is_monomial():
            err = BasisError(f"residual factor outside basis: {serialize_poly(unit)}")
            err.residual = unit  # type: ignore[attr-defined]
            raise err
        if len(self._factored) < FACTOR_MEMO_CAP:
            self._factored[p] = unit, exps
        return unit, exps


class FactoredFraction:
    """``num / prod(f_i^e_i)`` over a :class:`DenomBasis`, all ``e_i >= 0``.

    Lowest terms are not kept: arithmetic, :meth:`derivative`,
    :meth:`substitute` and :func:`eval_poly` may leave a declared factor in
    both numerator and denominator.  They hold only where the normal form is
    observed: :meth:`__hash__` and :func:`serialize_frac` reduce first, and
    a caller that reads ``num`` or ``exps`` calls :meth:`reduce` itself
    (``garnier._clear``, ``connections._sqrt_fraction``,
    ``connections._residue_side``, ``forms.divisor_pullback``).  Equality is
    cross-multiplication and needs no reduction.
    """

    __slots__ = ("basis", "num", "exps")

    def __init__(self, basis: DenomBasis, num: LaurentPoly,
                 exps: Optional[tuple[int, ...]] = None):
        self.basis = basis
        if exps is None or num.is_zero():
            exps = (0,) * basis.nfactors()
        elif min(exps, default=0) < 0:
            for f, e in zip(basis.factors, exps):
                if e < 0:
                    num = num * f ** -e
            exps = tuple(max(e, 0) for e in exps)
        self.num = num
        self.exps = exps

    @property
    def ctx(self) -> VarContext:
        return self.basis.ctx

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __repr__(self):
        return f"<{serialize_frac(self)}>"

    def __bool__(self):
        return not self.is_zero()

    # -- arithmetic -----------------------------------------------------

    def _coerce(self, other) -> "FactoredFraction":
        if isinstance(other, FactoredFraction):
            if other.basis != self.basis:
                raise ContextError("denominator basis mismatch")
            return other
        if isinstance(other, LaurentPoly):
            return FactoredFraction(self.basis, other)
        if isinstance(other, (int, Fraction)):
            return self.basis.const(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        a, b, m = self._common(other)
        return FactoredFraction(self.basis, a + b, m)

    __radd__ = __add__

    def __neg__(self):
        return FactoredFraction(self.basis, -self.num, self.exps)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FactoredFraction(self.basis, self.num * other.num,
                                tuple(a + b for a, b in zip(self.exps, other.exps)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __pow__(self, n: int):
        n = int(n)
        if n < 0:
            return self.inverse() ** (-n)
        return FactoredFraction(self.basis, self.num ** n,
                                tuple(e * n for e in self.exps))

    def inverse(self) -> "FactoredFraction":
        """Invert; the numerator must factor over the basis times a unit."""
        unit, ks = self.basis.factor_over(self.num)
        return FactoredFraction(self.basis, unit.inverse(),
                                tuple(k - e for e, k in zip(self.exps, ks)))

    def basis_power(self, exps: tuple[int, ...]) -> LaurentPoly:
        p = self.ctx.one()
        for f, e in zip(self.basis.factors, exps):
            if e:
                p = p * f ** e
        return p

    def _common(self, other: "FactoredFraction"
                ) -> tuple[LaurentPoly, LaurentPoly, tuple[int, ...]]:
        """Both numerators over the least common denominator ``m``."""
        m = tuple(max(a, b) for a, b in zip(self.exps, other.exps))
        return (self.num * self.basis_power(tuple(c - a for c, a in zip(m, self.exps))),
                other.num * self.basis_power(tuple(c - a for c, a in zip(m, other.exps))),
                m)

    def reduce(self) -> "FactoredFraction":
        """Cancel declared factors out of the numerator where possible."""
        if self.is_zero():
            return self
        num, ks = self.basis.divide_out(self.num, self.exps)
        return FactoredFraction(self.basis, num,
                                tuple(e - k for e, k in zip(self.exps, ks)))

    # -- predicates ------------------------------------------------------

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return frac_eq(self, other)

    def __hash__(self):
        r = self.reduce()
        return hash((r.num, r.exps))

    # -- calculus ----------------------------------------------------------

    def derivative(self, name: str) -> "FactoredFraction":
        """Quotient rule: ``d(n/prod f^e) = dn/prod f^e - sum_i e_i n df_i/(f_i prod f^e)``.

        Only factors with a positive exponent contribute a term.
        """
        if self.is_zero():
            return self
        out = FactoredFraction(self.basis, self.num.derivative(name), self.exps)
        for i, (f, e) in enumerate(zip(self.basis.factors, self.exps)):
            if e:
                exps = self.exps[:i] + (e + 1,) + self.exps[i + 1:]
                out = out - FactoredFraction(
                    self.basis, self.num * f.derivative(name) * e, exps)
        return out

    # -- substitution -------------------------------------------------------

    def substitute(self, images: Mapping[str, Union["FactoredFraction",
                                                    LaurentPoly, Rat]],
                   target: Optional[DenomBasis] = None) -> "FactoredFraction":
        """Evaluate at images of the variables, as :func:`eval_poly` does.

        Every substituted denominator factor must clear over the target
        basis (raises :class:`BasisError` otherwise, signalling the caller
        to extend the basis).
        """
        tgt = target if target is not None else self.basis
        out = eval_poly(self.num, images, tgt)
        for f, e in zip(self.basis.factors, self.exps):
            if e:
                out = out * eval_poly(f, images, tgt) ** (-e)
        return out


def eval_poly(p: LaurentPoly,
              images: Mapping[str, Union[FactoredFraction, LaurentPoly, Rat]],
              target: DenomBasis) -> FactoredFraction:
    """Evaluate a Laurent polynomial at images of its variables.

    Follows the substitution policy of :func:`ring.evaluate`: an image is an
    ``int``, a ``Fraction``, a polynomial of the target context or a fraction
    over ``target``; an unmapped variable maps to the target variable of the
    same name.
    """
    def lift(value) -> FactoredFraction:
        if isinstance(value, FactoredFraction):
            return value
        if isinstance(value, (int, Fraction)):
            return target.const(value)
        if value.ctx != target.ctx:
            raise ContextError("image context mismatch")
        return FactoredFraction(target, value)

    return evaluate(p, images, target.ctx, lift)


def frac_eq(x: FactoredFraction, y: FactoredFraction) -> bool:
    """Equality by cross-multiplication to a common denominator."""
    if x.basis != y.basis:
        raise ContextError("denominator basis mismatch")
    lhs, rhs, _ = x._common(y)
    return lhs == rhs


def serialize_frac(fr: FactoredFraction) -> str:
    """Emit ``num`` or ``(num) / (expanded denominator)``."""
    r = fr.reduce()
    num = serialize_poly(r.num)
    denom = r.basis_power(r.exps)
    if denom.is_one():
        return num
    return f"({num}) / ({serialize_poly(denom)})"
