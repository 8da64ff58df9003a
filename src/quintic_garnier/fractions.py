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
Each basis keeps three memos.  The complete factorizations that
:meth:`factor_over` found, keyed by the polynomial, so a pullback that
inverts the same image of a factor again divides nothing (a residual is not
stored and raises again on every call); the products that
:meth:`DenomBasis.power` built, keyed by the exponent vector; and the basis
part of the quotient rule, :meth:`DenomBasis.quotient_rule`, keyed by the
variable and the exponent vector: at most :data:`FACTOR_MEMO_CAP` of each
per basis.

Substitution is one kernel, :class:`Substitution`.  It resolves the images
once by :func:`ring.resolve_images`, the policy that
:meth:`ring.LaurentPoly.substitute` shares: images are rationals,
polynomials or fractions, an unmapped variable maps to the same-named
target variable, ``ContextError`` is raised when a variable that occurs has
no image, and the image of an extension variable must be a root of its
minimal polynomial.  It sums the terms of a
polynomial into one accumulator per denominator exponent vector and puts
them over their common denominator once, in one more sum.  The owner of a
set of images keeps one kernel, and its memo of image powers and pulled
factor inverses, for all it substitutes: ``forms.RationalMap`` for the
map's life, ``connections.residue`` per chart, ``garnier`` per line,
parameter point, pole and flip.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, sub
from typing import Mapping, Optional, Sequence, Union

from .ring import (ContextError, Exponents, LaurentPoly, Rat, VarContext, add_into,
                   exact_divide, from_terms, image_power, resolve_images, serialize_poly)


#: Most factorizations one basis remembers; once full it stores no more.
FACTOR_MEMO_CAP = 1024


class BasisError(ValueError):
    """A denominator factor fell outside the declared basis."""


class DenomBasis:
    """Ordered list of declared denominator factors for one context.

    Factors must be non-monomial (units are handled by Laurent exponents)
    and pairwise non-associate; irreducibility is the caller's promise.
    Memos: ``_factored``, ``_powers`` and ``_rules``, at most
    :data:`FACTOR_MEMO_CAP` entries each.
    """

    __slots__ = ("ctx", "factors", "names", "_factored", "_powers", "_rules")

    def __init__(self, ctx: VarContext, factors: Sequence[LaurentPoly],
                 names: Optional[Sequence[str]] = None):
        self.ctx = ctx
        for f in factors:
            if f.ctx != ctx:
                raise ContextError("factor context mismatch")
            if f.is_monomial():
                raise BasisError(f"monomial factor {serialize_poly(f)} belongs "
                                 "in the numerator")
        self.factors = tuple(factors)
        self.names = tuple(names) if names is not None else tuple(
            serialize_poly(f) for f in factors)
        self._factored: dict[LaurentPoly, tuple[LaurentPoly, tuple[int, ...]]] = {}
        self._powers: dict[tuple[int, ...], LaurentPoly] = {}
        self._rules: dict[tuple[str, tuple[int, ...]], Optional[
            tuple[LaurentPoly, LaurentPoly, tuple[int, ...]]]] = {}

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
            if not 0 <= i < len(exps):
                raise IndexError(f"factor index {i} not in range({len(exps)})")
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
                raise BasisError(f"factor {serialize_poly(f)} not in basis")
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

    def power(self, exps: tuple[int, ...]) -> LaurentPoly:
        """``prod(f_i^e_i)``, starting from the first present factor."""
        hit = self._powers.get(exps)
        if hit is not None:
            return hit
        p = None
        for f, e in zip(self.factors, exps):
            if e:
                q = f ** e
                p = q if p is None else p * q
        p = self.ctx.one() if p is None else p
        if len(self._powers) < FACTOR_MEMO_CAP:
            self._powers[exps] = p
        return p

    def quotient_rule(self, name: str, exps: tuple[int, ...]
                      ) -> Optional[tuple[LaurentPoly, LaurentPoly, tuple[int, ...]]]:
        """The part of the quotient rule by ``name`` that the denominator
        ``prod(f_i^e_i)`` fixes, derived once per ``(name, exps)``.

        With ``P`` the factors that contribute (positive exponent, nonzero
        partial), returns ``(F, S, bumped)``: ``F = prod_P f_i``, ``S =
        sum_{i in P} e_i df_i prod_{P - i} f_j`` and ``exps`` with ``+1`` on
        each factor of ``P``; ``None`` when ``P`` is empty.
        """
        key = (name, exps)
        if key in self._rules:
            return self._rules[key]
        partials = [f.derivative(name) for f in self.factors]
        mask = tuple(1 if e and df else 0 for e, df in zip(exps, partials))
        rule = None
        if any(mask):
            present = [i for i, m in enumerate(mask) if m]
            acc: dict[Exponents, Rat] = {}
            for i in present:
                t = partials[i]
                for j in present:
                    if j != i:
                        t = t * self.factors[j]
                add_into(acc, t, exps[i])
            rule = (self.power(mask), from_terms(self.ctx, acc), tuple(map(add, exps, mask)))
        if len(self._rules) < FACTOR_MEMO_CAP:
            self._rules[key] = rule
        return rule


class FactoredFraction:
    """``num / prod(f_i^e_i)`` over a :class:`DenomBasis`, all ``e_i >= 0``.

    Lowest terms are not kept: arithmetic, :meth:`derivative` and
    :class:`Substitution` may leave a declared factor in both numerator and
    denominator.  They hold only where the normal form is observed:
    :meth:`__hash__` and :func:`serialize_frac` reduce first, and a caller
    that reads ``num`` or ``exps`` calls :meth:`reduce` itself
    (``garnier._clear``, ``connections._sqrt_fraction``,
    ``connections.residue``, ``forms.divisor_pullback``).  Equality is
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
        # values are immutable, so a zero or unit operand is returned as is;
        # the exponents are tested first, as LaurentPoly.__mul__ tests the
        # numerators for one again
        if self.is_zero() or (not any(other.exps) and other.num.is_one()):
            return self
        if other.is_zero() or (not any(self.exps) and self.num.is_one()):
            return other
        return FactoredFraction(self.basis, self.num * other.num,
                                tuple(map(add, self.exps, other.exps)))

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

    def _common(self, other: "FactoredFraction"
                ) -> tuple[LaurentPoly, LaurentPoly, tuple[int, ...]]:
        """Both numerators over the least common denominator ``m``."""
        a, b = self.exps, other.exps
        if a == b:
            return self.num, other.num, a
        m = tuple(map(max, a, b))
        power = self.basis.power
        return (self.num if m == a else self.num * power(tuple(map(sub, m, a))),
                other.num if m == b else other.num * power(tuple(map(sub, m, b))),
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
        """Quotient rule over one denominator: ``(dn F - n S) / bumped``.

        ``dn`` is the numerator's partial; ``F``, ``S`` and the ``bumped``
        exponents come from :meth:`DenomBasis.quotient_rule`, so a call
        makes two products, summed into one accumulator.
        """
        if self.is_zero():
            return self
        dn = self.num.derivative(name)
        rule = self.basis.quotient_rule(name, self.exps)
        if rule is None:
            return FactoredFraction(self.basis, dn, self.exps)
        prod_p, sum_p, bumped = rule
        acc: dict[Exponents, Rat] = {}
        add_into(acc, dn * prod_p)
        add_into(acc, self.num * sum_p, -1)
        return FactoredFraction(self.basis, from_terms(self.ctx, acc), bumped)


class Substitution:
    """The images of one substitution out of ``ctx`` into fractions over
    ``target``, resolved once, with a memo.

    The images follow the policy of :func:`ring.resolve_images`: an image is
    an ``int``, a ``Fraction``, a polynomial of the target context or a
    fraction over ``target``, and an unmapped variable maps to the target
    variable of the same name.  :meth:`poly` groups the term numerators of a
    polynomial by their denominator exponents and puts them over the common
    denominator once; :meth:`fraction` multiplies that by the pulled inverse
    powers of the denominator factors.

    The memo holds each power ``img(X)^k`` taken, keyed by (variable, k), and
    each pulled inverse power of a denominator factor, keyed by (factor, e),
    so it is bounded by those keys; it lives as long as this object.
    """

    __slots__ = ("ctx", "target", "img", "_powers", "_inverses")

    def __init__(self, ctx: VarContext,
                 images: Mapping[str, Union[FactoredFraction, LaurentPoly, Rat]],
                 target: DenomBasis):
        def lift(value) -> FactoredFraction:
            if isinstance(value, FactoredFraction):
                if value.basis != target:
                    raise ContextError("denominator basis mismatch")
                return value
            if isinstance(value, (int, Fraction)):
                return target.const(value)
            if value.ctx != target.ctx:
                raise ContextError("image context mismatch")
            return FactoredFraction(target, value)

        self.ctx = ctx
        self.target = target
        self.img = resolve_images(ctx, images, target.ctx, lift)
        self._powers: dict[tuple[int, int], FactoredFraction] = {}
        self._inverses: dict[tuple[LaurentPoly, int], FactoredFraction] = {}

    def poly(self, p: LaurentPoly) -> FactoredFraction:
        """The image of a polynomial of ``ctx``, over one common denominator;
        the one reader of ``terms`` outside ``ring``."""
        if p.ctx is not self.ctx and p.ctx != self.ctx:
            raise ContextError("context mismatch")
        powers = self._powers
        nothing = (0,) * self.target.nfactors()
        one = self.target.ctx.one()
        groups: dict[tuple[int, ...], dict[Exponents, Rat]] = {}
        for exps, coeff in p.terms.items():
            num, den = None, nothing
            for i, e in enumerate(exps):
                if e:
                    pw = powers.get((i, e))
                    if pw is None:
                        pw = powers[(i, e)] = image_power(self.ctx, self.img, i, e)
                    num = pw.num if num is None else num * pw.num
                    if pw.exps != nothing:
                        den = tuple(map(add, den, pw.exps))
            add_into(groups.setdefault(den, {}), one if num is None else num, coeff)
        return _over_common(self.target, groups)

    def fraction(self, fr: FactoredFraction) -> FactoredFraction:
        """The image of a fraction over a basis of ``ctx``."""
        out = self.poly(fr.num)
        for f, e in zip(fr.basis.factors, fr.exps):
            if e:
                inv = self._inverses.get((f, e))
                if inv is None:
                    inv = self._inverses[(f, e)] = self.poly(f) ** -e
                out = out * inv
        return out


def _over_common(basis: DenomBasis,
                 groups: Mapping[tuple[int, ...], dict[Exponents, Rat]]
                 ) -> FactoredFraction:
    """The sum of numerator accumulators keyed by their denominator
    exponents, over the least common denominator of the nonzero ones."""
    nums = {den: from_terms(basis.ctx, acc) for den, acc in groups.items() if acc}
    if not nums:
        return basis.zero()
    if len(nums) == 1:
        (den, num), = nums.items()
        return FactoredFraction(basis, num, den)
    m = tuple(map(max, *nums))
    out: dict[Exponents, Rat] = {}
    for den, num in nums.items():
        add_into(out, num if den == m else num * basis.power(tuple(map(sub, m, den))))
    return FactoredFraction(basis, from_terms(basis.ctx, out), m)


def eval_poly(p: LaurentPoly,
              images: Mapping[str, Union[FactoredFraction, LaurentPoly, Rat]],
              target: DenomBasis) -> FactoredFraction:
    """Evaluate a Laurent polynomial at images of its variables through a
    :class:`Substitution` that lasts for this call.  No package code calls
    it; it stays because ``perfbench/tracer.py`` wraps it by name."""
    return Substitution(p.ctx, images, target).poly(p)


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
    denom = r.basis.power(r.exps)
    if denom.is_one():
        return num
    return f"({num}) / ({serialize_poly(denom)})"
