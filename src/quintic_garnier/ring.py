"""Exact multivariate Laurent polynomials over the rationals.

A :class:`LaurentPoly` is a finite sum of terms ``c * x1^e1 * ... * xn^en``
with nonzero rational ``c`` and integer (possibly negative) exponents.  The
variable universe is fixed by a :class:`VarContext`; two values interoperate
only when they share a context.  Every value is normalized on construction
(no zero coefficients, exponents of an algebraic-extension variable reduced
into ``[0, deg-1]``).

The stored form is denominator-cleared (content and primitive part: Knuth,
TAOCP vol. 2, 4.6.1): a dict mapping exponent vectors to nonzero ``int``
numerators, and one positive ``int`` denominator, with the gcd of the
denominator and all numerators 1.  That normal form is unique, so equal
values have equal stored forms and equal hashes, and coefficient arithmetic
is ``int`` arithmetic: a sum or product is reduced by one :func:`math.gcd`
when its value is made, never a ``Fraction`` per term.  Integer polynomials
have denominator 1.

The public view is :attr:`LaurentPoly.terms`, the coefficients as
:data:`Rat`: an ``int`` when integral and a ``Fraction`` otherwise; it is
the stored dict itself when the denominator is 1.  ``int`` and ``Fraction``
compare and hash alike and print the same, so keys and text do not depend
on which one a coefficient is.  ``LaurentPoly(ctx, terms)`` takes such a
dict, constructors raise ``TypeError`` for a float, and
:meth:`constant_value` returns a ``Fraction``.

Only this module writes or reads the stored form.  Outside it, a value is
summed only on an :class:`Accumulator`, which carries its own denominator:
:func:`add_into` adds ``scale * p`` and :func:`add_product` ``scale * a * b``,
one term product at a time, keeping no zero, and :func:`from_terms` makes
the value, reduced once, re-reducing exponents only in an extension
context.  ``LaurentPoly.__add__`` and ``__mul__`` run on the same two.  A
value answers for its terms (``is_constant``, ``monomial_term``, ``key``,
``min_exponent``, ``coefficients_in``); the one kernel that sums terms
itself, ``fractions.Substitution.poly``, reads the numerators and the
denominator through :func:`stored_form`.

The context may declare one algebraic extension: a designated variable ``r``
together with a monic minimal polynomial over Q.  Arithmetic then happens in
``Q[r]/(m(r))`` tensored with the Laurent ring on the remaining variables;
``r`` is a unit because ``m`` has nonzero constant term.

Substitution has one policy, :func:`resolve_images` with
:func:`image_power`.  Images are rationals, polynomials or (in
``fractions``) fractions, never floats (``TypeError``); a variable with no
image maps to the target variable of the same name; ``ContextError`` is
raised when an image names a variable the source context does not have,
when a variable that occurs has no image, when an image is a polynomial of
another context, or when the image of an extension variable
is not a root of its minimal polynomial, and ``UnitError`` for a negative
power of a polynomial image that is not a unit (one term).  Two kernels
carry it out, each summing its terms on the accumulator:
:meth:`LaurentPoly.substitute` for polynomials, and
``fractions.Substitution`` for fractions, over one common denominator.

The text grammar used for serialization is::

    term := [sign] rational ('*' var '^' int)*

terms joined by ``+``/``-``; canonical emission orders terms by descending
lexicographic exponent order and omits zero exponents.
"""

from __future__ import annotations

import re
import reprlib
import sys
from fractions import Fraction
from math import gcd, lcm
from operator import add
from typing import Callable, Iterable, Iterator, Mapping, Optional, TypeVar, Union

Rat = Union[int, Fraction]
Exponents = tuple[int, ...]
V = TypeVar("V")


def _co(c: Rat) -> Rat:
    """A coefficient as stored: an ``int`` when integral, else a ``Fraction``."""
    return c.numerator if c.denominator == 1 else c


def _rat(c) -> Rat:
    """A coefficient handed in from outside, as stored; a float raises."""
    if not isinstance(c, (int, Fraction)):
        raise TypeError(f"coefficient must be an int or a Fraction, "
                        f"not {type(c).__name__}")
    return _co(c)


class ContextError(ValueError):
    """Operands do not share a variable context, or a variable is unknown."""


class UnitError(ValueError):
    """An operation required an invertible (monomial) value."""


class VarContext:
    """Ordered list of distinct variable names, optionally with one algebraic
    extension ``(variable, monic minimal polynomial coefficients c0..c_{d-1})``
    meaning ``r^d + c_{d-1} r^{d-1} + ... + c0 = 0``.
    """

    __slots__ = ("names", "index", "ext_var", "ext_deg", "_ext_high", "_ext_inv")

    def __init__(self, names: Iterable[str],
                 extension: Optional[tuple[str, Iterable[Rat]]] = None):
        self.names = tuple(names)
        if len(set(self.names)) != len(self.names):
            raise ContextError("variable names must be distinct")
        self.index = {n: i for i, n in enumerate(self.names)}
        self.ext_var: Optional[int] = None
        self.ext_deg = 0
        self._ext_high: dict[int, Rat] = {}
        self._ext_inv: dict[int, Rat] = {}
        if extension is not None:
            var, coeffs = extension
            if var not in self.index:
                raise ContextError(f"extension variable {var!r} not declared")
            cs = [_rat(c) for c in coeffs]
            if not cs or cs[0] == 0:
                raise ContextError("minimal polynomial needs nonzero constant term")
            self.ext_var = self.index[var]
            self.ext_deg = len(cs)
            # r^d = -(c0 + c1 r + ... + c_{d-1} r^{d-1})
            self._ext_high = {k: -c for k, c in enumerate(cs) if c != 0}
            # r^-1 = -(c1 + c2 r + ... + r^{d-1}) / c0
            inv = {k - 1: _co(-Fraction(c) / cs[0])
                   for k, c in enumerate(cs) if k >= 1 and c != 0}
            inv[self.ext_deg - 1] = _co(Fraction(-1) / cs[0])
            self._ext_inv = inv

    def __eq__(self, other):
        return self is other or (isinstance(other, VarContext)
                                 and self.names == other.names
                                 and self.ext_var == other.ext_var
                                 and self._ext_high == other._ext_high)

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return f"VarContext({', '.join(self.names)})"

    def nvars(self) -> int:
        return len(self.names)

    # -- element constructors ------------------------------------------

    def zero(self) -> "LaurentPoly":
        return LaurentPoly(self, {}, _den=1)

    def one(self) -> "LaurentPoly":
        return self.const(1)

    def const(self, c: Rat) -> "LaurentPoly":
        c = _rat(c)
        if c == 0:
            return self.zero()
        return LaurentPoly(self, {(0,) * self.nvars(): c.numerator}, _den=c.denominator)

    def var(self, name: str) -> "LaurentPoly":
        return self.monomial(1, {name: 1})

    def monomial(self, coeff: Rat, powers: Mapping[str, int]) -> "LaurentPoly":
        coeff = _rat(coeff)
        if coeff == 0:
            return self.zero()
        exps = [0] * self.nvars()
        for name, e in powers.items():
            if name not in self.index:
                raise ContextError(f"unknown variable {name!r}")
            exps[self.index[name]] = int(e)
        return LaurentPoly(self, {tuple(exps): coeff})


class LaurentPoly:
    """Sparse Laurent polynomial; immutable by convention.

    Stored as integer numerators ``_num`` over one positive denominator
    ``_den``, in lowest terms (see the module docstring); :attr:`terms` is
    the rational view."""

    __slots__ = ("ctx", "_num", "_den", "_key")

    def __init__(self, ctx: VarContext, terms: Mapping[Exponents, Rat],
                 _den: Optional[int] = None):
        self.ctx = ctx
        if _den is None:
            terms, _den = _normalize(ctx, terms)
        self._num = terms
        self._den = _den
        self._key: Optional[tuple] = None

    @property
    def terms(self) -> dict[Exponents, Rat]:
        """The coefficients as :data:`Rat`, keyed by exponent vector: the
        stored dict itself when the denominator is 1, else a new dict."""
        den = self._den
        if den == 1:
            return self._num
        return {e: _co(Fraction(n, den)) for e, n in self._num.items()}

    # -- basics ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._num

    def is_one(self) -> bool:
        if len(self._num) != 1 or self._den != 1:
            return False
        (exps, coeff), = self._num.items()
        return coeff == 1 and not any(exps)

    def is_monomial(self) -> bool:
        return len(self._num) == 1

    def is_constant(self) -> bool:
        return not self._num or (len(self._num) == 1
                                 and not any(next(iter(self._num))))

    def monomial_term(self) -> tuple[Exponents, Rat]:
        """``(exponents, coefficient)`` of a one-term value, the coefficient
        an ``int`` when integral; :class:`UnitError` for zero or more than
        one term."""
        if len(self._num) != 1:
            raise UnitError("not a one-term value")
        if self._den != 1:
            # the cached key holds the term with its Fraction built once
            return self.key()[0]
        (term,) = self._num.items()
        return term

    def constant_value(self) -> Fraction:
        if self.is_zero():
            return Fraction(0)
        if not self.is_constant():
            raise UnitError("not a constant")
        return Fraction(self.monomial_term()[1])

    def key(self) -> tuple:
        """Canonical hashable form: the :attr:`terms` sorted by descending
        exponents."""
        if self._key is None:
            self._key = tuple(sorted(self.terms.items(), reverse=True))
        return self._key

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            if isinstance(other, (int, Fraction)):
                other = self.ctx.const(other)
            elif isinstance(other, float):
                raise TypeError("a Laurent polynomial does not compare with a float")
            else:
                return NotImplemented
        return (self.ctx == other.ctx and self._den == other._den
                and self._num == other._num)

    def __hash__(self):
        return hash((self.ctx.names, self.key()))

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        return f"<{serialize_poly(self)}>"

    # -- ring operations --------------------------------------------------

    def _coerce(self, other) -> "LaurentPoly":
        if isinstance(other, LaurentPoly):
            # identity first: a shared context object needs no VarContext.__eq__
            if other.ctx is not self.ctx and other.ctx != self.ctx:
                raise ContextError("context mismatch")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ctx.const(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        acc = Accumulator(self)
        add_into(acc, other)
        return from_terms(self.ctx, acc)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly(self.ctx, {e: -n for e, n in self._num.items()},
                           _den=self._den)

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
        # values are immutable, so a zero or unit operand is returned as is
        a, b = self._num, other._num
        if not a or (len(b) == 1 and other.is_one()):
            return self
        if not b or (len(a) == 1 and self.is_one()):
            return other
        acc = Accumulator()
        add_product(acc, self, other)
        return from_terms(self.ctx, acc)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        n = int(n)
        if n < 0:
            return self.inverse() ** (-n)
        if n == 0:
            return self.ctx.one()
        # square from the base: the lowest set bit starts the result
        base = self
        while not n & 1:
            base = base * base
            n >>= 1
        result = base
        n >>= 1
        while n:
            base = base * base
            if n & 1:
                result = result * base
            n >>= 1
        return result

    def inverse(self) -> "LaurentPoly":
        """Inverse of a unit: a one-term value, also in the extension variable."""
        if not self.is_monomial():
            raise UnitError("only monomials are invertible in the Laurent ring")
        (exps, n), = self._num.items()
        ev = self.ctx.ext_var
        if ev is not None and exps[ev]:
            # fold the extension variable back via its inverse polynomial
            e = list(exps)
            k = e[ev]
            e[ev] = 0
            rest = LaurentPoly(self.ctx, {tuple(e): n}, _den=self._den).inverse()
            rinv = LaurentPoly(
                self.ctx,
                {tuple(0 if i != ev else d for i in range(self.ctx.nvars())): c
                 for d, c in self.ctx._ext_inv.items()})
            return rest * rinv ** k
        # 1 / (n / den) = den / n, in lowest terms as n / den is
        inv = tuple(-e for e in exps)
        return LaurentPoly(self.ctx, {inv: self._den if n > 0 else -self._den},
                           _den=abs(n))

    # -- calculus and substitution ---------------------------------------

    def derivative(self, name: str) -> "LaurentPoly":
        """Partial derivative by a free variable; the extension variable is
        bound by its minimal polynomial, so it raises :class:`ContextError`."""
        i = self.ctx.index[name]
        if i == self.ctx.ext_var:
            raise ContextError(f"cannot differentiate by the extension variable {name!r}")
        out: dict[Exponents, int] = {}
        for e, n in self._num.items():
            if e[i] == 0:
                continue
            ne = list(e)
            ne[i] -= 1
            out[tuple(ne)] = n * e[i]
        return _value(self.ctx, out, self._den)

    def substitute(self, images: Mapping[str, Union["LaurentPoly", Rat]],
                   target: Optional[VarContext] = None) -> "LaurentPoly":
        """Ring-homomorphism image in ``target`` (default: this context).

        Follows the policy of :func:`resolve_images` and :func:`image_power`:
        an image is an ``int``, a ``Fraction`` or a polynomial of ``target``.
        Each power of an image is taken once; the terms sum on the accumulator.
        """
        tgt = target if target is not None else self.ctx
        if tgt is self.ctx and not images:
            return self

        def lift(value) -> LaurentPoly:
            if isinstance(value, (int, Fraction)):
                return tgt.const(value)
            if value.ctx != tgt:
                raise ContextError("image context mismatch")
            return value

        img = resolve_images(self.ctx, images, tgt, lift)
        one = tgt.one()
        powers: dict[tuple[int, int], LaurentPoly] = {}
        acc = Accumulator()
        for exps, n in self._num.items():
            term = one
            for i, e in enumerate(exps):
                if e:
                    pw = powers.get((i, e))
                    if pw is None:
                        pw = powers[(i, e)] = image_power(self.ctx, img, i, e)
                    term = term * pw
            add_into(acc, term, n)
        return from_terms(tgt, acc, self._den)

    # -- structure helpers -------------------------------------------------

    def min_exponent(self, name: str) -> int:
        i = self.ctx.index[name]
        if self.is_zero():
            return 0
        return min(e[i] for e in self._num)

    def max_exponent(self, name: str) -> int:
        i = self.ctx.index[name]
        if self.is_zero():
            return 0
        return max(e[i] for e in self._num)

    def coefficients_in(self, name: str) -> dict[int, "LaurentPoly"]:
        """Split into coefficients of powers of one variable."""
        i = self.ctx.index[name]
        buckets: dict[int, dict[Exponents, int]] = {}
        for e, n in self._num.items():
            ne = list(e)
            d = ne[i]
            ne[i] = 0
            buckets.setdefault(d, {})[tuple(ne)] = n
        return {d: _value(self.ctx, t, self._den) for d, t in sorted(buckets.items())}


# -- the accumulator ---------------------------------------------------------

class Accumulator:
    """A running sum of polynomials in the stored form: nonzero integer
    numerators over one positive denominator, not yet in lowest terms.
    :func:`add_into` and :func:`add_product` add to it, and
    :func:`from_terms` makes its value, once; the value then owns the dict,
    so the accumulator is not added to again.  ``Accumulator(p)`` starts
    from a copy of ``p``."""

    __slots__ = ("_num", "_den")

    def __init__(self, start: Optional[LaurentPoly] = None):
        if start is None:
            self._num: dict[Exponents, int] = {}
            self._den = 1
        else:
            self._num, self._den = dict(start._num), start._den

    def _join(self, den: int, scale: Rat) -> int:
        """The integer by which numerators over ``den``, times ``scale``,
        join this sum, after widening its denominator to the least common
        multiple; with both denominators 1 that is ``scale`` itself."""
        own = self._den
        if den == own and scale.__class__ is int:
            return scale
        d = den * scale.denominator
        if d == own:
            return scale.numerator
        g = gcd(own, d)
        widen = d // g
        if widen != 1:
            num = self._num
            for e in num:
                num[e] *= widen
            self._den = own * widen
        return scale.numerator * (own // g)


def add_into(acc: Accumulator, p: LaurentPoly, scale: Rat = 1) -> None:
    """Add ``scale * p`` into an accumulator, keeping no zero numerator."""
    k = acc._join(p._den, scale)
    num = acc._num
    for e, c in p._num.items():
        if k != 1:
            c = c * k
        s = num.get(e)
        if s is None:
            num[e] = c
        else:
            s = s + c
            if s:
                num[e] = s
            else:
                del num[e]


def add_product(acc: Accumulator, a: LaurentPoly, b: LaurentPoly,
                scale: Rat = 1) -> None:
    """Add ``scale * a * b`` into an accumulator, keeping no zero numerator,
    term product by term product, the shorter operand outside."""
    k = acc._join(a._den * b._den, scale)
    num = acc._num
    a, b = a._num, b._num
    if len(a) > len(b):
        a, b = b, a
    b_terms = b.items()
    for ea, ca in a.items():
        if k != 1:
            ca = ca * k
        for eb, cb in b_terms:
            e = tuple(map(add, ea, eb))
            c = ca * cb
            s = num.get(e)
            if s is None:
                num[e] = c
            else:
                s = s + c
                if s:
                    num[e] = s
                else:
                    del num[e]


def from_terms(ctx: VarContext, acc: Accumulator, divisor: int = 1) -> LaurentPoly:
    """The value of an accumulator divided by the positive integer
    ``divisor``."""
    return _value(ctx, acc._num, acc._den * divisor)


def _value(ctx: VarContext, num: dict[Exponents, int], den: int) -> LaurentPoly:
    """The value ``num / den``, in lowest terms by one :func:`math.gcd`;
    only an extension context has exponents left to reduce."""
    if ctx.ext_var is not None:
        return LaurentPoly(ctx, {e: Fraction(n, den) for e, n in num.items()})
    if den != 1:
        g = gcd(den, *num.values())
        if g != 1:
            num = {e: n // g for e, n in num.items()}
            den //= g
    return LaurentPoly(ctx, num, _den=den)


def stored_form(p: LaurentPoly) -> tuple[dict[Exponents, int], int]:
    """The integer numerators and the denominator of ``p``, as stored: for
    the one kernel outside this module that sums terms itself,
    ``fractions.Substitution.poly``.  The dict is the value's own."""
    return p._num, p._den


def _normalize(ctx: VarContext, terms: Mapping[Exponents, Rat]
               ) -> tuple[dict[Exponents, int], int]:
    """The stored form of a dict of rational coefficients: zeros dropped,
    extension exponents reduced, and the coefficients put over their least
    common denominator, which leaves them in lowest terms."""
    rats: dict[Exponents, Rat] = {}
    for e, c in terms.items():
        c = _rat(c)
        if c:
            rats[e] = c
    if ctx.ext_var is not None:
        rats = _reduce_extension(ctx, rats)
    den = lcm(*[c.denominator for c in rats.values()])
    if den == 1:
        return rats, 1
    return {e: c.numerator * (den // c.denominator) for e, c in rats.items()}, den


def _reduce_extension(ctx: VarContext, terms: dict[Exponents, Rat]) -> dict[Exponents, Rat]:
    """Exponents of the extension variable brought into ``[0, deg-1]``."""
    out: dict[Exponents, Rat] = {}
    ev = ctx.ext_var
    pending = list(terms.items())
    d = ctx.ext_deg
    while pending:
        e, c = pending.pop()
        if not (0 <= e[ev] < d):
            k = e[ev]
            if k >= d:
                table, shift = ctx._ext_high, k - d
            else:
                table, shift = ctx._ext_inv, k + 1
            for re, rc in table.items():
                ne = list(e)
                ne[ev] = re + shift
                pending.append((tuple(ne), c * rc))
            continue
        s = out.get(e)
        if s is None:
            if c:
                out[e] = _co(c)
        else:
            s = s + c
            if s:
                out[e] = _co(s)
            else:
                del out[e]
    return out


# -- exact division -------------------------------------------------------

def exact_divide(p: LaurentPoly, f: LaurentPoly) -> Optional[LaurentPoly]:
    """Return ``p / f`` when exact, else ``None``.

    Works in the Laurent ring: both operands are shifted to ordinary
    polynomials first, so division by a monomial always succeeds.  The
    primitive parts of the integer numerators are divided in integers: by
    Gauss's lemma a quotient of primitive polynomials over Q has integer
    coefficients, so a step whose leading coefficient does not divide is a
    miss.  The contents and denominators make the quotient's scale.
    """
    if f.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if p.is_zero():
        return p
    if p.ctx != f.ctx:
        raise ContextError("context mismatch")
    n = p.ctx.nvars()
    pnum, fnum = p._num, f._num
    pmin = [min(e[i] for e in pnum) for i in range(n)]
    fmin = [min(e[i] for e in fnum) for i in range(n)]
    pc, fc = gcd(*pnum.values()), gcd(*fnum.values())
    P = {tuple(x - m for x, m in zip(e, pmin)): c // pc for e, c in pnum.items()}
    F = {tuple(x - m for x, m in zip(e, fmin)): c // fc for e, c in fnum.items()}
    lf = max(F)
    lc = F[lf]
    quot: dict[Exponents, int] = {}
    while P:
        lp = max(P)
        diff = tuple(a - b for a, b in zip(lp, lf))
        if any(d < 0 for d in diff):
            return None
        c, r = divmod(P[lp], lc)
        if r:
            return None
        # the leading exponent falls at each step, so each diff comes once
        quot[diff] = c
        for e, g in F.items():
            t = tuple(a + b for a, b in zip(diff, e))
            s = P.get(t, 0) - c * g
            if s:
                P[t] = s
            else:
                P.pop(t, None)
    # p / f = (pc / p.den) / (fc / f.den) * quot
    scale = Fraction(pc * f._den, fc * p._den)
    shift = tuple(a - b for a, b in zip(pmin, fmin))
    return _value(p.ctx, {tuple(a + b for a, b in zip(e, shift)): c * scale.numerator
                          for e, c in quot.items()}, scale.denominator)


# -- the substitution policy -------------------------------------------------

def resolve_images(ctx: VarContext, images: Mapping[str, object],
                   target: VarContext, lift: Callable[[object], V]
                   ) -> list[Optional[V]]:
    """The image of each variable of ``ctx``, in order, lifted into the value
    ring: the one policy of every substitution.

    A variable with no image maps to the ``target`` variable of the same
    name, and to ``None`` when ``target`` has none; a float image raises
    ``TypeError``, and ``lift`` raises for another image it cannot carry.
    An image keyed by a name that is not a variable of ``ctx`` raises
    :class:`ContextError` naming it, so a mistyped key never substitutes
    nothing.  When ``ctx`` has an algebraic extension, the image of its
    variable must be a root of the minimal polynomial in the value ring (one
    evaluation of it, tested by truth value), since only then is the
    substitution a ring map; :class:`ContextError` otherwise.
    """
    for name in images:
        if name not in ctx.index:
            raise ContextError(f"image of {name!r}, which is not a variable of "
                               f"the source context ({', '.join(ctx.names)})")
    img: list[Optional[V]] = []
    for name in ctx.names:
        if name in images:
            if isinstance(images[name], float):
                raise TypeError(f"image of {name!r} is a float, not an int or a Fraction")
            img.append(lift(images[name]))
        elif name in target.index:
            img.append(lift(target.var(name)))
        else:
            img.append(None)
    ev = ctx.ext_var
    root = img[ev] if ev is not None else None
    if root is not None:
        # m(root) = root^d - sum_k high_k root^k, from r^d = sum_k high_k r^k
        m = root ** ctx.ext_deg
        for k, c in ctx._ext_high.items():
            m = m - lift(c) * root ** k
        if m:
            raise ContextError(f"image of {ctx.names[ev]!r} is not a root of "
                               "its minimal polynomial")
    return img


def image_power(ctx: VarContext, img: list[Optional[V]], i: int, e: int) -> V:
    """``img[i] ** e`` for variable ``i`` of ``ctx``, under the policy of
    :func:`resolve_images`: :class:`ContextError` when the variable has no
    image, and :class:`UnitError` for a negative power of a polynomial image
    that is not a unit."""
    name = ctx.names[i]
    if img[i] is None:
        raise ContextError(f"variable {name!r} has no image")
    try:
        return img[i] ** e
    except UnitError:
        raise UnitError(f"negative power of {name!r} needs a unit image") from None


# -- text grammar -----------------------------------------------------------

def serialize_poly(p: LaurentPoly) -> str:
    """Canonical emission: terms by descending lex exponent order, the
    order of the cached :meth:`LaurentPoly.key`.

    A coefficient with a number of more digits than the interpreter's
    limit, ``sys.get_int_max_str_digits()``, has no text: that raises a
    :class:`ValueError` naming its monomial and the limit."""
    if p.is_zero():
        return "0"
    parts = []
    for exps, coeff in p.key():
        try:
            factors = [str(coeff)]
        except ValueError:
            monomial = "*".join(f"{name}^{e}" for name, e in zip(p.ctx.names, exps) if e)
            raise ValueError(f"the coefficient of the monomial {monomial or '1'} has a "
                             f"number of more than {sys.get_int_max_str_digits()} digits, "
                             "the interpreter's limit on the digits of an integer") from None
        for name, e in zip(p.ctx.names, exps):
            if e:
                factors.append(f"{name}^{e}")
        parts.append("*".join(factors))
    return " + ".join(parts)


# a numeric literal up to the exponent marker of scientific notation
_MANTISSA = re.compile(r"(\d+\.?\d*|\.\d+)[eE]")
# a sign, kept by ``split``
_SIGN = re.compile(r"([+-])")
# a coefficient that ``int`` reads exactly as ``Fraction`` would
_INTEGER = re.compile(r"[0-9]+")
# the digits of the decimal exponent that ends a literal, as ``Fraction`` reads it
_EXPONENT = re.compile(r"[eE][-+]?([0-9_]+)\s*\Z")
# a run of digits as ``int`` reads it, underscores between them
_DIGITS = re.compile(r"[0-9][0-9_]*")


def check_exponent(literal: str, label: str) -> None:
    """Refuse a literal whose decimal exponent exceeds the interpreter's
    limit on the digits of an integer, ``sys.get_int_max_str_digits()`` (0
    means no limit), with a :class:`ValueError` that names ``label``.
    ``Fraction`` would first build ten to that power, which takes seconds
    at ten million and longer beyond."""
    limit = sys.get_int_max_str_digits()
    m = _EXPONENT.search(literal)
    if m is None or not limit:
        return
    digits = m[1].replace("_", "").lstrip("0")
    if len(digits) > len(str(limit)) or int(digits or "0") > limit:
        raise ValueError(f"{label} has a decimal exponent above {limit}, the "
                         "interpreter's limit on the digits of an integer")


def split_assignments(text: str, label: str, word: str
                      ) -> Iterator[tuple[str, str, str]]:
    """``(piece, name, value)`` for each piece of ``name=value,...`` in order,
    blanks stripped and empty pieces skipped; a piece with no name or value
    (``<label>piece 'u' is not name=<word>``) or a name given again
    (``<label>names 'u' more than once``) raises ``ValueError`` when reached."""
    seen = set()
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        name, sep, value = piece.partition("=")
        name, value = name.strip(), value.strip()
        if not (sep and name and value):
            raise ValueError(f"{label}piece {piece!r} is not name={word}")
        if name in seen:
            raise ValueError(f"{label}names {name!r} more than once")
        seen.add(name)
        yield piece, name, value


def _check_digits(term: str, limit: int) -> None:
    """Refuse a number in ``term`` of more than ``limit`` digits, the
    interpreter's limit, with a :class:`ValueError` that names the term,
    shortened; ``int`` and ``Fraction`` would refuse it naming nothing.  The
    numbers are the digit runs of each exponent and of each factor that is
    not a variable name."""
    for fac in term.split("*"):
        num = fac.rpartition("^")[2].strip()
        if not num.isidentifier() and any(len(run.replace("_", "")) > limit
                                          for run in _DIGITS.findall(num)):
            raise ValueError(f"term {reprlib.repr(term)} has a number of more than "
                             f"{limit} digits, the interpreter's limit on the digits "
                             "of an integer")


def parse_poly(ctx: VarContext, text: str) -> LaurentPoly:
    """Parse the polynomial grammar; variables must be declared in ``ctx``.

    The terms are summed into one dict and normalized once.  A plain
    integer literal is read with ``int``, any other coefficient with
    ``Fraction``.
    """
    text = text.strip()
    if not text:
        raise ValueError("empty polynomial text")
    if text == "0":
        return ctx.zero()
    # split into signed terms at top level: a sign after a blank buffer
    # signs the term, one after an operator or a mantissa, blanks aside,
    # belongs to the term, and any other ends it
    terms: list[tuple[int, str]] = []
    pieces = _SIGN.split(text)
    sign, buf = 1, pieces[0]
    for ch, piece in zip(pieces[1::2], pieces[2::2]):
        if not buf.strip():
            sign = -sign if ch == "-" else sign
            buf += piece
        elif buf.rstrip()[-1] in "*^+-" or _MANTISSA.fullmatch(buf.rpartition("*")[2].strip()):
            buf += ch + piece
        else:
            terms.append((sign, buf.strip()))
            sign, buf = (1 if ch == "+" else -1), piece
    terms.append((sign, buf.strip()))
    index = ctx.index
    limit = sys.get_int_max_str_digits()
    acc: dict[Exponents, Rat] = {}
    integral = ctx.ext_var is None
    for sgn, term in terms:
        if not term:
            raise ValueError("malformed polynomial text")
        if 0 < limit < len(term):
            _check_digits(term, limit)
        factors = [f.strip() for f in term.split("*")]
        coeff: Rat = sgn
        exps = [0] * len(index)
        for fac in factors:
            if "^" in fac:
                var, _, exp = fac.partition("^")
                var = var.strip()
                if var not in index:
                    raise ContextError(f"undeclared variable {var!r}")
                try:
                    exps[index[var]] += int(exp)
                except ValueError:
                    raise ValueError(f"term {term!r} has exponent {exp.strip()!r}, "
                                     "which is not an integer") from None
            elif fac in index:
                exps[index[fac]] += 1
            elif _INTEGER.fullmatch(fac):
                coeff *= int(fac)
            else:
                if fac.isidentifier():
                    raise ContextError(f"undeclared variable {fac!r}")
                check_exponent(fac, f"term {term!r}")
                integral = False
                try:
                    coeff *= Fraction(fac)
                except ZeroDivisionError:
                    raise ValueError(f"term {term!r} has a zero denominator") from None
                except ValueError:
                    raise ValueError(f"term {term!r} has factor {fac!r}, which is neither "
                                     "a variable nor a number") from None
        e = tuple(exps)
        s = acc.get(e, 0) + coeff
        if s:
            acc[e] = s
        else:
            acc.pop(e, None)
    # integer coefficients outside an extension are the stored form already
    return LaurentPoly(ctx, acc, _den=1) if integral else LaurentPoly(ctx, acc)
