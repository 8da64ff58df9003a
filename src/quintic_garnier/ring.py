"""Exact multivariate Laurent polynomials over the rationals.

A :class:`LaurentPoly` is a finite sum of terms ``c * x1^e1 * ... * xn^en``
with nonzero rational ``c`` and integer (possibly negative) exponents.  The
variable universe is fixed by a :class:`VarContext`; two values interoperate
only when they share a context.  Terms are stored sparsely as a dict mapping
exponent vectors to coefficients, and every value is normalized on
construction (no zero coefficients, exponents of an algebraic-extension
variable reduced into ``[0, deg-1]``).

A stored coefficient is a :data:`Rat`: an ``int`` when it is integral and a
``Fraction`` otherwise, so integer polynomials multiply with ``int``
arithmetic and never build a ``Fraction``.  ``int`` and ``Fraction`` compare and hash alike and
print the same, so keys and text do not depend on which one is stored.
Every division goes through ``Fraction`` (``int / int`` would be a float),
constructors raise ``TypeError`` for a float, and :meth:`constant_value`
returns a ``Fraction``.

The context may declare one algebraic extension: a designated variable ``r``
together with a monic minimal polynomial over Q.  Arithmetic then happens in
``Q[r]/(m(r))`` tensored with the Laurent ring on the remaining variables;
``r`` is a unit because ``m`` has nonzero constant term.

Substitution has one policy and two routes.  The policy: images are
rationals, polynomials or (for ``fractions.eval_poly``) fractions; a variable
with no image maps to the target variable of the same name; ``ContextError``
is raised only when a variable that occurs has no image, or when an image is
a polynomial of another context, and ``UnitError`` for a negative power of a
polynomial image that is not a signed monomial.  The routes:
:meth:`LaurentPoly.substitute` maps the exponents of every term linearly when
each image is one term (a monomial of the target or a nonzero rational, as
``braids.parse_substitution`` and ``--at`` give), and hands every other input
to :func:`evaluate`, the generic loop over any ring with ``+``, ``*`` and
``**``.

The text grammar used for serialization is::

    term := [sign] rational ('*' var '^' int)*

terms joined by ``+``/``-``; canonical emission orders terms by descending
lexicographic exponent order and omits zero exponents.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Optional, TypeVar, Union

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
        return LaurentPoly(self, {}, _normalized=True)

    def one(self) -> "LaurentPoly":
        return self.const(1)

    def const(self, c: Rat) -> "LaurentPoly":
        c = _rat(c)
        if c == 0:
            return self.zero()
        return LaurentPoly(self, {(0,) * self.nvars(): c}, _normalized=True)

    def var(self, name: str, power: int = 1) -> "LaurentPoly":
        return self.monomial(1, {name: power})

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
    """Sparse Laurent polynomial; immutable by convention."""

    __slots__ = ("ctx", "terms", "_key")

    def __init__(self, ctx: VarContext, terms: dict[Exponents, Rat],
                 _normalized: bool = False):
        self.ctx = ctx
        if not _normalized:
            terms = _normalize(ctx, terms)
        self.terms = terms
        self._key: Optional[tuple] = None

    # -- basics ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        if len(self.terms) != 1:
            return False
        (exps, coeff), = self.terms.items()
        return coeff == 1 and not any(exps)

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1
                                  and not any(next(iter(self.terms))))

    def constant_value(self) -> Fraction:
        if self.is_zero():
            return Fraction(0)
        if not self.is_constant():
            raise UnitError("not a constant")
        return Fraction(next(iter(self.terms.values())))

    def key(self) -> tuple:
        """Canonical hashable form (terms sorted by descending exponents)."""
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
        return self.ctx == other.ctx and self.terms == other.terms

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
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e)
            if s is None:
                terms[e] = c
            else:
                s = s + c
                if s:
                    terms[e] = _co(s)
                else:
                    del terms[e]
        return LaurentPoly(self.ctx, terms, _normalized=True)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly(self.ctx, {e: -c for e, c in self.terms.items()},
                           _normalized=True)

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
        a, b = self.terms, other.terms
        if not a or (len(b) == 1 and other.is_one()):
            return self
        if not b or (len(a) == 1 and self.is_one()):
            return other
        if len(a) > len(b):
            a, b = b, a
        out: dict[Exponents, Rat] = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                c = ca * cb
                s = out.get(e)
                if s is None:
                    out[e] = _co(c)
                else:
                    s = s + c
                    if s:
                        out[e] = _co(s)
                    else:
                        del out[e]
        return _from_acc(self.ctx, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        n = int(n)
        if n < 0:
            return self.inverse() ** (-n)
        result = self.ctx.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def inverse(self) -> "LaurentPoly":
        """Inverse of a unit (signed monomial, also in the extension variable)."""
        if not self.is_monomial():
            raise UnitError("only monomials are invertible in the Laurent ring")
        (exps, coeff), = self.terms.items()
        ev = self.ctx.ext_var
        if ev is not None and exps[ev]:
            # fold the extension variable back via its inverse polynomial
            e = list(exps)
            k = e[ev]
            e[ev] = 0
            rest = LaurentPoly(self.ctx, {tuple(e): coeff}).inverse()
            rinv = LaurentPoly(
                self.ctx,
                {tuple(0 if i != ev else d for i in range(self.ctx.nvars())): c
                 for d, c in self.ctx._ext_inv.items()})
            return rest * rinv ** k
        inv = tuple(-e for e in exps)
        return LaurentPoly(self.ctx, {inv: _co(Fraction(1) / coeff)},
                           _normalized=True)

    # -- calculus and substitution ---------------------------------------

    def derivative(self, name: str) -> "LaurentPoly":
        """Partial derivative by a free variable; the extension variable is
        bound by its minimal polynomial, so it raises :class:`ContextError`."""
        i = self.ctx.index[name]
        if i == self.ctx.ext_var:
            raise ContextError(f"cannot differentiate by the extension variable {name!r}")
        out: dict[Exponents, Rat] = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            ne = list(e)
            ne[i] -= 1
            out[tuple(ne)] = _co(c * e[i])
        return LaurentPoly(self.ctx, out, _normalized=True)

    def substitute(self, images: Mapping[str, Union["LaurentPoly", Rat]],
                   target: Optional[VarContext] = None) -> "LaurentPoly":
        """Ring-homomorphism image in ``target`` (default: this context).

        Follows the substitution policy of :func:`evaluate`; an image is an
        ``int``, a ``Fraction`` or a polynomial of ``target``.  When every
        image is one term, a nonzero rational or a monomial of ``target``,
        each term maps to one term: its exponents map linearly and its
        coefficient takes powers of the image coefficients, and the terms
        are summed into one accumulator.  Any other image (zero, several
        terms, another context) goes through :func:`evaluate`.
        """
        tgt = target if target is not None else self.ctx
        if tgt is self.ctx and not images:
            return self
        units = _unit_images(self.ctx, images, tgt)
        if units is not None:
            return _substitute_units(self, units, tgt)

        def lift(value) -> LaurentPoly:
            if isinstance(value, (int, Fraction)):
                return tgt.const(value)
            if value.ctx != tgt:
                raise ContextError("image context mismatch")
            return value

        return evaluate(self, images, tgt, lift)

    # -- structure helpers -------------------------------------------------

    def min_exponent(self, name: str) -> int:
        i = self.ctx.index[name]
        if self.is_zero():
            return 0
        return min(e[i] for e in self.terms)

    def max_exponent(self, name: str) -> int:
        i = self.ctx.index[name]
        if self.is_zero():
            return 0
        return max(e[i] for e in self.terms)

    def coefficients_in(self, name: str) -> dict[int, "LaurentPoly"]:
        """Split into coefficients of powers of one variable."""
        i = self.ctx.index[name]
        buckets: dict[int, dict[Exponents, Rat]] = {}
        for e, c in self.terms.items():
            ne = list(e)
            d = ne[i]
            ne[i] = 0
            buckets.setdefault(d, {})[tuple(ne)] = c
        return {d: LaurentPoly(self.ctx, t, _normalized=True)
                for d, t in sorted(buckets.items())}


def _from_acc(ctx: VarContext, acc: dict[Exponents, Rat]) -> LaurentPoly:
    """The value of an accumulator of nonzero stored coefficients: only an
    extension context has exponents left to reduce."""
    if ctx.ext_var is not None:
        return LaurentPoly(ctx, acc)
    return LaurentPoly(ctx, acc, _normalized=True)


def _normalize(ctx: VarContext, terms: dict[Exponents, Rat]) -> dict[Exponents, Rat]:
    out: dict[Exponents, Rat] = {}
    ev = ctx.ext_var
    pending = [(e, _rat(c)) for e, c in terms.items() if c]
    d = ctx.ext_deg
    while pending:
        e, c = pending.pop()
        if ev is not None and not (0 <= e[ev] < d):
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


def _unit_images(src: VarContext, images: Mapping[str, object],
                 tgt: VarContext) -> Optional[list]:
    """Per variable of ``src``, its image ``(coefficient, ((j, exponent), ...))``
    over the variables ``j`` of ``tgt``, or ``None`` for a variable with no
    image; ``None`` overall when an image is not one term of ``tgt``."""
    units: list = []
    for name in src.names:
        if name in images:
            value = images[name]
            if isinstance(value, LaurentPoly):
                if len(value.terms) != 1 or (value.ctx is not tgt and value.ctx != tgt):
                    return None
                (exps, c), = value.terms.items()
                units.append((c, tuple((j, e) for j, e in enumerate(exps) if e)))
            elif isinstance(value, (int, Fraction)) and value:
                units.append((_co(value), ()))
            else:
                return None
        elif name in tgt.index:
            units.append((1, ((tgt.index[name], 1),)))
        else:
            units.append(None)
    return units


def _substitute_units(p: LaurentPoly, units: list, tgt: VarContext) -> LaurentPoly:
    """``p`` at one-term images (see :func:`_unit_images`): each term maps to
    one term of ``tgt``, summed into one accumulator."""
    n = tgt.nvars()
    acc: dict[Exponents, Rat] = {}
    for exps, c in p.terms.items():
        out = [0] * n
        for i, k in enumerate(exps):
            if not k:
                continue
            unit = units[i]
            if unit is None:
                raise ContextError(f"variable {p.ctx.names[i]!r} has no image")
            uc, ue = unit
            if uc == -1:
                if k & 1:
                    c = -c
            elif uc != 1:
                c = c * (uc ** k if k > 0 else Fraction(uc) ** k)
            for j, e in ue:
                out[j] += k * e
        e = tuple(out)
        s = acc.get(e)
        if s is None:
            acc[e] = _co(c)
        else:
            s = s + c
            if s:
                acc[e] = _co(s)
            else:
                del acc[e]
    return _from_acc(tgt, acc)


# -- exact division -------------------------------------------------------

def exact_divide(p: LaurentPoly, f: LaurentPoly) -> Optional[LaurentPoly]:
    """Return ``p / f`` when exact, else ``None``.

    Works in the Laurent ring: both operands are shifted to ordinary
    polynomials first, so division by a monomial always succeeds.
    """
    if f.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if p.is_zero():
        return p
    if p.ctx != f.ctx:
        raise ContextError("context mismatch")
    n = p.ctx.nvars()
    pmin = [min(e[i] for e in p.terms) for i in range(n)]
    fmin = [min(e[i] for e in f.terms) for i in range(n)]
    P = {tuple(x - m for x, m in zip(e, pmin)): c for e, c in p.terms.items()}
    F = {tuple(x - m for x, m in zip(e, fmin)): c for e, c in f.terms.items()}
    lf = max(F)
    cf = F[lf]
    quot: dict[Exponents, Rat] = {}
    while P:
        lp = max(P)
        diff = tuple(a - b for a, b in zip(lp, lf))
        if any(d < 0 for d in diff):
            return None
        c = _co(Fraction(P[lp]) / cf)
        quot[diff] = quot.get(diff, 0) + c
        for e, fc in F.items():
            t = tuple(a + b for a, b in zip(diff, e))
            s = P.get(t, 0) - c * fc
            if s:
                P[t] = s
            else:
                P.pop(t, None)
    shift = tuple(a - b for a, b in zip(pmin, fmin))
    return LaurentPoly(p.ctx, {tuple(a + b for a, b in zip(e, shift)): c
                               for e, c in quot.items() if c})


# -- evaluation --------------------------------------------------------------

def evaluate(p: LaurentPoly, images: Mapping[str, object], target: VarContext,
             lift: Callable[[object], V]) -> V:
    """Evaluate ``p`` at images of its variables in any ring with ``+``, ``*``
    and ``**``: the generic loop behind every substitution except
    :meth:`LaurentPoly.substitute` at images that are all one term.

    ``lift`` carries a rational, an image or a polynomial of ``target`` into
    the value ring.  A variable with no image maps to the ``target`` variable
    of the same name; :class:`ContextError` is raised only when a variable
    that occurs in ``p`` has neither.  A negative power of a polynomial
    image that is not a unit raises :class:`UnitError`.
    """
    img: list[Optional[V]] = []
    for name in p.ctx.names:
        if name in images:
            img.append(lift(images[name]))
        elif name in target.index:
            img.append(lift(target.var(name)))
        else:
            img.append(None)
    out = lift(0)
    pow_cache: dict[tuple[int, int], V] = {}
    for exps, coeff in p.terms.items():
        term = lift(coeff)
        for i, e in enumerate(exps):
            if e == 0:
                continue
            pc = pow_cache.get((i, e))
            if pc is None:
                name = p.ctx.names[i]
                if img[i] is None:
                    raise ContextError(f"variable {name!r} has no image")
                try:
                    pc = pow_cache[(i, e)] = img[i] ** e
                except UnitError:
                    raise UnitError(f"negative power of {name!r} needs a "
                                    "unit image") from None
            term = term * pc
        out = out + term
    return out


# -- text grammar -----------------------------------------------------------

def serialize_poly(p: LaurentPoly) -> str:
    """Canonical emission: terms by descending lex exponent order."""
    if p.is_zero():
        return "0"
    parts = []
    for exps, coeff in sorted(p.terms.items(), reverse=True):
        factors = [str(coeff)]
        for name, e in zip(p.ctx.names, exps):
            if e:
                factors.append(f"{name}^{e}")
        parts.append("*".join(factors))
    return " + ".join(parts)


# a numeric literal up to the exponent marker of scientific notation
_MANTISSA = re.compile(r"(\d+\.?\d*|\.\d+)[eE]")
# a coefficient that ``int`` reads exactly as ``Fraction`` would
_INTEGER = re.compile(r"[0-9]+")


def parse_poly(ctx: VarContext, text: str) -> LaurentPoly:
    """Parse the polynomial grammar; variables must be declared in ``ctx``.

    The terms are summed into one accumulator and normalized once.  A plain
    integer literal is read with ``int``, any other coefficient with
    ``Fraction``.
    """
    text = text.strip()
    if not text:
        raise ValueError("empty polynomial text")
    if text == "0":
        return ctx.zero()
    # split into signed terms at top level
    terms: list[tuple[int, str]] = []
    sign, buf = 1, []
    for i, ch in enumerate(text):
        if ch in "+-":
            if not "".join(buf).strip():
                sign *= 1 if ch == "+" else -1
            elif text[i - 1] in "*^+-" or _MANTISSA.fullmatch(
                    "".join(buf).rpartition("*")[2].strip()):
                buf.append(ch)
            else:
                terms.append((sign, "".join(buf).strip()))
                sign, buf = (1 if ch == "+" else -1), []
        else:
            buf.append(ch)
    terms.append((sign, "".join(buf).strip()))
    index = ctx.index
    acc: dict[Exponents, Rat] = {}
    for sgn, term in terms:
        if not term:
            raise ValueError("malformed polynomial text")
        factors = [f.strip() for f in term.split("*")]
        coeff: Rat = sgn
        exps = [0] * len(index)
        for fac in factors:
            if "^" in fac:
                var, _, exp = fac.partition("^")
                var = var.strip()
                if var not in index:
                    raise ContextError(f"undeclared variable {var!r}")
                exps[index[var]] += int(exp)
            elif fac in index:
                exps[index[fac]] += 1
            elif _INTEGER.fullmatch(fac):
                coeff *= int(fac)
            else:
                try:
                    coeff *= Fraction(fac)
                except ZeroDivisionError:
                    raise ValueError(f"term {term!r} has a zero denominator") from None
        e = tuple(exps)
        s = acc.get(e, 0) + coeff
        if s:
            acc[e] = _co(s)
        else:
            acc.pop(e, None)
    return _from_acc(ctx, acc)
