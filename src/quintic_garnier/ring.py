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

Outside this module a term dict is written only through the accumulator:
:func:`add_into` adds ``scale * p`` and :func:`add_product` ``scale * a * b``,
one term product at a time, keeping no zero, and :func:`from_terms` makes
the value, re-reducing exponents only in an extension context.
``LaurentPoly.__add__`` and ``__mul__`` run on the same two.

A value answers for its terms too (``is_constant``, ``monomial_term``,
``key``, ``min_exponent``, ``coefficients_in``): outside this module only
the kernel ``fractions.Substitution.poly`` reads ``terms`` itself.

The context may declare one algebraic extension: a designated variable ``r``
together with a monic minimal polynomial over Q.  Arithmetic then happens in
``Q[r]/(m(r))`` tensored with the Laurent ring on the remaining variables;
``r`` is a unit because ``m`` has nonzero constant term.

Substitution has one policy, :func:`resolve_images` with
:func:`image_power`.  Images are rationals, polynomials or (in
``fractions``) fractions, never floats (``TypeError``); a variable with no
image maps to the target variable of the same name; ``ContextError`` is
raised when a variable that occurs has no image, when an image is a
polynomial of another context, or when the image of an extension variable
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
        return LaurentPoly(self, {}, _normalized=True)

    def one(self) -> "LaurentPoly":
        return self.const(1)

    def const(self, c: Rat) -> "LaurentPoly":
        c = _rat(c)
        if c == 0:
            return self.zero()
        return LaurentPoly(self, {(0,) * self.nvars(): c}, _normalized=True)

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

    def monomial_term(self) -> tuple[Exponents, Rat]:
        """``(exponents, coefficient)`` of a one-term value, the coefficient
        as stored; :class:`UnitError` for zero or more than one term."""
        if len(self.terms) != 1:
            raise UnitError("not a one-term value")
        term, = self.terms.items()
        return term

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
        add_into(terms, other)
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
        out: dict[Exponents, Rat] = {}
        add_product(out, self, other)
        return from_terms(self.ctx, out)

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
        acc: dict[Exponents, Rat] = {}
        for exps, coeff in self.terms.items():
            term = one
            for i, e in enumerate(exps):
                if e:
                    pw = powers.get((i, e))
                    if pw is None:
                        pw = powers[(i, e)] = image_power(self.ctx, img, i, e)
                    term = term * pw
            add_into(acc, term, coeff)
        return from_terms(tgt, acc)

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


# -- the accumulator ---------------------------------------------------------

def add_into(acc: dict[Exponents, Rat], p: LaurentPoly, scale: Rat = 1) -> None:
    """Add ``scale * p`` into an accumulator of nonzero stored coefficients."""
    for e, c in p.terms.items():
        if scale != 1:
            c = c * scale
        s = acc.get(e)
        if s is None:
            acc[e] = _co(c)
        else:
            s = s + c
            if s:
                acc[e] = _co(s)
            else:
                del acc[e]


def add_product(acc: dict[Exponents, Rat], a: LaurentPoly, b: LaurentPoly,
                scale: Rat = 1) -> None:
    """Add ``scale * a * b`` into an accumulator of nonzero stored coefficients
    term product by term product, the shorter operand outside."""
    a, b = a.terms, b.terms
    if len(a) > len(b):
        a, b = b, a
    b_terms = b.items()
    for ea, ca in a.items():
        if scale != 1:
            ca = ca * scale
        for eb, cb in b_terms:
            e = tuple(map(add, ea, eb))
            c = ca * cb
            s = acc.get(e)
            if s is None:
                acc[e] = _co(c)
            else:
                s = s + c
                if s:
                    acc[e] = _co(s)
                else:
                    del acc[e]


def from_terms(ctx: VarContext, acc: dict[Exponents, Rat]) -> LaurentPoly:
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
        # the leading exponent falls at each step, so each diff comes once
        c = _co(Fraction(P[lp]) / cf)
        quot[diff] = c
        for e, fc in F.items():
            t = tuple(a + b for a, b in zip(diff, e))
            s = P.get(t, 0) - c * fc
            if s:
                P[t] = s
            else:
                P.pop(t, None)
    shift = tuple(a - b for a, b in zip(pmin, fmin))
    return from_terms(p.ctx, {tuple(a + b for a, b in zip(e, shift)): c
                              for e, c in quot.items()})


# -- the substitution policy -------------------------------------------------

def resolve_images(ctx: VarContext, images: Mapping[str, object],
                   target: VarContext, lift: Callable[[object], V]
                   ) -> list[Optional[V]]:
    """The image of each variable of ``ctx``, in order, lifted into the value
    ring: the one policy of every substitution.

    A variable with no image maps to the ``target`` variable of the same
    name, and to ``None`` when ``target`` has none; a float image raises
    ``TypeError``, and ``lift`` raises for another image it cannot carry.
    When ``ctx`` has an algebraic extension, the image of its variable must
    be a root of the minimal polynomial in the value ring (one evaluation of
    it, tested by truth value), since only then is the substitution a ring
    map; :class:`ContextError` otherwise.
    """
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

    The terms are summed into one accumulator and normalized once.  A plain
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
            acc[e] = _co(s)
        else:
            acc.pop(e, None)
    return from_terms(ctx, acc)
