"""Letter maps: the fifteen trace coordinates after a substitution of the
free generators, as polynomials in the fifteen before it.

The coordinates are those of :class:`~quintic_garnier.reps.TraceTuple`,
here the variables of :data:`CTX_TRACE` named by :data:`TRACE_NAMES`.  A
:class:`TraceMap` holds, for images of d1..d4 given as words, the trace of
each coordinate word with d1..d4 replaced.  Reduced freely and cyclically,
that word is either a coordinate word again, up to rotation and inversion,
and its trace that coordinate, or it is read as ``A B A^-1 C`` and its
trace is given by the SL2 identity

    tr(A B A^-1 C) = tr A tr(ABC) + tr B tr C - tr(AB) tr(AC) - tr(BC)

(Goldman, "Trace coordinates on Fricke spaces of some simple hyperbolic
surfaces", 2009; Magnus, Math. Z. 170, 1980): the quadratic

    x3 x4 + x5 x6 - x1 x2 - x0

in the traces ``(x0, .., x6) = (tr BC, tr AB, tr AC, tr A, tr ABC, tr B,
tr C)``, its roles, which must be coordinates too.  An entry of any other
shape is refused.  The identity follows from ``A + A^-1 = tr(A) I`` at
determinant one, with the trace a class function and ``tr(W^-1) = tr W``,
so it holds exactly over any commutative ring, ``Q[r]/(m)`` included, for
matrices of determinant one.  That is checked where matrices enter: the
:class:`~quintic_garnier.reps.RepTuple` constructor,
:meth:`~quintic_garnier.sl2.Mat2.inverse` (and so ``RepTuple.five``) and
:func:`~quintic_garnier.sl2.word_evaluate`.  A map sends the coordinates of
a checked tuple to those of its image, which is again unimodular, so maps
can be applied one after another without a matrix.

A map reads the roles of each changed coordinate once.  Bound to a
:class:`ValueTable`, the distinct coordinate values of one orbit, it acts
on ids into the table and evaluates a quadratic once per canonical tuple
of the seven ids it reads.  Different letters and coordinates keep meeting
the same tuple, so the table remembers it across maps, under the ids as
read too, so that a repeated tuple is found without putting it in
canonical form.  The table evaluates the quadratic from the values
themselves: at seven rational constants, as at a rational point, in
integer arithmetic on numerator and denominator pairs, reduced by one gcd
(Knuth, TAOCP vol. 2, 4.5.1), and a value is built only when the table
does not hold the reduced pair yet; otherwise by :func:`_quadratic` on the
polynomials.

:mod:`~quintic_garnier.braids` imports this module when it derives its
first letter map, so importing the package does not load it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count
from math import gcd
from operator import itemgetter
from typing import Callable, Optional, Sequence

from .ring import Accumulator, LaurentPoly, VarContext, add_into, add_product, from_terms
from .sl2 import GroupWord

TRACE_NAMES = ("t1", "t2", "t3", "t4", "t5", "r12", "r13", "r14", "r23", "r24",
               "r34", "r123", "r124", "r134", "r234")
CTX_TRACE = VarContext(TRACE_NAMES)
"""The fifteen coordinates as free variables: the ring the letter maps live in."""
_COORDINATE_LETTERS = ((1,), (2,), (3,), (4,), (1, 2, 3, 4), (1, 2), (1, 3), (1, 4),
                       (2, 3), (2, 4), (3, 4), (1, 2, 3), (1, 2, 4), (1, 3, 4),
                       (2, 3, 4))
"""The fifteen coordinates as words over d1..d4 (generator indices), in
:class:`~quintic_garnier.reps.TraceTuple` order."""


# -- words ---------------------------------------------------------------------
# A word is a tuple of signed generator indices: i for d_i, -i for d_i^-1.

def _inv(w: tuple) -> tuple:
    return tuple(-x for x in reversed(w))


def _cyclic(w: tuple) -> tuple:
    """``w`` freely and cyclically reduced."""
    out: list[int] = []
    for x in w:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    i, j = 0, len(out)
    while j - i > 1 and out[i] == -out[j - 1]:
        i, j = i + 1, j - 1
    return tuple(out[i:j])


def _canon(w: tuple) -> tuple:
    """The least rotation of ``w`` or ``w^-1``, cyclically reduced: words with
    one canonical form have one trace."""
    w = _cyclic(w)
    return min((v[i:] + v[:i] for v in (w, _inv(w)) for i in range(len(v))), default=())


_COORDINATE_CLASSES = {_canon(w): k for k, w in enumerate(_COORDINATE_LETTERS)}


def _conjugation_roles(k: int, word: tuple) -> tuple:
    """The roles ``(x0, .., x6)`` of entry ``k``, whose reduced ``word`` is no
    coordinate: the first rotation of ``word`` or its inverse that reads
    ``A B A^-1 C``, with B and C not empty, and ``(BC, AB, AC, A, ABC, B,
    C)`` all coordinates gives those coordinates, each pair in ascending
    order.  Raises, naming the entry, if there is none."""
    n = len(word)
    splits = ((r[:a], r[a:j], r[j + a:])
              for v in (word, _inv(word)) for i in range(n) for r in (v[i:] + v[:i],)
              for a in range(1, n // 2) for j in range(a + 1, n - a)
              if r[j:j + a] == _inv(r[:a]))
    for a, b, c in splits:
        roles = [_COORDINATE_CLASSES.get(_canon(w))
                 for w in (b + c, a + b, a + c, a, a + b + c, b, c)]
        if None not in roles:
            x0, x1, x2, x3, x4, x5, x6 = roles
            return (x0, min(x1, x2), max(x1, x2), min(x3, x4), max(x3, x4),
                    min(x5, x6), max(x5, x6))
    text = GroupWord((f"d{abs(x)}", 1 if x > 0 else -1) for x in word)
    raise ValueError(f"letter-map entry {TRACE_NAMES[k]} = tr({text!r}) "
                     "is not x3*x4 + x5*x6 - x1*x2 - x0")


_GENERATORS = {f"d{i}": i for i in (1, 2, 3, 4)}


class ValueTable:
    """The distinct coordinate values of one orbit, numbered in the order
    they are first seen, and the memo of the letter maps that act on them.

    An element is a tuple of fifteen ids into :attr:`values`.  A value is
    interned by its :meth:`~quintic_garnier.ring.LaurentPoly.key` once, when
    it is first computed; a key carries no variable context, so the values
    of one table must share one, as those of one orbit do.  Beside each
    value, :attr:`rationals` holds its rational value as a ``(numerator,
    denominator)`` pair in lowest terms, the denominator positive, when it
    is a constant, and ``None`` otherwise; :attr:`constants` maps each such
    pair back to its id.

    :attr:`memo` maps the ids of the seven roles of a changed coordinate,
    in role order, to the id of ``x3 x4 + x5 x6 - x1 x2 - x0`` at those
    ids.  The quadratic is the same for every letter and coordinate, so one
    memo serves them all.  A map stores each tuple it evaluates in the
    canonical form of :func:`_memo_key`, and each tuple it reads under its
    ids as read as well, so a quadratic is evaluated once per canonical
    tuple.  Ids name the interned values of one context, so tuples with one
    canonical form have equal values, and a hit gives the id that
    evaluating and interning would give.

    :meth:`quadratic` evaluates the quadratic at seven ids.  Where all
    seven values are constants, as at a rational point, it works on their
    pairs in integer arithmetic and looks the reduced pair up in
    :attr:`constants`, so only a value the table does not hold yet is
    built; otherwise it runs :func:`_quadratic` on the polynomials.  Both
    give the same value, so the ids do not depend on the path.
    """

    __slots__ = ("values", "rationals", "constants", "memo", "_ids")

    def __init__(self):
        self.values: list[LaurentPoly] = []
        self.rationals: list[Optional[tuple[int, int]]] = []
        self.constants: dict[tuple[int, int], int] = {}
        self._ids: dict[tuple, int] = {}
        self.memo: dict[tuple, int] = {}

    def intern(self, value: LaurentPoly) -> int:
        key = value.key()
        i = self._ids.get(key)
        if i is None:
            i = self._ids[key] = len(self.values)
            self.values.append(value)
            pair = None
            if value.is_constant():
                c = value.monomial_term()[1] if value else 0
                pair = c.numerator, c.denominator
                self.constants[pair] = i
            self.rationals.append(pair)
        return i

    def quadratic(self, key: tuple) -> int:
        """The id of ``x3 x4 + x5 x6 - x1 x2 - x0`` at the seven ids ``key``.

        When all seven values are rational, the four products are
        cross-multiplied over the product of their denominators and the
        result is reduced by one :func:`math.gcd` (Knuth, TAOCP vol. 2,
        4.5.1); a pair the table holds gives its id, and only a new one is
        built and interned as a constant.  Otherwise :func:`_quadratic`, looked up in
        this module when called, evaluates the polynomials.
        """
        rationals = self.rationals
        pairs = [rationals[j] for j in key]
        if None in pairs:
            values = self.values
            return self.intern(_quadratic([values[j] for j in key]))
        (n0, d0), (n1, d1), (n2, d2), (n3, d3), (n4, d4), (n5, d5), (n6, d6) = pairs
        da, db, dc = d3 * d4, d5 * d6, d1 * d2
        dab = da * db
        num = ((n3 * n4 * db + n5 * n6 * da) * dc - n1 * n2 * dab) * d0 - n0 * dab * dc
        den = dab * dc * d0
        g = gcd(num, den)
        num, den = num // g, den // g
        i = self.constants.get((num, den))
        if i is None:
            i = self.intern(self.values[key[0]].ctx.const(Fraction(num, den)))
        return i


class TraceMap:
    """The fifteen coordinates after a substitution of d1..d4, as polynomials
    in the fifteen before it.

    ``polys[k]`` is the trace of coordinate word k with d1..d4 replaced by
    ``images`` (words over d1..d4), a polynomial over :data:`CTX_TRACE`:
    one variable where the reduced word is a coordinate word again, and
    otherwise ``x3 x4 + x5 x6 - x1 x2 - x0`` in the seven coordinates, its
    roles, that :func:`_conjugation_roles` reads off the word; an entry of
    any other shape makes the constructor raise :class:`ValueError`.

    :meth:`bind` gives the map's move on the elements of one
    :class:`ValueTable`: fifteen ids to the ids of the image.  A coordinate
    that is one variable is an id copy.  A changed coordinate reads the ids
    of its roles and looks them up, as read, in the table's
    :attr:`~ValueTable.memo`.  Only on a miss does it put them in canonical
    form (:func:`_memo_key`) and look that up; only a canonical tuple the
    table has not met is evaluated, by :meth:`ValueTable.quadratic`.  The id
    is then stored under both tuples.  The image is read from the fifteen
    ids followed by the new ones by one :func:`~operator.itemgetter`.
    """

    __slots__ = ("polys", "_image", "_changed")

    def __init__(self, images: Sequence[GroupWord]):
        if len(images) != 4:
            raise ValueError("need the images of d1..d4")
        subst = [tuple(_GENERATORS[sym] * e for sym, e in w.letters) for w in images]
        entries = []
        for k, w in enumerate(_COORDINATE_LETTERS):
            word = _cyclic(tuple(x for i in w for x in subst[i - 1]))
            c = _COORDINATE_CLASSES.get(_canon(word))
            entries.append(_conjugation_roles(k, word) if c is None else c)
        xs = [CTX_TRACE.var(name) for name in TRACE_NAMES]
        self.polys = tuple(xs[e] if e.__class__ is int else _quadratic([xs[j] for j in e])
                           for e in entries)
        # the ids of its seven roles, per changed coordinate in order
        self._changed = tuple(itemgetter(*e) for e in entries if e.__class__ is not int)
        # the image reads the fifteen ids followed by the changed coordinates' new ids
        new = count(len(entries))
        self._image = itemgetter(*(e if e.__class__ is int else next(new) for e in entries))

    def bind(self, table: ValueTable) -> Callable[[tuple], tuple]:
        """The map's move on the elements of ``table``, with the table's memo
        and evaluator and the map's getters bound once, for one orbit."""
        memo = table.memo
        get, evaluate = memo.get, table.quadratic
        changed, image = self._changed, self._image

        def move(ids: tuple) -> tuple:
            row = list(ids)
            for roles in changed:
                raw = roles(ids)
                i = get(raw)
                if i is None:
                    key = _memo_key(*raw)
                    i = get(key)
                    if i is None:
                        i = memo[key] = evaluate(key)
                    memo[raw] = i
                row.append(i)
            return image(row)
        return move


def _memo_key(x0: int, x1: int, x2: int, x3: int, x4: int, x5: int, x6: int) -> tuple:
    """The ids of the seven roles in canonical form under the sixteen
    symmetries of the quadratic, which swap the factors of each product and
    the two positive products: each pair ordered, then the positive pairs
    ordered."""
    if x1 > x2:
        x1, x2 = x2, x1
    if x3 > x4:
        x3, x4 = x4, x3
    if x5 > x6:
        x5, x6 = x6, x5
    if (x5, x6) < (x3, x4):
        return x0, x1, x2, x5, x6, x3, x4
    return x0, x1, x2, x3, x4, x5, x6


def _quadratic(v: Sequence[LaurentPoly]) -> LaurentPoly:
    """``v3 v4 + v5 v6 - v1 v2 - v0`` for the values ``v`` of the seven
    roles, summed into one accumulator: the term products go straight into
    it, and no value is built for a product or a partial sum."""
    acc = Accumulator()
    add_product(acc, v[3], v[4])
    add_product(acc, v[5], v[6])
    add_product(acc, v[1], v[2], -1)
    add_into(acc, v[0], -1)
    return from_terms(v[0].ctx, acc)
