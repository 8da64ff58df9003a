"""Trace reduction: the fifteen trace coordinates after a substitution of the
free generators, as polynomials in the fifteen before it.

The coordinates are those of :class:`~quintic_garnier.reps.TraceTuple`,
here the variables of :data:`CTX_TRACE` named by :data:`TRACE_NAMES`.  A
:class:`TraceMap` holds, for images of d1..d4 given as words, the trace of
each coordinate word with d1..d4 replaced: a word in d1..d4 that SL2 trace
reduction rewrites as a polynomial in the coordinates.  The rewriting uses
three identities, all consequences of ``A + A^-1 = tr(A) I`` at
determinant one:

    tr(X W) = tr X tr W - tr(X^-1 W),
    tr(gX gY) = tr(gX) tr(gY) - tr(X Y^-1),
    C B = -B C + tr B C + tr C B + (tr(BC) - tr B tr C) I,

with the trace a class function and ``tr(W^-1) = tr W``.  Each is a
polynomial identity in the matrix entries modulo ``det - 1``, so it holds
exactly over any commutative ring, ``Q[r]/(m)`` included, for matrices of
determinant one.  That is checked where matrices enter: the
:class:`~quintic_garnier.reps.RepTuple` constructor,
:meth:`~quintic_garnier.sl2.Mat2.inverse` (and so ``RepTuple.five``) and
:func:`~quintic_garnier.sl2.word_evaluate`.  A map sends the coordinates of
a checked tuple to those of its image, which is again unimodular, so maps
can be applied one after another without a matrix.  Of the reductions the
rewriting finds, the one with the fewest terms is kept.

Every coordinate a letter changes reduces to one quadratic,

    x3 x4 + x5 x6 - x1 x2 - x0,

in seven coordinates, its roles: the SL2 identity
``tr(A B A^-1 C) = tr A tr(ABC) + tr B tr C - tr(AB) tr(AC) - tr(BC)``
(Goldman, "Trace coordinates on Fricke spaces of some simple hyperbolic
surfaces", 2009; Magnus, Math. Z. 170, 1980).  A map reads the roles of
each changed coordinate once, and refuses an entry of any other shape.  It
acts on ids into a :class:`ValueTable`, the distinct coordinate values of
one orbit, and evaluates a quadratic once per canonical tuple of the seven
ids it reads.  Different letters and coordinates keep meeting the same
tuple, so the table remembers it across maps, under the ids as read too,
so that a repeated tuple is found without putting it in canonical form.

:mod:`~quintic_garnier.braids` imports this module when it derives its
first letter map, so importing the package does not load it.
"""

from __future__ import annotations

from itertools import count
from operator import add, itemgetter
from typing import Sequence

from .ring import LaurentPoly, VarContext, _co, _from_acc, serialize_poly
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


# -- trace reduction ---------------------------------------------------------
# A word is a tuple of signed generator indices: i for d_i, -i for d_i^-1.
# Reductions are derived on first use and remembered in _TRACES.

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


def _measure(w: tuple) -> tuple[int, int, int]:
    """(length, inverse letters, disorder): every rewrite of :func:`_rewrites`
    leaves only words of smaller measure, so the reduction terminates.  The
    disorder of a word of distinct positive letters is its number of
    inversions read from its least letter; other words have none."""
    neg = sum(x < 0 for x in w)
    if neg or len(set(w)) < len(w):
        return len(w), neg, 0
    k = w.index(min(w))
    r = w[k:] + w[:k]
    return len(w), 0, sum(a > b for i, a in enumerate(r) for b in r[i + 1:])


_COORDINATE_CLASSES = {_canon(w): k for k, w in enumerate(_COORDINATE_LETTERS)}
_TRACES: dict[tuple, LaurentPoly] = {}


def _trace(w: tuple) -> LaurentPoly:
    """tr(w) over :data:`CTX_TRACE`: of the rewrites, the one with the fewest
    terms, then the least total degree; remembered per canonical form."""
    word = _canon(w)
    p = _TRACES.get(word)
    if p is None:
        if not word:
            p = CTX_TRACE.const(2)
        elif word in _COORDINATE_CLASSES:
            p = CTX_TRACE.var(TRACE_NAMES[_COORDINATE_CLASSES[word]])
        else:
            p = min(_rewrites(word), key=lambda q: (len(q.terms), sum(map(sum, q.terms))))
        _TRACES[word] = p
    return p


def _rewrites(word: tuple):
    """Every expansion of tr(word) by one of the three identities, applied to
    the orientations of ``word`` of least measure:

    * ``tr(X W) = tr X tr W - tr(X^-1 W)`` for an arc X of more than half
      inverse letters;
    * ``tr(g X g Y) = tr(gX) tr(gY) - tr(X Y^-1)`` for a repeated letter g;
    * ``tr(U C B V) = -tr(U B C V) + tr B tr(U C V) + tr C tr(U B V)
      + (tr(BC) - tr B tr C) tr(UV)`` for distinct positive letters C > B.
    """
    least = min(_measure(word), _measure(_inv(word)))
    for o in dict.fromkeys((word, _inv(word))):
        m = _measure(o)
        if m != least:
            continue
        n = len(o)
        if m[2]:
            k = o.index(min(o))
            o = o[k:] + o[:k]
            for i in range(1, n - 1):
                if o[i] > o[i + 1]:
                    u, c, b, v = o[:i], o[i:i + 1], o[i + 1:i + 2], o[i + 2:]
                    yield (_trace(b) * _trace(u + c + v) + _trace(c) * _trace(u + b + v)
                           + (_trace(b + c) - _trace(b) * _trace(c)) * _trace(u + v)
                           - _trace(u + b + c + v))
            continue
        for r in range(n):
            w = o[r:] + o[:r]
            for k in range(1, n):
                x, rest = w[:k], w[k:]
                if 2 * sum(y < 0 for y in x) > k:
                    yield _trace(x) * _trace(rest) - _trace(_inv(x) + rest)
            for j in range(1, n):
                if w[j] == w[0]:
                    x, y = w[1:j], w[j + 1:]
                    yield _trace(w[:j]) * _trace(w[j:]) - _trace(x + _inv(y))


_GENERATORS = {f"d{i}": i for i in (1, 2, 3, 4)}


class ValueTable:
    """The distinct coordinate values of one orbit, numbered in the order
    they are first seen, and the memo of the letter maps that act on them.

    An element is a tuple of fifteen ids into :attr:`values`.  A value is
    interned by its :meth:`~quintic_garnier.ring.LaurentPoly.key` once, when
    it is first computed; a key carries no variable context, so the values
    of one table must share one, as those of one orbit do.

    :attr:`memo` maps the ids of the seven roles of a changed coordinate,
    in role order, to the id of ``x3 x4 + x5 x6 - x1 x2 - x0`` at those
    ids.  The quadratic is the same for every letter and coordinate, so one
    memo serves them all.  A map stores each tuple it evaluates in the
    canonical form of :func:`_memo_key`, and each tuple it reads under its
    ids as read as well, so a quadratic is evaluated once per canonical
    tuple.  Ids name the interned values of one context, so tuples with one
    canonical form have equal values, and a hit gives the id that
    evaluating and interning would give.
    """

    __slots__ = ("values", "memo", "_ids")

    def __init__(self):
        self.values: list[LaurentPoly] = []
        self._ids: dict[tuple, int] = {}
        self.memo: dict[tuple, int] = {}

    def intern(self, value: LaurentPoly) -> int:
        key = value.key()
        i = self._ids.get(key)
        if i is None:
            i = self._ids[key] = len(self.values)
            self.values.append(value)
        return i


class TraceMap:
    """The fifteen coordinates after a substitution of d1..d4, as polynomials
    in the fifteen before it.

    ``polys[k]`` is the trace of coordinate word k with d1..d4 replaced by
    ``images`` (words over d1..d4), reduced to a polynomial over
    :data:`CTX_TRACE`.  Calling the map on an element of a
    :class:`ValueTable`, fifteen ids, gives the ids of its image.  A
    coordinate that is one variable is an id copy.  Every other one must be
    ``x3 x4 + x5 x6 - x1 x2 - x0`` in seven coordinates, its roles, or the
    constructor raises :class:`ValueError`.  A changed coordinate reads the
    ids of its roles and looks them up, as read, in the table's
    :attr:`~ValueTable.memo`.  Only on a miss does it put them in canonical
    form (:func:`_memo_key`) and look that up; only a canonical tuple the
    table has not met runs :func:`_quadratic` on its values, and the result
    is interned.  The id is then stored under both tuples.  The image is
    read from the fifteen ids followed by the new ones by one
    :func:`~operator.itemgetter`.
    """

    __slots__ = ("polys", "_image", "_changed")

    def __init__(self, images: Sequence[GroupWord]):
        if len(images) != 4:
            raise ValueError("need the images of d1..d4")
        subst = [tuple(_GENERATORS[sym] * e for sym, e in w.letters) for w in images]
        self.polys = tuple(_trace(tuple(x for i in w for x in subst[i - 1]))
                           for w in _COORDINATE_LETTERS)
        entries = [_roles(k, p) for k, p in enumerate(self.polys)]
        # the ids of its seven roles, per changed coordinate in order
        self._changed = tuple(itemgetter(*e) for e in entries if e.__class__ is not int)
        # the image reads the fifteen ids followed by the changed coordinates' new ids
        new = count(len(entries))
        self._image = itemgetter(*(e if e.__class__ is int else next(new) for e in entries))

    def __call__(self, ids: tuple, table: ValueTable) -> tuple:
        memo = table.memo
        row = list(ids)
        for roles in self._changed:
            raw = roles(ids)
            i = memo.get(raw)
            if i is None:
                key = _memo_key(*raw)
                i = memo.get(key)
                if i is None:
                    values = table.values
                    i = memo[key] = table.intern(_quadratic([values[j] for j in key]))
                memo[raw] = i
            row.append(i)
        return self._image(row)


def _roles(k: int, p: LaurentPoly):
    """The index of the variable ``p`` is, or else the indices
    ``(x0, x1, .., x6)`` with ``p = x3 x4 + x5 x6 - x1 x2 - x0``, read off
    its terms: the one linear term is x0, the negative product x1 x2, and
    the positive products the rest.  Any other shape raises, naming
    coordinate ``k``."""
    # terms by (coefficient, degree), each as its variable indices repeated
    # by exponent; a negative exponent has no degree
    parts: dict[tuple, list] = {}
    for exps, c in p.terms.items():
        idx = tuple(i for i, e in enumerate(exps) for _ in range(e))
        parts.setdefault((c, len(idx) if min(exps) >= 0 else None), []).append(idx)
    if list(parts) == [(1, 1)] and len(p.terms) == 1:
        return parts[1, 1][0][0]
    if {s: len(ts) for s, ts in parts.items()} != {(-1, 1): 1, (-1, 2): 1, (1, 2): 2}:
        raise ValueError(f"letter-map entry {TRACE_NAMES[k]} = {serialize_poly(p)} "
                         "is not x3*x4 + x5*x6 - x1*x2 - x0")
    ((x0,),), ((x1, x2),), ((x3, x4), (x5, x6)) = parts[-1, 1], parts[-1, 2], parts[1, 2]
    return x0, x1, x2, x3, x4, x5, x6


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
    acc: dict = {}
    one = v[0].ctx.one()
    for sign, a, b in ((1, v[3], v[4]), (1, v[5], v[6]), (-1, v[1], v[2]), (-1, v[0], one)):
        b_terms = b.terms.items()
        for ea, ca in a.terms.items():
            ca = sign * ca
            for eb, cb in b_terms:
                e = tuple(map(add, ea, eb))
                s = acc.get(e, 0) + ca * cb
                if s:
                    acc[e] = _co(s)
                else:
                    del acc[e]
    return _from_acc(one.ctx, acc)
