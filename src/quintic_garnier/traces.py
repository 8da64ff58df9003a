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

A map acts on ids into a :class:`ValueTable`, the distinct coordinate
values of one orbit, and evaluates each entry once per distinct input.

:mod:`~quintic_garnier.braids` imports this module when it derives its
first letter map, so importing the package does not load it.
"""

from __future__ import annotations

from operator import add, itemgetter
from typing import Sequence

from .ring import LaurentPoly, VarContext, _co, _from_acc
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
    of one table must share one, as those of one orbit do.  The memo
    remembers the id a map entry gave for the ids of the coordinates it
    reads, so each entry is evaluated once per distinct input.
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
    coordinate that is one variable is an id copy.  The others are compiled
    once into terms for :func:`_evaluate`, which runs on the table's values
    only when the table's memo has no id for the entry and the ids of the
    coordinates it reads; its result is interned.
    """

    __slots__ = ("polys", "_copy", "_changed")

    def __init__(self, images: Sequence[GroupWord]):
        if len(images) != 4:
            raise ValueError("need the images of d1..d4")
        subst = [tuple(_GENERATORS[sym] * e for sym, e in w.letters) for w in images]
        self.polys = tuple(_trace(tuple(x for i in w for x in subst[i - 1]))
                           for w in _COORDINATE_LETTERS)
        entries = [_compile(p) for p in self.polys]
        # every coordinate is copied first, a changed one from t1, then overwritten
        self._copy = itemgetter(*(e if e.__class__ is int else 0 for e in entries))
        # (coordinate, the ids it reads as a memo key, compiled terms)
        self._changed = tuple((k, itemgetter(*sorted({i for _, idx in e for i in idx})), e)
                              for k, e in enumerate(entries) if e.__class__ is not int)

    def __call__(self, ids: tuple, table: ValueTable) -> tuple:
        image = list(self._copy(ids))
        memo = table.memo
        for k, reads, terms in self._changed:
            key = (self, k, reads(ids))
            i = memo.get(key)
            if i is None:
                values = table.values
                i = memo[key] = table.intern(_evaluate(terms, [values[j] for j in ids]))
            image[k] = i
        return tuple(image)


def _compile(p: LaurentPoly):
    """The index of the variable ``p`` is, or else the terms of ``p`` as
    ``(coefficient, variable indices)``, each index repeated as often as its
    exponent (a reduction has no negative exponent)."""
    terms = tuple((c, tuple(i for i, e in enumerate(exps) for _ in range(e)))
                  for exps, c in p.key())
    if len(terms) == 1 and terms[0][0] == 1 and len(terms[0][1]) == 1:
        return terms[0][1][0]
    return terms


def _evaluate(terms: tuple, values: Sequence[LaurentPoly]) -> LaurentPoly:
    """Compiled terms at ``values``, summed into one accumulator, not into a
    new value per partial sum as :func:`~quintic_garnier.ring.evaluate`
    does.  For a term ``c * x_1 ... x_k`` the first k - 1 factors are
    multiplied as values, and the terms of the last one are multiplied
    straight into the accumulator."""
    ctx = values[0].ctx
    acc: dict = {}
    for c, idx in terms:
        last = values[idx[-1]] if idx else ctx.one()
        if not last.terms:
            continue
        # c times the first k - 1 factors; None stands for no exponents
        head = ((None, c),)
        if len(idx) > 1:
            p = values[idx[0]]
            for i in idx[1:-1]:
                p = p * values[i]
            if not p.terms:
                continue
            head = [(e, c * x) for e, x in p.terms.items()]
        for ea, ca in head:
            for eb, cb in last.terms.items():
                e = eb if ea is None else tuple(map(add, ea, eb))
                s = acc.get(e, 0) + ca * cb
                if s:
                    acc[e] = _co(s)
                else:
                    del acc[e]
    return _from_acc(ctx, acc)
