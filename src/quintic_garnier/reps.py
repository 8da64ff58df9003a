"""Representation tuples of the five-punctured sphere and trace coordinates.

A :class:`RepTuple` is an ordered 4-tuple of unimodular matrices (the images
of the free generators d1..d4); the fifth local matrix is derived as the
inverse of their product, so the five local monodromies always compose to
the identity.  A point of the character variety is recorded by the fifteen
trace functions

    t1..t4 = tr(Mi),  t5 = tr(M1 M2 M3 M4),
    r1..r6 = traces of the pair products (12), (13), (14), (23), (24), (34),
    r7..r10 = traces of the triple products (123), (124), (134), (234),

in this fixed order; :data:`COORDINATE_WORDS` lists them as words over
d1..d4.  Only the pair products (12) and (34) are built as matrices; every
other coordinate is a trace of a product,
:meth:`~quintic_garnier.sl2.Mat2.trace_of_product`, which needs half the ring
products of a full matrix product.

:func:`carry_traces` computes the coordinates of new matrices when some of
them are known to equal old ones (a braid move permutes most of them; see
:mod:`~quintic_garnier.braids`).  A copy is exact, not an approximation: the
trace is a class function, ``tr(W^-1) = tr(W)`` at determinant one, and both
hold over any commutative ring, so over ``Q[r]/(m)`` too.  It also takes
and hands back the pair products ``M1 M2`` and ``M3 M4``: a braid move that
leaves one of them equal, as a word in the free generators, passes it on
instead of building it again.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from .ring import LaurentPoly, VarContext, serialize_poly
from .sl2 import GroupWord, Mat2, word_evaluate

PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


class RepTuple:
    """Images of d1..d4, with the derived fifth matrix."""

    __slots__ = ("mats", "ctx")

    def __init__(self, m1: Mat2, m2: Mat2, m3: Mat2, m4: Mat2):
        self.mats = (m1, m2, m3, m4)
        self.ctx = m1.ctx
        one = self.ctx.one()
        for m in self.mats:
            if m.det() != one:
                raise ValueError("representation matrices must have determinant one")

    @classmethod
    def identity(cls, ctx: VarContext) -> "RepTuple":
        i = Mat2.identity(ctx)
        return cls(i, i, i, i)

    @property
    def m5(self) -> Mat2:
        """The inverse of ``M1 M2 M3 M4``, computed on each access."""
        return (self.mats[0] * self.mats[1] * self.mats[2] * self.mats[3]).inverse()

    def five(self) -> tuple[Mat2, ...]:
        return self.mats + (self.m5,)

    def conjugate_by(self, g: Mat2) -> "RepTuple":
        """``g M g^-1`` for each matrix; ``g^-1`` is taken once."""
        g_inv = g.inverse()
        return RepTuple(*(g * m * g_inv for m in self.mats))

    def __eq__(self, other):
        return isinstance(other, RepTuple) and self.mats == other.mats

    def __repr__(self):
        return f"RepTuple({', '.join(map(repr, self.mats))})"


class TraceTuple:
    """The fifteen trace coordinates, canonically ordered and hashable.

    Tuples over different variable contexts never compare equal, even when
    their coefficients agree.
    """

    __slots__ = ("values", "_key")

    def __init__(self, values: Sequence[LaurentPoly]):
        if len(values) != 15:
            raise ValueError("a trace tuple has fifteen coordinates")
        self.values = tuple(values)
        self._key: Optional[tuple] = None

    def key(self) -> tuple:
        if self._key is None:
            self._key = tuple(v.key() for v in self.values)
        return self._key

    def __eq__(self, other):
        return (isinstance(other, TraceTuple)
                and self.values[0].ctx == other.values[0].ctx
                and self.key() == other.key())

    def __hash__(self):
        return hash(self.key())

    def serialize(self) -> tuple[str, ...]:
        return tuple(serialize_poly(v) for v in self.values)

    def substitute(self, sigma: Mapping[str, LaurentPoly],
                   target: Optional[VarContext] = None) -> "TraceTuple":
        return TraceTuple([v.substitute(sigma, target) for v in self.values])

    def __repr__(self):
        return "(" + ", ".join(self.serialize()) + ")"


# The one formula list: each coordinate is tr(A) or tr(A B) for factors A, B
# among M1..M4 (0..3), P12 = M1 M2 (4) and P34 = M3 M4 (5); _FACTORS holds
# the generator indices of each factor's word.
_RECIPES = ((0,), (1,), (2,), (3,), (4, 5),
            (4,), (0, 2), (0, 3), (1, 2), (1, 3), (5,),
            (4, 2), (4, 3), (0, 5), (1, 5))
_FACTORS = ((1,), (2,), (3,), (4,), (1, 2), (3, 4))
COORDINATE_WORDS = tuple(GroupWord((f"d{i}", 1) for f in recipe for i in _FACTORS[f])
                         for recipe in _RECIPES)
"""The fifteen coordinates as words over d1..d4, in :class:`TraceTuple` order."""
PRODUCT_WORDS = tuple(GroupWord((f"d{i}", 1) for i in _FACTORS[f]) for f in (4, 5))
"""``M1 M2`` and ``M3 M4`` as words over d1..d4: the products that
:func:`carry_traces` takes and hands back."""
_ALL_FRESH = (None,) * 15


def carry_traces(mats: Sequence[Mat2], table: Sequence[Optional[int]] = _ALL_FRESH,
                 old: Optional[TraceTuple] = None,
                 products: Sequence[Optional[Mat2]] = (None, None),
                 ) -> tuple[TraceTuple, tuple[Optional[Mat2], Optional[Mat2]]]:
    """Trace coordinates of ``mats`` (d1..d4), copying what is known.

    ``table[k]`` is ``j`` when coordinate ``k`` of ``mats`` equals
    coordinate ``j`` of ``old``, and ``None`` when it must be computed.
    ``products`` holds ``M1 M2`` and ``M3 M4`` of ``mats`` where they are
    already known, ``None`` where not; a missing one is built only when a
    computed coordinate needs it.  Returns the coordinates and the two
    products as they stand afterwards, so a caller can carry them on.
    """
    factors: list[Optional[Mat2]] = [*mats[:4], *products]
    values = []
    for k, src in enumerate(table):
        if src is not None:
            values.append(old.values[src])
            continue
        recipe = _RECIPES[k]
        for f in recipe:
            if factors[f] is None:
                i, j = _FACTORS[f]
                factors[f] = factors[i - 1] * factors[j - 1]
        if len(recipe) == 1:
            values.append(factors[recipe[0]].trace())
        else:
            values.append(factors[recipe[0]].trace_of_product(factors[recipe[1]]))
    return TraceTuple(values), (factors[4], factors[5])


def trace_coordinates(rho: RepTuple) -> TraceTuple:
    """All fifteen coordinates of ``rho``, each computed."""
    return carry_traces(rho.mats)[0]


def induced_representation(words: Sequence[GroupWord],
                           assignment: Mapping[str, Mat2]) -> RepTuple:
    """Push an assignment through four restriction words."""
    if len(words) != 4:
        raise ValueError("need exactly four words")
    return RepTuple(*(word_evaluate(assignment, w) for w in words))


def verify_product_identity(arg) -> dict:
    """Check that the five local matrices multiply to the identity.

    Accepts a :class:`RepTuple` (true by construction, still computed) or a
    raw 5-tuple of matrices as printed in a catalog.
    """
    if isinstance(arg, RepTuple):
        mats = arg.five()
    else:
        mats = tuple(arg)
        if len(mats) != 5:
            raise ValueError("need five matrices")
    prod = mats[0]
    for m in mats[1:]:
        prod = prod * m
    return {
        "sl2": prod.is_identity(),
        "psl2": prod.projectively_identity(),
    }


def irreducibility_witness(rho: RepTuple) -> dict[tuple[int, int], LaurentPoly]:
    """The six commutator-trace defects tr([Mi, Mj]) - 2.

    A generator pair acts irreducibly wherever its defect is nonzero.
    """
    out = {}
    two = rho.ctx.const(2)
    for i, j in PAIRS:
        a, b = rho.mats[i], rho.mats[j]
        comm = a * b * a.inverse() * b.inverse()
        out[(i + 1, j + 1)] = comm.trace() - two
    return out
