"""Representation tuples of the five-punctured sphere and trace coordinates.

A :class:`RepTuple` is an ordered 4-tuple of unimodular matrices (the images
of the free generators d1..d4); the fifth local matrix is derived as the
inverse of their product, so the five local monodromies always compose to
the identity.  A point of the character variety is recorded by the fifteen
trace functions

    t1..t4 = tr(Mi),  t5 = tr(M1 M2 M3 M4),
    r12, r13, r14, r23, r24, r34 = traces of the pair products,
    r123, r124, r134, r234 = traces of the triple products,

in this fixed order.  :func:`trace_coordinates` computes them from matrices
as traces of products, with ``M1 M2`` and ``M3 M4`` built once;
:mod:`~quintic_garnier.traces` computes them after a braid move without any
matrix.
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


def trace_coordinates(rho: RepTuple) -> TraceTuple:
    """All fifteen coordinates of ``rho``, as traces of products."""
    m1, m2, m3, m4 = rho.mats
    p12, p34 = m1 * m2, m3 * m4
    return TraceTuple([m1.trace(), m2.trace(), m3.trace(), m4.trace(),
                       (p12 * p34).trace(), p12.trace(),
                       (m1 * m3).trace(), (m1 * m4).trace(),
                       (m2 * m3).trace(), (m2 * m4).trace(), p34.trace(),
                       (p12 * m3).trace(), (p12 * m4).trace(),
                       (m1 * p34).trace(), (m2 * p34).trace()])


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
