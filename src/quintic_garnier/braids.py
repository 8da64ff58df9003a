"""Braid moves on representation tuples and finite orbit enumeration.

The elementary move of index i sends ``(.., M_i, M_{i+1}, ..)`` to
``(.., M_i M_{i+1} M_i^-1, M_i, ..)``; its inverse is
``(M_{i+1}, M_{i+1}^-1 M_i M_{i+1})``.  Words act letter by letter, first
letter first.  Two flavors are supported: ``b4`` (indices 1..3, acting on
4-tuples) and ``spherical5`` (indices 1..4, acting on product-identity
5-tuples).

Orbits are breadth-first closures deduplicated by the exact fifteen-trace
tuple of the underlying class; the element set is independent of generator
order and scheduling, while provenance edges may differ.

An orbit step works on plain items ``(mats, traces, (M1 M2, M3 M4))``: the
tuple of matrices (four for ``b4``, five for ``spherical5``), their trace
tuple, and the two pair products, each ``None`` until a computed coordinate
needs it.  No :class:`~quintic_garnier.reps.RepTuple` is built in the loop,
and a move computes only the coordinates it changes.  The same move applied
to the free generators d1..d4 (with ``d5 = (d1 d2 d3 d4)^-1`` for
``spherical5``) gives each new coordinate as a word in the old generators.
When that word is, up to rotation and inversion, one of the fifteen
coordinate words, the new value is copied from the old tuple; σ1 swaps t1
and t2 and keeps t5, for example, and only three or four of the fifteen are
computed.  The copy is exact because the trace is a class function and
``tr(W^-1) = tr(W)`` at determinant one, over any commutative ring.  The
same words show which of the pair products ``M1 M2`` and ``M3 M4`` a move
leaves equal (σ1 and σ3 keep both, the spherical σ4 keeps ``M1 M2``, σ2
neither); an element carries the products it has built, and a move passes
on those it keeps.

A letter creates one matrix, ``a b a^-1`` or ``b^-1 a b``, and copies the
rest.  The inverse factor is the plain adjugate, and the new matrix has its
determinant checked once; the copied matrices are not checked again.  This
is exact over any commutative ring: ``det`` is multiplicative and the
adjugate of a determinant-one matrix has determinant one, so the images of
unimodular matrices are unimodular.  The checks stay at the entry points,
where matrices come from outside: :class:`~quintic_garnier.reps.RepTuple`,
:meth:`~quintic_garnier.sl2.Mat2.inverse` and
:func:`~quintic_garnier.sl2.word_evaluate`.
"""

from __future__ import annotations

import functools
import json
from operator import itemgetter
from typing import Iterable, Mapping, Optional, Sequence, Union

from .reps import (COORDINATE_WORDS, PRODUCT_WORDS, RepTuple, TraceTuple,
                   carry_traces, trace_coordinates)
from .ring import LaurentPoly, VarContext, parse_poly
from .sl2 import GroupWord, Mat2, closure


class BraidWord:
    """Signed generator letters with a declared flavor."""

    __slots__ = ("letters", "flavor", "name")

    def __init__(self, letters: Iterable[int], flavor: str = "b4",
                 name: Optional[str] = None):
        self.letters = tuple(int(x) for x in letters)
        if flavor not in ("b4", "spherical5"):
            raise ValueError("flavor is 'b4' or 'spherical5'")
        top = 3 if flavor == "b4" else 4
        for x in self.letters:
            if x == 0 or abs(x) > top:
                raise IndexError(f"letter {x} out of range for {flavor}")
        self.flavor = flavor
        self.name = name or "".join(
            (f"s{abs(x)}" if x > 0 else f"s{abs(x)}'") for x in self.letters) or "e"

    def inverse(self) -> "BraidWord":
        return BraidWord([-x for x in reversed(self.letters)], self.flavor,
                         name=self.name + "^-1")

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        return BraidWord(self.letters + other.letters, self.flavor)

    def __pow__(self, n: int) -> "BraidWord":
        if n < 0:
            return self.inverse() ** (-n)
        return BraidWord(self.letters * n, self.flavor)

    def permutation(self, strands: int) -> tuple[int, ...]:
        """Underlying strand permutation (image of each position)."""
        perm = list(range(strands))
        for x in self.letters:
            i = abs(x) - 1
            perm[i], perm[i + 1] = perm[i + 1], perm[i]
        return tuple(perm)

    def __repr__(self):
        return f"BraidWord({self.name})"


def _apply_letter(mats: list, x: int, inverse) -> int:
    """One letter on a list of matrices, or of group words (:func:`_copy_table`),
    with ``inverse`` inverting an entry; returns the index of the entry it creates."""
    i = abs(x) - 1
    a, b = mats[i], mats[i + 1]
    if x > 0:
        mats[i], mats[i + 1] = a * b * inverse(a), a
        return i
    mats[i], mats[i + 1] = b, inverse(b) * a * b
    return i + 1


def _act(letters: Sequence[int], mats: Sequence[Mat2]) -> tuple:
    """Letters on unimodular matrices; each matrix a letter creates has its
    determinant checked once."""
    mats = list(mats)
    one = mats[0].ctx.one()
    for x in letters:
        if mats[_apply_letter(mats, x, Mat2.adjugate)].det() != one:
            raise ValueError("a braid move built a matrix of determinant other than one")
    return tuple(mats)


def braid_act(word: BraidWord, rho: Union[RepTuple, Sequence[Mat2]]):
    """Apply a braid word; returns the same shape as the input.

    The matrices of a raw sequence are taken to be unimodular, as those of
    a :class:`~quintic_garnier.reps.RepTuple` are checked to be.
    """
    if isinstance(rho, RepTuple):
        if word.flavor != "b4":
            raise IndexError("a 4-tuple carries only the b4 action")
        return RepTuple(*_act(word.letters, rho.mats))
    top = 3 if word.flavor == "b4" else 4
    if len(rho) <= top:
        raise IndexError("tuple too short for flavor")
    return _act(word.letters, rho)


def pure_generators() -> list[BraidWord]:
    """The six standard pure braid generators A_{ij}, 1 <= i < j <= 4.

    ``A_{ij}`` conjugates the square of the i-th elementary move by the
    descending run of moves between j-1 and i+1; each induces the identity
    strand permutation.
    """
    out = []
    for i in range(1, 4):
        for j in range(i + 1, 5):
            run = list(range(j - 1, i, -1))
            letters = run + [i, i] + [-x for x in reversed(run)]
            out.append(BraidWord(letters, "b4", name=f"A{i}{j}"))
    return out


def full_twist() -> BraidWord:
    """The square of the half twist; generates the center of the 4-strand group."""
    half = BraidWord([1, 2, 1, 3, 2, 1], "b4", name="D")
    return BraidWord(half.letters * 2, "b4", name="D^2")


def center_check(rho: RepTuple) -> bool:
    """Full twist acts as conjugation by M1 M2 M3 M4 and fixes the trace tuple."""
    acted = braid_act(full_twist(), rho)
    if trace_coordinates(acted) != trace_coordinates(rho):
        return False
    p = rho.mats[0] * rho.mats[1] * rho.mats[2] * rho.mats[3]
    return acted == rho.conjugate_by(p)


class OrbitResult:
    """Finite (or truncated) orbit: canonical trace tuples plus provenance."""

    def __init__(self, seed_name: str, elements: list[TraceTuple],
                 edges: list[tuple[int, str, int]], status: str,
                 generators: list[str], cutoff: int):
        order = sorted(range(len(elements)), key=lambda i: elements[i].serialize())
        rank = {old: new for new, old in enumerate(order)}
        self.seed_name = seed_name
        self.elements = [elements[i] for i in order]
        self.edges = sorted((rank[a], g, rank[b]) for a, g, b in edges)
        self.status = status  # "closed" | "cutoff"
        self.generators = generators
        self.cutoff = cutoff

    def __len__(self):
        return len(self.elements)

    def element_set(self) -> set[TraceTuple]:
        return set(self.elements)

    def substituted_set(self, sigma: Mapping[str, LaurentPoly],
                        target: Optional[VarContext] = None) -> set[TraceTuple]:
        return {e.substitute(sigma, target) for e in self.elements}

    def variables(self) -> tuple[str, ...]:
        if not self.elements:
            return ()
        return self.elements[0].values[0].ctx.names

    def to_json(self) -> dict:
        return {
            "seed": self.seed_name,
            "generators": self.generators,
            "status": self.status,
            "cutoff": self.cutoff,
            "size": len(self.elements),
            "variables": list(self.variables()),
            "elements": [list(e.serialize()) for e in self.elements],
            "edges": [list(e) for e in self.edges],
        }

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=1, sort_keys=True)
            fh.write("\n")


def _cyclic_class(w: GroupWord) -> tuple:
    """Letters of ``w`` cyclically reduced, least over rotations and inversion."""
    letters = w.letters
    while len(letters) > 1 and letters[0] == (letters[-1][0], -letters[-1][1]):
        letters = letters[1:-1]
    forms = []
    for word in (letters, GroupWord(letters).inverse().letters):
        forms += [word[i:] + word[:i] for i in range(len(word))]
    return min(forms, default=())


_COORDINATE_CLASSES = {_cyclic_class(w): k for k, w in enumerate(COORDINATE_WORDS)}
_PRODUCT_INDEX = {w: j for j, w in enumerate(PRODUCT_WORDS)}


@functools.lru_cache(maxsize=256)
def _copy_table(letters: tuple[int, ...], flavor: str) -> tuple[tuple, tuple]:
    """What a word leaves equal: ``(table, kept)``.

    ``table`` gives, for each trace coordinate after the word acts, the
    coordinate before it that has the same value, or ``None`` where it must
    be computed.  ``kept`` gives, for ``M1 M2`` and ``M3 M4`` after the
    word acts, the one of the two before it that is the same word in
    d1..d4, or ``None``.
    """
    gens = [GroupWord.gen(f"d{i}") for i in (1, 2, 3, 4)]
    if flavor == "spherical5":
        gens.append((gens[0] * gens[1] * gens[2] * gens[3]).inverse())
    for x in letters:
        _apply_letter(gens, x, GroupWord.inverse)
    images = dict(zip(("d1", "d2", "d3", "d4"), gens))

    def image(w: GroupWord) -> GroupWord:
        out = GroupWord()
        for sym, e in w.letters:
            out = out * images[sym] ** e
        return out

    table = tuple(_COORDINATE_CLASSES.get(_cyclic_class(image(w)))
                  for w in COORDINATE_WORDS)
    kept = tuple(_PRODUCT_INDEX.get(image(w)) for w in PRODUCT_WORDS)
    return table, kept


def _carried_moves(words: Iterable[BraidWord]) -> list:
    """Each word and its inverse as named closure moves on items
    ``(mats, traces, products)``.  A move acts on the matrices with
    :func:`_act` and copies from the old item what the word's
    :func:`_copy_table` shows equal; the rest is computed."""
    moves = []
    for g in words:
        for w in (g, g.inverse()):
            table, kept = _copy_table(w.letters, w.flavor)

            def move(item, letters=w.letters, table=table, kept=kept):
                mats, traces, products = item
                mats = _act(letters, mats)
                carried = tuple(None if j is None else products[j] for j in kept)
                return (mats, *carry_traces(mats, table, traces, carried))
            moves.append((w.name, move))
    return moves


def _orbit(mats: tuple, words: Sequence[BraidWord], cutoff: int,
           seed_name: str) -> OrbitResult:
    """Closure of the item of ``mats`` under ``words`` and their inverses."""
    elements, _, edges, status = closure((mats, *carry_traces(mats)),
                                         _carried_moves(words), itemgetter(1), cutoff)
    return OrbitResult(seed_name, elements, edges, status,
                       [g.name for g in words], cutoff)


def orbit(seed: RepTuple, generators: Sequence[BraidWord], cutoff: int = 1000,
          seed_name: str = "seed") -> OrbitResult:
    """Closure of the seed's class under the given words and their inverses."""
    if any(g.flavor != "b4" for g in generators):
        raise IndexError("a 4-tuple carries only the b4 action")
    return _orbit(seed.mats, generators, cutoff, seed_name)


def extended_orbit(seed: RepTuple, cutoff: int = 10000,
                   seed_name: str = "seed") -> OrbitResult:
    """Closure of the 5-tuple under the four spherical elementary moves.

    Elements are keyed by the trace tuple of the first four matrices; the
    fifth matrix participates through the last move.
    """
    gens = [BraidWord([i], "spherical5") for i in (1, 2, 3, 4)]
    return _orbit(seed.five(), gens, cutoff, seed_name)


def orbit_compare(a: Union[OrbitResult, Iterable[TraceTuple]],
                  b: Union[OrbitResult, Iterable[TraceTuple]],
                  sigma: Optional[Mapping[str, LaurentPoly]] = None,
                  target: Optional[VarContext] = None) -> dict:
    """Set relation between ``sigma(a)`` and ``b``.

    Returns a dict with ``relation`` in {"equal", "a_contains_b",
    "b_contains_a", "overlap", "disjoint"} and witness serializations.
    """
    sa = a.element_set() if isinstance(a, OrbitResult) else set(a)
    sb = b.element_set() if isinstance(b, OrbitResult) else set(b)
    if sigma:
        sa = {e.substitute(sigma, target) for e in sa}
    common = sa & sb
    if not common:
        relation = "disjoint"
    elif sa == sb:
        relation = "equal"
    elif sb <= sa:
        relation = "a_contains_b"
    elif sa <= sb:
        relation = "b_contains_a"
    else:
        relation = "overlap"
    witnesses = sorted(e.serialize() for e in common)[:4]
    return {"relation": relation, "common": len(common),
            "size_a": len(sa), "size_b": len(sb),
            "witnesses": [list(w) for w in witnesses]}


def parse_substitution(text: str, src: VarContext,
                       target: VarContext) -> dict[str, LaurentPoly]:
    """Parse ``u=-s,v=s`` into a signed-monomial substitution map; a source
    variable without an image must be a target variable, which it maps to."""
    sigma: dict[str, LaurentPoly] = {}
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        name, _, rhs = piece.partition("=")
        name = name.strip()
        if name not in src.index:
            raise ValueError(f"unknown source variable {name!r}")
        image = parse_poly(target, rhs.strip())
        if not image.is_monomial():
            raise ValueError(f"image of {name!r} is not a signed monomial")
        sigma[name] = image
    for name in src.names:
        if name not in sigma and name not in target.index:
            raise ValueError(f"source variable {name!r} has no image and is "
                             f"not a target variable ({', '.join(target.names)})")
    return sigma
