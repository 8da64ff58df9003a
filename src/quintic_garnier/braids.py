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

An orbit is closed on trace tuples alone.  The seed's coordinates come from
:func:`~quintic_garnier.reps.trace_coordinates`, the only matrix work of an
orbit; after that each letter acts through its
:class:`~quintic_garnier.traces.TraceMap`, the fifteen new coordinates as
polynomials in the old ones.  :func:`_letter_map` derives it on first use
by applying the letter to d1..d4 and ``d5 = (d1 d2 d3 d4)^-1`` as group
words, so the same eight maps serve ``b4`` and ``spherical5``; a word acts
letter by letter, the pure generators included.  A coordinate a letter only
permutes is a single variable of its map and is copied: σ1..σ3 change three
coordinates and σ4 four, each a four-term polynomial of degree two.  The
maps are exact on the coordinates of any unimodular tuple over any
commutative ring and send them to those of its image (see
:mod:`~quintic_garnier.traces`), so the elements and edges are those that
moving the matrices gives.

Each word is followed by its inverse in the list of moves, and the closure
computes only one edge of each reverse pair: once ``w`` takes ``t`` to
``t'``, the edge back from ``t'`` under ``w^-1`` is appended without
evaluating the letter maps.  This is exact, not a guess: the braid group
acts on trace tuples, so ``w^-1`` after ``w`` is the identity on the orbit,
and the inferred target is an element already found.  The elements, the
edges and their order, and the cutoff point are those that computing both
directions gives.

:func:`braid_act` moves the matrices themselves; the tests use it as the
oracle the trace maps are checked against.  A letter creates one matrix,
``a b a^-1`` or ``b^-1 a b``, and copies the rest.  The inverse factor is
the plain adjugate, and the new matrix has its determinant checked once;
the copied matrices are not checked again.  This is exact over any
commutative ring: ``det`` is multiplicative and the adjugate of a
determinant-one matrix has determinant one, so the images of unimodular
matrices are unimodular.  The checks stay at the entry points, where
matrices come from outside: :class:`~quintic_garnier.reps.RepTuple`,
:meth:`~quintic_garnier.sl2.Mat2.inverse` and
:func:`~quintic_garnier.sl2.word_evaluate`.
"""

from __future__ import annotations

import functools
import json
from typing import TYPE_CHECKING, Iterable, Mapping, Optional, Sequence, Union

from .reps import RepTuple, TraceTuple, trace_coordinates
from .ring import LaurentPoly, VarContext, parse_poly
from .sl2 import GroupWord, Mat2, closure

if TYPE_CHECKING:
    from .traces import TraceMap


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
    """One letter on a list of matrices, or of group words (:func:`_letter_map`),
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


@functools.lru_cache(maxsize=None)
def _letter_map(x: int) -> TraceMap:
    """The trace map of letter ``x``, derived on first use: the letter acts on
    d1..d4 and ``d5 = (d1 d2 d3 d4)^-1``, so σ1..σ3 serve ``b4`` and
    ``spherical5`` alike and σ4 is the spherical move.  The reduction module
    is imported here, not with the package: it costs nothing to a process
    that closes no orbit."""
    from .traces import TraceMap

    gens = [GroupWord.gen(f"d{i}") for i in (1, 2, 3, 4)]
    gens.append((gens[0] * gens[1] * gens[2] * gens[3]).inverse())
    _apply_letter(gens, x, GroupWord.inverse)
    return TraceMap(gens[:4])


def _trace_moves(words: Iterable[BraidWord]) -> list:
    """Each word, then its inverse, as named closure moves on trace tuples,
    acting letter by letter through :func:`_letter_map`."""
    moves = []
    for g in words:
        for w in (g, g.inverse()):
            def move(traces, maps=[_letter_map(x) for x in w.letters]):
                for m in maps:
                    traces = m(traces)
                return traces
            moves.append((w.name, move))
    return moves


def _orbit(seed: RepTuple, words: Sequence[BraidWord], cutoff: int,
           seed_name: str) -> OrbitResult:
    """Closure of the seed's trace tuple under ``words`` and their inverses;
    move ``m ^ 1`` is the inverse of move ``m``, so each edge's reverse is
    inferred, not computed."""
    moves = _trace_moves(words)
    elements, _, edges, status = closure(trace_coordinates(seed), moves,
                                         lambda traces: traces, cutoff,
                                         [m ^ 1 for m in range(len(moves))])
    return OrbitResult(seed_name, elements, edges, status,
                       [g.name for g in words], cutoff)


def orbit(seed: RepTuple, generators: Sequence[BraidWord], cutoff: int = 1000,
          seed_name: str = "seed") -> OrbitResult:
    """Closure of the seed's class under the given words and their inverses."""
    if any(g.flavor != "b4" for g in generators):
        raise IndexError("a 4-tuple carries only the b4 action")
    return _orbit(seed, generators, cutoff, seed_name)


def extended_orbit(seed: RepTuple, cutoff: int = 10000,
                   seed_name: str = "seed") -> OrbitResult:
    """Closure of the 5-tuple under the four spherical elementary moves.

    Elements are keyed by the trace tuple of the first four matrices; the
    fifth matrix, ``(M1 M2 M3 M4)^-1``, enters through the map of σ4.
    """
    gens = [BraidWord([i], "spherical5") for i in (1, 2, 3, 4)]
    return _orbit(seed, gens, cutoff, seed_name)


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
