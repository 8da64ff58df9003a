"""Braid moves on representation tuples and finite orbit enumeration.

The elementary move of index i sends ``(.., M_i, M_{i+1}, ..)`` to
``(.., M_i M_{i+1} M_i^-1, M_i, ..)``; its inverse is
``(M_{i+1}, M_{i+1}^-1 M_i M_{i+1})``.  Words act letter by letter, first
letter first.  Letter ``±k`` moves matrices k and k+1, so it needs k+1
matrices: σ1..σ3 act on a :class:`~quintic_garnier.reps.RepTuple`, and σ4
also on its five matrices, whose product is the identity.

Orbits are breadth-first closures deduplicated by the exact fifteen-trace
tuple of the underlying class; the element set is independent of generator
order and scheduling, while provenance edges may differ.

An orbit is closed on trace tuples alone.  The seed's coordinates come from
:func:`~quintic_garnier.reps.trace_coordinates`, the only matrix work of an
orbit; after that each letter acts through its
:class:`~quintic_garnier.traces.TraceMap`, the fifteen new coordinates as
polynomials in the old ones.  :func:`_letter_map` derives it on first use
by applying the letter to d1..d4 and ``d5 = (d1 d2 d3 d4)^-1`` as group
words, so one map per letter serves every word; a word acts letter by
letter, the pure generators included.  The maps are exact on the
coordinates of any unimodular tuple over any commutative ring and send them
to those of its image (see :mod:`~quintic_garnier.traces`), so the elements
and edges are those that moving the matrices gives.

An orbit fills its slots with few distinct values: rho1's 240 elements hold
14.  So the closure runs on ids into a
:class:`~quintic_garnier.traces.ValueTable` of its own, the distinct
coordinate values numbered as they are first seen, and an element is a
tuple of fifteen ids.  A coordinate a letter only permutes is a single
variable of its map and its id is copied: σ1..σ3 change three coordinates
and σ4 four, each the quadratic ``x3 x4 + x5 x6 - x1 x2 - x0`` in seven
coordinates, its roles.  Each letter's map is bound to the table
(:meth:`~quintic_garnier.traces.TraceMap.bind`): the bound map is the move
of a one-letter word, and a longer word applies its letters' bound maps in
turn.  The table's one memo is keyed by the ids of the seven roles in role
order, so it does not depend on the letter or the coordinate.  A map looks
up the ids as read first; only a miss puts them in canonical form, each
pair ordered and then the two positive pairs, and looks that up.  Different
letters and coordinates meet the same canonical key, so only a new one
evaluates the quadratic, and its value is interned by its key; rho1's
extended orbit evaluates 48.  Where the seven values are rational
constants, as in every orbit at a rational point, the table evaluates in
integer arithmetic, and otherwise multiplies the polynomials; the path
follows from the values, and both intern the same value.  The id is stored
under both keys, so a repeated read finds it at once.  The intermediate
values of a word go into the same table.  The table and its memo live for
one orbit.  :class:`OrbitResult` serializes each table value once and
builds its trace tuples from the shared values; it reads the edges off the
closure's successor table, renumbered and sorted, when they are first read.

Each word is followed by its inverse in the list of moves, and the closure
computes only one edge of each reverse pair: once ``w`` takes ``t`` to
``t'``, the edge back from ``t'`` under ``w^-1`` is entered without
evaluating the letter maps.  Two words whose letters are all at least two
strands apart commute (σi σj = σj σi for |i - j| >= 2 in Artin's
presentation: σ1/σ3, σ1/σ4, σ2/σ4, and of the pure generators A12/A34), and
:func:`_commuting` lists them once per list of letters.  Before it evaluates
``a`` at ``t``, the closure tries each commuting ``b``: when ``p = t b^-1``,
``p a`` and ``p a b`` are known, ``t a = p b a = p a b``, read off without
evaluating; rho1..rho4 evaluate 1,337 of the 4,352 moves of their extended
and pure orbits so.  Both inferences are exact, not guesses: the braid
group acts on trace tuples, and the inferred target is an element already
found.  The elements, the edges and their order, and the cutoff point are
those that computing every move gives.

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
from .ring import LaurentPoly, VarContext, parse_poly, serialize_poly, split_assignments
from .sl2 import GroupWord, Mat2, closure

if TYPE_CHECKING:
    from .traces import TraceMap, ValueTable


class BraidWord:
    """Signed generator letters ±1..±4."""

    __slots__ = ("letters", "name")

    def __init__(self, letters: Iterable[int], *, name: Optional[str] = None):
        self.letters = tuple(int(x) for x in letters)
        for x in self.letters:
            if x == 0 or abs(x) > 4:
                raise IndexError(f"letter {x} out of range 1..4")
        self.name = name or "".join(
            (f"s{abs(x)}" if x > 0 else f"s{abs(x)}'") for x in self.letters) or "e"

    def inverse(self) -> "BraidWord":
        return BraidWord([-x for x in reversed(self.letters)],
                         name=self.name + "^-1")

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        return BraidWord(self.letters + other.letters)

    def __pow__(self, n: int) -> "BraidWord":
        if n < 0:
            return self.inverse() ** (-n)
        return BraidWord(self.letters * n)

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


def _check_reach(words: Iterable[BraidWord], n: int) -> None:
    """Letter ``±k`` needs k+1 matrices: refuse a word that reaches past ``n``."""
    for w in words:
        if any(abs(x) >= n for x in w.letters):
            raise IndexError(f"word {w.name} needs more than {n} matrices")


def braid_act(word: BraidWord, rho: Union[RepTuple, Sequence[Mat2]]):
    """Apply a braid word; returns a :class:`~quintic_garnier.reps.RepTuple`
    for one, a tuple for a sequence of matrices.

    The matrices of a raw sequence are taken to be unimodular, as those of
    a :class:`~quintic_garnier.reps.RepTuple` are checked to be.
    """
    mats = rho.mats if isinstance(rho, RepTuple) else rho
    _check_reach([word], len(mats))
    moved = _act(word.letters, mats)
    return RepTuple(*moved) if isinstance(rho, RepTuple) else moved


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
            out.append(BraidWord(letters, name=f"A{i}{j}"))
    return out


def full_twist() -> BraidWord:
    """The square of the half twist; generates the center of the 4-strand group."""
    half = BraidWord([1, 2, 1, 3, 2, 1], name="D")
    return BraidWord(half.letters * 2, name="D^2")


def center_check(rho: RepTuple) -> bool:
    """Full twist acts as conjugation by M1 M2 M3 M4 and fixes the trace tuple."""
    acted = braid_act(full_twist(), rho)
    if trace_coordinates(acted) != trace_coordinates(rho):
        return False
    p = rho.mats[0] * rho.mats[1] * rho.mats[2] * rho.mats[3]
    return acted == rho.conjugate_by(p)


class OrbitResult:
    """Finite (or truncated) orbit: canonical trace tuples plus provenance.

    It is built from the closure's elements, tuples of ids into ``values``,
    the distinct coordinate values of the orbit, and its successor table,
    whose column ``m`` is the move named ``moves[m]``.  Each value is
    serialized once; the elements are ordered by the tuple of their texts,
    which :meth:`to_json` reuses, and handed out as trace tuples that share
    the values.  :attr:`edges` is read off :meth:`permutations` on first
    read, so a caller that reads only the elements never sorts them; it may
    be assigned.
    """

    def __init__(self, seed_name: str, elements: Sequence[tuple[int, ...]],
                 values: Sequence[LaurentPoly], table: Sequence[Sequence[Optional[int]]],
                 moves: Sequence[str], status: str, generators: list[str], cutoff: int):
        texts = [serialize_poly(v) for v in values]
        rows = [tuple(texts[i] for i in e) for e in elements]
        order = sorted(range(len(elements)), key=rows.__getitem__)
        self.seed_name = seed_name
        self.elements = [TraceTuple([values[i] for i in elements[k]]) for k in order]
        self._rows = [rows[k] for k in order]
        self._order, self._table, self._moves = order, table, list(moves)
        self.status = status  # "closed" | "cutoff"
        self.generators = generators
        self.cutoff = cutoff

    @functools.cached_property
    def edges(self) -> list[tuple[int, str, int]]:
        """One edge ``(i, move, j)`` per filled table entry, read off
        :meth:`permutations` and sorted; built on first read."""
        return sorted((i, name, j) for name, images in self.permutations().items()
                      for i, j in enumerate(images) if j is not None)

    def permutations(self) -> dict[str, list[Optional[int]]]:
        """Per move name, the image of each element under the move, in the
        numbering of :attr:`elements`, read off the table.  On a closed orbit
        each list is a permutation; a cutoff orbit has ``None`` where the
        closure stopped before it reached the entry, and nothing is
        completed."""
        # rank[k] is the position in self.elements of closure element k
        rank = [0] * len(self._order)
        for new, old in enumerate(self._order):
            rank[old] = new
        out = {}
        for m, name in enumerate(self._moves):
            images: list[Optional[int]] = [None] * len(rank)
            for a, row in enumerate(self._table):
                b = row[m]
                if b is not None:
                    images[rank[a]] = rank[b]
            out[name] = images
        return out

    def __len__(self):
        return len(self.elements)

    def element_set(self) -> set[TraceTuple]:
        return set(self.elements)

    def substituted_set(self, sigma: Mapping[str, LaurentPoly],
                        target: Optional[VarContext] = None) -> set[TraceTuple]:
        return _substituted(self.elements, sigma, target)

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
            "elements": [list(row) for row in self._rows],
            "edges": [list(e) for e in self.edges],
        }

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=1, sort_keys=True)
            fh.write("\n")


@functools.lru_cache(maxsize=None)
def _letter_map(x: int) -> TraceMap:
    """The trace map of letter ``x``, derived on first use: the letter acts on
    d1..d4 and ``d5 = (d1 d2 d3 d4)^-1``, so σ1..σ3 move the first four
    matrices alone and σ4 the fourth and fifth.  The letter-map module is
    imported here, not with the package: it costs nothing to a process
    that closes no orbit."""
    from .traces import TraceMap

    gens = [GroupWord.gen(f"d{i}") for i in (1, 2, 3, 4)]
    gens.append((gens[0] * gens[1] * gens[2] * gens[3]).inverse())
    _apply_letter(gens, x, GroupWord.inverse)
    return TraceMap(gens[:4])


def _trace_moves(words: Sequence[BraidWord], table: ValueTable) -> list:
    """Each word, then its inverse, as named closure moves on the elements of
    ``table``: the map of each letter (:func:`_letter_map`) bound to the
    table once, a one-letter word's bound map as its move, and a longer
    word's bound maps applied letter by letter."""
    letters = {y for g in words for x in g.letters for y in (x, -x)}
    bound = {x: _letter_map(x).bind(table) for x in letters}
    moves = []
    for g in words:
        for w in (g, g.inverse()):
            maps = [bound[x] for x in w.letters]
            if len(maps) == 1:
                move = maps[0]
            else:
                def move(ids, maps=maps):
                    for m in maps:
                        ids = m(ids)
                    return ids
            moves.append((w.name, move))
    return moves


def _orbit(seed: RepTuple, words: Sequence[BraidWord], cutoff: int,
           seed_name: str) -> OrbitResult:
    """Closure of the seed's trace tuple under ``words`` and their inverses,
    on ids into a value table of its own; move ``m ^ 1`` is the inverse of
    move ``m``, and moves whose letters are at least two strands apart
    commute, so each edge's reverse, and each edge that far commutation
    fixes from edges already known, is inferred, not computed."""
    from .traces import ValueTable

    table = ValueTable()
    moves = _trace_moves(words, table)
    start = tuple(map(table.intern, trace_coordinates(seed).values))
    elements, successors, status = closure(start, moves, cutoff,
                                           [m ^ 1 for m in range(len(moves))],
                                           _commuting(tuple(g.letters for g in words)))
    return OrbitResult(seed_name, elements, table.values, successors,
                       [name for name, _ in moves], status,
                       [g.name for g in words], cutoff)


@functools.lru_cache(maxsize=None)
def _commuting(words: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    """For each closure move of the words given by their letters (each word,
    then its inverse), the other moves that commute with it because every
    letter of one is at least two strands from every letter of the other:
    σi σj = σj σi for |i - j| >= 2 in Artin's presentation, a sufficient
    condition, so no relation is guessed.  Derived once per list of
    letters, as :func:`_letter_map` is once per letter."""
    supports = [{abs(x) for x in letters} for letters in words for _ in (0, 1)]
    return tuple(tuple(n for n, b in enumerate(supports)
                       if n != m and all(abs(x - y) >= 2 for x in a for y in b))
                 for m, a in enumerate(supports))


def orbit(seed: RepTuple, generators: Sequence[BraidWord], cutoff: int = 1000,
          seed_name: str = "seed") -> OrbitResult:
    """Closure of the seed's class under the given words and their inverses;
    σ4 needs the fifth matrix, so it is refused here (see :func:`extended_orbit`)."""
    _check_reach(generators, 4)
    return _orbit(seed, generators, cutoff, seed_name)


def extended_orbit(seed: RepTuple, cutoff: int = 10000,
                   seed_name: str = "seed") -> OrbitResult:
    """Closure of the 5-tuple under the four spherical elementary moves.

    Elements are keyed by the trace tuple of the first four matrices; the
    fifth matrix, ``(M1 M2 M3 M4)^-1``, enters through the map of σ4.
    """
    gens = [BraidWord([i]) for i in (1, 2, 3, 4)]
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
        sa = _substituted(sa, sigma, target)
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


def _substituted(elements: Iterable[TraceTuple], sigma: Mapping[str, LaurentPoly],
                 target: Optional[VarContext]) -> set[TraceTuple]:
    """``sigma`` applied to each element; an orbit has few distinct
    coordinate values, and each is substituted once."""
    images: dict[LaurentPoly, LaurentPoly] = {}

    def image(v: LaurentPoly) -> LaurentPoly:
        w = images.get(v)
        if w is None:
            w = images[v] = v.substitute(sigma, target)
        return w
    return {TraceTuple([image(v) for v in e.values]) for e in elements}


def parse_substitution(text: str, src: VarContext,
                       target: VarContext) -> dict[str, LaurentPoly]:
    """Parse ``u=-s,v=s`` (split by :func:`ring.split_assignments`) into a map
    whose images are signed monomials, one term of coefficient 1 or -1; a source
    variable without an image must be a target variable, which it maps to."""
    sigma: dict[str, LaurentPoly] = {}
    for _, name, rhs in split_assignments(text, "", "image"):
        if name not in src.index:
            raise ValueError(f"unknown source variable {name!r}")
        image = parse_poly(target, rhs)
        if not (image.is_monomial() and abs(image.monomial_term()[1]) == 1):
            raise ValueError(f"image of {name!r} is not a signed monomial")
        sigma[name] = image
    for name in src.names:
        if name not in sigma and name not in target.index:
            raise ValueError(f"source variable {name!r} has no image and is "
                             f"not a target variable ({', '.join(target.names)})")
    return sigma
