"""Exact 2x2 unimodular matrices, group words, and relation checking.

Matrices carry :class:`~quintic_garnier.ring.LaurentPoly` entries, so every
product, inverse (via the adjugate, determinant one) and trace is exact.
Relators are checked both in SL2 (exact identity) and in PSL2 (identity up
to a global sign), since the representation families of interest are
sometimes only projectively faithful to their presentations.

:func:`closure` is the one breadth-first closure engine of the package: it
closes matrix sets here and braid orbits in :mod:`~quintic_garnier.braids`.
It keeps one successor table, element by move, and for a group action
fills entries without calling a move: the reverse of each computed edge,
and each edge that two commuting moves fix from edges already known.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Optional, Sequence

from .ring import ContextError, LaurentPoly, VarContext, serialize_poly


class Mat2:
    """2x2 matrix over the Laurent ring of a shared context."""

    __slots__ = ("a", "b", "c", "d", "ctx")

    def __init__(self, a, b, c, d):
        entries = []
        ctx = None
        for e in (a, b, c, d):
            if isinstance(e, LaurentPoly):
                ctx = e.ctx
        if ctx is None:
            raise ContextError("at least one entry must be a LaurentPoly")
        for e in (a, b, c, d):
            entries.append(e if isinstance(e, LaurentPoly) else ctx.const(e))
        self.a, self.b, self.c, self.d = entries
        self.ctx = ctx

    @classmethod
    def identity(cls, ctx: VarContext) -> "Mat2":
        return cls(ctx.one(), ctx.zero(), ctx.zero(), ctx.one())

    @classmethod
    def diagonal(cls, p: LaurentPoly) -> "Mat2":
        """diag(p, p^-1); ``p`` must be a unit."""
        return cls(p, 0, 0, p.inverse())

    @classmethod
    def antidiagonal(cls, p: LaurentPoly) -> "Mat2":
        """((0, p), (-p^-1, 0)); determinant one."""
        return cls(p.ctx.zero(), p, -p.inverse(), p.ctx.zero())

    def det(self) -> LaurentPoly:
        return self.a * self.d - self.b * self.c

    def trace(self) -> LaurentPoly:
        return self.a + self.d

    def __mul__(self, other: "Mat2") -> "Mat2":
        return Mat2(self.a * other.a + self.b * other.c,
                    self.a * other.b + self.b * other.d,
                    self.c * other.a + self.d * other.c,
                    self.c * other.b + self.d * other.d)

    def __neg__(self) -> "Mat2":
        return Mat2(-self.a, -self.b, -self.c, -self.d)

    def adjugate(self) -> "Mat2":
        """((d, -b), (-c, a)): the inverse when the determinant is one.

        Nothing is checked; :meth:`inverse` is the checked form.
        """
        return Mat2(self.d, -self.b, -self.c, self.a)

    def inverse(self) -> "Mat2":
        """Adjugate inverse; requires determinant exactly one."""
        if self.det() != self.ctx.one():
            raise ValueError("inverse defined only for determinant-one matrices")
        return self.adjugate()

    def __eq__(self, other):
        if not isinstance(other, Mat2):
            return NotImplemented
        return (self.a == other.a and self.b == other.b
                and self.c == other.c and self.d == other.d)

    def __hash__(self):
        return hash((self.a, self.b, self.c, self.d))

    def is_identity(self) -> bool:
        return self == Mat2.identity(self.ctx)

    def projectively_identity(self) -> bool:
        return self.is_identity() or self == -Mat2.identity(self.ctx)

    def projective_rep(self) -> "Mat2":
        """Whichever of M and -M has the lesser entry keys: the same matrix
        for both members of {M, -M}."""
        return min(self, -self, key=lambda m: tuple(e.key() for e in m.entries()))

    def entries(self) -> tuple[LaurentPoly, LaurentPoly, LaurentPoly, LaurentPoly]:
        return (self.a, self.b, self.c, self.d)

    def serialize(self) -> list[str]:
        return [serialize_poly(e) for e in self.entries()]

    def __repr__(self):
        return f"Mat2[{'; '.join(self.serialize())}]"


class GroupWord:
    """Freely reduced word in abstract generators."""

    __slots__ = ("letters",)

    def __init__(self, letters: Iterable[tuple[str, int]] = ()):
        reduced: list[tuple[str, int]] = []
        for sym, e in letters:
            if e not in (1, -1):
                raise ValueError("letters carry exponent +1 or -1")
            if reduced and reduced[-1] == (sym, -e):
                reduced.pop()
            else:
                reduced.append((sym, e))
        self.letters = tuple(reduced)

    @classmethod
    def gen(cls, sym: str) -> "GroupWord":
        return cls([(sym, 1)])

    def __mul__(self, other: "GroupWord") -> "GroupWord":
        return GroupWord(self.letters + other.letters)

    def inverse(self) -> "GroupWord":
        return GroupWord((sym, -e) for sym, e in reversed(self.letters))

    def __pow__(self, n: int) -> "GroupWord":
        if n < 0:
            return self.inverse() ** (-n)
        out = GroupWord()
        for _ in range(n):
            out = out * self
        return out

    def symbols(self) -> set[str]:
        return {sym for sym, _ in self.letters}

    def __eq__(self, other):
        return isinstance(other, GroupWord) and self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

    def __repr__(self):
        if not self.letters:
            return "1"
        return "".join(sym if e == 1 else f"{sym}^-1" for sym, e in self.letters)


def commutator(x: GroupWord, y: GroupWord) -> GroupWord:
    return x * y * x.inverse() * y.inverse()


class Presentation:
    """Named finite presentation: generators and relator words."""

    __slots__ = ("name", "generators", "relators")

    def __init__(self, name: str, generators: Sequence[str],
                 relators: Sequence[GroupWord]):
        self.name = name
        self.generators = tuple(generators)
        for rel in relators:
            if not rel.symbols() <= set(self.generators):
                raise ValueError(f"relator {rel!r} uses undeclared generators")
        self.relators = tuple(relators)

    def __repr__(self):
        return f"Presentation({self.name})"


def word_evaluate(assignment: Mapping[str, Mat2], w: GroupWord) -> Mat2:
    """Evaluate a word; each matrix it uses is checked to have determinant
    one once, and its inverse is then the adjugate."""
    if not assignment:
        raise ValueError("no generator is assigned")
    mats = {}
    for sym in w.symbols():
        if sym not in assignment:
            raise KeyError(f"generator {sym!r} is not assigned")
        m = assignment[sym]
        if m.det() != m.ctx.one():
            raise ValueError(f"assignment of {sym!r} is not unimodular")
        mats[sym] = m
    ctx = next(iter(assignment.values())).ctx
    out = Mat2.identity(ctx)
    inv_cache: dict[str, Mat2] = {}
    for sym, e in w.letters:
        if e == 1:
            out = out * mats[sym]
        else:
            if sym not in inv_cache:
                inv_cache[sym] = mats[sym].adjugate()
            out = out * inv_cache[sym]
    return out


class RelationReport:
    """Per-relator verdicts of a presentation check."""

    def __init__(self, presentation: Presentation):
        self.presentation = presentation
        self.results: list[tuple[str, bool, bool]] = []

    def add(self, relator: GroupWord, value: Mat2):
        self.results.append((repr(relator), value.is_identity(),
                             value.projectively_identity()))

    @property
    def sl2_pass(self) -> bool:
        return all(s for _, s, _ in self.results)

    @property
    def projective_pass(self) -> bool:
        return all(p for _, _, p in self.results)

    def as_dict(self) -> dict:
        return {
            "presentation": self.presentation.name,
            "relators": [{"relator": r, "sl2": s, "psl2": p}
                         for r, s, p in self.results],
            "sl2_pass": self.sl2_pass,
            "projective_pass": self.projective_pass,
        }


def verify_relations(p: Presentation, assignment: Mapping[str, Mat2]) -> RelationReport:
    for g in p.generators:
        if g not in assignment:
            raise KeyError(f"generator {g!r} is not assigned")
    report = RelationReport(p)
    for rel in p.relators:
        report.add(rel, word_evaluate(assignment, rel))
    return report


class ClosureResult:
    """Outcome of a breadth-first projective closure."""

    def __init__(self, status: str, order: Optional[int], explored: int):
        self.status = status  # "finite" | "cutoff"
        self.order = order
        self.explored = explored

    def __repr__(self):
        if self.status == "finite":
            return f"Finite({self.order})"
        return f"CutoffExceeded({self.explored})"


def closure(seed, moves: Sequence[tuple[str, Callable]], cutoff: int,
            inverses: Optional[Sequence[int]] = None,
            commuting: Optional[Sequence[Sequence[int]]] = None
            ) -> tuple[list, list[list[Optional[int]]], str]:
    """Breadth-first closure of ``seed`` under ``moves``.

    The elements must be hashable; two are the same element when they are
    equal.  ``moves`` is a list of ``(name, fn)`` pairs, applied in order to
    every element of a level before the next level starts.  Returns
    ``(elements, table, status)``: the elements in discovery order (the
    seed first), the successor table, and a status that is ``"closed"``, or
    ``"cutoff"`` as soon as a new element would go past ``cutoff``, which
    must be at least 1.  ``table[i][m]`` is the index of the element that
    move ``m`` takes element ``i`` to.  The elements are scanned in index
    order, so the filled entries read row by row are the edges ``(i, m,
    j)`` in the order the loop reaches them; at a cutoff every entry past
    the point the scan stopped at is ``None``.

    ``inverses[m]``, when given, is the index of the move inverse to move
    ``m``, an involution of ``range(len(moves))``.  The moves must then be
    a group action on the elements: an entry ``table[i][m] = j`` gives
    ``table[j][inverses[m]] = i`` without calling the move.

    ``commuting[m]``, when given, lists the moves that commute with move
    ``m`` as maps of the elements; it needs ``inverses`` and must be
    symmetric, irreflexive and closed under ``inverses``.  Before move
    ``m`` (a) is called on element ``i``, each commuting move ``n`` (b) is
    tried: when ``p = table[i][inverses[n]]``, ``q = table[p][m]`` and
    ``r = table[q][n]`` are all known, then ``i a = p b a = p a b = r``, the
    deduction step of coset enumeration (Holt, Eick and O'Brien, *Handbook
    of Computational Group Theory*, ch. 5).

    Both inferences give an element already found, so the elements, the
    table and the status are those of the same call without them; only the
    number of moves called differs.  A malformed ``inverses`` or
    ``commuting`` raises :class:`ValueError` before any move is called.
    """
    if cutoff < 1:
        raise ValueError("cutoff must be at least 1")
    k = len(moves)
    if inverses is not None and (
            len(inverses) != k
            or any(not 0 <= n < k or inverses[n] != m for m, n in enumerate(inverses))):
        raise ValueError("inverses must be an involution of the move indices")
    if commuting is not None:
        if inverses is None:
            raise ValueError("commuting needs inverses")
        if len(commuting) != k or any(not 0 <= n < k for ns in commuting for n in ns):
            raise ValueError("commuting must list move indices for each move")
        pairs = {(m, n) for m, ns in enumerate(commuting) for n in ns}
        if any(m == n or (n, m) not in pairs or (m, inverses[n]) not in pairs
               for m, n in pairs):
            raise ValueError("commuting must be symmetric, irreflexive and "
                             "closed under inverses")
    # per move: its index, function, inverse, and (inverses[n], n) for each
    # move n that commutes with it
    steps = [(m, fn, None if inverses is None else inverses[m],
              () if commuting is None else [(inverses[n], n) for n in commuting[m]])
             for m, (_, fn) in enumerate(moves)]
    index = {seed: 0}
    elements = [seed]
    table: list[list[Optional[int]]] = [[None] * k]
    for i, element in enumerate(elements):  # the loop appends new elements
        row = table[i]
        for m, move, back, deductions in steps:
            if row[m] is not None:
                continue
            for back_n, n in deductions:
                p = row[back_n]
                if p is not None:
                    q = table[p][m]
                    if q is not None:
                        j = table[q][n]
                        if j is not None:
                            break
            else:  # no deduction: call the move
                image = move(element)
                j = index.get(image)
                if j is None:
                    if len(elements) >= cutoff:
                        row[m:] = [None] * (k - m)
                        for later in table[i + 1:]:
                            later[:] = [None] * k
                        return elements, table, "cutoff"
                    j = index[image] = len(elements)
                    elements.append(image)
                    table.append([None] * k)
            row[m] = j
            if back is not None:
                table[j][back] = i
    return elements, table, "closed"


def projective_closure(generators: Sequence[Mat2], cutoff: int = 1000) -> ClosureResult:
    """Close a matrix set under multiplication modulo global sign.

    Every element is the :meth:`Mat2.projective_rep` of its class {M, -M},
    so the closure's own equality counts classes.  Returns ``Finite(order)`` when the closure stabilizes below the cutoff,
    otherwise a cutoff marker (not fatal: symbolic tori never close).
    """
    moves = [(str(n), lambda m, g=g: (m * g).projective_rep())
             for n, g in enumerate(generators)]
    elements, _, status = closure(Mat2.identity(generators[0].ctx).projective_rep(),
                                  moves, cutoff)
    if status == "cutoff":
        return ClosureResult("cutoff", None, len(elements))
    return ClosureResult("finite", len(elements), len(elements))
