"""Matrices, words, relation checks, closures, trace coordinates."""

import random
from itertools import combinations
from fractions import Fraction

import pytest

from quintic_garnier.families import (CTX_ROOT, CTX_S, CTX_T, CTX_UV,
                                      FAMILY_NAMES, PRESENTATIONS,
                                      builtin_family)
from quintic_garnier.reps import (PAIRS, RepTuple, irreducibility_witness,
                                  trace_coordinates, verify_product_identity)
from quintic_garnier.sl2 import (GroupWord, Mat2, closure, commutator,
                                 projective_closure, verify_relations,
                                 word_evaluate)
from listings import random_monomial_matrix, random_rep_tuple, random_unipotent

u, v = CTX_UV.var("u"), CTX_UV.var("v")
J = Mat2.antidiagonal(CTX_UV.one())


def test_word_evaluate_empty_is_identity():
    assert word_evaluate({"a": J}, GroupWord()).is_identity()


def test_word_evaluate_case2_relator():
    # (bc)^2 (cb)^-2 with b diagonal and c the quarter turn
    b, c = GroupWord.gen("b"), GroupWord.gen("c")
    w = (b * c) ** 2 * ((c * b) ** 2).inverse()
    val = word_evaluate({"b": Mat2.diagonal(v), "c": J}, w)
    assert val.is_identity()


def test_word_evaluate_commutator():
    b, c = GroupWord.gen("b"), GroupWord.gen("c")
    val = word_evaluate({"b": Mat2.diagonal(v), "c": J}, commutator(b, c))
    assert val == Mat2.diagonal(v ** 2)


def test_word_evaluate_is_monoid_homomorphism():
    rng = random.Random(23)
    assignment = {"a": random_monomial_matrix(rng),
                  "b": random_monomial_matrix(rng),
                  "c": random_monomial_matrix(rng)}
    syms = list("abc")
    for _ in range(150):
        w1 = GroupWord((rng.choice(syms), rng.choice([1, -1]))
                       for _ in range(rng.randint(0, 4)))
        w2 = GroupWord((rng.choice(syms), rng.choice([1, -1]))
                       for _ in range(rng.randint(0, 4)))
        lhs = word_evaluate(assignment, w1 * w2)
        rhs = word_evaluate(assignment, w1) * word_evaluate(assignment, w2)
        assert lhs == rhs


def test_word_evaluate_requires_assignment():
    with pytest.raises(KeyError):
        word_evaluate({"a": J}, GroupWord.gen("b"))


def test_word_evaluate_rejects_an_empty_assignment():
    with pytest.raises(ValueError, match="no generator is assigned"):
        word_evaluate({}, GroupWord())


def test_word_evaluate_checks_each_matrix_once(monkeypatch):
    """One determinant per assigned matrix the word uses, inverted letters
    included: an inverse is the adjugate of a matrix already checked."""
    calls = [0]
    det = Mat2.det

    def counted(self):
        calls[0] += 1
        return det(self)
    b, c = GroupWord.gen("b"), GroupWord.gen("c")
    w = b * c.inverse() * b.inverse() * c.inverse()
    assignment = {"b": Mat2.diagonal(v), "c": J}
    want = (Mat2.diagonal(v) * J.adjugate() * Mat2.diagonal(v).adjugate()
            * J.adjugate())
    monkeypatch.setattr(Mat2, "det", counted)
    assert word_evaluate(assignment, w) == want
    assert calls[0] == 2


@pytest.mark.parametrize("name", [
    "plane_case1", "plane_case2", "plane_case3",
    "b3_nonrigid", "b4_family", "gamma3_finite",
    "gamma3p_fam1", "gamma3p_fam2",
])
def test_catalog_families_satisfy_their_relations(name):
    fam = builtin_family(name)
    report = verify_relations(fam.presentation, fam.assignment)
    assert report.projective_pass, report.as_dict()


def test_relation_report_shape():
    fam = builtin_family("b3_nonrigid")
    d = verify_relations(fam.presentation, fam.assignment).as_dict()
    assert d["presentation"] == "b3"
    assert all({"relator", "sl2", "psl2"} <= set(r) for r in d["relators"])


def test_closure_levels_edges_and_cutoff():
    # residues mod 6 from 0 under +2 and +3: level 1 is {2, 3}, level 2 {4, 5}
    moves = [("+2", lambda k: (k + 2) % 6), ("+3", lambda k: (k + 3) % 6)]
    keys, edges, status = closure(0, moves, cutoff=6)
    assert status == "closed" and keys == [0, 2, 3, 4, 5, 1]
    assert edges[:4] == [(0, "+2", 1), (0, "+3", 2), (1, "+2", 3), (1, "+3", 4)]
    assert len(edges) == 2 * len(keys)
    keys, edges, status = closure(0, moves, cutoff=3)
    assert status == "cutoff" and keys == [0, 2, 3]
    assert edges == [(0, "+2", 1), (0, "+3", 2)]


def _counted_moves(calls):
    """+2, -2, +3, -3 on residues mod 6, each call counted in ``calls``."""
    def step(d):
        def move(k):
            calls.append(d)
            return (k + d) % 6
        return move
    return [(f"{d:+d}", step(d)) for d in (2, -2, 3, -3)]


@pytest.mark.parametrize("cutoff", [6, 3])
def test_closure_infers_reverse_edges(cutoff):
    plain_calls, calls = [], []
    plain = closure(0, _counted_moves(plain_calls), cutoff)
    got = closure(0, _counted_moves(calls), cutoff, [1, 0, 3, 2])
    assert got == plain
    keys, edges, status = got
    if cutoff == 6:
        assert status == "closed" and len(keys) == 6 and len(edges) == 24
        # each computed edge names its reverse, so half the edges cost a call
        assert len(plain_calls) == len(edges) and len(calls) == len(edges) // 2
    else:
        # the cutoff falls on the third move, before any reverse is reached
        assert status == "cutoff" and keys == [0, 2, 4]
        assert edges == [(0, "+2", 1), (0, "-2", 2)] and calls == plain_calls


@pytest.mark.parametrize("inverses", [[1, 0, 3], [1, 0, 3, 2, 4], [1, 2, 3, 0],
                                      [1, 0, 3, 4], [1, 0, 3, -1]],
                         ids=["short", "long", "cycle", "out_of_range", "negative"])
def test_closure_rejects_malformed_inverses(inverses):
    calls = []
    with pytest.raises(ValueError, match="inverses"):
        closure(0, _counted_moves(calls), 6, inverses)
    assert calls == []


@pytest.mark.parametrize("cutoff", [0, -3])
def test_closure_rejects_cutoff_below_one(cutoff):
    with pytest.raises(ValueError, match="cutoff"):
        closure(0, [("+1", lambda k: k + 1)], cutoff)
    with pytest.raises(ValueError, match="cutoff"):
        projective_closure([J], cutoff=cutoff)


def test_projective_closure_quarter_turn():
    res = projective_closure([J], cutoff=10)
    assert res.status == "finite" and res.order == 2


def test_projective_closure_gamma3_is_order_twelve():
    fam = builtin_family("gamma3_finite")
    res = projective_closure([fam.assignment["a"], fam.assignment["b"]], cutoff=100)
    assert res.status == "finite" and res.order == 12


def test_projective_closure_symbolic_torus_hits_cutoff():
    res = projective_closure([Mat2.diagonal(u)], cutoff=100)
    assert res.status == "cutoff"


def test_trace_coordinates_of_identity():
    t = trace_coordinates(RepTuple.identity(CTX_UV))
    assert all(val == CTX_UV.const(2) for val in t.values)


def test_trace_coordinates_rho1_first_element():
    from listings import rho1_listing
    assert trace_coordinates(builtin_family("rho1").rep) == rho1_listing()[0]


def test_trace_coordinates_rho3_first_element():
    from listings import rho3_listing
    assert trace_coordinates(builtin_family("rho3").rep) == rho3_listing()[0]


def test_trace_coordinates_conjugation_invariant():
    rng = random.Random(31)
    for _ in range(100):
        rho = random_rep_tuple(rng)
        g = random_monomial_matrix(rng)
        assert trace_coordinates(rho.conjugate_by(g)) == trace_coordinates(rho)


def test_conjugate_by_checks_g_once_and_each_conjugate(monkeypatch):
    """One determinant for ``g^-1`` and one per conjugate in the
    constructor: five in all, and the conjugates are ``g M g^-1``."""
    rho = builtin_family("rho1").rep
    g = random_unipotent(random.Random(5), rho.ctx)
    calls = []
    det = Mat2.det
    monkeypatch.setattr(Mat2, "det", lambda m: calls.append(m) or det(m))
    conj = rho.conjugate_by(g)
    assert len(calls) == 5
    g_inv = g.adjugate()
    assert conj.mats == tuple(g * m * g_inv for m in rho.mats)
    bad = Mat2(2 * u, 0, 0, u ** -1)
    with pytest.raises(ValueError, match="determinant"):
        rho.conjugate_by(bad)


def _random_unimodular(rng, ctx):
    """Three random unipotents, the last with a rational coefficient:
    unimodular by construction, with several terms per entry."""
    m = ctx.monomial(rng.choice([2, -2, Fraction(1, 2), Fraction(-1, 3)]),
                     {n: rng.randint(-2, 2) for n in ctx.names})
    one, zero = ctx.one(), ctx.zero()
    return (random_unipotent(rng, ctx) * random_unipotent(rng, ctx)
            * Mat2(one, zero, m, one))


@pytest.mark.parametrize("ctx", [CTX_UV, CTX_ROOT], ids=["uv", "root"])
def test_trace_coordinates_match_coordinate_words(ctx):
    """Each of the fifteen coordinates is the trace of its word in d1..d4:
    the four generators, their product, then the pairs and the triples."""
    subsets = ([(i,) for i in range(4)] + [(0, 1, 2, 3)]
               + list(combinations(range(4), 2)) + list(combinations(range(4), 3)))
    words = [GroupWord((f"d{i + 1}", 1) for i in c) for c in subsets]
    rng = random.Random(61)
    for _ in range(100):
        mats = [_random_unimodular(rng, ctx) for _ in range(4)]
        assignment = {f"d{i + 1}": m for i, m in enumerate(mats)}
        want = tuple(word_evaluate(assignment, w).trace() for w in words)
        assert trace_coordinates(RepTuple(*mats)).values == want


def _full_product_coordinates(rho):
    """The fifteen coordinates from full matrix products, one per trace."""
    m = rho.mats
    pair = {p: m[p[0]] * m[p[1]] for p in PAIRS}
    triples = ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))
    return ([mi.trace() for mi in m]
            + [(pair[(0, 1)] * pair[(2, 3)]).trace()]
            + [pair[p].trace() for p in PAIRS]
            + [(pair[(a, b)] * m[c]).trace() for a, b, c in triples])


def test_trace_coordinates_match_full_product_reference():
    rng = random.Random(67)
    fam = builtin_family("gamma3_finite")
    a, b = fam.assignment["a"], fam.assignment["b"]
    reps = [builtin_family(f"rho{i}").rep for i in (1, 2, 3, 4)]
    reps += [rho.conjugate_by(random_unipotent(rng, rho.ctx)) for rho in reps]
    reps.append(RepTuple(a, b, a * b, b * a * b))
    for rho in reps:
        got = trace_coordinates(rho).values
        want = _full_product_coordinates(rho)
        for i, (g, w) in enumerate(zip(got, want)):
            assert g == w, (rho, i)
        assert len(got) == len(want) == 15


def test_rep_tuple_product_and_determinants():
    rng = random.Random(37)
    for _ in range(100):
        rho = random_rep_tuple(rng)
        one = CTX_UV.one()
        assert all(m.det() == one for m in rho.five())
        assert verify_product_identity(rho) == {"sl2": True, "psl2": True}


def test_entry_points_reject_a_determinant_two_matrix():
    """Braid moves skip the checks of matrices they copy; the entry points,
    where matrices come from outside, keep theirs."""
    det_two = Mat2(u, 0, 0, 2 * u ** -1)
    with pytest.raises(ValueError, match="determinant one"):
        RepTuple(J, det_two, J, J)
    with pytest.raises(ValueError, match="determinant-one"):
        det_two.inverse()
    with pytest.raises(ValueError, match="'b'"):
        word_evaluate({"a": J, "b": det_two}, GroupWord.gen("b"))
    # the adjugate is the unchecked form: m adj(m) = det(m) I
    two = CTX_UV.const(2)
    assert det_two * det_two.adjugate() == Mat2(two, 0, 0, two)


def test_product_identity_of_line_rows():
    for name, expect in [("line_case1", True), ("line_case2", True),
                         ("line_case3b", True)]:
        fam = builtin_family(name)
        assert verify_product_identity(fam.five)["sl2"] is expect


def test_product_identity_line_case3a_defect_and_correction():
    fam = builtin_family("line_case3a")
    assert verify_product_identity(fam.five) == {"sl2": False, "psl2": False}
    assert verify_product_identity(fam.corrected_five)["sl2"] is True


def test_sign_flip_of_fifth_matrix_is_projective_only():
    rho = builtin_family("rho1").rep
    five = rho.five()
    flipped = five[:4] + (-five[4],)
    assert verify_product_identity(flipped) == {"sl2": False, "psl2": True}


def test_irreducibility_witness_rho2():
    rho = builtin_family("rho2").rep
    wit = irreducibility_witness(rho)
    # pair (d1, d3): quarter turn against diag(u) has defect u^2 + u^-2 - 2
    assert wit[(1, 3)] == u ** 2 + u ** -2 - 2
    # commuting pair (d2, d4): zero defect
    assert wit[(2, 4)].is_zero()


def test_irreducibility_witness_identity_vanishes():
    wit = irreducibility_witness(RepTuple.identity(CTX_UV))
    assert all(val.is_zero() for val in wit.values())


def test_builtin_family_unknown_name():
    with pytest.raises(KeyError):
        builtin_family("rho9")


def test_gamma3_lift_matrices():
    fam = builtin_family("gamma3_finite")
    a, b = fam.assignment["a"], fam.assignment["b"]
    one = a.ctx.one()
    assert a.det() == one and b.det() == one
    assert (a * a * a).is_identity()


def test_gamma4_presentation_declared():
    assert PRESENTATIONS["gamma4"].generators == ("a", "b", "c")
    assert len(PRESENTATIONS["gamma4"].relators) == 3
