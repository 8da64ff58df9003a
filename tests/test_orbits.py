"""Braid action, pure generators, orbit enumeration and comparison."""

import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from quintic_garnier import braids, traces
from quintic_garnier.braids import (BraidWord, OrbitResult, _letter_map,
                                    _trace_moves, braid_act, center_check,
                                    extended_orbit, full_twist, orbit,
                                    orbit_compare, parse_substitution,
                                    pure_generators)
from quintic_garnier.families import CTX_ROOT, CTX_S, CTX_UV, builtin_family
from quintic_garnier.reps import RepTuple, TraceTuple, trace_coordinates
from quintic_garnier.ring import LaurentPoly, VarContext, serialize_poly
from quintic_garnier.sl2 import GroupWord, Mat2, closure
from quintic_garnier.traces import (CTX_TRACE, TRACE_NAMES, TraceMap, ValueTable,
                                      _memo_key, _quadratic)
from listings import EXTENDED_SIZES, LISTINGS, random_rep_tuple, random_unipotent

u, v = CTX_UV.var("u"), CTX_UV.var("v")
s = CTX_S.var("s")


def test_empty_word_fixes_tuple():
    rho = builtin_family("rho1").rep
    assert braid_act(BraidWord([]), rho) == rho


def test_first_move_on_rho1_swaps_commuting_diagonals():
    rho = builtin_family("rho1").rep
    acted = braid_act(BraidWord([1]), rho)
    assert acted.mats[0] == Mat2.diagonal(u)
    assert acted.mats[1] == Mat2.diagonal(v)
    assert acted.mats[2:] == rho.mats[2:]


def test_move_and_inverse_cancel():
    rng = random.Random(41)
    for _ in range(50):
        rho = random_rep_tuple(rng)
        for i in (1, 2, 3):
            w = BraidWord([i, -i])
            assert braid_act(w, rho) == rho


def test_braid_relations_as_action_identities():
    rng = random.Random(43)
    w121, w212 = BraidWord([1, 2, 1]), BraidWord([2, 1, 2])
    w13, w31 = BraidWord([1, 3]), BraidWord([3, 1])
    w232, w323 = BraidWord([2, 3, 2]), BraidWord([3, 2, 3])
    for _ in range(120):
        rho = random_rep_tuple(rng)
        assert braid_act(w121, rho) == braid_act(w212, rho)
        assert braid_act(w232, rho) == braid_act(w323, rho)
        assert braid_act(w13, rho) == braid_act(w31, rho)


def test_braid_act_preserves_det_and_product():
    rng = random.Random(47)
    one = CTX_UV.one()
    for _ in range(100):
        rho = random_rep_tuple(rng)
        five = rho.five()
        for i in (1, 2, 3, 4):
            img = braid_act(BraidWord([i]), five)
            assert all(m.det() == one for m in img)
            prod = img[0]
            for m in img[1:]:
                prod = prod * m
            assert prod.is_identity()


def test_a_letter_checks_the_matrix_it_creates():
    # a = diag(2u, u^-1) has determinant two; sigma_1 builds a I adj(a) = 2 I
    two = Mat2(2 * u, 0, 0, u ** -1)
    ident = Mat2.identity(CTX_UV)
    with pytest.raises(ValueError, match="determinant"):
        braid_act(BraidWord([1]), [two] + [ident] * 4)


def test_a_letter_needs_one_more_matrix_than_its_index():
    rho = builtin_family("rho1").rep
    for x in (4, -4):
        w = BraidWord([1, x])
        with pytest.raises(IndexError):
            braid_act(w, rho)
        with pytest.raises(IndexError):
            braid_act(w, rho.mats)
        five = braid_act(w, rho.five())
        assert isinstance(five, tuple) and len(five) == 5
        assert five == braid_act(BraidWord([x]), braid_act(BraidWord([1]), rho.five()))
    # sigma_1..sigma_3 move the first four of five matrices as they move four
    w = BraidWord([1, -2, 3])
    assert braid_act(w, rho.five())[:4] == braid_act(w, rho).mats
    assert braid_act(w, rho.mats) == braid_act(w, rho).mats
    for x in (0, 5, -5):
        with pytest.raises(IndexError):
            BraidWord([x])


def test_a_positional_name_is_refused():
    with pytest.raises(TypeError):
        BraidWord([1], "b4")
    assert BraidWord([1, -2], name="w").name == "w"
    assert BraidWord([1, -2]).name == "s1s2'"


def test_orbit_rejects_a_spherical_word_at_entry(monkeypatch):
    moves = []
    monkeypatch.setattr(Mat2, "__mul__", lambda *args: moves.append(args))
    with pytest.raises(IndexError):
        orbit(builtin_family("rho1").rep, [BraidWord([1]), BraidWord([2, -4])])
    assert moves == []


def test_pure_generators_are_pure():
    gens = pure_generators()
    assert [g.name for g in gens] == ["A12", "A13", "A14", "A23", "A24", "A34"]
    assert gens[0].letters == (1, 1)
    assert gens[1].letters == (2, 1, 1, -2)
    for g in gens:
        assert g.permutation(4) == (0, 1, 2, 3)


def test_pure_generators_fix_local_traces():
    rng = random.Random(53)
    for _ in range(60):
        rho = random_rep_tuple(rng)
        t = trace_coordinates(rho)
        for g in pure_generators():
            t2 = trace_coordinates(braid_act(g, rho))
            assert t2.values[:4] == t.values[:4]
            assert t2.values[4] == t.values[4]


def test_full_twist_is_central():
    assert full_twist().permutation(4) == (0, 1, 2, 3)
    rng = random.Random(59)
    for _ in range(100):
        assert center_check(random_rep_tuple(rng))
    assert center_check(builtin_family("rho1").rep)
    assert center_check(RepTuple.identity(CTX_UV))


@pytest.mark.parametrize("name", ["rho1", "rho2", "rho3", "rho4"])
def test_pure_orbits_match_listings(name):
    fam = builtin_family(name)
    res = orbit(fam.rep, pure_generators(), cutoff=100, seed_name=name)
    assert res.status == "closed"
    assert len(res) == 4
    assert res.element_set() == set(LISTINGS[name]())


def test_orbit_of_identity_is_a_fixed_point():
    res = orbit(RepTuple.identity(CTX_UV), pure_generators(), cutoff=10)
    assert res.status == "closed" and len(res) == 1


def test_orbit_generator_order_independence():
    fam = builtin_family("rho1")
    gens = pure_generators()
    a = orbit(fam.rep, gens, cutoff=100)
    b = orbit(fam.rep, list(reversed(gens)), cutoff=100)
    c = orbit(fam.rep, gens[3:] + gens[:3], cutoff=100)
    assert a.element_set() == b.element_set() == c.element_set()


def test_orbit_cutoff_status():
    fam = builtin_family("rho1")
    res = orbit(fam.rep, pure_generators(), cutoff=2)
    assert res.status == "cutoff"


def test_orbits_reject_cutoff_below_one():
    rep = builtin_family("rho1").rep
    with pytest.raises(ValueError, match="cutoff"):
        orbit(rep, pure_generators(), cutoff=0)
    with pytest.raises(ValueError, match="cutoff"):
        extended_orbit(rep, cutoff=0)


@pytest.mark.parametrize("name", ["rho4", "rho3", "rho2", "rho1"])
def test_extended_orbit_sizes(name):
    fam = builtin_family(name)
    res = extended_orbit(fam.rep, cutoff=10000, seed_name=name)
    assert res.status == "closed"
    assert len(res) == EXTENDED_SIZES[name]


def test_extended_orbit_of_identity():
    res = extended_orbit(RepTuple.identity(CTX_UV), cutoff=10)
    assert res.status == "closed" and len(res) == 1


def test_identifications_under_parameter_changes():
    ext2 = extended_orbit(builtin_family("rho2").rep, seed_name="rho2")
    rho3_point = trace_coordinates(builtin_family("rho3").rep)
    rho4_point = trace_coordinates(builtin_family("rho4").rep)
    assert rho3_point in ext2.substituted_set({"u": -s, "v": s}, CTX_S)
    assert rho4_point in ext2.substituted_set({"u": s, "v": s}, CTX_S)
    cmp3 = orbit_compare(ext2, [rho3_point], sigma={"u": -s, "v": s}, target=CTX_S)
    assert cmp3["relation"] == "a_contains_b"


def test_orbit_compare_substitutes_each_distinct_value_once(monkeypatch):
    """rho2's extended orbit fills 1,800 coordinate slots with 9 distinct
    values; comparing it with rho3's pure orbit under u=-s, v=s substitutes
    each value once."""
    ext2 = extended_orbit(builtin_family("rho2").rep, seed_name="rho2")
    pure3 = orbit(builtin_family("rho3").rep, pure_generators(), seed_name="rho3")
    sigma = parse_substitution("u=-s,v=s", CTX_UV, CTX_S)
    calls = []
    substitute = LaurentPoly.substitute
    monkeypatch.setattr(LaurentPoly, "substitute",
                        lambda p, *args: calls.append(p) or substitute(p, *args))
    got = orbit_compare(ext2, pure3, sigma=sigma, target=CTX_S)
    assert got["relation"] == "a_contains_b"
    slots = [v for e in ext2.elements for v in e.values]
    assert (len(slots), len(set(slots))) == (1800, 9)
    assert len(calls) == 9 and set(calls) == set(slots)


def test_pure_orbits_pairwise_disjoint_same_context():
    o1 = orbit(builtin_family("rho1").rep, pure_generators(), 100)
    o2 = orbit(builtin_family("rho2").rep, pure_generators(), 100)
    assert orbit_compare(o1, o2)["relation"] == "disjoint"
    o3 = orbit(builtin_family("rho3").rep, pure_generators(), 100)
    o4 = orbit(builtin_family("rho4").rep, pure_generators(), 100)
    assert orbit_compare(o3, o4)["relation"] == "disjoint"


def test_orbit_compare_equal_and_overlap():
    o1 = orbit(builtin_family("rho1").rep, pure_generators(), 100)
    assert orbit_compare(o1, o1)["relation"] == "equal"


def test_orbit_compare_reports_containment_both_ways_and_overlap():
    elements = sorted(orbit(builtin_family("rho1").rep, pure_generators(), 100).elements,
                      key=TraceTuple.serialize)
    assert len(elements) == 4
    assert orbit_compare(elements, elements[:2])["relation"] == "a_contains_b"
    assert orbit_compare(elements[:2], elements)["relation"] == "b_contains_a"
    got = orbit_compare(elements[:3], elements[1:])
    assert (got["relation"], got["common"], got["size_a"], got["size_b"]) == \
        ("overlap", 2, 3, 3)


def test_orbit_json_roundtrip(tmp_path):
    fam = builtin_family("rho3")
    res = orbit(fam.rep, pure_generators(), cutoff=100, seed_name="rho3")
    path = tmp_path / "orbit.json"
    res.write(path)
    data = json.loads(path.read_text())
    assert data["size"] == 4 and data["status"] == "closed"
    assert sorted(data["elements"]) == data["elements"]
    # deterministic: a second write is byte-identical
    path2 = tmp_path / "orbit2.json"
    orbit(fam.rep, pure_generators(), cutoff=100, seed_name="rho3").write(path2)
    assert path.read_text() == path2.read_text()


def test_trace_tuples_from_different_contexts_differ():
    # the same coefficients over (s, t) are a different point
    t = trace_coordinates(builtin_family("rho1").rep)
    renamed = TraceTuple([LaurentPoly(VarContext(["s", "t"]), p.terms)
                          for p in t.values])
    assert renamed.key() == t.key() and renamed != t and t != renamed
    # an equal context built anew still gives equal values with equal hashes
    rebuilt = TraceTuple([LaurentPoly(VarContext(["u", "v"]), p.terms)
                          for p in t.values])
    assert rebuilt == t and hash(rebuilt) == hash(t)


def test_parse_substitution():
    sigma = parse_substitution("u=-s,v=s", CTX_UV, CTX_S)
    assert sigma["u"] == -s and sigma["v"] == s
    with pytest.raises(ValueError):
        parse_substitution("u=s+1", CTX_UV, CTX_S)
    with pytest.raises(ValueError):
        parse_substitution("w=s", CTX_UV, CTX_S)
    with pytest.raises(ValueError, match="'u'"):
        parse_substitution("u=-s,u=s,v=s", CTX_UV, CTX_S)
    # v is neither mapped nor a variable of the target
    with pytest.raises(ValueError, match="'v'"):
        parse_substitution("u=-s", CTX_UV, CTX_S)


def _orbit_digest(res) -> str:
    text = json.dumps(res.to_json(), indent=1, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


GOLDEN_DIGESTS = json.loads(
    (Path(__file__).parent / "golden" / "orbit_digests.json").read_text())


def test_extended_orbit_json_matches_golden_digests():
    """The orbit JSON of rho1..rho4 and of rho1 at u=3/2, v=-7 stays
    byte-identical: the digests were recorded before the kernels changed."""
    point = {"u": Fraction(3, 2), "v": Fraction(-7)}
    rho1 = builtin_family("rho1").rep
    seeds = {name: builtin_family(name).rep
             for name in ("rho1", "rho2", "rho3", "rho4")}
    seeds["rho1 at u=3/2,v=-7"] = RepTuple(
        *(Mat2(*(e.substitute(point) for e in m.entries())) for m in rho1.mats))
    got = {key: _orbit_digest(extended_orbit(rep, seed_name=key.split()[0]))
           for key, rep in seeds.items()}
    assert got == {key: GOLDEN_DIGESTS[key] for key in got}


def test_pure_and_cutoff_orbit_json_matches_golden_digests():
    """Pure orbits of rho1..rho4 and the identity, and the partial extended
    orbit of rho1 cut off at 7 elements, stay byte-identical too."""
    got = {f"pure {name}": _orbit_digest(orbit(builtin_family(name).rep,
                                               pure_generators(), seed_name=name))
           for name in ("rho1", "rho2", "rho3", "rho4", "identity")}
    cut = extended_orbit(builtin_family("rho1").rep, cutoff=7, seed_name="rho1")
    assert cut.status == "cutoff" and len(cut) == 7
    got["rho1 cutoff=7"] = _orbit_digest(cut)
    assert got == {key: GOLDEN_DIGESTS[key] for key in got}
    # the two golden tests together cover every recorded digest
    assert len(GOLDEN_DIGESTS) == len(got) + 5


SPHERICAL = [BraidWord([i]) for i in (1, 2, 3, 4)]
LETTERS = (1, -1, 2, -2, 3, -3, 4, -4)
COORDINATE_VARIABLES = {CTX_TRACE.var(n): k for k, n in enumerate(TRACE_NAMES)}


def _oracle_traces(mats):
    """Trace coordinates of the first four matrices of a ``braid_act`` image,
    which has checked the determinant of each matrix it built; ``RepTuple``
    checks those of the four again."""
    return trace_coordinates(RepTuple(*mats[:4]))


def _assert_same_coordinates(got, want, label):
    wrong = [k for k in range(15) if got.values[k] != want.values[k]]
    assert wrong == [], (label, wrong)


def _intern(table, traces):
    return tuple(map(table.intern, traces.values))


def _decode(table, ids):
    return TraceTuple([table.values[i] for i in ids])


def _oracle_moves(words, table, mats_of):
    """The runtime moves of ``words`` on id tuples of ``table``, each checked
    against ``braid_act``: ``mats_of`` holds matrices for every id tuple
    reached, the matrices move through ``braid_act``, and every image is
    checked against the traces of its matrices."""
    acting = [w for g in words for w in (g, g.inverse())]
    moves = []
    for w, (name, move) in zip(acting, _trace_moves(words, table)):
        def checked(ids, w=w, name=name, move=move):
            mats = braid_act(w, mats_of[ids])
            got = move(ids)
            _assert_same_coordinates(_decode(table, got), _oracle_traces(mats), name)
            mats_of.setdefault(got, mats)
            return got
        moves.append((name, checked))
    return moves


def _assert_orbit_matches_oracle(rho, words, cutoff, run):
    """Close the orbit through the oracle moves; its elements, edges and
    status must be those of the runtime orbit ``run``."""
    table = ValueTable()
    start = _intern(table, trace_coordinates(rho))
    mats_of = {start: rho.five() if words is SPHERICAL else rho.mats}
    moves = _oracle_moves(words, table, mats_of)
    elements, successors, status = closure(start, moves, cutoff)
    want = OrbitResult("seed", elements, table.values, successors,
                       [name for name, _ in moves], status, [g.name for g in words], cutoff)
    assert run.to_json() == want.to_json()


def _assert_orbits_match_oracle(rho, spherical_cutoff=10000):
    _assert_orbit_matches_oracle(rho, SPHERICAL, spherical_cutoff,
                                 extended_orbit(rho, spherical_cutoff))
    _assert_orbit_matches_oracle(rho, pure_generators(), 1000,
                                 orbit(rho, pure_generators(), 1000))


def _random_monomial(rng, ctx):
    return ctx.monomial(rng.choice((1, -1, 2, -2)), {n: rng.randint(-1, 1) for n in ctx.names})


def _random_rational(rng, ctx):
    return ctx.const(Fraction(rng.choice((1, -1)) * rng.randint(1, 9), rng.randint(1, 9)))


def _random_unimodular(rng, ctx, entry=_random_monomial):
    """``[[1, a], [0, 1]] [[1, 0], [b, 1]]`` for random nonzero entries a and
    b, signed monomials by default: unimodular by construction."""
    a, b = entry(rng, ctx), entry(rng, ctx)
    one, zero = ctx.one(), ctx.zero()
    return Mat2(one, a, zero, one) * Mat2(one, zero, b, one)


@pytest.mark.parametrize("ctx,entry", [(CTX_UV, _random_monomial), (CTX_ROOT, _random_monomial),
                                       (CTX_UV, _random_rational)],
                         ids=["uv", "root", "rational"])
def test_letter_maps_match_matrix_oracle_on_random_tuples(ctx, entry):
    """Every letter map, coordinate for coordinate, against ``braid_act``
    and ``trace_coordinates`` on 200 seeded random unimodular tuples.  At
    rational entries every value is a constant, so each evaluation runs in
    integer arithmetic."""
    rng = random.Random(73)
    for _ in range(200):
        rho = RepTuple(*(_random_unimodular(rng, ctx, entry) for _ in range(4)))
        table = ValueTable()
        five, ids = rho.five(), _intern(table, trace_coordinates(rho))
        for x in LETTERS:
            image = braid_act(BraidWord([x]), five)
            _assert_same_coordinates(_decode(table, _letter_map(x).bind(table)(ids)),
                                     _oracle_traces(image), x)
        if entry is _random_rational:
            assert None not in table.rationals


@pytest.mark.parametrize("conjugated", [False, True], ids=["catalog", "conjugate"])
@pytest.mark.parametrize("name", ["rho1", "rho2", "rho3", "rho4"])
def test_carried_keys_match_recomputed_traces_on_orbits(name, conjugated):
    rho = builtin_family(name).rep
    if conjugated:
        rho = rho.conjugate_by(random_unipotent(random.Random(name), rho.ctx))
    _assert_orbits_match_oracle(rho)


def test_carried_keys_match_recomputed_traces_over_extension():
    fam = builtin_family("gamma3_finite")
    a, b = fam.assignment["a"], fam.assignment["b"]
    _assert_orbits_match_oracle(RepTuple(a, b, a * b, b * a * b), spherical_cutoff=30)


def test_carried_keys_match_recomputed_traces_on_random_walks():
    rng = random.Random(71)
    table = ValueTable()
    five_of, four_of = {}, {}
    spherical = _oracle_moves(SPHERICAL, table, five_of)
    pure = _oracle_moves(pure_generators(), table, four_of)
    for _ in range(50):
        rho = random_rep_tuple(rng)
        for seed, mats_of, moves in ((rho.five(), five_of, spherical),
                                     (rho.mats, four_of, pure)):
            ids = _intern(table, trace_coordinates(rho))
            mats_of.setdefault(ids, seed)
            for _ in range(4):
                ids = rng.choice([move(ids) for _, move in moves])


def _assert_expression_memo_exact(rho, words, cutoff):
    """Close the orbit of ``rho`` under ``words`` on a table of its own, then
    expand the quadratic of every key the table memoized,
    ``v3 v4 + v5 v6 - v1 v2 - v0`` with ``v = values[id]``, with plain ring
    arithmetic: each must equal the value its id names.  A key may be the
    role ids as read; its canonical form is then a key too, with the same
    id."""
    table = ValueTable()
    start = _intern(table, trace_coordinates(rho))
    closure(start, _trace_moves(words, table), cutoff)
    assert table.memo
    for key, i in table.memo.items():
        assert table.memo.get(_memo_key(*key)) == i, key
        v0, v1, v2, v3, v4, v5, v6 = (table.values[j] for j in key)
        assert table.values[i] == v3 * v4 + v5 * v6 - v1 * v2 - v0, key


@pytest.mark.parametrize("conjugated", [False, True], ids=["catalog", "conjugate"])
@pytest.mark.parametrize("name", ["rho1", "rho2", "rho3", "rho4"])
def test_expression_memo_matches_reevaluation_on_orbits(name, conjugated):
    rho = builtin_family(name).rep
    if conjugated:
        rho = rho.conjugate_by(random_unipotent(random.Random(name), rho.ctx))
    _assert_expression_memo_exact(rho, SPHERICAL, 10000)
    _assert_expression_memo_exact(rho, pure_generators(), 1000)


def test_expression_memo_matches_reevaluation_over_extension():
    fam = builtin_family("gamma3_finite")
    a, b = fam.assignment["a"], fam.assignment["b"]
    rho = RepTuple(a, b, a * b, b * a * b)
    assert rho.ctx is CTX_ROOT
    _assert_expression_memo_exact(rho, SPHERICAL, 30)
    _assert_expression_memo_exact(rho, pure_generators(), 1000)


def _random_value(rng, ctx):
    """A sum of up to three random monomials with fractional coefficients,
    zero included."""
    return sum((ctx.monomial(Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
                             {n: rng.randint(-2, 2) for n in ctx.names})
                for _ in range(rng.randint(0, 3))), ctx.zero())


def _quadratic_by_ring(v):
    return v[3] * v[4] + v[5] * v[6] - v[1] * v[2] - v[0]


@pytest.mark.parametrize("ctx", [CTX_UV, CTX_ROOT], ids=["uv", "root"])
def test_quadratic_matches_ring_arithmetic(ctx):
    """The one-accumulator quadratic equals ``v3 v4 + v5 v6 - v1 v2 - v0``
    in ring arithmetic, at values that include zero and values whose terms
    cancel, and a zero result is zero."""
    rng = random.Random(89)
    for k in range(150):
        v = [_random_value(rng, ctx) for _ in range(7)]
        if k >= 100:  # v5 v6 = -v3 v4, so that the positive products cancel
            v[5], v[6] = -v[3], v[4]
        assert _quadratic(v) == _quadratic_by_ring(v)
    one, z = ctx.one(), ctx.zero()
    w = _random_value(rng, ctx) + 1
    # zero factors
    assert _quadratic([z, z, one, one, z, z, w]).is_zero()
    # cancelling terms: w w - w^2, and w w + w w - (2w) w
    assert _quadratic([w * w, z, z, w, w, z, z]).is_zero()
    assert _quadratic([z, w + w, w, w, w, w, w]).is_zero()
    if ctx is CTX_ROOT:  # r*r + r + 1 cancels only once r^2 is reduced
        r = ctx.var("r")
        assert _quadratic([-one, z, z, r, r, r, one]).is_zero()


RATIONALS = [Fraction(n, d) for n in (0, 1, -1, 3, -4, 7, 12) for d in (1, 2, 6, 35, 36)]
"""Zero, signed integers, and fractions whose denominators share factors
(2, 6, 36) or none (35, 36)."""


def test_table_quadratic_matches_polynomial_quadratic(monkeypatch):
    """At seven rational constants, the table evaluates the quadratic in
    integer arithmetic, without ``_quadratic``, to the value, stored
    coefficient type and rational pair that ``_quadratic`` gives; a tuple
    with a role that is not a constant goes to ``_quadratic``."""
    quadratic, calls = traces._quadratic, []
    monkeypatch.setattr(traces, "_quadratic", lambda v: calls.append(v) or quadratic(v))
    rng = random.Random(103)
    draws = [[rng.choice(RATIONALS) for _ in range(7)] for _ in range(500)]
    draws += [[Fraction(0)] * 7, [Fraction(1, 2)] * 7, [Fraction(-4)] * 7]
    for cs in draws:
        table = ValueTable()
        key = tuple(table.intern(CTX_UV.const(c)) for c in cs)
        i = table.quadratic(key)
        got, want = table.values[i], quadratic([table.values[j] for j in key])
        assert got.key() == want.key(), cs
        assert [type(c) for c in got.terms.values()] == [type(c) for c in want.terms.values()]
        value = want.constant_value()
        assert table.rationals[i] == (value.numerator, value.denominator), cs
    assert calls == []
    table = ValueTable()
    values = [CTX_UV.const(c) for c in draws[0][:6]] + [u]
    key = tuple(map(table.intern, values))
    assert table.rationals[key[6]] is None
    assert table.values[table.quadratic(key)] == quadratic(values)
    assert len(calls) == 1


def _draw_point(rng):
    """u, v = +-p/q, +-p'/q' with p, q, p', q' distinct in 1, 2, 3, 5, 7."""
    p, q, p2, q2 = rng.sample((1, 2, 3, 5, 7), 4)
    return {"u": Fraction(rng.choice((1, -1)) * p, q),
            "v": Fraction(rng.choice((1, -1)) * p2, q2)}


@pytest.mark.parametrize("seed", [5, 6])
def test_orbits_at_a_point_are_the_symbolic_orbits_specialized(monkeypatch, seed):
    """At a rational point the extended orbit has exactly the elements of
    the symbolic extended orbit with the point substituted.  It is closed
    in integer arithmetic: ``_quadratic`` is never called, the table
    evaluates once per canonical memo key, and after the seed it interns
    only values it does not hold yet."""
    point = _draw_point(random.Random(seed))
    quadratic, evaluate, trace_moves = traces._quadratic, ValueTable.quadratic, \
        braids._trace_moves
    symbolic, calls, evaluations, tables, interns = {}, [], [], [], []
    intern = ValueTable.intern
    monkeypatch.setattr(ValueTable, "intern", lambda table, value: interns.append(
        (len(table.values), intern(table, value))) or interns[-1][1])
    for name in ("rho1", "rho2", "rho3", "rho4"):
        symbolic[name] = extended_orbit(builtin_family(name).rep)
    monkeypatch.setattr(traces, "_quadratic", lambda v: calls.append(v) or quadratic(v))
    monkeypatch.setattr(ValueTable, "quadratic",
                        lambda table, key: evaluations.append(key) or evaluate(table, key))
    monkeypatch.setattr(braids, "_trace_moves",
                        lambda words, table: tables.append(table) or trace_moves(words, table))
    for name, res in symbolic.items():
        rho = builtin_family(name).rep
        values = {n: point.get(n, point["u"]) for n in rho.ctx.names}
        at = RepTuple(*(Mat2(*(e.substitute(values) for e in m.entries())) for m in rho.mats))
        evaluations.clear()
        interns.clear()
        got = extended_orbit(at)
        assert got.status == "closed"
        assert got.element_set() == res.substituted_set(values), name
        assert None not in tables[-1].rationals
        assert len(interns) > 15 and all(new == i for new, i in interns[15:]), name
        assert len(evaluations) == _memo_sizes(tables.pop())[0] > 0
    assert calls == []


SYMMETRIES = [(0, *n, *a, *b) for n in ((1, 2), (2, 1))
              for p, q in (((3, 4), (5, 6)), ((5, 6), (3, 4)))
              for a in (p, p[::-1]) for b in (q, q[::-1])]
"""The sixteen role permutations that fix the quadratic: swap the factors of
each product, and the two positive products."""


def test_memo_key_is_canonical_under_the_sixteen_symmetries():
    """Role ids related by a symmetry of the quadratic have one memo key and
    one value; the key is itself one of them, so ids related by no symmetry
    have different keys."""
    assert len(set(SYMMETRIES)) == 16
    rng = random.Random(97)
    values = [_random_value(rng, CTX_UV) for _ in range(6)]
    for _ in range(200):
        ids = tuple(rng.randrange(6) for _ in range(7))
        images = {tuple(ids[j] for j in g) for g in SYMMETRIES}
        key = _memo_key(*ids)
        assert key in images
        assert {_memo_key(*x) for x in images} == {key}
        want = _quadratic_by_ring([values[j] for j in ids])
        assert all(_quadratic([values[j] for j in x]) == want for x in images)


def test_quadratic_is_the_sl2_trace_identity():
    """tr(A B A^-1 C) = tr A tr(ABC) + tr B tr C - tr(AB) tr(AC) - tr(BC),
    exactly, for generic unimodular A, B, C: ``[[a, b], [c, a^-1 (1 + b c)]]``
    over nine Laurent variables."""
    ctx = VarContext([f"{x}{i}" for i in (1, 2, 3) for x in "abc"])

    def generic(i):
        a, b, c = (ctx.var(f"{x}{i}") for x in "abc")
        return Mat2(a, b, c, ctx.monomial(1, {f"a{i}": -1}) * (1 + b * c))
    A, B, C = (generic(i) for i in (1, 2, 3))
    tr = Mat2.trace
    assert tr(A * B * A.inverse() * C) == (tr(A) * tr(A * B * C) + tr(B) * tr(C)
                                           - tr(A * B) * tr(A * C) - tr(B * C))


def test_trace_map_refuses_an_entry_of_another_shape():
    d1, d2, d3, d4 = (GroupWord.gen(f"d{i}") for i in (1, 2, 3, 4))
    with pytest.raises(ValueError, match=r"letter-map entry t1 = .* is not x3\*x4"):
        TraceMap([d1 * d1, d2, d3, d4])
    # t5 reads d1 d3 d1^-1 C, but tr(d3 C) = tr(d3 d2 d3 d4) is no coordinate
    with pytest.raises(ValueError, match=r"letter-map entry t5 = tr\(d1d3d1\^-1d2d3d4\) "
                                         r"is not x3\*x4"):
        TraceMap([d1 * d3 * d1.inverse(), d2, d3, d4])


LETTER_MAPS = json.loads((Path(__file__).parent / "golden" / "letter_maps.json").read_text())


@pytest.mark.parametrize("x", LETTERS)
def test_letter_map_matches_frozen_copy(x):
    """Each entry of the letter map equals a frozen copy of the maps as the
    trace-rewriting search first derived them: the polynomial's text, and
    for each changed entry the indices of its seven roles in role order.
    The roles are read through the map's own getters, applied to the
    indices 0..14, and the changed entries through its image getter."""
    m, want = _letter_map(x), LETTER_MAPS[str(x)]
    assert [serialize_poly(p) for p in m.polys] == want["polys"]
    image = m._image(range(15 + len(m._changed)))
    roles = {TRACE_NAMES[k]: list(m._changed[j - 15](range(15)))
             for k, j in enumerate(image) if j >= 15}
    assert roles == want["roles"]


def test_letter_maps_copy_what_a_move_permutes():
    polys = [_letter_map(x).polys for x in LETTERS]
    copies = [[COORDINATE_VARIABLES.get(p) for p in ps] for ps in polys]
    assert [c.count(None) for c in copies] == [3, 3, 3, 3, 3, 3, 4, 4]
    # sigma_1 swaps t1 and t2; sigma_1..sigma_3 keep t5 = tr(M1 M2 M3 M4)
    assert copies[0][:2] == [1, 0]
    assert all(c[4] == 4 for c in copies[:6])
    # each coordinate a move changes is a four-term polynomial of degree two
    for ps, c in zip(polys, copies):
        for p, k in zip(ps, c):
            assert k is not None or (len(p.terms) == 4
                                     and max(map(sum, p.terms)) == 2), p
    # the spherical sigma_4 sends tr(M2 M4) to t2 t5 - r124 r23 + t3 r14 - r134
    t2, t3, t5, r14, r23, r124, r134 = (CTX_TRACE.var(n) for n in
                                        ("t2", "t3", "t5", "r14", "r23", "r124", "r134"))
    assert polys[6][9] == t2 * t5 - r124 * r23 + t3 * r14 - r134
    # a pure generator fixes the local traces t1..t4: the letters permute
    # them, and the permutations compose to the identity
    for g in pure_generators():
        local = [0, 1, 2, 3]
        for x in g.letters:
            local = [local[k] for k in copies[LETTERS.index(x)][:4]]
        assert local == [0, 1, 2, 3], g.name


def test_orbits_build_no_matrix_after_the_seed(monkeypatch):
    """After the seed's trace coordinates, an orbit is closed on trace
    tuples alone: no matrix product, determinant or adjugate."""
    calls = {"__mul__": 0, "det": 0, "adjugate": 0}
    armed = []
    for attr in calls:
        def counted(*args, _f=getattr(Mat2, attr), _attr=attr):
            if armed:
                calls[_attr] += 1
            return _f(*args)
        monkeypatch.setattr(Mat2, attr, counted)
    seed_traces = braids.trace_coordinates

    def seed(rho):
        assert not armed, "the seed's traces are computed once"
        traces = seed_traces(rho)
        armed.append(rho)
        return traces
    monkeypatch.setattr(braids, "trace_coordinates", seed)
    rho = builtin_family("rho1").rep.conjugate_by(random_unipotent(random.Random(3), CTX_UV))
    res = extended_orbit(rho)
    assert len(res) == 240 and res.status == "closed" and armed == [rho]
    armed.clear()
    res = orbit(rho, pure_generators())
    assert len(res) == 4 and res.status == "closed" and armed == [rho]
    assert calls == {"__mul__": 0, "det": 0, "adjugate": 0}


def test_orbits_compute_one_edge_of_each_reverse_pair(monkeypatch):
    """A word and its inverse cancel on trace tuples, so the closure
    evaluates at most one move per pair of reverse edges and infers the
    other; far commutation fixes 839 of those 2,176 moves from edges
    already known, so 1,337 are evaluated."""
    calls = []
    trace_moves = braids._trace_moves

    def counted(words, table):
        return [(name, lambda ids, move=move: calls.append(name) or move(ids))
                for name, move in trace_moves(words, table)]
    monkeypatch.setattr(braids, "_trace_moves", counted)
    edges = 0
    for name in ("rho1", "rho2", "rho3", "rho4"):
        rho = builtin_family(name).rep
        for res in (extended_orbit(rho), orbit(rho, pure_generators())):
            assert res.status == "closed"
            edges += len(res.edges)
    assert (len(calls), edges) == (1337, 4352)


def _rational_point_rep(name):
    """The catalog tuple ``name`` with its parameters at u = 3/2, v = -7
    (and s = u): every coordinate is a rational constant."""
    rho = builtin_family(name).rep
    values = {n: {"v": Fraction(-7)}.get(n, Fraction(3, 2)) for n in rho.ctx.names}
    return RepTuple(*(Mat2(*(e.substitute(values) for e in m.entries())) for m in rho.mats))


@pytest.mark.parametrize("cutoff", [10000, 7, 100], ids=["closed", "cutoff", "cutoff100"])
@pytest.mark.parametrize("words", [SPHERICAL, pure_generators()], ids=["extended", "pure"])
@pytest.mark.parametrize("name", ["rho1", "rho2", "rho3", "rho4", "rho1_at_point"])
def test_closure_with_inverses_matches_closure_without(name, words, cutoff):
    """On the trace moves of a real orbit, the closure that infers reverse
    edges, and the one that also deduces far-commuting edges, give the
    elements, successor table and status of the one that computes every
    move.  Each runs on a table of its own, so elements are compared by
    their values."""
    rho = _rational_point_rep("rho1") if name == "rho1_at_point" else builtin_family(name).rep
    inverses = [m ^ 1 for m in range(2 * len(words))]
    got = []
    commuting = braids._commuting(tuple(w.letters for w in words))
    for extra in ((), (inverses,), (inverses, commuting)):
        table = ValueTable()
        start = _intern(table, trace_coordinates(rho))
        elements, successors, status = closure(start, _trace_moves(words, table), cutoff,
                                               *extra)
        got.append(([_decode(table, e) for e in elements], successors, status))
    assert got[0] == got[1] == got[2]
    size = EXTENDED_SIZES[name[:4]] if words is SPHERICAL else 4
    assert got[0][2] == ("closed" if size <= cutoff else "cutoff")


def test_commuting_moves_are_the_far_apart_words():
    """sigma_i and sigma_j commute for |i - j| >= 2: sigma_1 with sigma_3 and
    sigma_4, sigma_2 with sigma_4, each with its inverse too; of the pure
    generators only A12 and A34, whose letters 1 and 3 are two strands
    apart."""
    assert braids._commuting(((1,), (2,), (3,), (4,))) == (
        (4, 5, 6, 7), (4, 5, 6, 7), (6, 7), (6, 7), (0, 1), (0, 1), (0, 1, 2, 3), (0, 1, 2, 3))
    pure = braids._commuting(tuple(w.letters for w in pure_generators()))
    assert {(m // 2, n // 2) for m, ns in enumerate(pure) for n in ns} == {(0, 5), (5, 0)}


def test_orbit_memo_evaluates_each_entry_once_per_distinct_expression(monkeypatch):
    """An orbit evaluates a letter-map entry once per canonical tuple of the
    ids its roles read, whatever letter and coordinate it came from, and its
    memo holds one canonical key per evaluation, next to the role ids as
    read that found it; its elements share the few distinct values of its
    table."""
    calls, tables = [], []
    quadratic, trace_moves = traces._quadratic, braids._trace_moves
    monkeypatch.setattr(traces, "_quadratic", lambda v: calls.append(v) or quadratic(v))
    monkeypatch.setattr(braids, "_trace_moves",
                        lambda words, table: tables.append(table) or trace_moves(words, table))
    got = {}
    for name in ("rho1", "rho2", "rho3", "rho4"):
        rho = builtin_family(name).rep
        calls.clear()
        res = extended_orbit(rho)
        assert res.status == "closed"
        values = [v for e in res.elements for v in e.values]
        assert len({id(v) for v in values}) == len(set(values))
        got[name] = (len(calls), *_memo_sizes(tables.pop()), len(set(values)))
        calls.clear()
        res = orbit(rho, pure_generators())
        assert res.status == "closed"
        got[f"pure {name}"] = (len(calls), *_memo_sizes(tables.pop()))
    assert got == {"rho1": (48, 48, 227, 14), "rho2": (29, 29, 129, 9),
                   "rho3": (27, 27, 113, 8), "rho4": (13, 13, 48, 5),
                   "pure rho1": (37, 37, 67), "pure rho2": (27, 27, 60),
                   "pure rho3": (21, 21, 41), "pure rho4": (12, 12, 21)}


def _memo_sizes(table):
    """(canonical keys, all keys) of a table's memo."""
    return sum(_memo_key(*k) == k for k in table.memo), len(table.memo)


LETTER_NAMES = {x: f"s{abs(x)}" + ("^-1" if x < 0 else "") for x in LETTERS}
ACTION_RELATIONS = {
    **{f"s{i} s{i}^-1 = 1": ([i, -i], []) for i in (1, 2, 3, 4)},
    **{f"s{i} s{i + 1} s{i} = s{i + 1} s{i} s{i + 1}": ([i, i + 1, i], [i + 1, i, i + 1])
       for i in (1, 2, 3)},
    **{f"s{i} s{j} = s{j} s{i}": ([i, j], [j, i]) for i, j in ((1, 3), (1, 4), (2, 4))},
    "s1 s2 s3 s4 s4 s3 s2 s1 = 1": ([1, 2, 3, 4, 4, 3, 2, 1], []),
    "(s1 s2 s3 s4)^5 = 1": ([1, 2, 3, 4] * 5, []),
}
"""Each letter followed by its inverse, and the defining relations of the
mapping class group of the five-punctured sphere (Birman), as words in the
letters of :data:`LETTERS` that must act alike."""


def _action_verdicts(res) -> dict[str, bool]:
    """Whether each move read from ``res.edges`` permutes the orbit, and
    whether the permutations satisfy each of :data:`ACTION_RELATIONS`."""
    n = len(res)
    targets = {name: [[] for _ in range(n)] for name in LETTER_NAMES.values()}
    for a, name, b in res.edges:
        targets[name][a].append(b)
    perms = {name: [t[0] for t in out] for name, out in targets.items()
             if all(len(t) == 1 for t in out) and sorted(t[0] for t in out) == list(range(n))}
    verdicts = {f"{name} permutes": name in perms for name in targets}

    def act(word):
        image = list(range(n))
        for x in word:
            p = perms[LETTER_NAMES[x]]
            image = [p[i] for i in image]
        return image
    for relation, (lhs, rhs) in ACTION_RELATIONS.items():
        verdicts[relation] = (all(LETTER_NAMES[x] in perms for x in lhs + rhs)
                              and act(lhs) == act(rhs))
    return verdicts


def _orbit_computing_every_edge(rho, words):
    """The orbit of ``rho`` under ``words`` closed without ``inverses`` or
    ``commuting``: every edge is a computed move, none inferred from a
    relation that the edges are then checked against."""
    table = ValueTable()
    moves = _trace_moves(words, table)
    elements, successors, status = closure(_intern(table, trace_coordinates(rho)),
                                           moves, 10000)
    return OrbitResult("seed", elements, table.values, successors,
                       [name for name, _ in moves], status, [g.name for g in words], 10000)


@pytest.mark.parametrize("conjugated", [False, True], ids=["catalog", "conjugate"])
@pytest.mark.parametrize("name", ["rho1", "rho2", "rho3", "rho4"])
def test_extended_orbit_edges_define_a_braid_action(name, conjugated):
    """The moves of a closed extended orbit, read from its edges, are
    permutations that satisfy the relations of the spherical braid action.
    A memo keyed on the wrong inputs could still close, but not this.  The
    edges are all computed, so s1 s3 = s3 s1 is not checked against edges
    deduced from it; the orbit is the one ``extended_orbit`` gives."""
    rho = builtin_family(name).rep
    if conjugated:
        rho = rho.conjugate_by(random_unipotent(random.Random(name), rho.ctx))
    res = _orbit_computing_every_edge(rho, SPHERICAL)
    assert res.status == "closed"
    assert res.to_json() == extended_orbit(rho).to_json()
    verdicts = _action_verdicts(res)
    assert len(verdicts) == len(LETTER_NAMES) + len(ACTION_RELATIONS)
    assert [k for k, ok in verdicts.items() if not ok] == []


def test_braid_action_check_fails_on_redirected_edges():
    res = extended_orbit(builtin_family("rho4").rep)
    edges = list(res.edges)
    # one edge of sigma_1 redirected: sigma_1 stops being a permutation
    k = next(k for k, (a, g, b) in enumerate(edges) if g == "s1")
    a, g, b = edges[k]
    res.edges = edges[:k] + [(a, g, (b + 1) % len(res))] + edges[k + 1:]
    failed = [k for k, ok in _action_verdicts(res).items() if not ok]
    assert "s1 permutes" in failed and "s1 s1^-1 = 1" in failed
    # sigma_1 and its inverse conjugated by the swap of two elements that
    # sigma_1 moves: every move is still a permutation, with its inverse,
    # but a braid relation breaks
    a, b = next((a, b) for a, g, b in edges if g == "s1" and a != b)
    swap = {a: b, b: a}
    res.edges = [(swap.get(i, i), g, swap.get(j, j)) if g in ("s1", "s1^-1") else (i, g, j)
                 for i, g, j in edges]
    failed = [k for k, ok in _action_verdicts(res).items() if not ok]
    assert not any(k.endswith("permutes") or k.endswith("^-1 = 1") for k in failed)
    assert failed and set(failed) <= set(ACTION_RELATIONS)


def _assert_permutations_agree_with_edges(res):
    perms = res.permutations()
    assert list(perms) == [n for g in res.generators for n in (g, g + "^-1")]
    assert sorted((i, name, j) for name, images in perms.items()
                  for i, j in enumerate(images) if j is not None) == res.edges
    return perms


@pytest.mark.parametrize("name", ["rho1", "rho2", "rho3", "rho4"])
def test_orbit_permutations_of_closed_orbits(name):
    """On a closed orbit each move's list is a permutation of the elements,
    a move and its inverse are mutually inverse, and the lists hold the
    edges."""
    rho = builtin_family(name).rep
    for res in (extended_orbit(rho), orbit(rho, pure_generators())):
        assert res.status == "closed"
        n = len(res)
        perms = _assert_permutations_agree_with_edges(res)
        for g in res.generators:
            p, q = perms[g], perms[g + "^-1"]
            assert sorted(p) == sorted(q) == list(range(n))
            assert [q[p[i]] for i in range(n)] == [p[q[i]] for i in range(n)] == list(range(n))


@pytest.mark.parametrize("cutoff", [1, 7, 119])
def test_orbit_permutations_of_a_cutoff_orbit_are_not_completed(cutoff):
    """A cutoff orbit's lists hold exactly its edges and ``None`` where it
    has none."""
    res = extended_orbit(builtin_family("rho1").rep, cutoff=cutoff)
    assert res.status == "cutoff" and len(res) == cutoff
    perms = _assert_permutations_agree_with_edges(res)
    assert sum(j is None for images in perms.values() for j in images) \
        == 8 * cutoff - len(res.edges) > 0


def test_letter_maps_are_derived_on_first_use():
    """Importing the package loads no letter-map module and derives no letter
    map; the first orbit loads it and derives the maps it needs."""
    code = ("import sys, quintic_garnier as q; from quintic_garnier import braids\n"
            "print('quintic_garnier.traces' in sys.modules, "
            "braids._letter_map.cache_info().currsize)\n"
            "q.orbit(q.builtin_family('rho1').rep, q.pure_generators())\n"
            "print(braids._letter_map.cache_info().currsize, "
            "'quintic_garnier.traces' in sys.modules)\n")
    src = str(Path(braids.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src, PYTHONWARNINGS="error")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == ["False", "0", "6", "True"]
