"""Braid action, pure generators, orbit enumeration and comparison."""

import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from operator import itemgetter
from pathlib import Path

import pytest

from quintic_garnier import braids, ring
from quintic_garnier.braids import (BraidWord, OrbitResult, _letter_map,
                                    _trace_moves, braid_act, center_check,
                                    extended_orbit, full_twist, orbit,
                                    orbit_compare, parse_substitution,
                                    pure_generators)
from quintic_garnier.families import CTX_ROOT, CTX_S, CTX_UV, builtin_family
from quintic_garnier.reps import RepTuple, TraceTuple, trace_coordinates
from quintic_garnier.ring import LaurentPoly, VarContext
from quintic_garnier.sl2 import Mat2, closure
from quintic_garnier.traces import CTX_TRACE, TRACE_NAMES, _compile, _evaluate
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
            img = braid_act(BraidWord([i], "spherical5"), five)
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
        braid_act(BraidWord([1], "spherical5"), [two] + [ident] * 4)


def test_flavor_range_checks():
    with pytest.raises(IndexError):
        BraidWord([4], "b4")
    with pytest.raises(IndexError):
        BraidWord([5], "spherical5")
    with pytest.raises(IndexError):
        braid_act(BraidWord([1], "spherical5"), builtin_family("rho1").rep)


def test_orbit_rejects_a_spherical_word_at_entry(monkeypatch):
    moves = []
    monkeypatch.setattr(Mat2, "__mul__", lambda *args: moves.append(args))
    with pytest.raises(IndexError):
        orbit(builtin_family("rho1").rep, [BraidWord([1], "spherical5")])
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


SPHERICAL = [BraidWord([i], "spherical5") for i in (1, 2, 3, 4)]
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


def _oracle_moves(words):
    """The runtime moves of ``words`` on items ``(matrices, traces)``: the
    matrices move through ``braid_act`` and the traces through the letter
    maps, and every image is checked against the traces of its matrices."""
    acting = [w for g in words for w in (g, g.inverse())]
    moves = []
    for w, (name, move) in zip(acting, _trace_moves(words)):
        def checked(item, w=w, name=name, move=move):
            mats, traces = item
            mats = braid_act(w, mats)
            got = move(traces)
            _assert_same_coordinates(got, _oracle_traces(mats), name)
            return mats, got
        moves.append((name, checked))
    return moves


def _assert_orbit_matches_oracle(rho, words, cutoff, run):
    """Close the orbit through the oracle moves; its elements, edges and
    status must be those of the runtime orbit ``run``."""
    seed = rho.five() if words is SPHERICAL else rho.mats
    keys, _, edges, status = closure((seed, trace_coordinates(rho)),
                                     _oracle_moves(words), itemgetter(1), cutoff)
    want = OrbitResult("seed", keys, edges, status, [g.name for g in words], cutoff)
    assert run.to_json() == want.to_json()


def _assert_orbits_match_oracle(rho, spherical_cutoff=10000):
    _assert_orbit_matches_oracle(rho, SPHERICAL, spherical_cutoff,
                                 extended_orbit(rho, spherical_cutoff))
    _assert_orbit_matches_oracle(rho, pure_generators(), 1000,
                                 orbit(rho, pure_generators(), 1000))


def _random_unimodular(rng, ctx):
    """``[[1, a], [0, 1]] [[1, 0], [b, 1]]`` for random signed monomials a
    and b: unimodular by construction, with entries of up to two terms."""
    a, b = (ctx.monomial(rng.choice((1, -1, 2, -2)),
                         {n: rng.randint(-1, 1) for n in ctx.names}) for _ in range(2))
    one, zero = ctx.one(), ctx.zero()
    return Mat2(one, a, zero, one) * Mat2(one, zero, b, one)


@pytest.mark.parametrize("ctx", [CTX_UV, CTX_ROOT], ids=["uv", "root"])
def test_letter_maps_match_matrix_oracle_on_random_tuples(ctx):
    """Every letter map, coordinate for coordinate, against ``braid_act``
    and ``trace_coordinates`` on 200 seeded random unimodular tuples."""
    rng = random.Random(73)
    for _ in range(200):
        rho = RepTuple(*(_random_unimodular(rng, ctx) for _ in range(4)))
        five, traces = rho.five(), trace_coordinates(rho)
        for x in LETTERS:
            image = braid_act(BraidWord([x], "spherical5"), five)
            _assert_same_coordinates(_letter_map(x)(traces), _oracle_traces(image), x)


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
    spherical, pure = _oracle_moves(SPHERICAL), _oracle_moves(pure_generators())
    for _ in range(50):
        rho = random_rep_tuple(rng)
        for seed, moves in ((rho.five(), spherical), (rho.mats, pure)):
            item = (seed, trace_coordinates(rho))
            for _ in range(4):
                item = rng.choice([move(item) for _, move in moves])


@pytest.mark.parametrize("ctx", [CTX_UV, CTX_ROOT], ids=["uv", "root"])
def test_compiled_terms_match_evaluate(ctx):
    """Compiled terms evaluate as :func:`ring.evaluate` does, for polynomials
    with constant terms, powers up to three and fractional coefficients, at
    values that include zero and values whose terms cancel."""
    rng = random.Random(89)
    xyz = VarContext(["x", "y", "z"])

    def value():
        return sum((ctx.monomial(Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
                                 {n: rng.randint(-2, 2) for n in ctx.names})
                    for _ in range(rng.randint(0, 3))), ctx.zero())

    def lift(c):
        return c if isinstance(c, LaurentPoly) else ctx.const(c)
    for k in range(150):
        p = LaurentPoly(xyz, {tuple(rng.randint(0, 3) for _ in range(3)):
                              Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                              for _ in range(rng.randint(0, 4))})
        values = [value() for _ in range(3)]
        if k >= 100:  # z = -x, so that terms cancel
            values[2] = -values[0]
        entry = _compile(p)
        got = values[entry] if isinstance(entry, int) else _evaluate(entry, values)
        assert got == ring.evaluate(p, dict(zip(xyz.names, values)), ctx, lift)
    # a zero result is a zero factor a term met, not a new value, also when
    # the other terms cancel
    x, y, z = (xyz.var(n) for n in xyz.names)
    one, z1, z2 = ctx.one(), ctx.zero(), ctx.zero()
    assert _evaluate(_compile(x * y - z), [z1, one, z1]) is z1
    assert _evaluate(_compile(x * y - z), [z1, one, z2]) in (z1, z2)
    w = value() + 1
    assert _evaluate(_compile(x - y + z * x), [w, w, z2]) is z2
    assert _evaluate(_compile(x * y - z), [w, w, w * w]).is_zero()
    if ctx is CTX_ROOT:  # r*r + r + 1 cancels only once r^2 is reduced
        r = ctx.var("r")
        assert _evaluate(_compile(x * y + x + z + 1), [r, r, z2]) is z2


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
    evaluates one move per pair of reverse edges and infers the other."""
    calls = []
    trace_moves = braids._trace_moves

    def counted(words):
        return [(name, lambda traces, move=move: calls.append(name) or move(traces))
                for name, move in trace_moves(words)]
    monkeypatch.setattr(braids, "_trace_moves", counted)
    edges = 0
    for name in ("rho1", "rho2", "rho3", "rho4"):
        rho = builtin_family(name).rep
        for res in (extended_orbit(rho), orbit(rho, pure_generators())):
            assert res.status == "closed"
            edges += len(res.edges)
    assert (len(calls), edges) == (2176, 4352)


def test_letter_maps_are_derived_on_first_use():
    """Importing the package loads no trace reduction and derives no letter
    map; the first orbit derives the maps it needs."""
    code = ("import sys, quintic_garnier as q; from quintic_garnier import braids\n"
            "print('quintic_garnier.traces' in sys.modules, "
            "braids._letter_map.cache_info().currsize)\n"
            "q.orbit(q.builtin_family('rho1').rep, q.pure_generators())\n"
            "from quintic_garnier import traces\n"
            "print(braids._letter_map.cache_info().currsize, len(traces._TRACES) > 0)\n")
    src = str(Path(braids.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == ["False", "0", "6", "True"]
