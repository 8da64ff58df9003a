"""Braid action, pure generators, orbit enumeration and comparison."""

import hashlib
import json
import random
from fractions import Fraction
from operator import itemgetter
from pathlib import Path

import pytest

from quintic_garnier.braids import (BraidWord, _carried_moves, _copy_table,
                                    braid_act, center_check, extended_orbit,
                                    full_twist, orbit, orbit_compare,
                                    parse_substitution, pure_generators)
from quintic_garnier.families import CTX_S, CTX_UV, builtin_family
from quintic_garnier.reps import (RepTuple, TraceTuple, carry_traces,
                                  trace_coordinates)
from quintic_garnier.ring import LaurentPoly, VarContext
from quintic_garnier.sl2 import Mat2, closure
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


def _item(mats):
    """The closure item ``(mats, traces, products)`` an orbit starts from."""
    return (tuple(mats), *carry_traces(mats))


def _checked_images(item, moves):
    """Every move's image of ``item``, after checking that its carried trace
    tuple equals the one recomputed from its matrices, coordinate for
    coordinate; that each of its matrices has determinant one; and that
    each pair product it carries equals the product built afresh."""
    images = []
    for name, move in moves:
        mats, carried, products = image = move(item)
        assert isinstance(mats, tuple), name
        one = mats[0].ctx.one()
        assert [m.det() for m in mats] == [one] * len(mats), name
        fresh = trace_coordinates(RepTuple(*mats[:4]))
        wrong = [k for k in range(15) if carried.values[k] != fresh.values[k]]
        assert wrong == [], (name, wrong)
        for p, (i, j) in zip(products, ((0, 1), (2, 3))):
            assert p is None or p == mats[i] * mats[j], (name, i, j)
        images.append(image)
    return images


def _assert_orbit_carries_keys(seed, words, cutoff):
    """Close the orbit with every move applied through the check."""
    moves = _carried_moves(words)
    checked = [(name, lambda item, m=(name, move): _checked_images(item, [m])[0])
               for name, move in moves]
    closure(_item(seed), checked, itemgetter(1), cutoff)


@pytest.mark.parametrize("conjugated", [False, True], ids=["catalog", "conjugate"])
@pytest.mark.parametrize("name", ["rho1", "rho2", "rho3", "rho4"])
def test_carried_keys_match_recomputed_traces_on_orbits(name, conjugated):
    rho = builtin_family(name).rep
    if conjugated:
        rho = rho.conjugate_by(random_unipotent(random.Random(name), rho.ctx))
    _assert_orbit_carries_keys(rho.five(), SPHERICAL, 10000)
    _assert_orbit_carries_keys(rho.mats, pure_generators(), 1000)


def test_carried_keys_match_recomputed_traces_over_extension():
    fam = builtin_family("gamma3_finite")
    a, b = fam.assignment["a"], fam.assignment["b"]
    rho = RepTuple(a, b, a * b, b * a * b)
    _assert_orbit_carries_keys(rho.five(), SPHERICAL, 30)
    _assert_orbit_carries_keys(rho.mats, pure_generators(), 1000)


def test_carried_keys_match_recomputed_traces_on_random_walks():
    rng = random.Random(71)
    spherical, pure = _carried_moves(SPHERICAL), _carried_moves(pure_generators())
    for _ in range(50):
        rho = random_rep_tuple(rng)
        for seed, moves in ((rho.five(), spherical), (rho.mats, pure)):
            item = _item(seed)
            for _ in range(4):
                item = rng.choice(_checked_images(item, moves))


def test_copy_tables_of_elementary_moves():
    tables, kept = zip(*(_copy_table(w.letters, w.flavor)
                         for g in SPHERICAL for w in (g, g.inverse())))
    assert [t.count(None) for t in tables] == [3, 3, 3, 3, 3, 3, 4, 4]
    # sigma_1 swaps t1 and t2; sigma_1..sigma_3 keep t5 = tr(M1 M2 M3 M4)
    assert tables[0][:2] == (1, 0)
    assert all(t[4] == 4 for t in tables[:6])
    # sigma_1 and sigma_3 keep M1 M2 and M3 M4, sigma_2 neither, and the
    # spherical sigma_4 keeps M1 M2; each the same as its inverse
    assert kept == ((0, 1),) * 2 + ((None, None),) * 2 + ((0, 1),) * 2 + ((0, None),) * 2
    # a pure generator fixes the local traces t1..t4
    for g in pure_generators():
        assert _copy_table(g.letters, g.flavor)[0][:4] == (0, 1, 2, 3)


def test_extended_orbit_builds_only_what_is_new(monkeypatch):
    """Pinned counts over the extended orbit of catalog rho1: one determinant
    per letter (the matrix it creates) plus one for the seed's fifth matrix,
    and no pair product built again after a move that keeps it.  A change
    that brings back re-checks or rebuilt products fails here."""
    rep = builtin_family("rho1").rep
    calls = {"det": 0, "__mul__": 0}
    for attr in calls:
        def counted(*args, _f=getattr(Mat2, attr), _attr=attr):
            calls[_attr] += 1
            return _f(*args)
        monkeypatch.setattr(Mat2, attr, counted)
    res = extended_orbit(rep)
    assert len(res) == 240 and res.status == "closed"
    letters = 240 * len(SPHERICAL) * 2
    # two products per letter, three for the seed's fifth matrix, and the
    # pair products that the computed coordinates need and no move kept
    assert calls == {"det": letters + 1, "__mul__": 2 * letters + 3 + 1154}
