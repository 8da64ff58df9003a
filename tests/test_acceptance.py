"""Acceptance criteria, one test per criterion, each printing a verdict line.

Every expected value here is either frozen from an independent computation
(the orbit listings, residue tables) or checked against the transcribed
reference formulas; known transcription defects are asserted to be detected
and classified, never silently absorbed.
"""

import random
import time
from fractions import Fraction

from quintic_garnier import connections, garnier
from quintic_garnier.braids import (BraidWord, braid_act, center_check,
                                    extended_orbit, orbit, pure_generators)
from quintic_garnier.connections import (
    QUINTIC2_DIVISORS, build_omega0, build_omega1, build_riccati1, case1_connection,
    diagonal_cover_connection, flat_case1_connection, flat_representative,
    is_flat, map_cover, map_cover_bar, map_cover_homogeneous,
    map_elementary, map_elementary_homogeneous, map_involution,
    pullback_riccati, residue, riccati_of_connection)
from quintic_garnier.families import CTX_S, CTX_UV, builtin_family
from quintic_garnier.forms import (RationalMap, ScalarOneForm, ScalarTwoForm,
                                   divisor_pullback)
from quintic_garnier.fractions import DenomBasis, FactoredFraction, frac_eq, serialize_frac
from quintic_garnier.reps import trace_coordinates, verify_product_identity
from quintic_garnier.ring import LaurentPoly, VarContext
from quintic_garnier.sl2 import projective_closure, verify_relations
from listings import EXTENDED_SIZES, LISTINGS, random_rep_tuple

VERDICTS = []


def record(criterion: str, passed: bool, detail: str = ""):
    line = f"acceptance {criterion}: {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    VERDICTS.append(line)
    print(line)
    assert passed, line


def test_criterion_01_pure_orbits():
    started = time.monotonic()
    all_ok = True
    for name in ("rho1", "rho2", "rho3", "rho4"):
        fam = builtin_family(name)
        res = orbit(fam.rep, pure_generators(), cutoff=100, seed_name=name)
        all_ok &= res.status == "closed" and len(res) == 4
        all_ok &= res.element_set() == set(LISTINGS[name]())
    elapsed = time.monotonic() - started
    record("1 pure orbits", all_ok and elapsed < 10.0,
           f"4 x 4 elements, exact listings, {elapsed:.2f}s")


def test_criterion_02_extended_orbits():
    started = time.monotonic()
    all_ok = True
    sizes = {}
    for name in ("rho1", "rho2", "rho3", "rho4"):
        fam = builtin_family(name)
        res = extended_orbit(fam.rep, cutoff=10000, seed_name=name)
        sizes[name] = len(res)
        all_ok &= res.status == "closed" and len(res) == EXTENDED_SIZES[name]
    elapsed = time.monotonic() - started
    record("2 extended orbits", all_ok and elapsed < 120.0,
           f"sizes {sizes}, {elapsed:.2f}s")


def _t_pattern(rep):
    """Zero set and equality partition of the first four local traces."""
    t = trace_coordinates(rep).values[:4]
    zeros = frozenset(i for i, v in enumerate(t) if v.is_zero())
    classes = []
    for i, v in enumerate(t):
        if v.is_zero():
            continue
        for cl in classes:
            if t[cl[0]] == v:
                cl.append(i)
                break
        else:
            classes.append([i])
    return zeros, frozenset(frozenset(c) for c in classes)


def test_criterion_03_identifications_and_disjointness():
    s = CTX_S.var("s")
    ext2 = extended_orbit(builtin_family("rho2").rep, seed_name="rho2")
    m3 = trace_coordinates(builtin_family("rho3").rep) in \
        ext2.substituted_set({"u": -s, "v": s}, CTX_S)
    m4 = trace_coordinates(builtin_family("rho4").rep) in \
        ext2.substituted_set({"u": s, "v": s}, CTX_S)
    patterns = [_t_pattern(builtin_family(n).rep)
                for n in ("rho1", "rho2", "rho3", "rho4")]
    distinct = len(set(patterns)) == 4
    # pure braids fix each local trace, so distinct patterns give
    # family-level disjointness; check the same-context pairs verbatim too
    o1 = orbit(builtin_family("rho1").rep, pure_generators(), 100)
    o2 = orbit(builtin_family("rho2").rep, pure_generators(), 100)
    verbatim = not (o1.element_set() & o2.element_set())
    record("3 orbit identifications", m3 and m4 and distinct and verbatim,
           "memberships after u->-s,v->s and u,v->s; patterns distinct")


def test_criterion_04_action_well_formedness():
    rng = random.Random(71)
    w121, w212 = BraidWord([1, 2, 1]), BraidWord([2, 1, 2])
    w232, w323 = BraidWord([2, 3, 2]), BraidWord([3, 2, 3])
    w13, w31 = BraidWord([1, 3]), BraidWord([3, 1])
    relations_ok = True
    center_ok = True
    for _ in range(100):
        rho = random_rep_tuple(rng)
        relations_ok &= braid_act(w121, rho) == braid_act(w212, rho)
        relations_ok &= braid_act(w232, rho) == braid_act(w323, rho)
        relations_ok &= braid_act(w13, rho) == braid_act(w31, rho)
        center_ok &= center_check(rho)
    pure_ok = all(g.permutation(4) == (0, 1, 2, 3) for g in pure_generators())
    gens = pure_generators()
    fam = builtin_family("rho2")
    a = orbit(fam.rep, gens, 100).element_set()
    b = orbit(fam.rep, list(reversed(gens)), 100).element_set()
    order_ok = a == b
    record("4 action well-formedness",
           relations_ok and center_ok and pure_ok and order_ok,
           "braid relations, center, purity, generator-order independence")


def test_criterion_05_relation_suites():
    fams_ok = True
    for name in ("plane_case1", "plane_case2", "plane_case3",
                 "b3_nonrigid", "b4_family", "gamma3_finite",
                 "gamma3p_fam1", "gamma3p_fam2"):
        fam = builtin_family(name)
        fams_ok &= verify_relations(fam.presentation, fam.assignment).projective_pass
    rows_ok = all(verify_product_identity(builtin_family(n).five)["sl2"]
                  for n in ("line_case1", "line_case2", "line_case3b"))
    row3a = builtin_family("line_case3a")
    defect_detected = not verify_product_identity(row3a.five)["sl2"]
    corrected_ok = verify_product_identity(row3a.corrected_five)["sl2"]
    g3 = builtin_family("gamma3_finite")
    closure = projective_closure([g3.assignment["a"], g3.assignment["b"]], 100)
    closure_ok = closure.status == "finite" and closure.order == 12
    record("5 relation suites",
           fams_ok and rows_ok and defect_detected and corrected_ok and closure_ok,
           "all families pass; row 3a defect surfaced with correction; "
           "closure order 12")


def test_criterion_06_flatness():
    rep, report = flat_representative()
    quintic_ok = rep.is_trace_free() and is_flat(rep)
    case1_derived_ok = is_flat(flat_case1_connection())
    # the transcribed variants carry known defects: reports must be nonempty
    nonempty = (not report["variants"]["quintic2_matrix"]["matches"]
                and not report["variants"]["quintic2_scaled"]["matches"])
    case1_defect_detected = not is_flat(case1_connection())
    record("6 flatness", quintic_ok and case1_derived_ok and nonempty
           and case1_defect_detected,
           "derived representatives flat; transcription defects surfaced "
           "as warnings (see ledger)")


def test_criterion_07_pullback_chain():
    w0, w1 = build_omega0(), build_omega1()
    chain1 = map_elementary().pull_one_form(w1) == w0
    r1 = build_riccati1()
    chain2 = pullback_riccati(r1, map_involution()) == r1
    rep, _ = flat_representative()
    chain3 = pullback_riccati(riccati_of_connection(rep), map_cover_bar()) == r1
    ctxXY, ctxUV = connections.CTX_XY, connections.CTX_UV
    x, y = ctxXY.var("x"), ctxXY.var("y")
    u, v = ctxUV.var("u"), ctxUV.var("v")
    cov, elem = map_cover(), map_elementary()
    ids = [
        divisor_pullback(x ** 2 - y, cov, {"u-v": u - v, "u+v": u + v})[1]
        == {"u-v": 1, "u+v": 1},
        divisor_pullback(y - 1, cov, {"v-1": v - 1, "v+1": v + 1})[1]
        == {"v-1": 1, "v+1": 1},
        divisor_pullback(y, cov, {"v": v})[1] == {"v": 2},
        divisor_pullback(u - v, elem, {"u-1": u - 1, "v": v})[1]
        == {"u-1": 1, "v": 1},
        divisor_pullback(u + v, elem, {"u+1": u + 1, "v": v})[1]
        == {"u+1": 1, "v": 1},
    ]
    covh = map_cover_homogeneous()
    u1, v1 = covh.src.ctx.var("u1"), covh.src.ctx.var("v1")
    ids.append(divisor_pullback(covh.dst.ctx.var("Z"), covh,
                                {"u1": u1, "v1": v1})[1] == {"u1": 1, "v1": 2})
    record("7 pullback chain", chain1 and chain2 and chain3 and all(ids),
           "elementary/involution/cover identities and divisor factorizations")


def test_criterion_08_residues():
    rep, _ = flat_representative()
    expected = {"y": "1/4", "y-1": "1/2*lam1^1", "conic": "1/2*lam0^1",
                "infinity": "1/4"}
    all_ok = True
    for name, chart in QUINTIC2_DIVISORS.items():
        rd = residue(rep, chart)
        got = (sorted(serialize_frac(e) for e in rd.eigenvalues)
               if rd.eigenvalues else None)
        all_ok &= rd.consistent and got == sorted(
            [expected[name], "-" + expected[name]])
    record("8 residues", all_ok,
           "eigenvalues +-1/4, +-lam1/2, +-lam0/2, +-1/4 with dx/dy agreement")


def test_criterion_09_restriction_and_garnier():
    alphas = garnier.alphas_report()
    a_ok = alphas["alpha1"]["matches"] and alphas["alpha0"]["matches"]
    # the quoted alpha2 differs by exactly 2*a*lam0*y; the derived linear
    # coefficient is confirmed by the quoted S_q below
    a2_classified = (not alphas["alpha2"]["matches"]
                     and alphas["alpha2"]["delta_vs_reference"]
                     == "-2*y^1*a^1*lam0^1")
    h = garnier.h21_extract()
    h_ok = (h.numerator.max_exponent("y") == 2
            and h.residue_at_infinity_vanishes and h.assembly_verified)
    _, report = garnier.garnier_parametrization()
    sq_ok = report["S_q"]["matches_45"]
    pq_classified = (not report["P_q"]["matches_45"]
                     and report["P_q"]["matches_45_repaired"])
    # the two quoted pole formulas disagree; exactly one matches the
    # derived factorization
    t_ok = (report["t1"]["matches_44"] and not report["t1"]["matches_45"]
            and report["t2"]["matches_44"] and not report["t2"]["matches_45"])
    record("9 restriction and garnier data",
           a_ok and a2_classified and h_ok and sq_ok and pq_classified and t_ok,
           "alpha1/alpha0 exact; alpha2 and P_q defects classified; "
           "S_q exact; pole variant mismatch surfaced")


def test_criterion_10_algebra_kernel_properties():
    rng = random.Random(73)
    UV = VarContext(["u", "v"])
    S = VarContext(["s"])
    s = S.var("s")

    def rpoly(ctx, maxt=3):
        terms = {}
        for _ in range(rng.randint(0, maxt)):
            e = tuple(rng.randint(-2, 2) for _ in ctx.names)
            terms[e] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        return LaurentPoly(ctx, terms)

    ring_ok = True
    sigma = {"u": -(s ** 2), "v": s ** -1}
    for _ in range(1000):
        p, q, r = rpoly(UV), rpoly(UV), rpoly(UV)
        ring_ok &= (p + q) + r == p + (q + r)
        ring_ok &= (p * q) * r == p * (q * r)
        ring_ok &= p * (q + r) == p * q + p * r
        ring_ok &= p * q == q * p
        ring_ok &= (p * q).substitute(sigma, S) == \
            p.substitute(sigma, S) * q.substitute(sigma, S)
        ring_ok &= (p + q).substitute(sigma, S) == \
            p.substitute(sigma, S) + q.substitute(sigma, S)

    XY = VarContext(["x", "y"])
    x, y = XY.var("x"), XY.var("y")
    BXY = DenomBasis(XY, [y - 1, x ** 2 - y], names=["y-1", "conic"])
    UV2 = VarContext(["u", "v"])
    u2, v2 = UV2.var("u"), UV2.var("v")
    BUV2 = DenomBasis(UV2, [u2 - 1, u2 + 1, v2 - 1, v2 + 1, u2 - v2, u2 + v2],
                      names=["u-1", "u+1", "v-1", "v+1", "u-v", "u+v"])
    cov = RationalMap("cov", BUV2, BXY, ("u", "v"), ("x", "y"),
                      {"x": BUV2.of(u2), "y": BUV2.of(v2 ** 2)})
    elem = RationalMap("elem", BUV2, BUV2, ("u", "v"), ("u", "v"),
                       {"u": BUV2.of(u2 * v2), "v": BUV2.of(v2)})
    comp = cov.compose(elem)

    def rfrac():
        return FactoredFraction(BXY, rpoly(XY, 2),
                                (rng.randint(0, 1), rng.randint(0, 1)))

    forms_ok = True
    for _ in range(1000):
        f = rfrac()
        w = ScalarOneForm.d_of(f, ("x", "y"))
        forms_ok &= w.d().is_zero()
        g = rfrac()
        omega = ScalarOneForm(BXY, ("x", "y"), rfrac(), rfrac())
        lhs = (omega * g).d()
        rhs = ScalarOneForm.d_of(g, ("x", "y")).wedge(omega) + \
            ScalarTwoForm(BXY, ("x", "y"), g * omega.d().coeff)
        forms_ok &= lhs == rhs

    pull_ok = True
    for _ in range(1000):
        omega = ScalarOneForm(BXY, ("x", "y"), rfrac(), rfrac())
        pulled = cov.pull_one_form(omega)
        pull_ok &= elem.pull_one_form(pulled) == comp.pull_one_form(omega)
        pull_ok &= cov.pull_two_form(omega.d()) == pulled.d()
    record("10 algebra kernel properties", ring_ok and forms_ok and pull_ok,
           "1000 randomized cases per law, exact")


def test_zz_acceptance_summary():
    import sys
    # bypass capture so the verdict block shows in any pytest run
    out = getattr(sys, "__stdout__", sys.stdout)
    print(file=out)
    for line in VERDICTS:
        print(line, file=out)
    assert len(VERDICTS) == 10
