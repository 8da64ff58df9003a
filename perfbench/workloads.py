"""Seeded inputs, benchmark cases and correctness gates of each workload.

:func:`build` is the set-up a benchmark run times: it imports nothing by
itself (the caller imports this module inside the timed region), builds the
catalog objects and generates every input from the seed.  The package only
ever sees those generated inputs.  ``Plan.reference`` computes the gate
data that costs real work (the symbolic orbits behind ``orbits_at``) as
JSON, in a process of its own, so that it counts neither in the timed
passes nor in the measuring process's peak memory; ``Plan.prepare`` turns
that JSON, and the cheap frozen references, into what the gates compare
against.  Neither is timed.

Pass ``k`` runs the case list ``Plan.passes[k % len(Plan.passes)]``.  The
orbit workloads repeat one list; ``connections`` cycles through ten lists
that share the ``verify all`` case and differ in their law cases, so that a
run averages over a thousand seeded law cases.  Each case runs one call
into the package, and its check compares the output with a reference that
the timed code did not produce: the orbit sizes and identifications stated
by the paper, the frozen listings of ``tests/listings.py``, the frozen
``verify all`` verdicts in ``expected_verify.json``, and exact evaluation
of trace polynomials at a rational point done here, not by the package.
"""

from __future__ import annotations

import importlib.util
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

from quintic_garnier import braids, cli, families, ring
from quintic_garnier.forms import RationalMap, ScalarOneForm, ScalarTwoForm
from quintic_garnier.fractions import DenomBasis, FactoredFraction
from quintic_garnier.reps import RepTuple, TraceTuple
from quintic_garnier.ring import LaurentPoly, VarContext, serialize_poly
from quintic_garnier.sl2 import Mat2

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("orbits", "orbits_at", "connections")
FAMILIES = ("rho1", "rho2", "rho3", "rho4")
EXTENDED_SIZES = {"rho1": 240, "rho2": 120, "rho3": 120, "rho4": 40}
PURE_SIZE = 4
# u=-s,v=s sends rho2 onto rho3, u=s,v=s onto rho4
IDENTIFICATIONS = (("rho3", "u=-s,v=s"), ("rho4", "u=s,v=s"))
POINT_PARTS = (1, 2, 3, 5, 7)  # u, v = +-p/q with p, q, p', q' distinct
LAW_CASES = 100    # per pass
LAW_PASSES = 10    # distinct passes before the law cases repeat


@dataclass
class Case:
    """One timed call; ``run`` gets the outputs of earlier cases of the pass."""

    kind: str
    run: Callable[[dict], object]
    check: Callable[[object, dict], list[tuple[str, bool]]]
    # work units an output stands for: orbit elements, law checks
    items: Callable[[object], int] = lambda out: 0


@dataclass
class Plan:
    workload: str
    seed: int
    passes: list[list[Case]]
    main: str        # kind of the headline case
    item_label: str  # what Case.items counts
    inputs: dict     # description of the generated inputs
    reference: Callable[[], dict] = lambda: {}
    prepare: Callable[[dict], dict] = lambda data: {}
    refs: dict = field(default_factory=dict)


def build(workload: str, seed: int) -> Plan:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    return {"orbits": _orbits, "orbits_at": _orbits_at,
            "connections": _connections}[workload](seed)


# -- orbits ---------------------------------------------------------------

def _listings():
    """``tests/listings.py``: frozen pure-orbit listings (the reference)."""
    spec = importlib.util.spec_from_file_location("listings", ROOT / "tests" / "listings.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return {f: set(mod.LISTINGS[f]()) for f in FAMILIES}


def _conjugator(rng: random.Random, ctx: VarContext) -> tuple[Mat2, str]:
    """Elementary unimodular matrix with a seeded unit-monomial entry.

    The entry is ``+-u^a v^b`` (``+-s^a``) with exponents in -2..2, not all
    zero.  Coefficients other than +-1 would make a seed's cost depend on
    how its coefficients grow, which the benchmark's spread cannot afford.
    """
    powers = {}
    while not any(powers.values()):
        powers = {n: rng.randint(-2, 2) for n in ctx.names}
    m = ctx.monomial(rng.choice((1, -1)), powers)
    one, zero = ctx.one(), ctx.zero()
    if rng.random() < 0.5:
        return Mat2(one, m, zero, one), f"[[1, {serialize_poly(m)}], [0, 1]]"
    return Mat2(one, zero, m, one), f"[[1, 0], [{serialize_poly(m)}, 1]]"


def _orbit_checks(res, size: int) -> list[tuple[str, bool]]:
    return [("closed", res.status == "closed"), ("size", len(res) == size)]


def _compare_roundtrip(a, b, subst: str):
    """The ``compare`` command on orbit files, as an in-memory JSON round trip.

    ``parse_poly`` is called through its module so that a traced run sees it.
    """
    loaded = []
    for res in (a, b):
        doc = json.loads(json.dumps(res.to_json()))
        ctx = VarContext(doc["variables"])
        loaded.append((ctx, [TraceTuple([ring.parse_poly(ctx, s) for s in row])
                             for row in doc["elements"]]))
    (ctx_a, elems_a), (ctx_b, elems_b) = loaded
    sigma = braids.parse_substitution(subst, ctx_a, ctx_b)
    return braids.orbit_compare(elems_a, elems_b, sigma=sigma, target=ctx_b), elems_a


def _orbits(seed: int) -> Plan:
    rng = random.Random(seed)
    gens = braids.pure_generators()
    catalog = {f: families.builtin_family(f).rep for f in FAMILIES}
    conjugates, described = {}, {}
    for f in FAMILIES:
        g, described[f] = _conjugator(rng, catalog[f].ctx)
        conjugates[f] = catalog[f].conjugate_by(g)
    cases: list[Case] = []
    plan = Plan("orbits", seed, [cases], "extended:rho1", "orbit elements",
                {"conjugators": described})

    def extended_check(res, prev, f, tag):
        checks = _orbit_checks(res, EXTENDED_SIZES[f])
        if tag:
            catalog_set = prev[f"extended:{f}"].element_set()
            checks.append(("catalog_traces", res.element_set() == catalog_set))
        return checks

    def pure_check(res, prev, f):
        return _orbit_checks(res, PURE_SIZE) + [
            ("listing", res.element_set() == plan.refs["listings"][f])]

    def compare_check(out, prev):
        result, parsed = out
        return [("roundtrip", parsed == prev["extended:rho2"].elements),
                ("contains", result["relation"] == "a_contains_b"
                 and result["common"] == PURE_SIZE and result["size_b"] == PURE_SIZE)]

    for tag, reps in (("", catalog), (":conjugate", conjugates)):
        for f in FAMILIES:
            cases.append(Case(
                f"extended:{f}{tag}",
                lambda prev, r=reps[f], f=f: braids.extended_orbit(r, seed_name=f),
                lambda res, prev, f=f, tag=tag: extended_check(res, prev, f, tag),
                len))
        for f in FAMILIES:
            cases.append(Case(
                f"pure:{f}{tag}",
                lambda prev, r=reps[f], f=f: braids.orbit(r, gens, seed_name=f),
                lambda res, prev, f=f: pure_check(res, prev, f),
                len))
    for target, subst in IDENTIFICATIONS:
        cases.append(Case(
            f"compare:{target}",
            lambda prev, t=target, s=subst: _compare_roundtrip(
                prev["extended:rho2"], prev[f"pure:{t}"], s),
            compare_check))
    plan.prepare = lambda data: {"listings": _listings()}
    return plan


# -- orbits_at ------------------------------------------------------------

def _draw_point(rng: random.Random) -> dict[str, Fraction]:
    """u, v = +-p/q, +-p'/q' with p, q, p', q' distinct in POINT_PARTS.

    The two values have disjoint prime supports, so neither is 0 or +-1 and
    no monomial relation u^a v^b = +-1 holds between them.
    """
    p, q, p2, q2 = rng.sample(POINT_PARTS, 4)
    return {"u": Fraction(rng.choice((1, -1)) * p, q),
            "v": Fraction(rng.choice((1, -1)) * p2, q2)}


def evaluate(p: LaurentPoly, values: dict[str, Fraction]) -> Fraction:
    """Exact value of a Laurent polynomial at a rational point."""
    total = Fraction(0)
    for exps, coeff in p.terms.items():
        term = Fraction(coeff)
        for name, e in zip(p.ctx.names, exps):
            term *= values[name] ** e
        total += term
    return total


def at_point(rep: RepTuple, values: dict[str, Fraction]) -> RepTuple:
    ctx = rep.ctx
    return RepTuple(*(Mat2(*(ctx.const(evaluate(e, values)) for e in m.entries()))
                      for m in rep.mats))


def _family_values(rep: RepTuple, point: dict[str, Fraction]) -> dict[str, Fraction]:
    """rho1/rho2 take (u, v); the one-parameter rho3/rho4 take s = u."""
    return {n: point.get(n, point["u"]) for n in rep.ctx.names}


def _orbits_at(seed: int) -> Plan:
    rng = random.Random(seed)
    point = _draw_point(rng)
    catalog = {f: families.builtin_family(f).rep for f in FAMILIES}
    values = {f: _family_values(catalog[f], point) for f in FAMILIES}
    special = {f: at_point(catalog[f], values[f]) for f in FAMILIES}
    cases: list[Case] = []
    plan = Plan("orbits_at", seed, [cases], "extended:rho1", "orbit elements",
                {"point": {k: str(v) for k, v in point.items()}})

    def check(res, prev, f):
        got = {tuple(c.constant_value() for c in e.values) for e in res.elements}
        return [("closed", res.status == "closed"),
                ("specialized_set", got == plan.refs["specialized"][f])]

    for f in FAMILIES:
        cases.append(Case(
            f"extended:{f}",
            lambda prev, r=special[f], f=f: braids.extended_orbit(r, seed_name=f),
            lambda res, prev, f=f: check(res, prev, f),
            len))

    def reference():
        """The symbolic orbits evaluated at the point, values as strings."""
        specialized = {}
        for f in FAMILIES:
            symbolic = braids.extended_orbit(catalog[f], seed_name=f)
            specialized[f] = sorted({tuple(str(evaluate(c, values[f])) for c in e.values)
                                     for e in symbolic.elements})
        return {"specialized": specialized}

    def prepare(data):
        specialized = {f: {tuple(map(Fraction, e)) for e in elems}
                       for f, elems in data["specialized"].items()}
        return {"specialized": specialized,
                "sizes": {f"orbit_size:{f}": len(s) for f, s in specialized.items()}}

    plan.reference, plan.prepare = reference, prepare
    return plan


# -- connections ----------------------------------------------------------

def _law_setting():
    """The two criterion-10 bases and the cover, elementary and composite maps."""
    xy = VarContext(["x", "y"])
    x, y = xy.var("x"), xy.var("y")
    bxy = DenomBasis(xy, [y - 1, x ** 2 - y], names=["y-1", "conic"])
    uv = VarContext(["u", "v"])
    u, v = uv.var("u"), uv.var("v")
    buv = DenomBasis(uv, [u - 1, u + 1, v - 1, v + 1, u - v, u + v],
                     names=["u-1", "u+1", "v-1", "v+1", "u-v", "u+v"])
    cover = RationalMap("cov", buv, bxy, ("u", "v"), ("x", "y"),
                        {"x": buv.of(u), "y": buv.of(v ** 2)})
    elementary = RationalMap("elem", buv, buv, ("u", "v"), ("u", "v"),
                             {"u": buv.of(u * v), "v": buv.of(v)})
    return bxy, cover, elementary, cover.compose(elementary)


def _random_fraction(rng: random.Random, basis: DenomBasis) -> FactoredFraction:
    terms = {}
    for _ in range(rng.randint(0, 2)):
        e = tuple(rng.randint(-2, 2) for _ in basis.ctx.names)
        terms[e] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return FactoredFraction(basis, LaurentPoly(basis.ctx, terms),
                            tuple(rng.randint(0, 1) for _ in basis.factors))


LAWS = ("d_squared", "leibniz", "pullback_functorial", "pullback_commutes_d")


def _law_case(setting, f, g, omega) -> tuple[bool, ...]:
    basis, cover, elementary, composite = setting
    base = ("x", "y")
    pulled = cover.pull_one_form(omega)
    return (
        ScalarOneForm.d_of(f, base).d().is_zero(),
        (omega * g).d() == ScalarOneForm.d_of(g, base).wedge(omega)
        + ScalarTwoForm(basis, base, g * omega.d().coeff),
        elementary.pull_one_form(pulled) == composite.pull_one_form(omega),
        cover.pull_two_form(omega.d()) == pulled.d(),
    )


def _connections(seed: int) -> Plan:
    rng = random.Random(seed)
    setting = _law_setting()
    basis = setting[0]
    plan = Plan("connections", seed, [], "verify_all", "law checks",
                {"law_cases_per_pass": LAW_CASES, "law_cases": LAW_CASES * LAW_PASSES})

    def verify_all(prev):
        return [(suite, c.name, c.status)
                for suite, run in cli.SUITES.items() for c in run()]

    def verify_check(rows, prev):
        statuses = [r[2] for r in rows]
        want = plan.refs["verify"]
        return [("verdicts", [list(r) for r in rows] == want["checks"]),
                ("summary", all(statuses.count(k) == n
                                for k, n in want["summary"].items()))]

    verify = Case("verify_all", verify_all, verify_check)
    for _ in range(LAW_PASSES):
        laws = []
        for _ in range(LAW_CASES):
            f, g, a, b = (_random_fraction(rng, basis) for _ in range(4))
            omega = ScalarOneForm(basis, ("x", "y"), a, b)
            laws.append(Case(
                "law",
                lambda prev, c=(f, g, omega): _law_case(setting, *c),
                lambda out, prev: list(zip(LAWS, out)),
                len))
        plan.passes.append([verify] + laws)

    def prepare(data):
        with open(HERE / "expected_verify.json") as fh:
            return {"verify": json.load(fh)}

    plan.prepare = prepare
    return plan
