"""Command-line front end: orbit computation, comparison, verification suites.

Reports are JSON documents with a stable schema::

    {"command": ..., "inputs": ..., "results": ..., "checks": [
        {"name": ..., "status": "pass" | "fail" | "warning", "details": ...}]}

A quoted formula passes when it matches the derived value; when only its
stated correction does, it is a ``warning`` that records the known defect and
does not fail the run; otherwise it fails (:func:`quoted`).
Exit codes: 0 success, 1 check failure, 2 cutoff reached, 3 usage or parse
error.

The connection stack (``fractions``, ``forms``, ``connections``,
``garnier``) is imported inside the verification suites that read it, so
``orbit`` and ``compare`` never load it.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from . import families
from .braids import (extended_orbit, orbit, orbit_compare, parse_substitution,
                     pure_generators)
from .reps import RepTuple, TraceTuple, verify_product_identity
from .ring import VarContext, check_exponent, parse_poly, split_assignments
from .sl2 import Mat2, projective_closure, verify_relations

EXIT_OK, EXIT_FAIL, EXIT_CUTOFF, EXIT_USAGE = 0, 1, 2, 3

EXPECTED_PURE = {"rho1": 4, "rho2": 4, "rho3": 4, "rho4": 4, "identity": 1}
EXPECTED_EXTENDED = {"rho1": 240, "rho2": 120, "rho3": 120, "rho4": 40,
                     "identity": 1}


class Check:
    def __init__(self, name: str, status: str, details=""):
        self.name = name
        self.status = status
        self.details = details

    def as_dict(self):
        return {"name": self.name, "status": self.status,
                "details": self.details}


def ok(name, passed, details=""):
    return Check(name, "pass" if passed else "fail", details)


def warn(name, details=""):
    return Check(name, "warning", details)


def quoted(name, matches, corrected, known, beyond=""):
    """The verdict on a quoted formula: pass when it ``matches`` the derived
    value, a warning with the ``known`` defect when only its stated
    correction holds, and a fail with ``beyond`` when neither does."""
    if matches:
        return ok(name, True)
    return warn(name, known) if corrected else ok(name, False, beyond)


def emit(command: str, inputs: dict, results: dict, checks: list[Check],
         started: float, timing: bool) -> int:
    doc = {
        "command": command,
        "inputs": inputs,
        "results": results,
        "checks": [c.as_dict() for c in checks],
    }
    if timing:
        doc["timing"] = round(time.perf_counter() - started, 3)
    json.dump(doc, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    if any(c.status == "fail" for c in checks):
        return EXIT_FAIL
    return EXIT_OK


def _parse_at(text: str) -> dict[str, Fraction]:
    out = {}
    for piece, name, val in split_assignments(text, "--at ", "value"):
        check_exponent(val, f"--at value {piece!r}")
        try:
            out[name] = Fraction(val)
        except ZeroDivisionError:
            raise ValueError(f"--at value {piece!r} has a zero denominator") from None
        except ValueError:
            raise ValueError(f"--at value {piece!r} is not a rational") from None
    return out


def _specialize_rep(rep: RepTuple, values: dict[str, Fraction]) -> RepTuple:
    ctx = rep.ctx
    for name in values:
        if name not in ctx.index:
            raise ValueError(f"names {name!r}, which is not a variable "
                             f"of the tuple ({', '.join(ctx.names)})")
    return RepTuple(*(Mat2(*(e.substitute(values) for e in m.entries()))
                      for m in rep.mats))


def _load_rows(path: str, key: str) -> tuple[VarContext, list[list]]:
    """The context and the parsed polynomial rows of a JSON input file; an
    orbit file repeats few distinct strings, and each is parsed once."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object")
    for k in ("variables", key):
        if k not in data:
            raise ValueError(f"{path}: no {k!r} entry")
    names, rows = data["variables"], data[key]
    if not (isinstance(names, list) and all(isinstance(n, str) for n in names)):
        raise ValueError(f"{path}: 'variables' must be a list of names")
    if not (isinstance(rows, list) and all(
            isinstance(row, list) and all(isinstance(s, str) for s in row)
            for row in rows)):
        raise ValueError(f"{path}: {key!r} must be a list of rows of "
                         "polynomial strings")
    ctx = VarContext(names)
    texts = dict.fromkeys(s for row in rows for s in row)
    try:
        parsed = {s: parse_poly(ctx, s) for s in texts}
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return ctx, [[parsed[s] for s in row] for row in rows]


def _load_rep_file(path: str) -> RepTuple:
    _, rows = _load_rows(path, "matrices")
    mats = []
    for row in rows:
        if len(row) != 4:
            raise ValueError(f"{path}: each matrix is a row of four entries")
        mats.append(Mat2(*row))
    if len(mats) == 5:
        if not verify_product_identity(mats)["sl2"]:
            raise ValueError(f"{path}: the five matrices do not multiply to "
                             "the identity")
    elif len(mats) != 4:
        raise ValueError(f"{path}: need 4 matrices, or 5 whose product is the "
                         f"identity; got {len(mats)}")
    return RepTuple(*mats[:4])


def cmd_orbit(args) -> int:
    started = time.perf_counter()
    limit = {} if args.cutoff is None else {"cutoff": args.cutoff}
    point = ""  # names the point in an error raised once it is parsed
    try:
        if args.rep_file:
            rep = _load_rep_file(args.rep_file)
            name = args.family or "file"
        else:
            fam = families.builtin_family(args.family)
            if fam.rep is None:
                raise ValueError(f"family {args.family!r} is not a representation tuple")
            rep = fam.rep
            name = args.family
        if args.at:
            values = _parse_at(args.at)
            point = f"--at {args.at}: "
            rep = _specialize_rep(rep, values)
        if args.extended:
            res = extended_orbit(rep, seed_name=name, **limit)
            expected = EXPECTED_EXTENDED.get(name)
        else:
            res = orbit(rep, pure_generators(), seed_name=name, **limit)
            expected = EXPECTED_PURE.get(name)
    except (KeyError, ValueError, OSError) as exc:
        print(f"error: {point}{exc}", file=sys.stderr)
        return EXIT_USAGE
    checks = [ok("closed", res.status == "closed",
                 f"status={res.status}, size={len(res)}")]
    if expected is not None:
        note = " (specialized parameters may degenerate)" if args.at else ""
        checks.append(ok("expected_size", len(res) == expected,
                         f"size={len(res)}, expected={expected}{note}"))
    if args.out:
        try:
            res.write(args.out)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
    rc = emit("orbit", {"family": name, "mode": "extended" if args.extended
                        else "pure", "cutoff": res.cutoff, "at": args.at or None},
              {"size": len(res), "status": res.status}, checks, started,
              args.timing)
    if res.status == "cutoff":
        return EXIT_CUTOFF
    return rc


def _load_orbit_file(path: str) -> tuple[VarContext, list[TraceTuple]]:
    ctx, rows = _load_rows(path, "elements")
    try:
        return ctx, [TraceTuple(row) for row in rows]
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def cmd_compare(args) -> int:
    started = time.perf_counter()
    try:
        ctx_a, elems_a = _load_orbit_file(args.orbit_a)
        ctx_b, elems_b = _load_orbit_file(args.orbit_b)
        sigma = None
        if args.subst:
            try:
                sigma = parse_substitution(args.subst, ctx_a, ctx_b)
            except ValueError as exc:
                raise ValueError(f"--subst: {exc}") from None
        result = orbit_compare(elems_a, elems_b, sigma=sigma,
                               target=ctx_b if sigma else None)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    checks = [Check("relation", "pass", result["relation"])]
    return emit("compare", {"orbit_a": args.orbit_a, "orbit_b": args.orbit_b,
                            "subst": args.subst or None},
                result, checks, started, args.timing)


# ---------------------------------------------------------------------------
# verification suites

def suite_relations() -> list[Check]:
    checks = []
    for name in ["plane_case1", "plane_case2", "plane_case3",
                 "b3_nonrigid", "b4_family", "gamma3_finite",
                 "gamma3p_fam1", "gamma3p_fam2"]:
        fam = families.builtin_family(name)
        rep = verify_relations(fam.presentation, fam.assignment)
        checks.append(ok(f"relations:{name}", rep.projective_pass,
                         rep.as_dict()))
    for name in ["line_case1", "line_case2", "line_case3b"]:
        fam = families.builtin_family(name)
        checks.append(ok(f"product_identity:{name}",
                         verify_product_identity(fam.five)["sl2"]))
    fam = families.builtin_family("line_case3a")
    checks.append(quoted("product_identity:line_case3a",
                         verify_product_identity(fam.five)["sl2"],
                         verify_product_identity(fam.corrected_five)["sl2"],
                         "transcribed fifth matrix is the inverse of the "
                         "required one; corrected matrix passes"))
    g3 = families.builtin_family("gamma3_finite")
    res = projective_closure([g3.assignment["a"], g3.assignment["b"]],
                             cutoff=100)
    checks.append(ok("closure:gamma3_finite",
                     res.status == "finite" and res.order == 12,
                     f"status={res.status}, order={res.order}"))
    return checks


def suite_flatness() -> list[Check]:
    from . import connections

    checks = []
    checks.append(ok("closed:omega0",
                     connections.build_omega0().d().is_zero()))
    checks.append(ok("flat:cover_diagonal",
                     connections.is_flat(connections.diagonal_cover_connection())))
    rep, report = connections.flat_representative()
    checks.append(ok("trace_free:quintic2_flat", rep.is_trace_free()))
    checks.append(ok("flat:quintic2_flat", connections.is_flat(rep)))
    for variant in ("quintic2_matrix", "quintic2_scaled"):
        entries = report["variants"][variant]["entries"]
        bad = {k: v for k, v in entries.items() if not (v["dx"] and v["dy"])}
        checks.append(warn(f"discrepancy:{variant}",
                           {"differs_from_derived": bad}))
    checks.append(warn("discrepancy:riccati_plane",
                       {k: v for k, v in report["riccati_plane"].items()
                        if k != "matches"}))
    derived_flat = connections.is_flat(connections.flat_case1_connection())
    checks.append(ok("flat:case1_flat", derived_flat))
    checks.append(quoted("flat:case1",
                         connections.is_flat(connections.case1_connection()),
                         derived_flat,
                         "transcribed display is not flat (multi-site "
                         "transcription defect); the derived representative "
                         "case1_flat is flat and carries the same polar "
                         "locus and local exponents"))
    return checks


def suite_residues() -> list[Check]:
    from . import connections
    from .fractions import serialize_frac

    checks = []
    rep = connections.flat_quintic2_connection()
    tables = [
        ("quintic2", rep, connections.QUINTIC2_DIVISORS,
         {"y": "1/4", "y-1": "1/2*lam1^1", "conic": "1/2*lam0^1",
          "infinity": "1/4"}),
        ("case1_flat", connections.flat_case1_connection(),
         connections.CASE1_DIVISORS,
         {"x": "1/2*lam0^1", "y": "1/2*lam1^1", "tangent-conic": "1/4"}),
    ]
    for label, conn, charts, expected in tables:
        for name, want in expected.items():
            rd = connections.residue(conn, charts[name])
            got = (sorted(serialize_frac(e) for e in rd.eigenvalues)
                   if rd.eigenvalues else None)
            checks.append(ok(f"residue:{label}:{name}",
                             rd.consistent and got == sorted([want, "-" + want]),
                             rd.as_dict()))
    return checks


def suite_pullbacks() -> list[Check]:
    from . import connections
    from .forms import divisor_pullback
    from .fractions import FactoredFraction

    checks = []
    cov, elem = connections.map_cover(), connections.map_elementary()
    w0, w1 = connections.build_omega0(), connections.build_omega1()
    checks.append(ok("pullback:elementary:omega1",
                     elem.pull_one_form(w1) == w0))
    r1 = connections.build_riccati1()
    checks.append(ok("involution:riccati1",
                     connections.pullback_riccati(
                         r1, connections.map_involution()) == r1))
    rep = connections.flat_quintic2_connection()
    ric = connections.riccati_of_connection(rep)
    checks.append(ok("pullback:cover_bar:riccati",
                     connections.pullback_riccati(
                         ric, connections.map_cover_bar()) == r1))
    ctxXY, ctxUV = connections.CTX_XY, connections.CTX_UV
    x, y = ctxXY.var("x"), ctxXY.var("y")
    u, v = ctxUV.var("u"), ctxUV.var("v")
    cases = [
        ("cover:conic", x ** 2 - y, cov, {"u-v": u - v, "u+v": u + v},
         {"u-v": 1, "u+v": 1}),
        ("cover:y-1", y - 1, cov, {"v-1": v - 1, "v+1": v + 1},
         {"v-1": 1, "v+1": 1}),
        ("cover:y", y, cov, {"v": v}, {"v": 2}),
        ("elementary:u-v", u - v, elem, {"u-1": u - 1, "v": v},
         {"u-1": 1, "v": 1}),
        ("elementary:u+v", u + v, elem, {"u+1": u + 1, "v": v},
         {"u+1": 1, "v": 1}),
    ]
    for name, f, phi, declared, want in cases:
        unit, got = divisor_pullback(phi.pull(f), declared)
        checks.append(ok(f"divisor:{name}", got == want,
                         {"factors": got, "unit": str(unit)}))
    u1, v1 = connections.CTX_UVH.var("u1"), connections.CTX_UVH.var("v1")
    Z = connections.CTX_XYH.var("Z")
    unit, got = divisor_pullback(connections.cover_homogeneous().poly(Z),
                                 {"u1": u1, "v1": v1})
    checks.append(ok("divisor:cover:infinity", got == {"u1": 1, "v1": 2},
                     {"factors": got}))
    unit, got = divisor_pullback(connections.elementary_homogeneous().poly(u1),
                                 {"u1": u1, "v1": v1})
    checks.append(ok("divisor:elementary:infinity",
                     got == {"u1": 1, "v1": 1}, {"factors": got}))
    # symmetric-square cover of the conic-with-tangents quintic
    scov = connections.map_symmetric_cover()
    p, q = connections.CTX_PQ.var("p"), connections.CTX_PQ.var("q")
    unit, got = divisor_pullback(scov.pull(connections.B_CASE1.factors[0]),
                                 {"p-q": p - q})
    checks.append(ok("divisor:sym-cover:conic", got == {"p-q": 2},
                     {"factors": got}))
    eta = connections.build_case1_cover_form()
    cf = connections.flat_case1_connection()
    half_over = FactoredFraction(connections.B_PQ,
                                 connections.CTX_PQ.const(Fraction(1, 2))) \
        * connections.B_PQ.over(connections.CTX_PQ.one(), p - q)
    checks.append(ok("pullback:sym-cover:lower-left",
                     scov.pull_one_form(cf.omega[1][0]) == eta * half_over))
    return checks


def suite_restriction() -> list[Check]:
    from . import connections, garnier
    from .fractions import Substitution

    checks = []
    quintic = connections.flat_quintic2_connection()
    line = garnier.restrict_to_line(quintic, "ab")
    rep = garnier.alphas_report(line)
    checks.append(ok("alpha1", rep["alpha1"]["matches"]))
    checks.append(ok("alpha0", rep["alpha0"]["matches"]))
    a2 = rep["alpha2"]
    found = {"difference_vs_reference": a2["delta_vs_reference"],
             "derived": a2["derived"]}
    checks.append(quoted("alpha2", a2["matches"], a2["matches_repaired"], dict(
        found, note="reference linear coefficient is (a-b)lam0; the derived "
                    "value -(a+b)lam0 is confirmed by the reference S_q"), found))
    at_zero = Substitution(line.basis.ctx, {"lam0": 0, "lam1": 0}, line.basis)
    checks.append(ok("diagonal_at_zero_parameters", all(
        at_zero.fraction(p).is_zero() for p in (line.P2, line.P0))))
    h = garnier.h21_extract(garnier.restrict_to_line(quintic, "ac"))
    checks.append(ok("h21_numerator_quadratic",
                     h.numerator.max_exponent("y") == 2))
    checks.append(ok("residue_at_infinity_lower_left",
                     h.residue_at_infinity_vanishes))
    checks.append(ok("h21_assembly", h.assembly_verified))
    return checks


def suite_garnier() -> list[Check]:
    from . import connections, garnier

    checks = []
    data, report = garnier.garnier_parametrization(garnier.restrict_to_line(
        connections.flat_quintic2_connection(), "ac"))
    checks.append(Check("garnier_fields", "pass", {
        "t1": report["t1"]["derived"], "t2": report["t2"]["derived"],
        "Sq": report["S_q"]["derived"], "Pq": report["P_q"]["derived"],
        "Sp": report["S_p"]["transcribed"],
        "gamma": report["gamma"]["transcribed"],
        "agreement": {k: v for k, v in report.items()
                      if k in ("t1", "t2", "S_q", "P_q")},
    }))
    checks.append(ok("poles_factor_denominator",
                     garnier.poles_factor_denominator()))
    t_ok = report["t1"]["matches_44"] and report["t2"]["matches_44"]
    checks.append(ok("t_poles_derived", t_ok, {
        "t1": report["t1"]["derived"], "t2": report["t2"]["derived"]}))
    if not report["t1"]["matches_45"]:
        checks.append(warn("t_poles_variant_mismatch",
                           "second quoted variant lacks the a^-2 factor; "
                           "matches only when a^2 = 1"))
    checks.append(ok("S_q", report["S_q"]["matches_45"],
                     report["S_q"]["derived"]))
    P_q = report["P_q"]
    checks.append(quoted("P_q", P_q["matches_45"], P_q["matches_45_repaired"],
                         {"derived": P_q["derived"],
                          "note": "quoted numerator omits the lam1 factor on "
                                  "(1-c^2); the repaired formula matches"},
                         {"derived": P_q["derived"],
                          "note": "derived value disagrees beyond the known repair"}))
    checks.append(ok("separant_nonzero", report["separant_nonzero"]))
    parity = garnier.parity_invariance(data)
    checks.append(ok("parity_invariance", all(parity.values()), parity))
    return checks


SUITES = {
    "relations": suite_relations,
    "flatness": suite_flatness,
    "residues": suite_residues,
    "pullbacks": suite_pullbacks,
    "restriction": suite_restriction,
    "garnier": suite_garnier,
}


def cmd_verify(args) -> int:
    started = time.perf_counter()
    names = list(SUITES) if args.suite == "all" else [args.suite]
    checks: list[Check] = []
    for name in names:
        checks.extend(SUITES[name]())
    summary = {
        "pass": sum(1 for c in checks if c.status == "pass"),
        "fail": sum(1 for c in checks if c.status == "fail"),
        "warning": sum(1 for c in checks if c.status == "warning"),
    }
    return emit("verify", {"suite": args.suite}, summary, checks, started,
                args.timing)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quintic-garnier",
        description="exact orbit computations and connection verification")
    sub = parser.add_subparsers(dest="command", required=True)

    p_orbit = sub.add_parser("orbit", help="compute a mapping-class orbit")
    p_orbit.add_argument("family", nargs="?", default=None,
                         help="catalog family name (rho1..rho4, identity)")
    action = p_orbit.add_mutually_exclusive_group()
    action.add_argument("--pure", action="store_true",
                        help="pure six-generator action (default)")
    action.add_argument("--extended", action="store_true",
                        help="five-strand extended action")
    p_orbit.add_argument("--cutoff", type=int, default=None)
    p_orbit.add_argument("--out", default=None, help="write the orbit JSON here")
    p_orbit.add_argument("--at", default=None,
                         help="rational parameter values, e.g. u=3/2,v=-7")
    p_orbit.add_argument("--rep-file", default=None,
                         help="JSON file with a user-supplied tuple")
    p_orbit.add_argument("--timing", action="store_true")
    p_orbit.set_defaults(func=cmd_orbit)

    p_cmp = sub.add_parser("compare", help="compare two orbit files")
    p_cmp.add_argument("orbit_a")
    p_cmp.add_argument("orbit_b")
    p_cmp.add_argument("--subst", default=None,
                       help="signed-monomial substitution, e.g. u=-s,v=s")
    p_cmp.add_argument("--timing", action="store_true")
    p_cmp.set_defaults(func=cmd_compare)

    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.add_argument("suite",
                       choices=sorted(SUITES) + ["all"])
    p_ver.add_argument("--timing", action="store_true")
    p_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    if args.command == "orbit" and not args.family and not args.rep_file:
        print("error: need a family name or --rep-file", file=sys.stderr)
        return EXIT_USAGE
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
