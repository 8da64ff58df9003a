"""Benchmark of the quintic_garnier package: three workloads, exact gates.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload orbits --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--trace 0`` measures the end-to-end metrics with tracing off for
``--seconds``.  ``--trace 1`` runs one untraced and two traced passes of the
same seed, whatever ``--seconds`` says, and reports the per-layer metrics,
the tracing overhead and the self-check that exact counts repeat.  Every
workload runs in fresh worker processes (see ``worker.py``); this process
only starts them and computes the metrics.

The workloads, metric names and units are those of ``BENCHMARK.json``.  Human-readable
lines come first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when every gate passed, 1 when one failed, and 2 when the benchmark could
not run (then no result is printed).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 12     # set-up-only processes before and again after measuring
BUDGET_S = 170      # one workload's run ends well inside three minutes
# spans the package must never enter on a workload (predicted zeros)
UNUSED = {
    "orbits": ("ring.exact_divide", "fractions.reduce", "fractions.derivative",
               "fractions.frac_eq", "fractions.eval_poly"),
    "connections": ("braids.braid_act",),
}
UNUSED["orbits_at"] = UNUSED["orbits"]


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources, a worker failed)."""


def fmt(value) -> str:
    return f"{value:>14d}" if isinstance(value, int) else f"{value:>14.6g}"


def p90(xs):
    return quantiles(xs, n=10)[-1] if len(xs) > 1 else xs[0]


class Runner:
    """Starts the worker processes of one workload's run, within its budget."""

    def __init__(self, seed: int):
        self.seed = seed
        self.deadline = time.monotonic() + BUDGET_S

    def worker(self, workload: str, mode: str, *extra: str, data: str = "") -> dict:
        """Run one worker with ``data`` on its standard input; its last line."""
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("time budget used up")
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
               "--seed", str(self.seed), "--mode", mode, *extra]
        try:
            done = subprocess.run(cmd, input=data, stdout=subprocess.PIPE, text=True,
                                  timeout=left, cwd=ROOT)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{workload} {mode} worker ran out of time")
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            raise BenchError(f"{workload} {mode} worker failed "
                             f"(exit {done.returncode})")
        return json.loads(lines[-1])

    def reference(self, workload: str) -> str:
        """The workload's gate data, computed outside the measured workers."""
        return json.dumps(self.worker(workload, "reference"))


def stamp(workload: str, seed: int, trace: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                  stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
            commit = done.stdout.strip() or None
        except OSError:  # no git on this machine
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "quintic_garnier").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"workload": workload, "seed": seed, "trace": trace,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "commit": commit, "source_sha256": digest.hexdigest()[:16]}


def measure(run: Runner, workload: str, seconds: float):
    """Untraced run: end-to-end metrics, raw-time details, gate tally."""
    def setups():
        return [run.worker(workload, "setup") for _ in range(SETUP_RUNS)]

    # set-ups on both sides of the measuring worker: the median spans both
    # machine states the run saw
    before = setups()
    res = run.worker(workload, "measure", "--seconds", str(seconds),
                     data=run.reference(workload))
    setup = before + [res] + setups()
    setup_s = [s["setup_s"] for s in setup]
    setup_nominal = [s["setup_nominal_s"] for s in setup]
    cases = res["cases"]  # [kind, case number, pass, seconds, items, ref units]

    def column(kinds, i):
        return [c[i] for c in cases if c[0] in kinds]

    # a case costs the median of its repeats; a pass, the sum of its cases
    costs: dict[int, list[float]] = {}
    items: dict[int, int] = {}
    pass_s: dict[int, float] = {}
    for _, case, p, dt, n, cost in cases:
        costs.setdefault(case, []).append(cost)
        items[case] = n
        pass_s[p] = pass_s.get(p, 0.0) + dt
    med = {case: median(v) for case, v in costs.items()}
    lists = res["layout"]  # every pass list ran at least once
    pass_ref = sum(med[c] for cs in lists for c in cs) / len(lists)
    work_items = sum(items[c] for cs in lists for c in cs)
    work_ref = sum(med[c] for cs in lists for c in cs if items[c])
    item_s = sum(c[3] for c in cases if c[4])
    main = res["main"]
    main_s, main_ref = column({main}, 3), column({main}, 5)
    metrics = {
        "setup_s": (median(setup_nominal),
                    f"median of {len(setup)} set-ups, at nominal machine speed"),
        "peak_rss_mb": (res["peak_rss_mb"], "measuring process"),
        "work_per_ref": (work_items / work_ref,
                         f"{work_items} {res['item_label']} in {work_ref:.0f} ref"),
        "pass_ref_p50": (pass_ref, f"{len(pass_s)} passes over {len(lists)} pass lists"),
    }
    details = {
        "failed_ratio": (len(res["failed"]) / res["attempted"],
                         f"{len(res['failed'])} of {res['attempted']} gates"),
        "setup_wall_s": (median(setup_s), f"median of {len(setup)} set-ups"),
        "ref_ms_p50": (median(res["ref_s"]) * 1e3,
                       f"reference kernel, n={len(res['ref_s'])}"),
        "pass_s_p50": (median(pass_s.values()), f"n={len(pass_s)}"),
        "main_ref_p50": (median(main_ref), f"{main}, n={len(main_ref)}"),
    }
    if workload == "connections":
        law = column({"law"}, 3)
        details.update({
            "verify_all_s_p50": (median(main_s), f"n={len(main_s)}"),
            "law_checks_per_s": (sum(column({"law"}, 4)) / item_s,
                                 f"{len(law)} cases in {item_s:.1f} s"),
            "law_check_ms_p50": (median(law) * 1e3, f"per case of 4 checks, n={len(law)}"),
            "law_check_ms_p90": (p90(law) * 1e3, f"per case of 4 checks, n={len(law)}"),
        })
    else:
        details.update({
            "orbit_elements_per_s": (sum(c[4] for c in cases) / item_s,
                                     f"{len(main_s)} passes in {item_s:.1f} s"),
            "rho1_extended_s_p50": (median(main_s), f"n={len(main_s)}"),
        })
    if workload == "orbits":
        compare = column({"compare:rho3", "compare:rho4"}, 3)
        details["compare_s_p50"] = (median(compare), f"n={len(compare)}")
    return metrics, details, res


def traced(run: Runner, workload: str):
    """Traced run: per-layer metrics, overhead, exact-count self-check."""
    data = run.reference(workload)
    base = run.worker(workload, "untraced", data=data)
    spans = HERE / "out" / f"{workload}.spans.gz"
    first = run.worker(workload, "trace", "--spans", str(spans), data=data)
    second = run.worker(workload, "trace", data=data)
    counts, times = first["counts"], first["times"]
    untraced_s = sum(c[3] for c in base["cases"])
    checks = [(f"repeat:{k}", v == second["counts"][k]) for k, v in counts.items()]
    checks += [(f"unused:{name}", counts[f"{name}.calls"] == 0)
               for name in UNUSED.get(workload, ())]
    metrics = {}
    for key, value in counts.items():
        metrics[key] = (value, "exact")
    for name, t in times.items():
        if name.startswith("cli.suite."):
            metrics[f"{name}.total_pct"] = (100 * t["total_s"] / first["pass_s"], "")
        else:
            metrics[f"{name}.self_pct"] = (100 * t["self_s"] / first["pass_s"], "")
    metrics["trace.pass_s"] = (first["pass_s"], f"untraced pass {untraced_s:.3f} s")
    metrics["trace.overhead_pct"] = (100 * (first["pass_s"] / untraced_s - 1), "")
    metrics["trace.spans"] = (first["spans"], f"written to {spans.relative_to(ROOT)}")
    details = {f"{name}.self_s": (t["self_s"], f"total {t['total_s']:.4f} s")
               for name, t in times.items() if t["total_s"]}
    failed = base["failed"] + first["failed"] + second["failed"]
    failed += [name for name, ok in checks if not ok]
    attempted = base["attempted"] + first["attempted"] + second["attempted"] + len(checks)
    return metrics, details, {**first, "failed": failed, "attempted": attempted}


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 manifest: dict) -> dict:
    run = Runner(seed)
    if trace:
        metrics, details, res = traced(run, workload)
        wanted = manifest["per_layer"]
    else:
        metrics, details, res = measure(run, workload, seconds)
        wanted = manifest["end_to_end"]
    info = stamp(workload, seed, trace)
    print("# " + " ".join(f"{k}={v}" for k, v in info.items()))
    print(f"# inputs: {json.dumps(res['inputs'], sort_keys=True)}")
    out = {}
    for spec in wanted:
        value, note = metrics[spec["name"]]
        out[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"{spec['name']:<42} {fmt(value)} {spec['unit']:<6} {note}")
    for name, (value, note) in details.items():
        print(f"  {name:<40} {fmt(value)}        {note}")
    for name in res["failed"]:
        print(f"FAILED {name}")
    return {"correct": not res["failed"], "attempted": res["attempted"],
            "failed": len(res["failed"]), "metrics": out}


def main(argv=None) -> int:
    try:
        with open(ROOT / "BENCHMARK.json") as fh:
            manifest = json.load(fh)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    names = [w["name"] for w in manifest["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=manifest["run_seconds"],
                    help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload != "all":
        names = [args.workload]
    try:
        if not (ROOT / "src" / "quintic_garnier" / "__init__.py").exists():
            raise BenchError("package sources src/quintic_garnier not found")
        results = {w: run_workload(w, args.seed, args.seconds, args.trace, manifest)
                   for w in names}
    except (BenchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        result = results[args.workload]
    else:
        result = {"correct": all(r["correct"] for r in results.values()),
                  "attempted": sum(r["attempted"] for r in results.values()),
                  "failed": sum(r["failed"] for r in results.values()),
                  "metrics": {f"{w}.{k}": v for w, r in results.items()
                              for k, v in r["metrics"].items()}}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
