"""One benchmark process: set up a workload, then time or trace its passes.

Run by ``run.py`` in a fresh interpreter, so that set-up time and peak
memory belong to one workload alone::

    python3 perfbench/worker.py --workload orbits --seed 1 --mode reference > ref.json
    python3 perfbench/worker.py --workload orbits --seed 1 --mode measure --seconds 25 < ref.json

Modes:

- ``setup``: only set up; report the set-up time.
- ``reference``: set up, then print the workload's gate data
  (``Plan.reference``) as JSON; no result line.
- ``measure``: run whole passes until ``--seconds`` have gone by and every
  pass list has run once; report every case time, the work done and the
  gate verdicts.
- ``untraced``: run pass 0 once, as ``measure`` reports it: the baseline of
  a traced run.
- ``trace``: run exactly one pass with every layer wrapped by the tracer;
  report calls and self time per span, and write the spans to ``--spans``.

The last three read the output of ``reference`` from standard input.

The result is one JSON object on the last line of standard output.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from tracer import Tracer, span_names  # noqa: E402  (stdlib only)

REF_EVERY_S = 0.25  # case time between two runs of the reference kernel
REF_AROUND_SETUP = 3  # reference runs of each kind just before and just after set-up
# stdlib modules that are pure Python and already imported here, so that
# running fresh copies of them imports nothing new
IMPORT_REFERENCE = ("argparse", "json.decoder", "json.encoder", "fractions",
                    "statistics", "platform")
# reference times of a nominal machine: set-up seconds are scaled to them
NOMINAL_KERNEL_S = 0.020
NOMINAL_IMPORT_S = 0.005


def reference_kernel() -> int:
    """Fixed pure-Python work that never touches the package.

    Sparse products of dict polynomials with Fraction coefficients: the same
    kind of interpreter work the package does, so its time follows the
    machine's current speed.  14-27 ms on a 2-vCPU Xeon VM with Python 3.11.
    """
    a = {(i, j): Fraction(i + 1, j + 2) for i in range(6) for j in range(6)}
    out: dict = {}
    for _ in range(3):
        for ea, ca in a.items():
            for eb, cb in a.items():
                e = (ea[0] + eb[0], ea[1] + eb[1])
                out[e] = out.get(e, 0) + ca * cb
    return len(out)


class Gates:
    """Tally of correctness checks; names of the failed ones are kept."""

    def __init__(self):
        self.attempted = 0
        self.failed: list[str] = []

    def add(self, kind: str, results) -> None:
        for name, passed in results:
            self.attempted += 1
            if not passed:
                self.failed.append(f"{kind}:{name}")


def time_reference() -> float:
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start


def time_import_reference() -> float:
    """Time to load and run fresh copies of the ``IMPORT_REFERENCE`` modules.

    Reading cached bytecode and running module bodies is the work that
    importing the package does, and its speed moves differently from the
    speed of arithmetic when the machine's state changes.  4-6 ms on a
    2-vCPU Xeon VM with Python 3.11.
    """
    start = time.perf_counter()
    for name in IMPORT_REFERENCE:
        spec = importlib.util.find_spec(name)
        spec.loader.exec_module(importlib.util.module_from_spec(spec))
    return time.perf_counter() - start


def reference_pair() -> tuple[float, float]:
    return time_reference(), time_import_reference()


def timed(case, prev):
    start = time.perf_counter()
    out = case.run(prev)
    return out, time.perf_counter() - start


def run_pass(plan, k: int, gates: Gates, run_case=timed) -> list[tuple[str, float, int]]:
    """Run pass ``k`` once; return ``(kind, seconds, items)`` per case.

    Gates are checked after the pass, outside the timed calls.
    """
    prev, done = {}, []
    for case in plan.passes[k % len(plan.passes)]:
        out, dt = run_case(case, prev)
        prev[case.kind] = out
        done.append((case, out, dt))
    for case, out, _ in done:
        gates.add(case.kind, case.check(out, prev))
    return [(case.kind, dt, case.items(out)) for case, out, dt in done]


class Meter:
    """Times cases and runs the reference kernel between them.

    A case's cost in reference units is its time divided by the mean of the
    reference-kernel times measured just before and just after it.
    """

    def __init__(self):
        self.events: list[tuple[str, float]] = []  # ("ref" | "case", seconds)
        self.since_ref = 0.0
        self.reference()

    def reference(self) -> None:
        self.events.append(("ref", time_reference()))
        self.since_ref = 0.0

    def __call__(self, case, prev):
        out, dt = timed(case, prev)
        self.events.append(("case", dt))
        self.since_ref += dt
        if self.since_ref >= REF_EVERY_S:
            self.reference()
        return out, dt

    def refs(self) -> list[float]:
        return [s for what, s in self.events if what == "ref"]

    def costs(self) -> list[float]:
        """Reference-unit cost of every timed case, in order.

        Every case must be followed by a reference run.
        """
        costs, pending, before = [], [], 0.0
        for what, seconds in self.events:
            if what == "case":
                pending.append(seconds)
                continue
            unit = (before + seconds) / 2
            costs += [dt / unit for dt in pending]
            pending, before = [], seconds
        return costs


def measure(plan, seconds: float, min_passes: int) -> dict:
    """Whole passes until ``seconds`` have gone by and at least
    ``min_passes`` have run; one record per case.

    Cases are numbered in the order of ``plan.passes``; a case shared by
    several pass lists keeps one number.  ``layout`` gives each list's
    case numbers.
    """
    ids: dict[int, int] = {}
    layout = [[ids.setdefault(id(c), len(ids)) for c in cases] for cases in plan.passes]
    gates, meter, records = Gates(), Meter(), []
    deadline = time.perf_counter() + seconds
    npass = 0
    while npass < min_passes or time.perf_counter() < deadline:
        cases = plan.passes[npass % len(plan.passes)]
        ran = run_pass(plan, npass, gates, meter)
        records += [(kind, ids[id(c)], npass, dt, items)
                    for c, (kind, dt, items) in zip(cases, ran)]
        npass += 1
    meter.reference()
    rows = [[*rec, cost] for rec, cost in zip(records, meter.costs())]
    return {"cases": rows, "layout": layout, "ref_s": meter.refs(),
            "attempted": gates.attempted, "failed": gates.failed}


def trace(plan, spans_path) -> dict:
    import quintic_garnier

    tracer = Tracer()
    tracer.install(quintic_garnier)
    results = []

    def traced_case(case, prev):
        with tracer.span("case." + case.kind.split(":")[0]):
            out, dt = timed(case, prev)
        results.append(out)
        return out, dt

    gates = Gates()
    try:
        total = sum(dt for _, dt, _ in run_pass(plan, 0, gates, traced_case))
    finally:
        tracer.uninstall()
    per_name = tracer.per_name()
    calls = {name: per_name.get(name, (0, 0, 0))[0]
             for name in span_names(quintic_garnier.cli.SUITES)}
    closures = [r for r in results if isinstance(r, quintic_garnier.braids.OrbitResult)]
    elements = sum(len(r) for r in closures)
    edges = sum(len(r.edges) for r in closures)
    divides = calls["ring.exact_divide"]
    counts = {
        **{f"{name}.calls": n for name, n in calls.items()},
        "ring.mul.term_products": tracer.counts["ring.mul.term_products"],
        "ring.exact_divide.hit_ratio":
            tracer.counts["ring.exact_divide.hits"] / divides if divides else 0.0,
        "braids.dedup_hit_ratio": 1 - elements / edges if edges else 0.0,
    }
    times = {name: {"self_s": self_ns / 1e9, "total_s": total_ns / 1e9}
             for name, (_, total_ns, self_ns) in per_name.items()
             if not name.startswith("case.")}
    if spans_path:
        Path(spans_path).parent.mkdir(parents=True, exist_ok=True)
        tracer.write(spans_path, {"workload": plan.workload, "seed": plan.seed,
                                  "python": platform.python_version(),
                                  "nproc": os.cpu_count(), "inputs": plan.inputs})
    return {"pass_s": total, "counts": counts, "times": times,
            "spans": len(tracer.name), "attempted": gates.attempted,
            "failed": gates.failed}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "reference", "measure", "untraced", "trace"),
                    required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--spans", default=None, help="trace mode: write spans here")
    args = ap.parse_args(argv)

    # set-up: importing the package, then building the catalog and generating
    # inputs.  Each part is scaled to a nominal machine by the median time of
    # the reference of its kind around the set-up: the import reference for
    # the import, the reference kernel for the arithmetic.
    refs = [reference_pair() for _ in range(REF_AROUND_SETUP)]
    start = time.perf_counter()
    import workloads
    imported = time.perf_counter()
    plan = workloads.build(args.workload, args.seed)
    end = time.perf_counter()
    refs += [reference_pair() for _ in range(REF_AROUND_SETUP)]
    kernel_s = statistics.median(k for k, _ in refs)
    import_s = statistics.median(i for _, i in refs)
    result = {"setup_s": end - start,
              "setup_nominal_s": (imported - start) * NOMINAL_IMPORT_S / import_s
              + (end - imported) * NOMINAL_KERNEL_S / kernel_s,
              "inputs": plan.inputs, "main": plan.main, "item_label": plan.item_label}
    if args.mode == "reference":
        print(json.dumps(plan.reference()))
        return 0
    if args.mode != "setup":
        plan.refs = plan.prepare(json.load(sys.stdin))
        result["inputs"] = {**plan.inputs, **plan.refs.get("sizes", {})}
        if args.mode == "measure":
            result.update(measure(plan, args.seconds, len(plan.passes)))
        elif args.mode == "untraced":
            result.update(measure(plan, 0.0, 1))
        else:
            result.update(trace(plan, args.spans))
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
