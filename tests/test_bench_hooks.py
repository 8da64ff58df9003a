"""What the benchmark relies on in the package still holds.

``perfbench/tracer.py`` wraps package functions and methods by name, and
the ``connections`` workload compares the ``verify all`` verdicts with
``perfbench/expected_verify.json``; a refactor that breaks either would
otherwise surface only in a benchmark run.  Both files are only read.
"""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = _load_tracer().SPANS


@pytest.mark.parametrize("span", SPANS, ids=[f"{s[0]}:{s[3]}" for s in SPANS])
def test_every_span_resolves(span):
    _, module, owner, attr = span
    mod = importlib.import_module(f"quintic_garnier.{module}")
    if owner is None:
        assert callable(getattr(mod, attr, None)), f"{module}.{attr}"
    else:
        assert attr in vars(getattr(mod, owner)), f"{module}.{owner}.{attr}"


def test_suite_table_exists():
    assert importlib.import_module("quintic_garnier.cli").SUITES


def test_verify_verdicts_match_the_benchmark_reference():
    """Every ``[suite, name, status]`` row of a run of ``cli.SUITES``, and
    the summary of 48 passes, 8 warnings and no failure, as the benchmark
    expects them."""
    want = json.loads((PERFBENCH / "expected_verify.json").read_text())
    suites = importlib.import_module("quintic_garnier.cli").SUITES
    rows = [[suite, c.name, c.status] for suite, run in suites.items() for c in run()]
    assert rows == want["checks"]
    statuses = [status for _, _, status in rows]
    summary = {k: statuses.count(k) for k in ("pass", "warning", "fail")}
    assert summary == want["summary"] == {"pass": 48, "warning": 8, "fail": 0}


def _unused_on_orbits() -> tuple:
    """``UNUSED["orbits"]`` of ``perfbench/run.py``, read off its source."""
    for node in ast.parse((PERFBENCH / "run.py").read_text()).body:
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "UNUSED":
            return ast.literal_eval(node.value)["orbits"]
    raise AssertionError("run.py has no UNUSED table")


def test_traced_orbit_enters_no_span_the_benchmark_rules_out():
    """In a fresh interpreter that imports what ``perfbench/workloads.py``
    imports, a traced orbit closure records no call of a span that
    ``run.py`` gates as unused on the orbit workloads, though installing
    the tracer loads the connection stack under it."""
    imports = [ast.unparse(node) for node in
               ast.parse((PERFBENCH / "workloads.py").read_text()).body
               if isinstance(node, ast.ImportFrom)
               and (node.module or "").startswith("quintic_garnier")]
    code = "\n".join([
        "import importlib.util, json, quintic_garnier",
        *imports,
        f"spec = importlib.util.spec_from_file_location('tracer', {str(TRACER)!r})",
        "tracer_module = importlib.util.module_from_spec(spec)",
        "spec.loader.exec_module(tracer_module)",
        "tracer = tracer_module.Tracer()",
        "tracer.install(quintic_garnier)",
        "res = quintic_garnier.braids.extended_orbit(",
        "    quintic_garnier.families.builtin_family('rho1').rep)",
        "tracer.uninstall()",
        "print(len(res), json.dumps({k: c for k, (c, _, _) in tracer.per_name().items()}))",
    ])
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONWARNINGS="error")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    size, calls = out.split(" ", 1)
    calls = json.loads(calls)
    unused = _unused_on_orbits()
    assert "fractions.derivative" in unused
    assert (size, calls["braids.closure"]) == ("240", 1)
    assert {name: calls.get(name, 0) for name in unused} == dict.fromkeys(unused, 0)
