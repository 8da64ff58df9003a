"""What the benchmark relies on in the package still holds.

``perfbench/tracer.py`` wraps package functions and methods by name, and
the ``connections`` workload compares the ``verify all`` verdicts with
``perfbench/expected_verify.json``; a refactor that breaks either would
otherwise surface only in a benchmark run.  Both files are only read.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
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
