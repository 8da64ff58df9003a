"""The benchmark tracer's span table names functions that exist.

``perfbench/tracer.py`` wraps package functions and methods by name; a
refactor that renames or removes one would otherwise surface only in a
benchmark run.  The module is loaded by path and only read.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
