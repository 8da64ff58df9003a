"""The demos print what they printed when their digests were recorded, and
the README's library tour runs."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from quintic_garnier import cli

ROOT = Path(__file__).parents[1]
GOLDEN = json.loads((ROOT / "tests" / "golden" / "demo_digests.json").read_text())


def test_every_demo_has_a_digest():
    assert sorted(GOLDEN) == sorted(p.name for p in (ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", sorted(GOLDEN))
def test_demo_stdout_matches_golden_digest(demo):
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]),
               PYTHONWARNINGS="error")
    out = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=env,
                         capture_output=True, check=True).stdout
    assert hashlib.sha256(out).hexdigest() == GOLDEN[demo]


def test_readme_library_tour_runs():
    """The python block under the README's "Library tour" heading runs as
    written."""
    tour = (ROOT / "README.md").read_text().split("## Library tour\n", 1)[1]
    code = tour.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
