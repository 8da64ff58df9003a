"""Command-line interface: reports, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from quintic_garnier import cli, ring
from quintic_garnier.cli import main


def run_cli(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, (json.loads(out) if out.strip() else None)


def test_orbit_pure_report(capsys, tmp_path):
    out = tmp_path / "o.json"
    rc, doc = run_cli(capsys, "orbit", "rho1", "--pure", "--out", str(out))
    assert rc == 0
    assert doc["results"] == {"size": 4, "status": "closed"}
    assert all(c["status"] == "pass" for c in doc["checks"])
    data = json.loads(out.read_text())
    assert data["size"] == 4 and data["variables"] == ["u", "v"]


def test_orbit_extended_size_check(capsys):
    rc, doc = run_cli(capsys, "orbit", "rho4", "--extended")
    assert rc == 0
    assert doc["results"]["size"] == 40
    names = {c["name"]: c["status"] for c in doc["checks"]}
    assert names["expected_size"] == "pass"


def test_orbit_identity(capsys):
    rc, doc = run_cli(capsys, "orbit", "identity", "--pure")
    assert rc == 0 and doc["results"]["size"] == 1


def test_orbit_cutoff_exit_code(capsys):
    rc, doc = run_cli(capsys, "orbit", "rho1", "--pure", "--cutoff", "2")
    assert rc == 2
    assert doc["results"]["status"] == "cutoff"


def test_orbit_degenerate_specialization_fails_size_check(capsys):
    rc, doc = run_cli(capsys, "orbit", "rho1", "--pure", "--at", "u=1,v=1")
    assert rc == 1


def test_orbit_unknown_family_is_usage_error(capsys):
    rc, _ = run_cli(capsys, "orbit", "rho9", "--pure")
    assert rc == 3


def test_compare_membership(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    rc, _ = run_cli(capsys, "orbit", "rho2", "--extended", "--out", str(a))
    assert rc == 0
    rc, _ = run_cli(capsys, "orbit", "rho3", "--pure", "--out", str(b))
    assert rc == 0
    rc, doc = run_cli(capsys, "compare", str(a), str(b), "--subst", "u=-s,v=s")
    assert rc == 0
    assert doc["results"]["relation"] == "a_contains_b"
    rc, doc = run_cli(capsys, "compare", str(a), str(a))
    assert rc == 0 and doc["results"]["relation"] == "equal"


@pytest.mark.parametrize("golden,orbit_b,subst", [
    ("compare_rho2_rho3.json", "rho3_pure.json", "u=-s,v=s"),
    ("compare_rho2_rho4.json", "rho4_pure.json", "u=s,v=s"),
    ("compare_rho2_self.json", "rho2_ext.json", None),
])
def test_compare_matches_golden_report(capsys, tmp_path, monkeypatch, golden,
                                       orbit_b, subst):
    """The whole report, witnesses and ``size_a`` included: under u=s,v=s the
    120 elements of the rho2 orbit become 40, so a term merged wrongly by
    the substitution shows here."""
    monkeypatch.chdir(tmp_path)
    for name, mode, out in (("rho2", "--extended", "rho2_ext.json"),
                            ("rho3", "--pure", "rho3_pure.json"),
                            ("rho4", "--pure", "rho4_pure.json")):
        assert main(["orbit", name, mode, "--out", out]) == 0
    capsys.readouterr()
    argv = ["compare", "rho2_ext.json", orbit_b] + (["--subst", subst] if subst else [])
    assert main(argv) == 0
    expected = (Path(__file__).parent / "golden" / golden).read_text()
    assert capsys.readouterr().out == expected


def test_compare_malformed_substitution(capsys, tmp_path):
    a = tmp_path / "a.json"
    run_cli(capsys, "orbit", "rho3", "--pure", "--out", str(a))
    rc, _ = run_cli(capsys, "compare", str(a), str(a), "--subst", "s=s+1")
    assert rc == 3


def test_compare_substitution_must_map_every_source_variable(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_cli(capsys, "orbit", "rho2", "--pure", "--out", str(a))
    run_cli(capsys, "orbit", "rho3", "--pure", "--out", str(b))
    rc = main(["compare", str(a), str(b), "--subst", "u=-s"])
    captured = capsys.readouterr()
    assert rc == 3 and not captured.out
    assert captured.err.startswith("error:") and "'v'" in captured.err


def test_compare_substitution_zero_denominator_is_usage_error(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_cli(capsys, "orbit", "rho2", "--pure", "--out", str(a))
    run_cli(capsys, "orbit", "rho3", "--pure", "--out", str(b))
    rc = main(["compare", str(a), str(b), "--subst", "u=1/0*s,v=s"])
    captured = capsys.readouterr()
    assert rc == 3 and not captured.out
    assert captured.err.startswith("error:") and "1/0" in captured.err


def test_pure_orbits_disjoint_via_cli(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_cli(capsys, "orbit", "rho1", "--pure", "--out", str(a))
    run_cli(capsys, "orbit", "rho2", "--pure", "--out", str(b))
    rc, doc = run_cli(capsys, "compare", str(a), str(b))
    assert rc == 0 and doc["results"]["relation"] == "disjoint"


@pytest.mark.parametrize("suite,expect_warn", [
    ("relations", True), ("residues", False), ("pullbacks", False),
])
def test_verify_suites(capsys, suite, expect_warn):
    rc, doc = run_cli(capsys, "verify", suite)
    assert rc == 0
    assert doc["results"]["fail"] == 0
    assert (doc["results"]["warning"] > 0) == expect_warn


def test_report_determinism(capsys):
    rc1 = main(["verify", "garnier"])
    out1 = capsys.readouterr().out
    rc2 = main(["verify", "garnier"])
    out2 = capsys.readouterr().out
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_timing_flag_adds_field(capsys):
    rc, doc = run_cli(capsys, "orbit", "identity", "--pure", "--timing")
    assert rc == 0 and "timing" in doc


def test_rep_file_input(capsys, tmp_path):
    rep = {
        "variables": ["u", "v"],
        "matrices": [
            ["1*v^1", "0", "0", "1*v^-1"],
            ["1*u^1", "0", "0", "1*u^-1"],
            ["0", "1", "-1", "0"],
            ["0", "1*u^2", "-1*u^-2", "0"],
        ],
    }
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(rep))
    rc, doc = run_cli(capsys, "orbit", "--rep-file", str(path), "--pure")
    assert rc == 0
    assert doc["results"]["size"] == 4


def test_missing_family_is_usage_error(capsys):
    rc, _ = run_cli(capsys, "orbit", "--pure")
    assert rc == 3


def test_extended_orbit_cutoff_exit_code(capsys):
    rc, doc = run_cli(capsys, "orbit", "rho1", "--extended", "--cutoff", "2")
    assert rc == 2 and doc["results"]["status"] == "cutoff"


@pytest.mark.parametrize("mode", ["--pure", "--extended"])
@pytest.mark.parametrize("cutoff", ["0", "-3"])
def test_cutoff_below_one_is_usage_error(capsys, mode, cutoff):
    rc = main(["orbit", "rho1", mode, "--cutoff", cutoff])
    captured = capsys.readouterr()
    assert rc == 3 and not captured.out
    assert "cutoff" in captured.err


def test_verify_garnier_emits_all_fields(capsys):
    rc, doc = run_cli(capsys, "verify", "garnier")
    assert rc == 0
    fields = next(c for c in doc["checks"] if c["name"] == "garnier_fields")
    assert {"t1", "t2", "Sq", "Pq", "Sp", "gamma", "agreement"} <= \
        set(fields["details"])


def test_verify_all_matches_golden_report(capsys):
    golden = Path(__file__).parent / "golden" / "verify_all.json"
    rc = main(["verify", "all"])
    assert rc == 0
    assert capsys.readouterr().out == golden.read_text()


def test_orbit_at_unknown_variable_is_usage_error(capsys):
    rc = main(["orbit", "rho4", "--extended", "--at", "w=3"])
    captured = capsys.readouterr()
    assert rc == 3 and not captured.out
    assert "'w'" in captured.err


def test_orbit_at_zero_denominator_is_usage_error(capsys):
    rc = main(["orbit", "rho1", "--pure", "--at", "u=1/0"])
    captured = capsys.readouterr()
    assert rc == 3 and not captured.out
    assert "u=1/0" in captured.err


RHO1_FILE = ["1*v^1", "0", "0", "1*v^-1"], ["1*u^1", "0", "0", "1*u^-1"], \
    ["0", "1", "-1", "0"], ["0", "1*u^2", "-1*u^-2", "0"]


def _rep_file(tmp_path, matrices):
    path = tmp_path / "rep.json"
    path.write_text(json.dumps({"variables": ["u", "v"],
                                "matrices": list(matrices)}))
    return str(path)


@pytest.mark.parametrize("matrices", [
    RHO1_FILE[:3], RHO1_FILE[:3] + (["1", "0", "0"],),
    RHO1_FILE[:2] + ([0, 1, -1, 0],) + RHO1_FILE[3:],
    RHO1_FILE[:2] + (["0", "1/0", "-1", "0"],) + RHO1_FILE[3:]])
def test_rep_file_malformed_matrices_are_usage_errors(capsys, tmp_path, matrices):
    path = _rep_file(tmp_path, matrices)
    rc = main(["orbit", "--rep-file", path, "--pure"])
    captured = capsys.readouterr()
    assert rc == 3 and not captured.out
    assert captured.err.startswith("error:")


@pytest.mark.parametrize("doc", [
    [["u", "v"], list(RHO1_FILE)],
    {"variables": "uv", "matrices": list(RHO1_FILE)},
])
def test_rep_file_malformed_documents_are_usage_errors(capsys, tmp_path, doc):
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(doc))
    rc = main(["orbit", "--rep-file", str(path), "--pure"])
    captured = capsys.readouterr()
    assert rc == 3 and not captured.out
    assert captured.err.startswith("error:")


@pytest.mark.parametrize("defect", ["number-element", "string-variables",
                                    "top-level-list", "zero-denominator"])
def test_compare_malformed_orbit_files_are_usage_errors(capsys, tmp_path, defect):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_cli(capsys, "orbit", "rho1", "--pure", "--out", str(a))
    data = json.loads(a.read_text())
    if defect == "number-element":
        data["elements"][0][0] = 2
    elif defect == "string-variables":
        data["variables"] = "uv"
    elif defect == "zero-denominator":
        data["elements"][0][0] = "1/0"
    else:
        data = [data]
    b.write_text(json.dumps(data))
    rc = main(["compare", str(a), str(b)])
    captured = capsys.readouterr()
    assert rc == 3 and not captured.out
    assert captured.err.startswith("error:")


def test_rep_file_matrix_of_determinant_two_is_usage_error(capsys, tmp_path):
    det_two = ["1*u^1", "0", "0", "2*u^-1"]
    path = _rep_file(tmp_path, RHO1_FILE[:3] + (det_two,))
    rc = main(["orbit", "--rep-file", path, "--extended"])
    captured = capsys.readouterr()
    assert rc == 3 and not captured.out
    assert captured.err.startswith("error:") and "determinant" in captured.err


def test_pure_and_extended_are_mutually_exclusive(capsys):
    rc = main(["orbit", "rho1", "--pure", "--extended"])
    captured = capsys.readouterr()
    assert rc == 3 and not captured.out
    assert "--extended" in captured.err and "--pure" in captured.err


def test_orbit_at_repeated_name_is_usage_error(capsys):
    rc = main(["orbit", "rho1", "--pure", "--at", "u=1,u=2"])
    captured = capsys.readouterr()
    assert rc == 3 and not captured.out
    assert captured.err.startswith("error:") and "'u'" in captured.err


def test_rep_file_fifth_matrix_must_close_the_product(capsys, tmp_path):
    # the four multiply to diag(-u^-1 v, -u v^-1); its inverse closes the product
    closing = ["-1*u^1*v^-1", "0", "0", "-1*u^-1*v^1"]
    rc, doc = run_cli(capsys, "orbit", "--rep-file",
                      _rep_file(tmp_path, RHO1_FILE + (closing,)), "--pure")
    assert rc == 0 and doc["results"]["size"] == 4
    wrong = ["1", "0", "0", "1"]
    rc, doc = run_cli(capsys, "orbit", "--rep-file",
                      _rep_file(tmp_path, RHO1_FILE + (wrong,)), "--pure")
    assert rc == 3 and doc is None


def test_compare_requires_matching_variable_names(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_cli(capsys, "orbit", "rho1", "--pure", "--out", str(a))
    data = json.loads(a.read_text())
    data["variables"] = ["s", "t"]
    data["elements"] = [[e.replace("u", "s").replace("v", "t") for e in row]
                        for row in data["elements"]]
    b.write_text(json.dumps(data))
    rc, doc = run_cli(capsys, "compare", str(a), str(b))
    assert rc == 0 and doc["results"]["relation"] == "disjoint"
    rc, doc = run_cli(capsys, "compare", str(a), str(b), "--subst", "u=s,v=t")
    assert rc == 0 and doc["results"]["relation"] == "equal"


def run_suites():
    for suite in cli.SUITES.values():
        suite()


def count_divisions(run):
    """Calls to ``exact_divide`` made by ``run()``, counted through each
    module that binds the function by name."""
    calls = [0]
    divide = ring.exact_divide

    def counted(p, f):
        calls[0] += 1
        return divide(p, f)
    bound = [m for name, m in sys.modules.items()
             if name.startswith("quintic_garnier")
             and getattr(m, "exact_divide", None) is divide]
    assert ring in bound and len(bound) > 1
    for module in bound:
        module.exact_divide = counted
    try:
        run()
    finally:
        for module in bound:
            module.exact_divide = divide
    return calls[0]


def test_verify_suites_divide_exactly_486_times_cold():
    """Pinned count of ``exact_divide`` calls over every suite of ``verify
    all`` in a fresh interpreter, where every basis starts with no
    remembered factorization: a change to the divide-out loops or to the
    factorization memo that adds or drops a division fails here."""
    path = [str(Path(cli.__file__).parents[1]), str(Path(__file__).parent)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    code = "import test_cli; print(test_cli.count_divisions(test_cli.run_suites))"
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert int(out) == 486


def test_verify_suites_divide_exactly_158_times_warm():
    """Pinned count of ``exact_divide`` calls over a second run of every
    suite: the first run leaves each factorization the suites need
    remembered, so the count does not depend on which tests ran before."""
    run_suites()
    assert count_divisions(run_suites) == 158
