"""Command-line interface: reports, exit codes, determinism."""

import dataclasses
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from quintic_garnier import cli, connections, families, forms, fractions, garnier, ring
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


def test_orbit_of_a_family_without_a_tuple_is_usage_error(capsys):
    rc = main(["orbit", "plane_case1", "--extended"])
    captured = capsys.readouterr()
    assert rc == 3 and not captured.out
    assert captured.err == "error: family 'plane_case1' is not a representation tuple\n"


def test_orbit_out_to_unwritable_path_is_usage_error(capsys, tmp_path):
    out = tmp_path / "missing" / "x.json"
    rc = main(["orbit", "rho1", "--extended", "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 3 and not captured.out
    assert captured.err.startswith("error: ") and str(out) in captured.err
    assert not out.parent.exists()


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


@pytest.mark.parametrize("subst,piece", [("u", "u"), ("u=-s,v", "v")])
def test_compare_substitution_piece_without_image_is_usage_error(capsys, tmp_path,
                                                                 subst, piece):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_cli(capsys, "orbit", "rho2", "--pure", "--out", str(a))
    run_cli(capsys, "orbit", "rho3", "--pure", "--out", str(b))
    rc = main(["compare", str(a), str(b), "--subst", subst])
    captured = capsys.readouterr()
    assert rc == 3 and not captured.out
    assert captured.err == f"error: --subst: piece {piece!r} is not name=image\n"


def test_compare_substitution_undeclared_image_variable_is_usage_error(capsys,
                                                                       tmp_path):
    a = tmp_path / "a.json"
    run_cli(capsys, "orbit", "rho1", "--pure", "--out", str(a))
    rc = main(["compare", str(a), str(a), "--subst", "u=-s"])
    captured = capsys.readouterr()
    assert rc == 3 and not captured.out
    assert captured.err == "error: --subst: undeclared variable 's'\n"


def test_compare_repeated_substitution_name_is_usage_error(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_cli(capsys, "orbit", "rho2", "--pure", "--out", str(a))
    run_cli(capsys, "orbit", "rho3", "--pure", "--out", str(b))
    rc = main(["compare", str(a), str(b), "--subst", "u=-s,u=s,v=s"])
    captured = capsys.readouterr()
    assert rc == 3 and not captured.out
    assert captured.err.startswith("error:") and "'u'" in captured.err


@pytest.mark.parametrize("subst,message", [
    ("u=2*s,v=s", "image of 'u' is not a signed monomial"),
    ("u=-s,v=1/2*s", "image of 'v' is not a signed monomial"),
    ("=s", "piece '=s' is not name=image"),
    ("u=-s,u=s,v=s", "names 'u' more than once"),
], ids=["coefficient-2", "coefficient-half", "no-name", "repeated-name"])
def test_compare_substitution_refusals_name_the_piece(capsys, tmp_path, subst,
                                                      message):
    """An image must be one term of coefficient 1 or -1, a piece must have a
    name, and a name may be given once."""
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_cli(capsys, "orbit", "rho2", "--pure", "--out", str(a))
    run_cli(capsys, "orbit", "rho3", "--pure", "--out", str(b))
    rc = main(["compare", str(a), str(b), "--subst", subst])
    captured = capsys.readouterr()
    assert rc == 3 and not captured.out
    assert captured.err == f"error: --subst: {message}\n"


def test_compare_of_a_coefficient_beyond_the_digit_limit_is_usage_error(capsys,
                                                                        tmp_path):
    """``1e4300`` parses, its exponent being at the limit, but the number
    has 4,301 digits: writing the comparison's witnesses is refused with
    one error line and no traceback."""
    big = tmp_path / "big.json"
    big.write_text(json.dumps({"variables": ["u"],
                               "elements": [["1e4300"] + ["0"] * 14]}))
    old = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)
        rc = main(["compare", str(big), str(big)])
    finally:
        sys.set_int_max_str_digits(old)
    captured = capsys.readouterr()
    assert rc == 3 and not captured.out
    assert captured.err == ("error: the coefficient of the monomial 1 has a number of "
                            "more than 4300 digits, the interpreter's limit on the "
                            "digits of an integer\n")


def test_compare_of_a_short_row_names_the_file(capsys, tmp_path):
    """A row of an orbit file that is not fifteen coordinates long is
    refused with the file's path, as every other malformed file is."""
    a, short = tmp_path / "a.json", tmp_path / "short.json"
    assert main(["orbit", "rho1", "--pure", "--out", str(a)]) == 0
    doc = json.loads(a.read_text())
    doc["elements"][1] = doc["elements"][1][:14]
    short.write_text(json.dumps(doc))
    capsys.readouterr()
    rc = main(["compare", str(a), str(short)])
    captured = capsys.readouterr()
    assert rc == 3 and not captured.out
    assert captured.err == f"error: {short}: a trace tuple has fifteen coordinates\n"


def test_compare_parses_each_distinct_coordinate_string_once(capsys, tmp_path,
                                                             monkeypatch):
    """rho2's extended orbit file holds 1,800 coordinate strings, 9 of them
    distinct; each file of a comparison parses each distinct string once."""
    a = tmp_path / "a.json"
    assert main(["orbit", "rho2", "--extended", "--out", str(a)]) == 0
    strings = [t for row in json.loads(a.read_text())["elements"] for t in row]
    assert (len(strings), len(set(strings))) == (1800, 9)
    calls = []
    parse = cli.parse_poly
    monkeypatch.setattr(cli, "parse_poly",
                        lambda ctx, text: calls.append(text) or parse(ctx, text))
    capsys.readouterr()
    rc, doc = run_cli(capsys, "compare", str(a), str(a))
    assert rc == 0 and doc["results"]["relation"] == "equal"
    assert Counter(calls) == Counter(2 * sorted(set(strings)))


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


def _wrong_p_q_repair(monkeypatch):
    fields = garnier.reference_garnier_fields

    def wrong():
        refs = fields()
        refs["P_q_repaired"] = refs["P_q_repaired"] + garnier.B_AC.one()
        return refs
    monkeypatch.setattr(garnier, "reference_garnier_fields", wrong)


def _wrong_alpha2_reference(monkeypatch):
    alphas = garnier.reference_alphas

    def wrong():
        r2, r1, r0 = alphas()
        return r2 + garnier.CTX_AB.var("lam1"), r1, r0
    monkeypatch.setattr(garnier, "reference_alphas", wrong)


def _wrong_corrected_fifth_matrix(monkeypatch):
    build = families._BUILDERS["line_case3a"]

    def wrong():
        fam = build()
        return dataclasses.replace(fam, corrected_five=fam.five)
    monkeypatch.setitem(families._BUILDERS, "line_case3a", wrong)


@pytest.mark.parametrize("suite,name,perturb", [
    ("garnier", "P_q", _wrong_p_q_repair),
    ("restriction", "alpha2", _wrong_alpha2_reference),
    ("flatness", "flat:case1", lambda mp: mp.setattr(
        connections, "flat_case1_connection", connections.case1_connection)),
    ("relations", "product_identity:line_case3a", _wrong_corrected_fifth_matrix),
], ids=["P_q", "alpha2", "flat_case1", "line_case3a"])
def test_quoted_formula_beyond_its_correction_fails(capsys, monkeypatch, suite,
                                                    name, perturb):
    """A quoted formula that differs from the derived value is a warning
    only while its stated correction holds; with the correction broken the
    row fails, and so does the run."""
    rc, doc = run_cli(capsys, "verify", suite)
    assert rc == 0
    assert {c["name"]: c["status"] for c in doc["checks"]}[name] == "warning"
    perturb(monkeypatch)
    rc, doc = run_cli(capsys, "verify", suite)
    assert rc == 1
    row = next(c for c in doc["checks"] if c["name"] == name)
    assert row["status"] == "fail"
    if name == "P_q":
        assert row["details"]["note"] == "derived value disagrees beyond the known repair"


def test_verify_unknown_suite_is_usage_error(capsys):
    rc = main(["verify", "nosuch"])
    captured = capsys.readouterr()
    assert rc == 3 and not captured.out


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


def test_orbit_at_a_point_beyond_the_digit_limit_is_usage_error(capsys):
    """A point the parser accepts, at the limit, can still give coordinates
    of more digits than the limit: their serialization is refused with one
    error line that names the point, and no traceback."""
    old = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)
        rc = main(["orbit", "rho4", "--extended", "--at", "s=1e4300"])
    finally:
        sys.set_int_max_str_digits(old)
    captured = capsys.readouterr()
    assert rc == 3 and not captured.out
    assert captured.err == ("error: --at s=1e4300: the coefficient of the monomial 1 has a "
                            "number of more than 4300 digits, the interpreter's limit on the "
                            "digits of an integer\n")


@pytest.mark.parametrize("at,message", [
    ("u=0", "negative power of 'u' needs a unit image"),
    ("w=1", "names 'w', which is not a variable of the tuple (u, v)"),
])
def test_orbit_at_a_point_that_cannot_specialize_names_it(capsys, at, message):
    """A point that parses but does not specialize the tuple (a zero for a
    variable with negative powers, a name the tuple lacks) is refused with
    one error line that names the point."""
    rc = main(["orbit", "rho1", "--pure", "--at", at])
    captured = capsys.readouterr()
    assert rc == 3 and not captured.out
    assert captured.err == f"error: --at {at}: {message}\n"


DIGITS = sys.get_int_max_str_digits()


@pytest.mark.parametrize("at,message", [
    ("u", "--at piece 'u' is not name=value"),
    ("u=,v=1", "--at piece 'u=' is not name=value"),
    ("=3", "--at piece '=3' is not name=value"),
    ("u=abc", "--at value 'u=abc' is not a rational"),
    # refused before Fraction builds ten to the power
    *((f"u={x}", f"--at value 'u={x}' has a decimal exponent above {DIGITS}, "
       "the interpreter's limit on the digits of an integer")
      for x in ("1e999999", "1E-9_999_999", f"1e{DIGITS + 1}")),
])
def test_orbit_at_malformed_piece_is_usage_error(capsys, at, message):
    rc = main(["orbit", "rho1", "--pure", "--at", at])
    captured = capsys.readouterr()
    assert rc == 3 and not captured.out
    assert captured.err == f"error: {message}\n"


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


@pytest.mark.parametrize("doc,fault", [
    ([["u", "v"], list(RHO1_FILE)], "expected a JSON object"),
    ({"variables": "uv", "matrices": list(RHO1_FILE)},
     "'variables' must be a list of names"),
    ({"variables": ["u", "v"]}, "no 'matrices' entry"),
    ({"variables": ["u", "v"],
      "matrices": [RHO1_FILE[0], ["0", "1/0", "-1", "0"]] + list(RHO1_FILE[2:])},
     "term '1/0' has a zero denominator"),
    ({"variables": ["u", "v"], "matrices": list(RHO1_FILE[:3]) + [["1", "0", "0"]]},
     "each matrix is a row of four entries"),
    ({"variables": ["u", "v"], "matrices": list(RHO1_FILE) + [RHO1_FILE[0]]},
     "the five matrices do not multiply to the identity"),
    ({"variables": ["u", "v"], "matrices": list(RHO1_FILE[:3])},
     "need 4 matrices, or 5 whose product is the identity; got 3"),
], ids=["doc0", "doc1", "doc2", "doc3", "doc4", "doc5", "doc6"])
def test_rep_file_malformed_documents_are_usage_errors(capsys, tmp_path, doc,
                                                       fault):
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(doc))
    rc = main(["orbit", "--rep-file", str(path), "--pure"])
    captured = capsys.readouterr()
    assert rc == 3 and not captured.out
    assert captured.err == f"error: {path}: {fault}\n"


@pytest.mark.parametrize("defect", ["number-element", "string-variables",
                                    "top-level-list", "zero-denominator",
                                    "missing-elements"])
def test_compare_malformed_orbit_files_are_usage_errors(capsys, tmp_path, defect):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_cli(capsys, "orbit", "rho1", "--pure", "--out", str(a))
    data = json.loads(a.read_text())
    if defect == "number-element":
        data["elements"][0][0] = 2
        message = f"{b}: 'elements' must be a list of rows of polynomial strings"
    elif defect == "string-variables":
        data["variables"] = "uv"
        message = f"{b}: 'variables' must be a list of names"
    elif defect == "zero-denominator":
        data["elements"][0][0] = "1/0"
        message = f"{b}: term '1/0' has a zero denominator"
    elif defect == "missing-elements":
        del data["elements"]
        message = f"{b}: no 'elements' entry"
    else:
        data = [data]
        message = f"{b}: expected a JSON object"
    b.write_text(json.dumps(data))
    rc = main(["compare", str(a), str(b)])
    captured = capsys.readouterr()
    assert rc == 3 and not captured.out
    assert captured.err == f"error: {message}\n"


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


def count_products(run):
    """Products ``p * q`` of two Laurent polynomials made by ``run()``; an
    ``int * p`` goes through ``__rmul__`` and is not counted."""
    calls = [0]
    mul = ring.LaurentPoly.__mul__

    def counted(self, other):
        calls[0] += 1
        return mul(self, other)
    ring.LaurentPoly.__mul__ = counted
    try:
        run()
    finally:
        ring.LaurentPoly.__mul__ = mul
    return calls[0]


def count_cold(counter):
    """``counter(run_suites)`` in a fresh interpreter, where every basis
    starts with empty memos."""
    path = [str(Path(cli.__file__).parents[1]), str(Path(__file__).parent)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path), PYTHONWARNINGS="error")
    code = f"import test_cli; print(test_cli.{counter}(test_cli.run_suites))"
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    return int(out)


def test_verify_suites_exact_divide_count_cold():
    """Pinned count of ``exact_divide`` calls over every suite of ``verify
    all`` in a fresh interpreter, where every basis starts with no
    remembered factorization: a change to the divide-out loops or to the
    factorization memo that adds or drops a division fails here."""
    assert count_cold("count_divisions") == 444


def test_verify_suites_product_count_cold():
    """Pinned count of ``LaurentPoly.__mul__`` calls over every suite of
    ``verify all`` in a fresh interpreter: a fraction product with a zero or
    unit operand, a common denominator on equal exponents and a basis power
    built twice multiply nothing, so one that multiplies again fails here.
    The residue chart at infinity that the suites read is built here, on
    first read."""
    assert count_cold("count_products") == 2671


def test_verify_suites_exact_divide_count_warm():
    """Pinned count of ``exact_divide`` calls over a second run of every
    suite: the first run leaves each factorization the suites need
    remembered, so the count does not depend on which tests ran before."""
    run_suites()
    assert count_divisions(run_suites) == 124


def count_suite_calls(monkeypatch, owner, name):
    """Calls to the method ``owner.name`` over a second run of every suite of
    ``verify all``: the first builds the residue chart at infinity that the
    suites read, once per process, so the count does not depend on which
    tests ran before."""
    run_suites()
    calls = [0]
    method = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return method(*args, **kwargs)
    monkeypatch.setattr(owner, name, counted)
    run_suites()
    return calls[0]


def test_verify_suites_derivative_count(monkeypatch):
    """Pinned count of ``FactoredFraction.derivative`` calls: each map
    derives its differentials once, and a substitution that only pulls
    functions back derives none."""
    assert count_suite_calls(monkeypatch, fractions.FactoredFraction,
                             "derivative") == 70


def test_verify_suites_wedge_count(monkeypatch):
    """Pinned count of ``ScalarOneForm.wedge`` calls: one for the Jacobian
    of each map built, the rest in ``connections.mat_curvature``."""
    assert count_suite_calls(monkeypatch, forms.ScalarOneForm, "wedge") == 37


def test_verify_suites_restrict_each_chart_once(monkeypatch):
    """Pinned count of ``garnier.restrict_to_line`` calls: the restriction
    suite restricts the quintic once to the (a, b) chart and once to the
    (a, c) chart, and the garnier suite once to the (a, c) chart."""
    assert count_suite_calls(monkeypatch, garnier, "restrict_to_line") == 3


def test_verify_suites_build_one_substitution_per_owner(monkeypatch):
    """Pinned count of ``fractions.Substitution`` kernels per suite: each
    residue chart, map, line restriction, parameter point, pole and flip
    builds one for all the values it substitutes.  A kernel per entry again
    fails here."""
    suite, kernels = [None], Counter()
    init = fractions.Substitution.__init__

    def counted_init(self, *args):
        kernels[suite[0]] += 1
        init(self, *args)
    monkeypatch.setattr(fractions.Substitution, "__init__", counted_init)
    for name, run in cli.SUITES.items():
        suite[0] = name
        run()
    assert dict(kernels) == {"residues": 7, "pullbacks": 7, "restriction": 7,
                             "garnier": 2}


def test_verify_residues_derives_and_inverts_each_partial_once(monkeypatch):
    """Pinned counts of ``LaurentPoly.derivative`` and
    ``FactoredFraction.inverse`` calls over a second run of the residues
    suite: each of its seven charts derives its divisor once by each base
    variable (14 derivatives; ``flat_case1_connection`` takes the other 2)
    and inverts the image of each nonzero partial once (9 inverses; the
    other 12 are the substitutions' pulled factor inverses and negative
    image powers).  A partial derived or inverted per entry again fails
    here."""
    run = cli.SUITES["residues"]
    run()
    calls = Counter()
    for owner, name in ((ring.LaurentPoly, "derivative"),
                        (fractions.FactoredFraction, "inverse")):
        def counted(*args, _method=getattr(owner, name), _name=name):
            calls[_name] += 1
            return _method(*args)
        monkeypatch.setattr(owner, name, counted)
    run()
    assert dict(calls) == {"derivative": 16, "inverse": 21}


@pytest.mark.parametrize("argv", [["verify", "residues"], ["verify", "all"]])
def test_a_closed_pipe_ends_the_report_quietly(argv):
    """A reader that closes standard output before the report is written
    (``verify residues | head -0``) ends the command with ``EXIT_PIPE`` and
    nothing on standard error, not with a ``BrokenPipeError`` traceback."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    code = f"import sys; from quintic_garnier.cli import main; sys.exit(main({argv!r}))"
    read_end, write_end = os.pipe()
    with subprocess.Popen([sys.executable, "-c", code], env=env, stdout=write_end,
                          stderr=subprocess.PIPE, text=True) as child:
        # the child holds the only write end, and no process the read end
        os.close(write_end)
        os.close(read_end)
        _, err = child.communicate(timeout=120)
    assert (child.returncode, err) == (cli.EXIT_PIPE, "")
