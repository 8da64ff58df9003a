"""Property tests of the refusal contract of the two parameter-list flags,
``orbit --at`` and ``compare --subst``, on near-miss texts that hypothesis
draws: blanks, stray commas, missing names or values, repeated and unknown
names, exponents at and above the interpreter's digit limit, zero
denominators and coefficients other than 1 and -1.  Each run exits 0, 1 or
2, or exits 3 with one ``error:`` line and no traceback, and the two flags
refuse a malformed piece and a repeated name alike.  The runs are
derandomized, so every run draws the same examples; the module is skipped
where hypothesis is missing."""

import contextlib
import io
import sys

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from quintic_garnier.cli import main  # noqa: E402

DIGITS = sys.get_int_max_str_digits()
EXPONENTS = [f"1e{DIGITS}", f"1e-{DIGITS}", f"1e{DIGITS + 1}", "1E-9_999_999"]

names = st.sampled_from(["u", "v", " v ", "w", "u v", ""])
separators = st.sampled_from(["=", "", " = ", "=="])
values = st.sampled_from(["3/2", "-7", "0", "1", " 2 ", "", "1/0", "0/0", "abc", "1.5",
                          "u", *EXPONENTS])
images = st.sampled_from(["u", "-u", " v", "-v", "u^-1", "-u^2*v^-1", "1", "-1", "0",
                          "2*u", "1/2*v", "-3*u", "u+1", "s", "", "1/0*u", "u^x",
                          *(f"{x}*u" for x in EXPONENTS)])


def _lists(value_texts):
    """Comma-joined lists of up to four pieces, a piece sometimes blank."""
    pieces = st.one_of(st.builds(lambda n, s, x: n + s + x, names, separators,
                                 value_texts),
                       st.sampled_from(["", " "]))
    return st.lists(pieces, max_size=4).map(",".join)


laws = settings(derandomize=True, max_examples=60, deadline=None)


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(list(argv))
    return rc, err.getvalue()


def assert_refusal_contract(rc, err):
    if rc == 3:
        assert err.startswith("error: ") and err.count("\n") == 1, err
    else:
        assert rc in (0, 1, 2) and not err, err
    assert "Traceback" not in err


@pytest.fixture(scope="module")
def orbit_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("orbits") / "rho1_pure.json"
    assert run("orbit", "rho1", "--pure", "--out", str(path)) == (0, "")
    return str(path)


@laws
@given(_lists(values))
def test_at_refuses_near_misses_with_one_error_line(text):
    assert_refusal_contract(*run("orbit", "rho1", "--pure", f"--at={text}"))


@laws
@given(_lists(images))
def test_subst_refuses_near_misses_with_one_error_line(orbit_file, text):
    assert_refusal_contract(*run("compare", orbit_file, orbit_file, f"--subst={text}"))


# every well-formed piece is valid for both flags, so the first refusal is
# the splitter's: a malformed piece or a repeated name
_shared = st.lists(st.one_of(st.builds(lambda n, s, x: n + s + x,
                                       st.sampled_from(["u", "v", " v ", ""]),
                                       st.sampled_from(["=", "", " = "]),
                                       st.sampled_from(["1", " 1 ", ""])),
                             st.sampled_from(["", " "])),
                   max_size=4).map(",".join)


@laws
@given(_shared)
def test_at_and_subst_refuse_a_piece_alike(orbit_file, text):
    rc_at, err_at = run("orbit", "rho1", "--pure", f"--at={text}")
    rc_subst, err_subst = run("compare", orbit_file, orbit_file, f"--subst={text}")
    assert (rc_at == 3) == (rc_subst == 3)
    assert (err_at.replace("error: --at ", "", 1).replace("name=value", "name=_")
            == err_subst.replace("error: --subst: ", "", 1).replace("name=image", "name=_"))


def test_subst_names_a_factor_that_is_neither_variable_nor_number(orbit_file):
    rc, err = run("compare", orbit_file, orbit_file, "--subst", "u==-u")
    assert_refusal_contract(rc, err)
    assert rc == 3
    assert err == ("error: --subst: term '=' has factor '=', which is neither "
                   "a variable nor a number\n")
