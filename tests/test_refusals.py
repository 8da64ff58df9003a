"""Refusals of the library layer: each guard raises its own exception type
with a message that says what was refused.  One row per guard that no other
in-process test reaches; the connection stack's rows build only small
values, so the table runs in well under a second."""

import re

import pytest

from quintic_garnier import garnier
from quintic_garnier.cli import quoted
from quintic_garnier.connections import flat_quintic2_connection
from quintic_garnier.families import restriction_assignment
from quintic_garnier.forms import ScalarOneForm
from quintic_garnier.fractions import DenomBasis, Substitution, frac_eq
from quintic_garnier.reps import induced_representation, verify_product_identity
from quintic_garnier.ring import ContextError, UnitError, VarContext, exact_divide
from quintic_garnier.sl2 import GroupWord, Mat2, Presentation, verify_relations
from quintic_garnier.traces import TraceMap

UV = VarContext(["u", "v"])
XY = VarContext(["x", "y"])
u, v, y = UV.var("u"), UV.var("v"), XY.var("y")
B_DIFF = DenomBasis(UV, [u - v])
B_SUM = DenomBasis(UV, [u + v])

REFUSALS = [
    # ring
    ("distinct names", lambda: VarContext(["u", "u"]),
     ContextError, "variable names must be distinct"),
    ("undeclared extension", lambda: VarContext(["u"], extension=("w", [1, 0, 1])),
     ContextError, "extension variable 'w' not declared"),
    ("minimal polynomial", lambda: VarContext(["u"], extension=("u", [0, 1])),
     ContextError, "needs nonzero constant term"),
    ("monomial of an unknown variable", lambda: UV.monomial(1, {"w": 1}),
     ContextError, "unknown variable 'w'"),
    ("monomial_term of two terms", lambda: (u + 1).monomial_term(),
     UnitError, "not a one-term value"),
    ("constant_value of a variable", lambda: u.constant_value(),
     UnitError, "not a constant"),
    ("exact_divide by zero", lambda: exact_divide(u, UV.zero()),
     ZeroDivisionError, "division by zero polynomial"),
    # sl2
    ("Mat2 of constants", lambda: Mat2(1, 0, 0, 1),
     ContextError, "at least one entry must be a LaurentPoly"),
    ("letter exponent", lambda: GroupWord([("a", 2)]),
     ValueError, "letters carry exponent +1 or -1"),
    ("relator generator", lambda: Presentation("p", ["a"], [GroupWord([("b", 1)])]),
     ValueError, "uses undeclared generators"),
    ("unassigned generator", lambda: verify_relations(Presentation("p", ["a"], []), {}),
     KeyError, "generator 'a' is not assigned"),
    # reps and traces
    ("restriction words", lambda: induced_representation([], {}),
     ValueError, "need exactly four words"),
    ("product identity", lambda: verify_product_identity([]),
     ValueError, "need five matrices"),
    ("trace map images", lambda: TraceMap([]),
     ValueError, "need the images of d1..d4"),
    # families
    ("restriction case", lambda: restriction_assignment("case9"),
     KeyError, "unknown case 'case9'"),
    # fractions
    ("basis factor context", lambda: DenomBasis(UV, [y - 1]),
     ContextError, "factor context mismatch"),
    ("factor index past the basis", lambda: B_DIFF.of(u, {1: 1}),
     IndexError, "factor index 1 not in range(1)"),
    ("sum over two bases", lambda: B_DIFF.one() + B_SUM.one(),
     ContextError, "denominator basis mismatch"),
    ("image over another basis", lambda: Substitution(UV, {"u": B_SUM.one()}, B_DIFF),
     ContextError, "denominator basis mismatch"),
    ("image of another context", lambda: Substitution(UV, {"u": y}, B_DIFF),
     ContextError, "image context mismatch"),
    ("substituted polynomial context", lambda: Substitution(UV, {}, B_DIFF).poly(y),
     ContextError, "context mismatch"),
    ("frac_eq over two bases", lambda: frac_eq(B_DIFF.one(), B_SUM.one()),
     ContextError, "denominator basis mismatch"),
    # forms
    ("one-form base variable", lambda: ScalarOneForm(B_DIFF, ("u", "w"), B_DIFF.zero(),
                                                     B_DIFF.zero()),
     ContextError, "base variable 'w' not in context"),
    # garnier
    ("coefficient outside the denominator",
     lambda: garnier._clear(B_DIFF.over(1, u - v), UV.one()),
     garnier.RestrictionError, "does not divide the declared denominator"),
    ("line mode", lambda: garnier.restrict_to_line(flat_quintic2_connection(), "xy"),
     ValueError, "mode is 'ab' or 'ac'"),
]


@pytest.mark.parametrize("call,exc,fragment", [row[1:] for row in REFUSALS],
                         ids=[row[0] for row in REFUSALS])
def test_refusal(call, exc, fragment):
    with pytest.raises(exc, match=re.escape(fragment)):
        call()


def test_a_quoted_formula_that_matches_passes():
    """No catalog formula matches as quoted, so the pass branch of the
    verdict is pinned here: a match passes whatever its correction says."""
    check = quoted("q", True, False, "known defect", "beyond")
    assert (check.status, check.details) == ("pass", "")
