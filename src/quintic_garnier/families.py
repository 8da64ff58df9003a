"""Catalog of representation families, presentations, and restriction words.

The four core families rho1..rho4 are tuples of monomial matrices in one or
two unit parameters.  The line_case* entries are the five local monodromy
matrices of the corresponding plane representation restricted to a generic
line; the plane_case* entries are assignments of the plane fundamental
group generators themselves.  All matrices are exact transcriptions; where a
catalog entry is known to be internally inconsistent (line_case3a's fifth
matrix does not invert the product of the first four) the corrected matrix
is provided alongside and the defect is surfaced by the verification suite,
never silently patched.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .reps import RepTuple
from .ring import VarContext
from .sl2 import GroupWord, Mat2, Presentation, commutator

CTX_UV = VarContext(["u", "v"])
CTX_S = VarContext(["s"])
CTX_T = VarContext(["t"])
CTX_V = VarContext(["v"])
CTX_W = VarContext(["w"])
CTX_U = VarContext(["u"])
CTX_ROOT = VarContext(["r"], extension=("r", [1, 1]))  # r^2 + r + 1 = 0


def _g(s: str) -> GroupWord:
    return GroupWord.gen(s)


def _J(ctx: VarContext) -> Mat2:
    return Mat2.antidiagonal(ctx.one())


# ---------------------------------------------------------------------------
# presentations

def _presentations() -> dict[str, Presentation]:
    a, b, c = _g("a"), _g("b"), _g("c")
    s1, s2, s3 = _g("s1"), _g("s2"), _g("s3")
    return {
        # three lines tangent to a conic
        "gamma2p": Presentation("gamma2p", ["a", "b", "c"], [
            (a * b) ** 2 * (b * a) ** -2,
            (a * c) ** 2 * (c * a) ** -2,
            commutator(b, c),
        ]),
        # three concurrent lines and a bitangent conic
        "gamma2": Presentation("gamma2", ["a", "b", "c"], [
            commutator(a, b),
            commutator(a, c.inverse() * b * c),
            (b * c) ** 2 * ((c * b) ** 2).inverse(),
        ]),
        # two lines and a cubic
        "case3": Presentation("case3", ["a", "b", "c"], [
            commutator(a, b),
            commutator(b, c ** 2),
            (c * a) * (b * c).inverse(),
        ]),
        "b3": Presentation("b3", ["s1", "s2"], [
            (s1 * s2 * s1) * (s2 * s1 * s2).inverse(),
        ]),
        "b4": Presentation("b4", ["s1", "s2", "s3"], [
            commutator(s1, s3),
            (s1 * s2 * s1) * (s2 * s1 * s2).inverse(),
            (s3 * s2 * s3) * (s2 * s3 * s2).inverse(),
        ]),
        "gamma3": Presentation("gamma3", ["a", "b"], [
            commutator(a ** 3, b),
            (a * b ** 2) * (b * a ** 2).inverse(),
        ]),
        "gamma3p": Presentation("gamma3p", ["a", "b", "c"], [
            (a * c * a) * (c * a * c).inverse(),
            commutator(b, c),
            (a * b) ** 2 * ((b * a) ** 2).inverse(),
        ]),
        "gamma4": Presentation("gamma4", ["a", "b", "c"], [
            (a * b * a) * (b * a * b).inverse(),
            (c * b * c) * (b * c * b).inverse(),
            (a * (b * c * b.inverse()) * a)
            * ((b * c * b.inverse()) * a * (b * c * b.inverse())).inverse(),
        ]),
    }


PRESENTATIONS = _presentations()


# ---------------------------------------------------------------------------
# restriction words: images of d1..d4 in the plane group, one list per case

RESTRICTION_WORDS: dict[str, list[GroupWord]] = {
    "case1": [_g("b"), _g("a"), _g("b") * _g("a") * _g("b").inverse(), _g("c")],
    "case2": [_g("c"), _g("b"), _g("a"), _g("b")],
    "case3a": [_g("b"), _g("b") * _g("a"), _g("a"),
               _g("b").inverse() * _g("a") * _g("b")],
    "case3b": [_g("b"), _g("a"), _g("a"),
               _g("b").inverse() * _g("a") * _g("b")],
}


# ---------------------------------------------------------------------------
# the family registry

@dataclass
class Family:
    """One catalog entry; exactly one of rep/assignment/five is primary."""

    name: str
    ctx: VarContext
    rep: Optional[RepTuple] = None
    assignment: Optional[dict[str, Mat2]] = None
    presentation: Optional[Presentation] = None
    five: Optional[tuple[Mat2, ...]] = None
    corrected_five: Optional[tuple[Mat2, ...]] = None


def _rho1() -> Family:
    u, v = CTX_UV.var("u"), CTX_UV.var("v")
    rep = RepTuple(Mat2.diagonal(v), Mat2.diagonal(u), _J(CTX_UV),
                   Mat2.antidiagonal(u ** 2))
    return Family("rho1", CTX_UV, rep=rep)


def _rho2() -> Family:
    u, v = CTX_UV.var("u"), CTX_UV.var("v")
    rep = RepTuple(_J(CTX_UV), Mat2.diagonal(v), Mat2.diagonal(u),
                   Mat2.diagonal(v))
    return Family("rho2", CTX_UV, rep=rep)


def _rho3() -> Family:
    s = CTX_S.var("s")
    rep = RepTuple(_J(CTX_S), Mat2.antidiagonal(s ** -1), Mat2.diagonal(s),
                   Mat2.diagonal(s ** -1))
    return Family("rho3", CTX_S, rep=rep)


def _rho4() -> Family:
    s = CTX_S.var("s")
    rep = RepTuple(_J(CTX_S), Mat2.diagonal(s), Mat2.diagonal(s),
                   Mat2.diagonal(s ** -1))
    return Family("rho4", CTX_S, rep=rep)


def _identity_family() -> Family:
    return Family("identity", CTX_UV, rep=RepTuple.identity(CTX_UV))


def _line_case1() -> Family:
    u, v = CTX_UV.var("u"), CTX_UV.var("v")
    five = (Mat2.diagonal(v), Mat2.diagonal(u), _J(CTX_UV),
            Mat2.antidiagonal(u ** 2),
            Mat2(-u * v ** -1, 0, 0, -(u ** -1) * v))
    return Family("line_case1", CTX_UV, five=five,
                  rep=RepTuple(*five[:4]))


def _line_case2() -> Family:
    u, v = CTX_UV.var("u"), CTX_UV.var("v")
    five = (_J(CTX_UV), Mat2.diagonal(v), Mat2.diagonal(u), Mat2.diagonal(v),
            Mat2(CTX_UV.zero(), -((u * v ** 2) ** -1), u * v ** 2, CTX_UV.zero()))
    return Family("line_case2", CTX_UV, five=five,
                  rep=RepTuple(*five[:4]))


def _line_case3a() -> Family:
    u = CTX_U.var("u")
    five = (_J(CTX_U), Mat2.antidiagonal(u ** -1), Mat2.diagonal(u),
            Mat2.diagonal(u ** -1), Mat2(-u, 0, 0, -(u ** -1)))
    # the catalog fifth matrix is the inverse of the required one
    corrected = five[:4] + (Mat2(-(u ** -1), 0, 0, -u),)
    return Family("line_case3a", CTX_U, five=five,
                  corrected_five=corrected, rep=RepTuple(*five[:4]))


def _line_case3b() -> Family:
    u = CTX_U.var("u")
    five = (Mat2(CTX_U.zero(), -CTX_U.one(), CTX_U.one(), CTX_U.zero()),
            Mat2.diagonal(u), Mat2.diagonal(u), Mat2.diagonal(u ** -1),
            Mat2.antidiagonal(u ** -1))
    return Family("line_case3b", CTX_U, five=five,
                  rep=RepTuple(*five[:4]))


def _plane_case1() -> Family:
    u, v = CTX_UV.var("u"), CTX_UV.var("v")
    assignment = {"a": _J(CTX_UV), "b": Mat2.diagonal(u), "c": Mat2.diagonal(v)}
    return Family("plane_case1", CTX_UV, assignment=assignment,
                  presentation=PRESENTATIONS["gamma2p"])


def _plane_case2() -> Family:
    u, v = CTX_UV.var("u"), CTX_UV.var("v")
    assignment = {"a": Mat2.diagonal(u), "b": Mat2.diagonal(v), "c": _J(CTX_UV)}
    return Family("plane_case2", CTX_UV, assignment=assignment,
                  presentation=PRESENTATIONS["gamma2"])


def _plane_case3() -> Family:
    t = CTX_T.var("t")
    assignment = {"a": Mat2.diagonal(t), "b": Mat2.diagonal(t ** -1),
                  "c": _J(CTX_T)}
    return Family("plane_case3", CTX_T, assignment=assignment,
                  presentation=PRESENTATIONS["case3"])


def _b3_nonrigid() -> Family:
    v = CTX_V.var("v")
    assignment = {"s1": Mat2(v, 1, 0, v ** -1), "s2": Mat2(v ** -1, 0, -1, v)}
    return Family("b3_nonrigid", CTX_V, assignment=assignment,
                  presentation=PRESENTATIONS["b3"])


def _b4_family() -> Family:
    w = CTX_W.var("w")
    assignment = {"s1": Mat2(w, 1, 0, w ** -1), "s2": Mat2(w ** -1, 0, -1, w),
                  "s3": Mat2(w, 1, 0, w ** -1)}
    return Family("b4_family", CTX_W, assignment=assignment,
                  presentation=PRESENTATIONS["b4"])


def _gamma3_finite() -> Family:
    r = CTX_ROOT.var("r")
    one = CTX_ROOT.one()
    third = Fraction(1, 3)
    A = Mat2.diagonal(r)
    B = Mat2(third * (r + 2), one, CTX_ROOT.const(Fraction(-2, 3)),
             third * (one - r))
    return Family("gamma3_finite", CTX_ROOT, assignment={"a": A, "b": B},
                  presentation=PRESENTATIONS["gamma3"])


def _gamma3p_fam1() -> Family:
    u = CTX_U.var("u")
    A = Mat2(u ** -1, 1, 0, u)
    B = Mat2(u ** 2, 0, -(u + u ** -1), u ** -2)
    C = Mat2(u, 0, -1, u ** -1)
    return Family("gamma3p_fam1", CTX_U, assignment={"a": A, "b": B, "c": C},
                  presentation=PRESENTATIONS["gamma3p"])


def _gamma3p_fam2() -> Family:
    u = CTX_U.var("u")
    q = u ** 4 - u ** 2 + 1
    A = Mat2(u, 1, 0, u ** -1)
    B = Mat2(u ** 2, 0, -((u ** 2 + 1) * q * u ** -3), u ** -2)
    C = Mat2(u, 0, -(q * u ** -2), u ** -1)
    return Family("gamma3p_fam2", CTX_U, assignment={"a": A, "b": B, "c": C},
                  presentation=PRESENTATIONS["gamma3p"])


_BUILDERS: dict[str, Callable[[], Family]] = {
    "rho1": _rho1, "rho2": _rho2, "rho3": _rho3, "rho4": _rho4,
    "identity": _identity_family,
    "line_case1": _line_case1, "line_case2": _line_case2,
    "line_case3a": _line_case3a, "line_case3b": _line_case3b,
    "plane_case1": _plane_case1, "plane_case2": _plane_case2,
    "plane_case3": _plane_case3,
    "b3_nonrigid": _b3_nonrigid, "b4_family": _b4_family,
    "gamma3_finite": _gamma3_finite,
    "gamma3p_fam1": _gamma3p_fam1, "gamma3p_fam2": _gamma3p_fam2,
}

FAMILY_NAMES = tuple(_BUILDERS)


def builtin_family(name: str) -> Family:
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise KeyError(f"unknown family {name!r}; known: {', '.join(FAMILY_NAMES)}")
    return builder()


def restriction_assignment(case: str) -> dict[str, Mat2]:
    """Generator binding for the restriction words of each curve case.

    The two-letter word lists of cases 3(a) and 3(b) are written in the
    letters (a, b) with b the order-two local monodromy, which is the
    generator called c in the plane presentation; the binding accounts
    for that renaming.
    """
    if case == "case1":
        return builtin_family("plane_case1").assignment
    if case == "case2":
        return builtin_family("plane_case2").assignment
    if case in ("case3a", "case3b"):
        plane = builtin_family("plane_case3").assignment
        return {"a": plane["a"], "b": plane["c"]}
    raise KeyError(f"unknown case {case!r}")
