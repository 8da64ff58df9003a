"""Induced representations: plane families restricted to a generic line."""

from quintic_garnier.braids import extended_orbit
from quintic_garnier.families import (CTX_T, CTX_UV, RESTRICTION_WORDS,
                                      builtin_family, restriction_assignment)
from quintic_garnier.reps import (RepTuple, induced_representation,
                                  trace_coordinates)
from quintic_garnier.sl2 import GroupWord, Mat2


def test_case2_words_reproduce_rho2_exactly():
    rep = induced_representation(RESTRICTION_WORDS["case2"],
                                 restriction_assignment("case2"))
    target = builtin_family("rho2").rep
    # parameter roles: the line-case tuple carries (v, u, v) diagonals
    assert trace_coordinates(rep) == trace_coordinates(target)
    assert rep.m5 == builtin_family("line_case2").five[4]


def test_constant_words_give_identity_tuple():
    a = GroupWord.gen("a")
    rep = induced_representation([a, a, a, a],
                                 {"a": Mat2.identity(CTX_UV)})
    assert rep == RepTuple.identity(CTX_UV)


def test_case3a_words_match_line_row_at_trace_level():
    rep = induced_representation(RESTRICTION_WORDS["case3a"],
                                 restriction_assignment("case3a"))
    # line_case3a lives in the u variable; the plane family in t
    row = builtin_family("line_case3a").rep
    t = CTX_T.var("t")
    row_in_t = trace_coordinates(row).substitute({"u": t}, CTX_T)
    assert trace_coordinates(rep) == row_in_t


def test_case3b_words_match_line_row_at_trace_level():
    rep = induced_representation(RESTRICTION_WORDS["case3b"],
                                 restriction_assignment("case3b"))
    row = builtin_family("line_case3b").rep
    t = CTX_T.var("t")
    row_in_t = trace_coordinates(row).substitute({"u": t}, CTX_T)
    assert trace_coordinates(rep) == row_in_t


def test_case1_words_land_in_the_extended_orbit_of_rho1():
    rep = induced_representation(RESTRICTION_WORDS["case1"],
                                 restriction_assignment("case1"))
    # same class up to a puncture reordering: an extended-orbit member
    ext = extended_orbit(builtin_family("rho1").rep, seed_name="rho1")
    assert trace_coordinates(rep) in ext.element_set()
    assert rep.m5 == builtin_family("line_case1").five[4]
