"""Frozen expected data shared by the orbit and acceptance tests.

The four 4-element orbit listings are stored as explicit 15-coordinate
tuples.  Every entry is a sum of at most two Laurent monomials, so they are
built directly from the parameter variables.  One coordinate (t5 of the
fourth rho1 element) is stored with the sign forced by invariance of the
five local traces under pure braids; see the decisions ledger.
"""

import random
from fractions import Fraction

from quintic_garnier.families import CTX_S, CTX_UV
from quintic_garnier.reps import RepTuple, TraceTuple
from quintic_garnier.sl2 import Mat2

u, v = CTX_UV.var("u"), CTX_UV.var("v")
s = CTX_S.var("s")


def _A(x):
    return x + x ** -1


def _T(*vals):
    return TraceTuple(list(vals))


def rho1_listing():
    z, two = CTX_UV.zero(), CTX_UV.const(2)
    Av, Au, Buv = _A(v), _A(u), _A(u * v)
    Duv = u * v ** -1 + u ** -1 * v
    Cu, Cv = _A(u ** 2), _A(v ** 2)
    Cuv = u ** 2 * v ** -2 + u ** -2 * v ** 2
    E = u ** 2 * v ** -1 + u ** -2 * v
    F = u * v ** -2 + u ** -1 * v ** 2
    return [
        _T(Av, Au, z, z, -Duv, Buv, z, z, z, z, -Cu, z, z, -E, -Au),
        _T(Av, Au, z, z, -Duv, Duv, z, z, z, z, -Cuv, z, z, -E, -F),
        _T(Av, Au, z, z, -Duv, Duv, z, z, z, z, -two, z, z, -Av, -Au),
        _T(Av, Au, z, z, -Duv, Buv, z, z, z, z, -Cv, z, z, -Av, -F),
    ]


def rho2_listing():
    z, two = CTX_UV.zero(), CTX_UV.const(2)
    Av, Au, Buv = _A(v), _A(u), _A(u * v)
    Duv = u * v ** -1 + u ** -1 * v
    Cv = _A(v ** 2)
    F = u * v ** -2 + u ** -1 * v ** 2
    G = _A(u * v ** 2)
    return [
        _T(z, Av, Au, Av, z, z, z, z, Buv, Cv, Buv, z, z, z, G),
        _T(z, Av, Au, Av, z, z, z, z, Buv, two, Duv, z, z, z, Au),
        _T(z, Av, Au, Av, z, z, z, z, Duv, Cv, Duv, z, z, z, F),
        _T(z, Av, Au, Av, z, z, z, z, Duv, two, Buv, z, z, z, Au),
    ]


def rho3_listing():
    z, two = CTX_S.zero(), CTX_S.const(2)
    As, Cs, Hs = _A(s), _A(s ** 2), s ** 3 + s ** -3
    return [
        _T(z, z, As, As, -As, -As, z, z, z, z, two, -Cs, -two, z, z),
        _T(z, z, As, As, -As, -As, z, z, z, z, Cs, -two, -two, z, z),
        _T(z, z, As, As, -As, -Hs, z, z, z, z, Cs, -Cs, -Cs, z, z),
        _T(z, z, As, As, -As, -As, z, z, z, z, two, -two, -Cs, z, z),
    ]


def rho4_listing():
    z, two = CTX_S.zero(), CTX_S.const(2)
    As, Cs, Hs = _A(s), _A(s ** 2), s ** 3 + s ** -3
    return [
        _T(z, As, As, As, z, z, z, z, Cs, two, two, z, z, z, As),
        _T(z, As, As, As, z, z, z, z, Cs, Cs, Cs, z, z, z, Hs),
        _T(z, As, As, As, z, z, z, z, two, two, Cs, z, z, z, As),
        _T(z, As, As, As, z, z, z, z, two, Cs, two, z, z, z, As),
    ]


LISTINGS = {
    "rho1": rho1_listing,
    "rho2": rho2_listing,
    "rho3": rho3_listing,
    "rho4": rho4_listing,
}

EXTENDED_SIZES = {"rho1": 240, "rho2": 120, "rho3": 120, "rho4": 40}


def random_monomial_matrix(rng: random.Random, ctx=CTX_UV) -> Mat2:
    """Random unimodular monomial matrix: diagonal or antidiagonal."""
    m = ctx.monomial(rng.choice([1, -1, 2, Fraction(1, 2)]),
                     {n: rng.randint(-2, 2) for n in ("u", "v")})
    if rng.random() < 0.5:
        return Mat2.diagonal(m)
    return Mat2.antidiagonal(m)


def random_rep_tuple(rng: random.Random, ctx=CTX_UV) -> RepTuple:
    return RepTuple(*(random_monomial_matrix(rng, ctx) for _ in range(4)))


def random_unipotent(rng: random.Random, ctx) -> Mat2:
    """[[1, m], [0, 1]] or [[1, 0], [m, 1]] for a random signed unit monomial m."""
    m = ctx.monomial(rng.choice([1, -1]),
                     {n: rng.randint(-2, 2) for n in ctx.names})
    one, zero = ctx.one(), ctx.zero()
    return Mat2(one, m, zero, one) if rng.random() < 0.5 else Mat2(one, zero, m, one)
