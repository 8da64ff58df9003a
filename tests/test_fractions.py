"""Factored fractions: arithmetic, equality, reduction, derivatives."""

import random
from fractions import Fraction

import pytest

from quintic_garnier.fractions import BasisError, DenomBasis, FactoredFraction, frac_eq
from quintic_garnier.ring import LaurentPoly, VarContext

UV = VarContext(["u", "v"])
u = UV.var("u")
v = UV.var("v")
B = DenomBasis(UV, [u - v, u + v, v - 1], names=["u-v", "u+v", "v-1"])


def test_factorization_identity():
    # (u^2 - v^2)/(u - v) equals u + v
    x = B.over(u ** 2 - v ** 2, u - v)
    y = B.of(u + v)
    assert frac_eq(x, y)


def test_distinct_simple_poles_differ():
    assert not frac_eq(B.over(UV.one(), v - 1), B.over(UV.one(), u - v))


def test_product_of_squares():
    # ((v-1)^2 (u+v)^2)/16 equals the product of its two square halves
    XY = VarContext(["a", "c"])
    a, c = XY.var("a"), XY.var("c")
    AB = DenomBasis(XY, [c - 1, c + 1])
    lhs = AB.of((c - 1) ** 2 * (c + 1) ** 2 * Fraction(1, 16) * a ** -4)
    t1 = AB.of(Fraction(1, 4) * (c - 1) ** 2 * a ** -2)
    t2 = AB.of(Fraction(1, 4) * (c + 1) ** 2 * a ** -2)
    assert frac_eq(lhs, t1 * t2)


def test_inverse_and_reduce():
    f = B.over(u ** 2 - v ** 2, v - 1)
    g = f.inverse()
    assert frac_eq(f * g, B.one())
    red = B.over((u - v) * (u + v), u - v, u + v).reduce()
    assert red.exps == (0, 0, 0)
    assert red.num == UV.one()


def test_inverse_needs_basis_factorization():
    with pytest.raises(BasisError):
        B.of(u + 1).inverse()


def test_frac_eq_is_congruence():
    rng = random.Random(3)
    for _ in range(200):
        x = _random_frac(rng)
        y = _random_frac(rng)
        z = _random_frac(rng)
        assert frac_eq(x, x)
        if frac_eq(x, y):
            assert frac_eq(y, x)
        # congruence: replace x by an equal rewriting and compare through ops
        x_alt = FactoredFraction(B, x.num * (u - v), tuple(e + (1 if i == 0 else 0)
                                                           for i, e in enumerate(x.exps)))
        assert frac_eq(x_alt, x)
        assert frac_eq(x_alt + z, x + z)
        assert frac_eq(x_alt * y, x * y)


def test_derivative_quotient_rule():
    # d/dv [1/(v-1)] = -1/(v-1)^2
    f = B.over(UV.one(), v - 1)
    df = f.derivative("v")
    assert frac_eq(df, B.of(-UV.one(), {2: 2}))
    # derivative of a Laurent monomial keeps exactness
    g = B.of(u ** -2)
    assert frac_eq(g.derivative("u"), B.of(-2 * u ** -3))


def test_substitute_into_fraction():
    # 1/(u - v) under u -> uv, v -> v gives 1/(v(u-1)) = v^-1 / (u-1)
    ctx2 = VarContext(["u", "v"])
    u2, v2 = ctx2.var("u"), ctx2.var("v")
    tgt = DenomBasis(ctx2, [u2 - 1, u2 + 1])
    f = B.over(UV.one(), u - v)
    img = {"u": tgt.of(u2 * v2), "v": tgt.of(v2)}
    got = f.substitute(img, tgt)
    assert frac_eq(got, tgt.over(v2 ** -1, u2 - 1))


def _random_frac(rng):
    terms = {}
    for _ in range(rng.randint(0, 3)):
        e = tuple(rng.randint(-2, 2) for _ in range(2))
        terms[e] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    num = LaurentPoly(UV, terms)
    exps = tuple(rng.randint(0, 2) for _ in range(3))
    return FactoredFraction(B, num, exps)


def test_power_matches_repeated_multiplication():
    f = B.of(u - 2 * v ** -1, {0: 1, 2: 2})
    for n in range(6):
        expected = B.one()
        for _ in range(n):
            expected = expected * f
        got = f ** n
        assert frac_eq(got, expected)
        assert (got.num, got.exps) == (expected.num, expected.exps)
    g = B.of(-3 * u ** 2 * (u + v), {1: 2, 2: 1})
    assert frac_eq(g ** -2, (g * g).inverse())


def test_negative_exponents_fold_into_the_numerator():
    X = VarContext(["x"])
    x = X.var("x")
    BX = DenomBasis(X, [x - 1])
    a = FactoredFraction(BX, x, (-1,))
    b = FactoredFraction(BX, x * (x - 1))
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert (a.num, a.exps) == (b.num, b.exps)


def test_every_constructor_gives_nonnegative_exponents():
    f = B.of(u ** 2 - v ** 2, {0: -1, 1: 2, 2: -2})
    g = B.over(u - v, v - 1)
    built = [f, g, FactoredFraction(B, u + 1, (-2, 0, 1)), f.inverse(),
             g.inverse(), f ** 3, f ** -2, g ** -1, f / g, g * f.inverse()]
    for h in built:
        assert all(e >= 0 for e in h.exps), h
    assert frac_eq(f, B.of((u ** 2 - v ** 2) * (u - v) * (v - 1) ** 2, {1: 2}))
