"""Factored fractions: arithmetic, equality, reduction, derivatives."""

import random
from fractions import Fraction

import pytest

from quintic_garnier import fractions as kernel
from quintic_garnier.connections import B_UV
from quintic_garnier.fractions import (FACTOR_MEMO_CAP, BasisError, DenomBasis,
                                       FactoredFraction, frac_eq)
from quintic_garnier.ring import ContextError, LaurentPoly, VarContext

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


@pytest.fixture
def divisions(monkeypatch):
    """Counts the ``exact_divide`` calls that ``quintic_garnier.fractions`` makes."""
    calls = [0]
    divide = kernel.exact_divide

    def counted(p, f):
        calls[0] += 1
        return divide(p, f)
    monkeypatch.setattr(kernel, "exact_divide", counted)
    return calls


def test_factor_memo_matches_a_fresh_basis(divisions):
    ctx = B_UV.ctx
    memo = DenomBasis(ctx, B_UV.factors, B_UV.names)
    rng = random.Random(21)
    for _ in range(40):
        unit = ctx.monomial(Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 4)),
                            {n: rng.randint(-2, 2) for n in ctx.names})
        ks = tuple(rng.randint(0, 2) for _ in memo.factors)
        p = unit
        for f, k in zip(memo.factors, ks):
            p = p * f ** k
        for call in ("first", "second"):
            same = LaurentPoly(ctx, dict(p.terms))  # equal, not identical
            divisions[0] = 0
            got = memo.factor_over(same)
            cost = divisions[0]
            assert got == DenomBasis(ctx, B_UV.factors).factor_over(p) == (unit, ks)
            assert (cost > 0) if call == "first" else (cost == 0), call


def test_factor_memo_stores_no_failure(divisions):
    memo = DenomBasis(UV, B.factors)
    p = (u + 2) * (u - v) ** 2
    costs = []
    for _ in range(3):
        divisions[0] = 0
        with pytest.raises(BasisError) as err:
            memo.factor_over(p)
        assert err.value.residual == u + 2
        costs.append(divisions[0])
    assert costs[0] > 0 and costs == [costs[0]] * 3


def test_factor_memo_keeps_extension_contexts_apart():
    # Q[r]/(r^2 - 2) and Q[r]/(r^2 - 3) share their variable names, so
    # their polynomials hash alike, but they never compare equal
    ctx2 = VarContext(["r", "s"], extension=("r", [-2, 0]))
    ctx3 = VarContext(["r", "s"], extension=("r", [-3, 0]))
    r, s = ctx2.var("r"), ctx2.var("s")
    memo = DenomBasis(ctx2, [s - 1])
    p2 = r * (s - 1) ** 2
    p3 = LaurentPoly(ctx3, dict(p2.terms))
    assert hash(p3) == hash(p2) and p3 != p2
    assert memo.factor_over(p2) == (r, (2,))
    with pytest.raises(ContextError):
        memo.factor_over(p3)


def test_factor_memo_stops_growing_at_its_cap():
    memo = DenomBasis(UV, B.factors)
    for k in range(1, FACTOR_MEMO_CAP + 6):
        inv = memo.const(k).inverse()
        assert (inv.num, inv.exps) == (UV.const(Fraction(1, k)), (0, 0, 0))
    assert len(memo._factored) == FACTOR_MEMO_CAP
