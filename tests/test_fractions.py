"""Factored fractions: arithmetic, equality, reduction, derivatives."""

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from quintic_garnier import fractions as kernel
from quintic_garnier.connections import B_UV
from quintic_garnier.fractions import (FACTOR_MEMO_CAP, BasisError, DenomBasis,
                                       FactoredFraction, Substitution, frac_eq)
from quintic_garnier.ring import ContextError, LaurentPoly, VarContext

UV = VarContext(["u", "v"])
u = UV.var("u")
v = UV.var("v")
B = DenomBasis(UV, [u - v, u + v, v - 1], names=["u-v", "u+v", "v-1"])
# six factors, as the connections benchmark's law cases use
BUV = DenomBasis(UV, [u - 1, u + 1, v - 1, v + 1, u - v, u + v])


def test_factorization_identity():
    # (u^2 - v^2)/(u - v) equals u + v
    x = B.over(u ** 2 - v ** 2, u - v)
    y = B.of(u + v)
    assert frac_eq(x, y)


def test_of_rejects_a_factor_index_outside_the_basis():
    # a negative index would otherwise count from the end of the basis
    assert B.of(u, {2: 1}).exps == (0, 0, 1)
    for index in (-1, 3):
        with pytest.raises(IndexError):
            B.of(u, {index: 1})


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
    got = Substitution(UV, img, tgt).fraction(f)
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


def _written_power(basis, exps):
    """``prod(f_i^e_i)`` multiplied out here, without the basis memo."""
    p = basis.ctx.one()
    for f, e in zip(basis.factors, exps):
        p = p * f ** e
    return p


def test_derivative_differentiates_each_factor_once_per_variable(monkeypatch):
    calls = Counter()
    derivative = LaurentPoly.derivative

    def counted(self, name):
        calls[(id(self), name)] += 1
        return derivative(self, name)
    monkeypatch.setattr(LaurentPoly, "derivative", counted)
    memo = DenomBasis(UV, B.factors)
    rng = random.Random(22)
    for _ in range(12):
        x = FactoredFraction(memo, _random_frac(rng).num, (1, 2, 1))
        for name in ("u", "v"):
            x.derivative(name)
    factors = set(map(id, B.factors))
    assert {k: n for k, n in calls.items() if k[0] in factors} == {
        (id(f), n): 1 for f in B.factors for n in ("u", "v")}


def test_power_memo_stops_growing_at_its_cap(monkeypatch):
    monkeypatch.setattr(kernel, "FACTOR_MEMO_CAP", 4)
    memo = DenomBasis(UV, B.factors)
    for _ in range(2):
        for exps in itertools.product(range(3), repeat=3):
            assert memo.power(exps) == _written_power(B, exps)
    assert len(memo._powers) == 4


def _loop_derivative(x, name):
    """The quotient rule as one loop over the contributing factors, a frozen
    copy of ``FactoredFraction.derivative`` before the basis part was
    remembered per exponent vector, summed by plain ring arithmetic."""
    if x.is_zero():
        return x
    dn = x.num.derivative(name)
    present = [(i, f, df) for i, (f, e) in enumerate(zip(x.basis.factors, x.exps))
               for df in [f.derivative(name)] if e and df]
    exps = list(x.exps)
    out = x.ctx.zero()
    for i, f, df in present:
        exps[i] += 1
        dn = dn * f
        t = x.num * df
        for j, g, _ in present:
            if j != i:
                t = t * g
        out = out - x.exps[i] * t
    return FactoredFraction(x.basis, out + dn, tuple(exps))


def test_derivative_matches_the_loop_it_replaced():
    rng = random.Random(24)
    for factors in (B.factors, BUV.factors):
        memo = DenomBasis(UV, factors)
        cases = [FactoredFraction(memo, _random_frac(rng).num,
                                  tuple(rng.randint(0, 3) for _ in factors))
                 for _ in range(40)]
        # a constant numerator, and v - 1 (index 2 in both bases) alone,
        # whose partial by u is zero
        rest = len(factors) - 2
        cases += [FactoredFraction(memo, UV.const(Fraction(-3, 2)), (1, 2) + (3,) * rest),
                  FactoredFraction(memo, u * v, (0, 0, 2) + (0,) * (rest - 1))]
        for _ in range(2):  # the second round reads the memo
            for x in cases:
                for name in ("u", "v"):
                    got, want = x.derivative(name), _loop_derivative(x, name)
                    assert (got.num, got.exps) == (want.num, want.exps), (x, name)
        assert cases[-1].derivative("u").exps == cases[-1].exps


def test_quotient_rule_memo_stops_growing_at_its_cap(monkeypatch):
    monkeypatch.setattr(kernel, "FACTOR_MEMO_CAP", 4)
    memo = DenomBasis(UV, B.factors)
    for _ in range(2):
        for exps in itertools.product(range(3), repeat=3):
            x = FactoredFraction(memo, u - 2 * v ** -1, exps)
            for name in ("u", "v"):
                got, want = x.derivative(name), _loop_derivative(x, name)
                assert (got.num, got.exps) == (want.num, want.exps)
    assert len(memo._rules) == 4


def test_repeated_exponents_make_two_products(monkeypatch):
    memo = DenomBasis(UV, BUV.factors)
    exps = (1, 0, 2, 1, 3, 1)
    calls = [0]
    mul = LaurentPoly.__mul__

    def counted(self, other):
        calls[0] += 1
        return mul(self, other)
    x = FactoredFraction(memo, u - v ** 2, exps)
    y = FactoredFraction(memo, 3 * u ** 2 * v + v ** -1, exps)
    for name in ("u", "v"):
        x.derivative(name)
        monkeypatch.setattr(LaurentPoly, "__mul__", counted)
        calls[0] = 0
        y.derivative(name)
        assert calls[0] == 2, name
        monkeypatch.undo()


def test_derivative_by_the_extension_variable_memoizes_nothing():
    ctx = VarContext(["r", "s"], extension=("r", [-2, 0]))
    r, s = ctx.var("r"), ctx.var("s")
    memo = DenomBasis(ctx, [s - 1, s - r])
    x = FactoredFraction(memo, r * s, (1, 2))
    with pytest.raises(ContextError):
        x.derivative("r")
    assert memo._rules == {}


def test_zero_and_unit_products_return_an_operand():
    f = B.of(u - 2 * v ** -1, {0: 1, 2: 2})
    assert f * B.one() is f and B.one() * f is f and f * 1 is f
    zero = B.zero()
    assert f * zero is zero and zero * f is zero
    assert (zero.num, zero.exps) == (UV.zero(), (0, 0, 0))
    # a one that carries a denominator is multiplied out
    g = FactoredFraction(B, u - v, (1, 0, 0))
    assert (f * g).exps == (2, 0, 2) and frac_eq(f * g, f)


def test_common_matches_the_written_out_products():
    rng = random.Random(23)
    for k in range(40):
        x = _random_frac(rng)
        y = _random_frac(rng)
        if k % 2:  # every other pair shares its exponent vector
            y = FactoredFraction(B, y.num, x.exps)
        m = tuple(max(a, b) for a, b in zip(x.exps, y.exps))
        want = (x.num * _written_power(B, [a - e for a, e in zip(m, x.exps)]),
                y.num * _written_power(B, [a - e for a, e in zip(m, y.exps)]), m)
        assert x._common(y) == want


def test_basis_refusals_name_the_factor_as_serialized():
    """A monomial factor and a factor outside the basis are named by
    ``serialize_poly``, as :meth:`DenomBasis.factor_over` names its
    residual."""
    with pytest.raises(BasisError,
                       match=r"^monomial factor 2\*u\^1 belongs in the numerator$"):
        DenomBasis(UV, [u - v, 2 * u])
    with pytest.raises(BasisError, match=r"^factor 1\*u\^1 \+ 1 not in basis$"):
        B.over(1, u - v, u + 1)
