"""Differential forms: d, wedge, pullback, and their algebraic laws."""

import random
from fractions import Fraction

import pytest

from quintic_garnier.forms import (MobiusAction, RationalMap, ScalarOneForm,
                                   ScalarTwoForm, divisor_pullback)
from quintic_garnier.fractions import (BasisError, DenomBasis, FactoredFraction,
                                       eval_poly, frac_eq, serialize_frac)
from quintic_garnier.ring import LaurentPoly, VarContext

XY = VarContext(["x", "y"])
x, y = XY.var("x"), XY.var("y")
BXY = DenomBasis(XY, [y - 1, x ** 2 - y], names=["y-1", "x2-y"])

UV = VarContext(["u", "v"])
u, v = UV.var("u"), UV.var("v")
BUV = DenomBasis(UV, [u - 1, u + 1, v - 1, v + 1, u - v, u + v],
                 names=["u-1", "u+1", "v-1", "v+1", "u-v", "u+v"])

# affine double cover (u, v) -> (u, v^2) and the elementary transform (u, v) -> (uv, v)
PI = RationalMap("pi", BUV, BXY, ("u", "v"), ("x", "y"),
                 {"x": BUV.of(u), "y": BUV.of(v ** 2)})
BMAP = RationalMap("b", BUV, BUV, ("u", "v"), ("u", "v"),
                   {"u": BUV.of(u * v), "v": BUV.of(v)})
# the birational map (u, v) -> (uv/(u-1), v/(u-1)), whose images have a
# denominator, so a pulled-back polynomial can share a factor with it
MOVE = RationalMap("m", BUV, BXY, ("u", "v"), ("x", "y"),
                   {"x": BUV.of(u * v, {0: 1}), "y": BUV.of(v, {0: 1})})


def one_form(A, B, basis=BXY, base=("x", "y")):
    return ScalarOneForm(basis, base, A, B)


def test_d_of_logarithmic_form_is_zero():
    # d(dy/y) = 0
    w = one_form(BXY.zero(), BXY.of(y ** -1))
    assert w.d().is_zero()


def test_d_of_x_dy():
    w = one_form(BXY.zero(), BXY.of(x))
    assert frac_eq(w.d().coeff, BXY.one())


def test_wedge_antisymmetry_and_dx_dy():
    w = one_form(BXY.of(x), BXY.of(y ** 2 - x))
    assert w.wedge(w).is_zero()
    dx = one_form(BXY.one(), BXY.zero())
    dy = one_form(BXY.zero(), BXY.one())
    assert frac_eq(dx.wedge(dy).coeff, BXY.one())


def test_wedge_of_simple_pole_pair():
    # du/(u-v) ^ dv/(u+v) has coefficient 1/((u-v)(u+v))
    a = ScalarOneForm(BUV, ("u", "v"), BUV.over(UV.one(), u - v), BUV.zero())
    b = ScalarOneForm(BUV, ("u", "v"), BUV.zero(), BUV.over(UV.one(), u + v))
    got = a.wedge(b).coeff
    assert frac_eq(got, BUV.over(UV.one(), u - v, u + v))


def test_pullback_log_derivative():
    # pullback of dy/y under (u, v) -> (u, v^2) is 2dv/v
    w = one_form(BXY.zero(), BXY.of(y ** -1))
    got = PI.pull_one_form(w)
    assert frac_eq(got.A, BUV.zero())
    assert frac_eq(got.B, BUV.of(2 * v ** -1))


def test_pullback_of_divisor_functions():
    unit, factors = divisor_pullback(x ** 2 - y, PI,
                                     {"u-v": u - v, "u+v": u + v, "v": v})
    assert factors == {"u-v": 1, "u+v": 1}
    assert unit.is_one()
    unit, factors = divisor_pullback(y - 1, PI,
                                     {"v-1": v - 1, "v+1": v + 1})
    assert factors == {"v-1": 1, "v+1": 1}
    unit, factors = divisor_pullback(y, PI, {"v": v})
    assert factors == {"v": 2}


def test_divisor_pullback_under_elementary_transform():
    # u -+ v become v*(u -+ 1)
    for s, name in [(1, "u-1"), (-1, "u+1")]:
        unit, factors = divisor_pullback(u - s * v, BMAP,
                                         {"u-1": u - 1, "u+1": u + 1, "v": v})
        assert factors == {name: 1, "v": 1}
        assert unit.is_one()


def test_divisor_pullback_reports_residual():
    with pytest.raises(BasisError):
        divisor_pullback(x ** 2 - y, PI, {"v": v})


def test_divisor_pullback_reduces_the_pulled_back_value():
    # x - y pulls back to v(u-1)/(u-1): a denominator factor outside the
    # declared list that only the reduction cancels
    pulled = eval_poly(x - y, MOVE.subs, BUV)
    assert pulled.exps == (1, 0, 0, 0, 0, 0) and pulled.num == v * (u - 1)
    unit, factors = divisor_pullback(x - y, MOVE, {"v": v})
    assert factors == {"v": 1} and unit.is_one()


def test_unreduced_results_observe_as_reduced():
    # derivative, substitute and eval_poly return fractions that need not
    # be in lowest terms; every observation must match the reduced value
    rng = random.Random(29)
    unreduced = {"derivative": 0, "substitute": 0, "eval_poly": 0}
    for _ in range(300):
        f, g = _random_frac(rng), _random_frac_uv(rng)
        cases = [("derivative", f.derivative("x")),
                 ("derivative", f.derivative("y")),
                 ("substitute", f.substitute(PI.subs, BUV)),
                 ("substitute", g.substitute(BMAP.subs, BUV)),
                 ("eval_poly", eval_poly(f.num, PI.subs, BUV)),
                 ("eval_poly", eval_poly(f.num, MOVE.subs, BUV))]
        for op, got in cases:
            red = got.reduce()
            assert serialize_frac(got) == serialize_frac(red)
            assert hash(got) == hash(red)
            assert got == red and red == got
            unreduced[op] += (got.num, got.exps) != (red.num, red.exps)
    # each operation really left some value unreduced
    assert all(unreduced.values()), unreduced


def test_divisor_pullback_of_zero_raises():
    # zero divides by every declared factor; the divide-out must not loop
    with pytest.raises(BasisError, match="zero polynomial"):
        divisor_pullback(XY.zero(), PI, {"u-v": u - v})


def test_d_squared_zero_randomized():
    rng = random.Random(5)
    for _ in range(1000):
        f = _random_frac(rng)
        w = ScalarOneForm.d_of(f, ("x", "y"))
        assert w.d().is_zero()


def test_leibniz_randomized():
    rng = random.Random(9)
    for _ in range(1000):
        f = _random_frac(rng)
        w = one_form(_random_frac(rng), _random_frac(rng))
        lhs = (w * f).d()
        df = ScalarOneForm.d_of(f, ("x", "y"))
        rhs = df.wedge(w) + ScalarTwoForm(BXY, ("x", "y"), f * w.d().coeff)
        assert lhs == rhs


def test_pullback_commutes_with_d():
    rng = random.Random(13)
    for phi in (PI, BMAP):
        for _ in range(500):
            if phi is PI:
                w = one_form(_random_frac(rng), _random_frac(rng))
            else:
                # denominators from the sub-basis this map preserves
                w = ScalarOneForm(BUV, ("u", "v"), _random_frac_uv(rng),
                                  _random_frac_uv(rng))
            lhs = phi.pull_two_form(w.d())
            rhs = phi.pull_one_form(w).d()
            assert lhs == rhs


def test_pullback_functoriality():
    rng = random.Random(17)
    comp = PI.compose(BMAP)  # (u, v) -> (uv, v) -> (uv, v^2)
    for _ in range(500):
        w = one_form(_random_frac(rng), _random_frac(rng))
        assert BMAP.pull_one_form(PI.pull_one_form(w)) == comp.pull_one_form(w)


def _random_frac(rng):
    terms = {}
    for _ in range(rng.randint(0, 2)):
        e = tuple(rng.randint(-2, 2) for _ in range(2))
        terms[e] = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
    num = LaurentPoly(XY, terms)
    exps = (rng.randint(0, 1), rng.randint(0, 1))
    return FactoredFraction(BXY, num, exps)


def _random_frac_uv(rng):
    terms = {}
    for _ in range(rng.randint(0, 2)):
        e = tuple(rng.randint(-2, 2) for _ in range(2))
        terms[e] = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
    num = LaurentPoly(UV, terms)
    # only v-1, v+1, u-v, u+v: the factors the elementary transform preserves
    exps = (0, 0) + tuple(rng.randint(0, 1) for _ in range(4))
    return FactoredFraction(BUV, num, exps)
