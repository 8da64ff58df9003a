"""Differential forms: d, wedge, pullback, and their algebraic laws."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from quintic_garnier import fractions as kernel
from quintic_garnier.connections import (B_INF, B_XY, lower_left_form, map_cover,
                                         map_cover_bar, map_infinity_chart,
                                         map_involution)
from quintic_garnier.forms import (MobiusAction, RationalMap, ScalarOneForm,
                                   ScalarTwoForm, divisor_pullback)
from quintic_garnier.fractions import (BasisError, DenomBasis, FactoredFraction,
                                       Substitution, eval_poly, frac_eq,
                                       serialize_frac)
from quintic_garnier.ring import ContextError, LaurentPoly, VarContext

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
    unit, factors = divisor_pullback(PI.pull(x ** 2 - y),
                                     {"u-v": u - v, "u+v": u + v, "v": v})
    assert factors == {"u-v": 1, "u+v": 1}
    assert unit.is_one()
    unit, factors = divisor_pullback(PI.pull(y - 1),
                                     {"v-1": v - 1, "v+1": v + 1})
    assert factors == {"v-1": 1, "v+1": 1}
    unit, factors = divisor_pullback(PI.pull(y), {"v": v})
    assert factors == {"v": 2}


def test_divisor_pullback_under_elementary_transform():
    # u -+ v become v*(u -+ 1)
    for s, name in [(1, "u-1"), (-1, "u+1")]:
        unit, factors = divisor_pullback(BMAP.pull(u - s * v),
                                         {"u-1": u - 1, "u+1": u + 1, "v": v})
        assert factors == {name: 1, "v": 1}
        assert unit.is_one()


def test_divisor_pullback_reports_residual():
    with pytest.raises(BasisError):
        divisor_pullback(PI.pull(x ** 2 - y), {"v": v})


def test_divisor_pullback_reduces_the_pulled_back_value():
    # x - y pulls back to v(u-1)/(u-1): a denominator factor outside the
    # declared list that only the reduction cancels
    pulled = eval_poly(x - y, MOVE.subs, BUV)
    assert pulled.exps == (1, 0, 0, 0, 0, 0) and pulled.num == v * (u - 1)
    unit, factors = divisor_pullback(pulled, {"v": v})
    assert factors == {"v": 1} and unit.is_one()


def test_unreduced_results_observe_as_reduced():
    # derivative, Substitution.fraction and eval_poly return fractions that
    # need not be in lowest terms; every observation must match the reduced
    # value
    rng = random.Random(29)
    unreduced = {"derivative": 0, "fraction": 0, "eval_poly": 0}
    for _ in range(300):
        f, g = _random_frac(rng), _random_frac_uv(rng)
        cases = [("derivative", f.derivative("x")),
                 ("derivative", f.derivative("y")),
                 ("fraction", Substitution(XY, PI.subs, BUV).fraction(f)),
                 ("fraction", Substitution(UV, BMAP.subs, BUV).fraction(g)),
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
        divisor_pullback(PI.pull(XY.zero()), {"u-v": u - v})


def test_divisor_pullback_clears_a_pulled_denominator():
    """1/(y-1) pulls back under (u, v) -> (u, v^2) to 1/((v-1)(v+1)): each
    declared denominator factor counts with a negative exponent, and one
    outside the declared list is refused by name."""
    cover, y_xy = map_cover(), B_XY.ctx.var("y")
    v_c = cover.src.ctx.var("v")
    pulled = cover.pull(B_XY.over(B_XY.ctx.one(), y_xy - 1))
    unit, factors = divisor_pullback(pulled, {"v-1": v_c - 1, "v+1": v_c + 1})
    assert factors == {"v-1": -1, "v+1": -1} and unit.is_one()
    with pytest.raises(BasisError, match=r"outside declared list: 1\*v\^1 \+ 1$"):
        divisor_pullback(pulled, {"v-1": v_c - 1})
    with pytest.raises(BasisError, match="declared monomial divisor 'v' has a pole"):
        divisor_pullback(cover.pull(y_xy), {"v": v_c ** -1})


def test_two_forms_refuse_the_other_base_order():
    """c dx^dy = -c dy^dx, so two-forms over the two orders of one basis
    neither compare nor add, as one-forms over different bases do not."""
    c = BXY.of(x)
    xy, yx = ScalarTwoForm(BXY, ("x", "y"), c), ScalarTwoForm(BXY, ("y", "x"), c)
    assert xy == ScalarTwoForm(BXY, ("x", "y"), c)
    for op in (lambda a, b: a == b, lambda a, b: a + b, lambda a, b: a - b):
        with pytest.raises(ContextError, match="forms live on different bases"):
            op(xy, yx)


def test_rational_map_refusals():
    """A map needs an image of each target base variable and an invertible
    fiber action, and composes only with a map into its source."""
    with pytest.raises(ContextError, match="missing substitution for target variable 'y'"):
        RationalMap("pi", BUV, BXY, ("u", "v"), ("x", "y"), {"x": BUV.of(u)})
    flat = MobiusAction(BUV.one(), BUV.one(), BUV.one(), BUV.one())
    with pytest.raises(ValueError, match="degenerate Moebius fiber action"):
        RationalMap("pi", BUV, BXY, ("u", "v"), ("x", "y"), PI.subs, fiber=flat)
    with pytest.raises(ContextError, match="maps do not compose"):
        PI.compose(PI)
    assert BMAP.compose(BMAP).dst is BUV


def test_compose_refuses_a_fiber_action():
    """The composite of maps with a Moebius fiber action would need the
    composed action; it is refused rather than built without one."""
    for outer, inner in ((map_cover_bar(), map_involution()),
                         (map_cover(), map_involution())):
        with pytest.raises(ValueError, match="maps with a fiber action do not compose"):
            outer.compose(inner)


def test_pullbacks_refuse_a_form_over_another_chart():
    """A pullback reads ``A`` as the coefficient of the first target base
    variable, so a form over the other order or another basis is refused."""
    cover, w = map_cover(), lower_left_form()
    swapped = ScalarOneForm(w.basis, ("y", "x"), w.B, w.A)
    elsewhere = ScalarOneForm.zero(B_INF, ("xt", "yt"))
    refused = "form is not over the target chart of cover"
    for form in (swapped, elsewhere):
        with pytest.raises(ContextError, match=refused):
            cover.pull_one_form(form)
        with pytest.raises(ContextError, match=refused):
            cover.pull_two_form(ScalarTwoForm(form.basis, form.base_vars, form.A))
    assert cover.pull_one_form(w).base_vars == ("u", "v")


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


def _chain_rule_settings():
    """(map, seeded coefficient generator on its target) for the cover, the
    elementary transform, their composite and the chart at infinity."""
    def over_b_xy(rng):
        f = _random_frac(rng)
        num = LaurentPoly(B_XY.ctx, {e + (0, 0): c for e, c in f.num.terms.items()})
        return FactoredFraction(B_XY, num, f.exps)
    return [(PI, _random_frac), (BMAP, _random_frac_uv),
            (PI.compose(BMAP), _random_frac),
            (map_infinity_chart(B_INF, B_XY), over_b_xy)]


def test_pullbacks_match_the_written_out_chain_rule():
    """The oracle for the differentials and the Jacobian a map keeps: the
    chain rule and ``fx_x fy_y - fx_y fy_x``, written out on the images."""
    rng = random.Random(37)
    for phi, coefficient in _chain_rule_settings():
        (X, Y), (x, y) = phi.dst_base, phi.src_base
        fx, fy = phi.subs[X], phi.subs[Y]
        jac = (fx.derivative(x) * fy.derivative(y)
               - fx.derivative(y) * fy.derivative(x))
        for _ in range(40):
            A, B, c = coefficient(rng), coefficient(rng), coefficient(rng)
            omega = ScalarOneForm(phi.dst, phi.dst_base, A, B)
            got = phi.pull_one_form(omega)
            pA, pB = phi.pull(A), phi.pull(B)
            assert frac_eq(got.A, pA * fx.derivative(x) + pB * fy.derivative(x))
            assert frac_eq(got.B, pA * fx.derivative(y) + pB * fy.derivative(y))
            eta = ScalarTwoForm(phi.dst, phi.dst_base, c)
            assert frac_eq(phi.pull_two_form(eta).coeff, phi.pull(c) * jac)


def test_a_map_differentiates_its_images_once(monkeypatch):
    """Building a map differentiates its two base images along both source
    variables; pulling forms back through it differentiates nothing.  The
    forms have constant coefficients, so any call would come from the map."""
    calls = [0]
    derivative = FactoredFraction.derivative

    def counted(self, var):
        calls[0] += 1
        return derivative(self, var)
    monkeypatch.setattr(FactoredFraction, "derivative", counted)
    for phi, _ in _chain_rule_settings():
        calls[0] = 0
        phi = RationalMap(phi.name, phi.src, phi.dst, phi.src_base,
                          phi.dst_base, phi.subs)
        assert calls[0] == 4
        calls[0] = 0
        omega = ScalarOneForm(phi.dst, phi.dst_base, phi.dst.const(2),
                              phi.dst.const(-3))
        phi.pull_one_form(omega)
        phi.pull_two_form(ScalarTwoForm(phi.dst, phi.dst_base,
                                        phi.dst.const(5)))
        assert calls[0] == 0


def test_pullback_memo_matches_a_fresh_map(monkeypatch):
    """One ``cover`` pulls 100 seeded one-forms exactly as a fresh map per
    form does, and its memo computes each (variable, exponent) power of an
    image and each (factor, exponent) pulled inverse once."""
    rng = random.Random(31)

    def coefficient():
        # a numerator of _random_frac in x, y, constant in lam0, lam1
        num = LaurentPoly(B_XY.ctx, {e + (0, 0): c for e, c in
                                     _random_frac(rng).num.terms.items()})
        return FactoredFraction(B_XY, num,
                                tuple(rng.randint(0, 2) for _ in B_XY.factors))

    forms = [one_form(coefficient(), coefficient(), B_XY) for _ in range(100)]
    fresh = [map_cover().pull_one_form(w) for w in forms]
    # the keys these forms need: their own exponents, and those of each
    # factor they divide by
    names = B_XY.ctx.names
    inverse_keys = {(f, e) for w in forms for c in (w.A, w.B)
                    for f, e in zip(B_XY.factors, c.exps) if e}
    power_keys = {(names[i], e) for p in [c.num for w in forms for c in (w.A, w.B)]
                  + [f for f, _ in inverse_keys]
                  for exps in p.terms for i, e in enumerate(exps) if e}

    powers, factors = Counter(), Counter()
    power, poly = kernel.image_power, Substitution.poly

    def counted_power(ctx, img, i, e):
        powers[ctx.names[i], e] += 1
        return power(ctx, img, i, e)

    def counted_poly(self, p):
        factors.update(f for f in B_XY.factors if p is f)
        return poly(self, p)

    monkeypatch.setattr(kernel, "image_power", counted_power)
    monkeypatch.setattr(Substitution, "poly", counted_poly)
    cover = map_cover()
    for w, want in zip(forms, fresh):
        got = cover.pull_one_form(w)
        for a, b in ((got.A, want.A), (got.B, want.B)):
            assert (a.num, a.exps) == (b.num, b.exps), w
    assert powers == Counter(power_keys)
    assert factors == Counter(f for f, _ in inverse_keys)
    memo = cover._pullback
    assert len(memo._powers) <= len(power_keys)
    assert len(memo._inverses) <= len(inverse_keys)


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
