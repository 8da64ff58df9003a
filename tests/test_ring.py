"""Laurent polynomial kernel: arithmetic, substitution, grammar, division."""

import random
from fractions import Fraction

import pytest

from quintic_garnier.families import CTX_ROOT, CTX_UV
from quintic_garnier.fractions import DenomBasis
from quintic_garnier import ring
from quintic_garnier.ring import (ContextError, LaurentPoly, UnitError, VarContext,
                                  evaluate, exact_divide, parse_poly, serialize_poly)

UV = VarContext(["u", "v"])
u = UV.var("u")
v = UV.var("v")


def test_additive_identity():
    p = u + u ** -1
    assert p + UV.zero() == p


def test_mul_distributes_over_inverse_monomials():
    assert (u + u ** -1) * u == u ** 2 + 1


def test_pow_square_matches_expansion():
    # oracle: brute-force term-by-term expansion of (u - v)*(u - v)
    p = u - v
    expected = UV.zero()
    for ea, ca in p.terms.items():
        for eb, cb in p.terms.items():
            expected = expected + LaurentPoly(UV, {tuple(a + b for a, b in zip(ea, eb)): ca * cb})
    assert p ** 2 == expected
    assert p ** 2 == u ** 2 - 2 * u * v + v ** 2


def test_negative_power_of_non_monomial_rejected():
    with pytest.raises(UnitError):
        (u + v) ** -1


def test_substitute_change_of_parameters():
    # (uv + (uv)^-1) under u -> -s, v -> s becomes -(s^2 + s^-2)
    S = VarContext(["s"])
    s = S.var("s")
    p = u * v + (u * v) ** -1
    q = p.substitute({"u": -s, "v": s}, S)
    assert q == -(s ** 2) - s ** -2


def test_substitute_identity_and_diagonal():
    p = u + u ** -1
    assert p.substitute({}) == p
    S = VarContext(["s"])
    s = S.var("s")
    assert p.substitute({"u": s, "v": s}, S) == s + s ** -1


def test_substitute_requires_unit_for_negative_exponent():
    S = VarContext(["s"])
    s = S.var("s")
    with pytest.raises(UnitError):
        (u ** -1).substitute({"u": s + 1, "v": s}, S)


def test_unmapped_variable_raises_only_when_it_occurs():
    # v has no image and the target (s) lacks it
    S = VarContext(["s"])
    s = S.var("s")
    assert (u ** 2 - u ** -1).substitute({"u": -s}, S) == s ** 2 + s ** -1
    assert UV.const(3).substitute({}, S) == S.const(3)
    with pytest.raises(ContextError):
        (u * v).substitute({"u": s}, S)
    # an unmapped variable that the target has maps to it
    SV = VarContext(["s", "v"])
    assert (u * v).substitute({"u": SV.var("s")}, SV) == SV.var("s") * SV.var("v")


def test_substitution_is_ring_homomorphism():
    rng = random.Random(7)
    S = VarContext(["s"])
    s = S.var("s")
    sigma = {"u": -(s ** 2), "v": s ** -1}
    for _ in range(300):
        p = _random_poly(rng, UV)
        q = _random_poly(rng, UV)
        assert (p * q).substitute(sigma, S) == p.substitute(sigma, S) * q.substitute(sigma, S)
        assert (p + q).substitute(sigma, S) == p.substitute(sigma, S) + q.substitute(sigma, S)


def _evaluated(p, images, target):
    """The oracle: :func:`ring.evaluate` in ``target``, with no route choice."""
    def lift(value):
        if isinstance(value, (int, Fraction)):
            return target.const(value)
        if value.ctx != target:
            raise ContextError("image context mismatch")
        return value
    return evaluate(p, images, target, lift)


S1 = VarContext(["s"])
SU = VarContext(["s", "u"])
R_S = VarContext(["r", "s"], extension=("r", [1, 1]))  # r^2 + r + 1 = 0


def _unit_maps():
    """(source, images, target) with every image one term."""
    s, su, rs = S1.var("s"), SU.var("s"), R_S.var("s")
    r, rr = CTX_ROOT.var("r"), R_S.var("r")
    return [
        (CTX_UV, {"u": -(s ** 2), "v": Fraction(3, 2) * s ** -1}, S1),
        (CTX_UV, {"u": s, "v": -s}, S1),                # u^a v^b collide and cancel
        (CTX_UV, {"u": s ** -1, "v": s}, S1),
        (CTX_UV, {"u": Fraction(-2, 3), "v": 5 * s ** 2}, S1),
        (CTX_UV, {"u": 3, "v": Fraction(1, 2)}, S1),    # constants only
        (CTX_UV, {"v": Fraction(3, 2) * su ** -1}, SU),  # u left unmapped
        (CTX_UV, {"u": rr, "v": -Fraction(1, 2) * rr * rs ** -1}, R_S),  # r^k reduced
        (CTX_ROOT, {"r": r}, CTX_ROOT),
        (CTX_ROOT, {"r": -rr * rs}, R_S),
        (CTX_ROOT, {"r": Fraction(7, 2)}, S1),
    ]


def test_unit_images_substitute_as_evaluate(monkeypatch):
    """One-term images take the accumulator route of ``substitute``, which
    gives what :func:`ring.evaluate` gives, coefficient types included."""
    rng = random.Random(97)
    cases = [(src, images, target, _random_poly(rng, src, max_terms=6))
             for src, images, target in _unit_maps() for _ in range(60)]
    expected = [_evaluated(p, images, target) for _, images, target, p in cases]

    def no_evaluate(*args):
        raise AssertionError("one-term images went through evaluate")
    monkeypatch.setattr(ring, "evaluate", no_evaluate)
    for (_, images, target, p), want in zip(cases, expected):
        got = p.substitute(images, target)
        assert got.ctx is target and got == want, (p, images)
        _assert_stored(got)
        assert {e: type(c) for e, c in got.terms.items()} == \
            {e: type(c) for e, c in want.terms.items()}
    # terms that collide under u, v -> s, -s cancel in the accumulator
    s = S1.var("s")
    assert (u * v ** 2 + u ** 2 * v).substitute({"u": s, "v": -s}, S1).is_zero()


def test_substitution_errors_match_evaluate():
    """Both routes raise alike: a missing image only when its variable occurs,
    an image of another context always, and a zero image (which goes through
    ``evaluate``) keeps its UnitError for a negative power."""
    s = S1.var("s")
    t = VarContext(["t"]).var("t")
    cases = [
        (u ** 2 + 3, {"u": -s}, None),
        (u * v, {"u": -s}, ContextError),               # v occurs, no image
        (u * v, {"u": -s, "v": s + 1}, None),
        (u * v ** -1, {"u": -s, "v": s + 1}, UnitError),
        (u + 1, {"u": s, "v": t}, ContextError),        # v does not occur
        (u + 1, {"u": s, "v": t + 1}, ContextError),
        (u ** -1 + v, {"u": 0, "v": s}, UnitError),
        (u ** -1 + v, {"u": S1.zero(), "v": s}, UnitError),
        (u ** 2 + v, {"u": Fraction(0), "v": s}, None),
    ]
    for p, images, error in cases:
        if error is None:
            assert p.substitute(images, S1) == _evaluated(p, images, S1)
            continue
        with pytest.raises(error) as via_evaluate:
            _evaluated(p, images, S1)
        with pytest.raises(error) as via_substitute:
            p.substitute(images, S1)
        assert str(via_substitute.value) == str(via_evaluate.value)


def test_ring_axioms_randomized():
    rng = random.Random(11)
    for _ in range(1000):
        p = _random_poly(rng, UV)
        q = _random_poly(rng, UV)
        r = _random_poly(rng, UV)
        assert (p + q) + r == p + (q + r)
        assert p + q == q + p
        assert (p * q) * r == p * (q * r)
        assert p * q == q * p
        assert p * (q + r) == p * q + p * r


def test_extension_arithmetic():
    # Q[r]/(r^2 + r + 1): r^3 = 1 and r^-1 = r^2 = -1 - r
    R = VarContext(["r"], extension=("r", [1, 1]))
    r = R.var("r")
    assert r ** 3 == R.one()
    assert r ** 2 == -R.one() - r
    assert r * r.inverse() == R.one()
    assert r.inverse() == -R.one() - r


def _expanded_product(p, q):
    """Term-by-term product through the normalizing constructor."""
    terms = {}
    for ea, ca in p.terms.items():
        for eb, cb in q.terms.items():
            e = tuple(a + b for a, b in zip(ea, eb))
            terms[e] = terms.get(e, 0) + ca * cb
    return LaurentPoly(p.ctx, terms)


@pytest.mark.parametrize("trivial", [
    lambda ctx: 0, lambda ctx: 1, lambda ctx: Fraction(0),
    lambda ctx: Fraction(1), VarContext.zero, VarContext.one],
    ids=["int0", "int1", "fraction0", "fraction1", "zero", "one"])
def test_mul_by_zero_or_one_matches_general_product(trivial):
    rng = random.Random(71)
    for ctx in (UV, VarContext(["r"], extension=("r", [1, 1]))):
        t = trivial(ctx)
        lifted = t if isinstance(t, LaurentPoly) else ctx.const(t)
        for _ in range(30):
            p = _random_poly(rng, ctx)
            want = _expanded_product(p, lifted)
            for got in (p * t, t * p):
                assert isinstance(got, LaurentPoly) and got.ctx == ctx
                assert got == want and hash(got) == hash(want)
                assert got.terms == want.terms


def test_mul_by_zero_or_one_of_another_context_raises():
    other = VarContext(["s"])
    p = u + v ** -1
    for t in (other.zero(), other.one()):
        for a, b in ((p, t), (t, p), (UV.zero(), t), (t, UV.one())):
            with pytest.raises(ContextError):
                a * b


def test_equal_contexts_interoperate_and_unequal_ones_raise():
    # a context built anew with the same names is a different object
    twin = VarContext(["u", "v"])
    assert twin is not UV and twin == UV
    p, q = u + v ** -1, twin.var("u") - 2
    assert p + q == u + v ** -1 + u - 2
    assert p * q == q * p == (u + v ** -1) * (u - 2)
    assert p - q == u + v ** -1 - u + 2
    ext = VarContext(["u", "v"], extension=("u", [1, 1]))
    for other in (VarContext(["v", "u"]), VarContext(["u"]), ext):
        r = other.var("u") + 1
        for op in (lambda a, b: a + b, lambda a, b: a * b, lambda a, b: a - b):
            with pytest.raises(ContextError):
                op(p, r)
            with pytest.raises(ContextError):
                op(r, p)


def test_is_one():
    assert UV.one().is_one() and (u * u ** -1).is_one()
    assert not any(p.is_one() for p in (UV.zero(), UV.const(2), u, u + 1, -UV.one()))


def test_extension_products_still_normalize():
    R = VarContext(["r"], extension=("r", [1, 1]))
    r = R.var("r")
    assert (r * r ** 2).is_one() and r * r ** 2 == R.one()
    assert r * r == -R.one() - r
    assert (r * R.one()) * r == -R.one() - r


def test_grammar_roundtrip():
    p = -(u ** -2) + 2 * v ** 3
    text = serialize_poly(p)
    assert parse_poly(UV, text) == p
    assert parse_poly(UV, "-1*u^-2 + 2*u^0*v^3") == p
    assert serialize_poly(UV.zero()) == "0"
    assert parse_poly(UV, "0").is_zero()
    assert parse_poly(UV, "3/2*u^1*v^-1 - 1") == Fraction(3, 2) * u * v ** -1 - 1


@pytest.mark.parametrize("ctx", [CTX_UV, CTX_ROOT], ids=["uv", "root"])
def test_grammar_roundtrip_keeps_values_and_coefficient_types(ctx):
    rng = random.Random(101)
    for _ in range(500):
        p = _random_poly(rng, ctx, max_terms=5)
        q = parse_poly(ctx, serialize_poly(p))
        assert q == p
        assert {e: type(c) for e, c in q.terms.items()} == \
            {e: type(c) for e, c in p.terms.items()}


def test_grammar_sums_repeated_and_cancelling_monomials():
    assert parse_poly(UV, "u + u - 2*u").is_zero()
    five = parse_poly(UV, "2*u^1*u^-1 + 3")
    assert five == 5 and type(five.terms[(0, 0)]) is int
    assert parse_poly(UV, "3/2*v + 1/2*v") == 2 * v
    assert type(parse_poly(UV, "3/2*v + 1/2*v").terms[(0, 1)]) is int
    assert parse_poly(UV, "0*u + v") == v
    assert parse_poly(CTX_ROOT, "r^3") == CTX_ROOT.one()
    assert parse_poly(CTX_ROOT, "r^2 + r + 1").is_zero()


def test_grammar_variable_names_ending_in_e():
    # a sign after e/E is an exponent sign only inside a numeric literal
    EU = VarContext(["e", "u"])
    e, uu = EU.var("e"), EU.var("u")
    assert parse_poly(EU, "e-1") == e - 1
    assert parse_poly(EU, "2*e-u") == 2 * e - uu
    assert parse_poly(EU, "1e-3*u") == Fraction(1, 1000) * uu
    assert parse_poly(EU, "2.5E+1*e^-1+e") == 25 * e ** -1 + e


def test_grammar_rejects_undeclared_variable():
    with pytest.raises(ContextError):
        parse_poly(UV, "1*w^2")


def test_exact_division():
    p = (u ** 2 - v ** 2)
    f = u - v
    assert exact_divide(p, f) == u + v
    assert exact_divide(p, u + 1) is None
    # Laurent shift: monomials always divide
    assert exact_divide(u + u ** -1, u) == 1 + u ** -2


@pytest.mark.parametrize("build", [
    lambda: UV.const(0.1),
    lambda: UV.monomial(0.5, {"u": 1}),
    lambda: UV.const(2.0),
    lambda: LaurentPoly(UV, {(1, 0): 0.25}),
    lambda: VarContext(["r"], extension=("r", [1.0, 1])),
    lambda: DenomBasis(UV, [u - v]).const(0.25)],
    ids=["const", "monomial", "integral-float", "terms", "extension", "basis"])
def test_float_coefficients_are_rejected(build):
    # a float holds a binary approximation; storing it exactly would let it
    # decide a result, so every entry point refuses it
    with pytest.raises(TypeError, match="int or a Fraction"):
        build()


def test_float_comparison_raises():
    # == with a float would answer by a binary approximation, so it refuses
    # as the constructors do; rationals and other types compare as before
    half = CTX_UV.const(Fraction(1, 2))
    for compare in (lambda: half == 0.5, lambda: half != 0.5, lambda: 0.5 == half,
                    lambda: u == 1.0):
        with pytest.raises(TypeError, match="float"):
            compare()
    assert half == Fraction(1, 2) and half != 1 and UV.one() == 1
    assert half != "1/2" and not (half == None)  # noqa: E711


def test_derivative_by_the_extension_variable_raises():
    # in Q[r]/(r^2 + r + 1), r*r is stored as -1 - r: differentiating the
    # stored form by r gives -1, while the product rule gives 2r, so no
    # derivative by r exists on the quotient
    r = CTX_ROOT.var("r")
    for p in (r * r, r ** 3, r):
        with pytest.raises(ContextError, match="extension variable 'r'"):
            p.derivative("r")
    # a free variable beside the extension still differentiates
    ctx = VarContext(["x", "r"], extension=("r", [1, 1]))
    x, rx = ctx.var("x"), ctx.var("r")
    assert (x ** 2 * rx * rx).derivative("x") == 2 * x * rx * rx


def _assert_stored(p):
    """Every stored coefficient is an ``int`` when integral, else a
    ``Fraction`` with a denominator other than 1; never a float."""
    assert isinstance(p, LaurentPoly)
    for c in p.terms.values():
        assert (type(c) is int
                or (type(c) is Fraction and c.denominator != 1)), (p, c)


@pytest.mark.parametrize("ctx", [CTX_UV, CTX_ROOT], ids=["uv", "root"])
def test_stored_coefficients_are_int_when_integral(ctx):
    rng = random.Random(83)
    S = VarContext(["s"])
    s = S.var("s")
    # a ring map out of each context: u, v -> -s^2, s^-1, and for
    # Q[r]/(r^2 + r + 1) the conjugation r -> r^2
    if ctx is CTX_UV:
        images, target = {"u": -(s ** 2), "v": Fraction(1, 2) * s ** -1}, S
    else:
        images, target = {"r": ctx.var("r") ** 2}, ctx
    # one-term images take the accumulator route of substitute
    units, unit_target = (
        ({"u": Fraction(3, 2) * s ** -1, "v": -(s ** 2)}, S) if ctx is CTX_UV
        else ({"r": -Fraction(2, 3) * R_S.var("r") * R_S.var("s")}, R_S))
    name = ctx.names[0]
    for c in (3, -1, Fraction(6, 3), Fraction(3, 2), Fraction(-4, 6)):
        _assert_stored(ctx.const(c))
        _assert_stored(ctx.monomial(c, {name: 2}))
        _assert_stored(ctx.monomial(c, {name: 1}).inverse())
        _assert_stored(ctx.const(c).inverse())
        assert type(ctx.const(c).constant_value()) is Fraction
    assert type(ctx.const(7).constant_value()) is Fraction
    assert type(ctx.zero().constant_value()) is Fraction
    for _ in range(200):
        p, q = _random_poly(rng, ctx), _random_poly(rng, ctx)
        results = [p, q, p + q, p - q, -p, p * q, p ** 2, p ** 3,
                   2 * p, Fraction(1, 2) * p, p + Fraction(1, 2),
                   p.substitute(images, target),
                   p.substitute(units, unit_target),
                   parse_poly(ctx, serialize_poly(p))]
        if ctx.ext_var is None:  # r is bound by its minimal polynomial
            results.append(p.derivative(name))
        if p.is_monomial():
            results += [p.inverse(), p ** -2]
        if not q.is_zero():
            got = exact_divide(p * q, q)
            if got is not None:
                assert got * q == p * q
                results.append(got)
        for r in results:
            _assert_stored(r)
        if p.is_constant():
            assert type(p.constant_value()) is Fraction


def _random_poly(rng, ctx, max_terms=3, max_exp=3):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        e = tuple(rng.randint(-max_exp, max_exp) for _ in ctx.names)
        terms[e] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return LaurentPoly(ctx, terms)
