"""Laurent polynomial kernel: arithmetic, substitution, grammar, division."""

import random
import re
import reprlib
import sys
from fractions import Fraction

import pytest

from quintic_garnier.connections import B_XY, CTX_XY, flat_quintic2_connection
from quintic_garnier.families import CTX_ROOT, CTX_UV
from quintic_garnier.fractions import DenomBasis, Substitution, eval_poly
from quintic_garnier.garnier import pole_positions_at, specialize_connection
from quintic_garnier.ring import (Accumulator, ContextError, LaurentPoly, UnitError,
                                  VarContext, _co, add_into, add_product, exact_divide,
                                  from_terms, parse_poly, serialize_poly)

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
    """The oracle: the same substitution by ``fractions.Substitution`` into
    an empty basis over ``target``, where every value has denominator 1."""
    image = Substitution(p.ctx, images, DenomBasis(target, [])).poly(p)
    assert image.exps == ()
    return image.num


S1 = VarContext(["s"])
SU = VarContext(["s", "u"])
R_S = VarContext(["r", "s"], extension=("r", [1, 1]))  # r^2 + r + 1 = 0


def _unit_maps():
    """(source, images, target) with every image one term, each a ring map:
    the image of an extension variable is a root of its minimal polynomial."""
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
        (CTX_ROOT, {"r": rr}, R_S),
    ]


def test_one_term_images_substitute_as_ring_homomorphism():
    """Images of one term each (signed monomials, constants, an unmapped
    variable, powers of an extension variable to reduce) carry sums and
    products to sums and products in ``target``, and every coefficient is
    stored as an ``int`` when it is integral."""
    rng = random.Random(97)
    for src, images, target in _unit_maps():
        for _ in range(30):
            p = _random_poly(rng, src, max_terms=6)
            q = _random_poly(rng, src, max_terms=6)
            sp, sq = p.substitute(images, target), q.substitute(images, target)
            prod = (p * q).substitute(images, target)
            total = (p + q).substitute(images, target)
            assert prod == sp * sq and total == sp + sq, (p, q, images)
            for got in (sp, sq, prod, total):
                assert got.ctx is target
                _assert_stored(got)
    # terms that collide under u, v -> s, -s cancel
    s = S1.var("s")
    assert (u * v ** 2 + u ** 2 * v).substitute({"u": s, "v": -s}, S1).is_zero()
    # an image that is no root of r^2 + r + 1 gives no ring map, so it
    # raises, into polynomials and into fractions alike
    r = CTX_ROOT.var("r")
    with pytest.raises(ContextError, match="not a root"):
        (r ** 2).substitute({"r": Fraction(7, 2)}, S1)
    with pytest.raises(ContextError, match="not a root"):
        eval_poly(r ** 2, {"r": Fraction(7, 2)}, DenomBasis(S1, []))


def test_substitution_errors_match_evaluate():
    """``substitute`` raises under the policy of ``resolve_images`` and
    ``image_power``: a missing image only when its variable occurs, an
    image of another context always, and a zero image keeps its UnitError
    for a negative power; every other case gives the fraction kernel's value."""
    s = S1.var("s")
    t = VarContext(["t"]).var("t")
    no_v, unit_u, unit_v = ("variable 'v' has no image",
                            "negative power of 'u' needs a unit image",
                            "negative power of 'v' needs a unit image")
    cases = [
        (u ** 2 + 3, {"u": -s}, None, None),
        (u * v, {"u": -s}, ContextError, no_v),          # v occurs, no image
        (u * v, {"u": -s, "v": s + 1}, None, None),
        (u * v ** -1, {"u": -s, "v": s + 1}, UnitError, unit_v),
        (u + 1, {"u": s, "v": t}, ContextError, "image context mismatch"),  # v does not occur
        (u + 1, {"u": s, "v": t + 1}, ContextError, "image context mismatch"),
        (u ** -1 + v, {"u": 0, "v": s}, UnitError, unit_u),
        (u ** -1 + v, {"u": S1.zero(), "v": s}, UnitError, unit_u),
        (u ** 2 + v, {"u": Fraction(0), "v": s}, None, None),
    ]
    for p, images, error, message in cases:
        if error is None:
            assert p.substitute(images, S1) == _evaluated(p, images, S1)
            continue
        with pytest.raises(error) as via_substitute:
            p.substitute(images, S1)
        assert str(via_substitute.value) == message


def test_an_image_of_an_unknown_name_is_refused():
    """A key that is not a variable of the source context substitutes
    nothing, so every substitution refuses it, naming it, instead of
    leaving the value as it was."""
    p = parse_poly(UV, "u+v")
    message = r"image of 'z', which is not a variable of the source context \(u, v\)"
    with pytest.raises(ContextError, match=message):
        p.substitute({"z": 0})
    with pytest.raises(ContextError, match=message):
        p.substitute({"u": 1, "z": 0}, UV)
    basis = DenomBasis(UV, [])
    with pytest.raises(ContextError, match=message):
        Substitution(UV, {"z": 0}, basis)
    with pytest.raises(ContextError, match=message):
        eval_poly(p, {"u": 1, "v": 2, "z": 0}, basis)
    assert p.substitute({"v": 0}) == u


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
    # a sign after ``^`` belongs to the exponent with blanks between them too
    assert parse_poly(UV, "u ^ -2") == parse_poly(UV, "u^ -2") == u ** -2
    assert parse_poly(UV, "v - 3*u ^ +2") == v - 3 * u ** 2


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
    for text in ("1*w^2", "u*w", "w"):
        with pytest.raises(ContextError, match="undeclared variable 'w'"):
            parse_poly(UV, text)


def test_grammar_refuses_an_exponent_above_the_digit_limit():
    """A decimal exponent above ``sys.get_int_max_str_digits()`` is refused,
    naming its term, before ``Fraction`` builds the power of ten; one at the
    limit is read, and a limit of 0 refuses none."""
    old = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)
        for text, term in (("1e4301", "1e4301"), ("1e9999999", "1e9999999"),
                           ("2*1E-9_999_999*u", "2*1E-9_999_999*u"),
                           ("u + 1e+4301*v", "1e+4301*v"), ("1e00000000000000000004301", None)):
            term = re.escape(repr(term or text))
            with pytest.raises(ValueError, match=f"^term {term} has a decimal exponent "
                                                 "above 4300, the interpreter's limit"):
                parse_poly(UV, text)
        assert parse_poly(UV, "1e-4300*u") == Fraction(1, 10 ** 4300) * u
        assert parse_poly(UV, "1.5e4300") == 15 * 10 ** 4299
        sys.set_int_max_str_digits(0)
        assert parse_poly(UV, "1e5000*v") == 10 ** 5000 * v
    finally:
        sys.set_int_max_str_digits(old)


def test_grammar_refuses_a_number_above_the_digit_limit():
    """An integer coefficient, a fraction's part or an exponent of more
    digits than ``sys.get_int_max_str_digits()`` is refused with a
    ``ValueError`` that names its term, shortened, where ``int`` would name
    none; one at the limit is read, and a limit of 0 refuses none."""
    old = sys.get_int_max_str_digits()
    big, top = "1" * 4301, "1" * 4300
    try:
        sys.set_int_max_str_digits(4300)
        for text, term in ((big, big), (f"u*{big}", f"u*{big}"), (f"u^{big}", f"u^{big}"),
                           (f"u ^ -{big}", f"u ^ -{big}"), (f"2 + {big}*v", f"{big}*v"),
                           (f"1/{big}", f"1/{big}"), (f"0.{big}*u", f"0.{big}*u")):
            with pytest.raises(ValueError, match=f"^term {re.escape(reprlib.repr(term))} has "
                                                 "a number of more than 4300 digits"):
                parse_poly(UV, text)
        assert len(reprlib.repr(big)) < 40
        assert parse_poly(UV, f"{top}*u") == int(top) * u
        assert parse_poly(UV, f"u^{top}*u^-{top}") == u ** 0
        assert parse_poly(UV, f"{top}.{top}") == int(top) + Fraction(int(top), 10 ** 4300)
        sys.set_int_max_str_digits(0)
        assert parse_poly(UV, f"{big}*v") == int(big) * v
    finally:
        sys.set_int_max_str_digits(old)


def test_grammar_refuses_an_exponent_that_is_not_an_integer():
    """A malformed exponent is refused with a ``ValueError`` that names the
    term and the exponent, where ``int`` would name neither; an exponent
    that ``int`` reads, underscores and blanks included, still parses."""
    for text, exp in (("u^x", "x"), ("u^1.5", "1.5"), ("2*u^", ""), ("u ^ - 2", "- 2"),
                      ("u^^2", "^2")):
        with pytest.raises(ValueError, match=f"^term {re.escape(repr(text))} has exponent "
                                             f"{re.escape(repr(exp))}, which is not an "
                                             "integer$"):
            parse_poly(UV, text)
    assert parse_poly(UV, "u^2_0") == u ** 20
    assert parse_poly(UV, "u^ -2") == u ** -2


def test_serialization_refuses_a_number_above_the_digit_limit():
    """A coefficient with a number of more digits than
    ``sys.get_int_max_str_digits()`` has no text: the refusal names its
    monomial and the limit, where ``str`` would name neither.  One at the
    limit is written."""
    old = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)
        for p, monomial in ((10 ** 4300 * u ** 2 * v ** -1, "u^2*v^-1"),
                            (u + Fraction(1, 10 ** 4300), "1")):
            with pytest.raises(ValueError, match=f"^the coefficient of the monomial "
                                                 f"{re.escape(monomial)} has a number of "
                                                 "more than 4300 digits, the interpreter's "
                                                 "limit on the digits of an integer$"):
                serialize_poly(p)
        assert serialize_poly(10 ** 4299 * u) == f"1{'0' * 4299}*u^1"
    finally:
        sys.set_int_max_str_digits(old)


_FROZEN_MANTISSA = re.compile(r"(\d+\.?\d*|\.\d+)[eE]")
_FROZEN_INTEGER = re.compile(r"[0-9]+")


def _frozen_parse_poly(ctx, text):
    """``parse_poly`` as it was before it split at signs with ``re.split``:
    one character at a time, a sign belonging to the term after an operator
    as the last character of the buffer but blanks.  The differential
    test's oracle."""
    text = text.strip()
    if not text:
        raise ValueError("empty polynomial text")
    if text == "0":
        return ctx.zero()
    terms = []
    sign, buf = 1, []
    for i, ch in enumerate(text):
        if ch in "+-":
            if not "".join(buf).strip():
                sign *= 1 if ch == "+" else -1
            elif "".join(buf).rstrip()[-1] in "*^+-" or _FROZEN_MANTISSA.fullmatch(
                    "".join(buf).rpartition("*")[2].strip()):
                buf.append(ch)
            else:
                terms.append((sign, "".join(buf).strip()))
                sign, buf = (1 if ch == "+" else -1), []
        else:
            buf.append(ch)
    terms.append((sign, "".join(buf).strip()))
    index = ctx.index
    acc = {}
    for sgn, term in terms:
        if not term:
            raise ValueError("malformed polynomial text")
        factors = [f.strip() for f in term.split("*")]
        coeff = sgn
        exps = [0] * len(index)
        for fac in factors:
            if "^" in fac:
                var, _, exp = fac.partition("^")
                var = var.strip()
                if var not in index:
                    raise ContextError(f"undeclared variable {var!r}")
                exps[index[var]] += int(exp)
            elif fac in index:
                exps[index[fac]] += 1
            elif _FROZEN_INTEGER.fullmatch(fac):
                coeff *= int(fac)
            else:
                if fac.isidentifier():
                    raise ContextError(f"undeclared variable {fac!r}")
                try:
                    coeff *= Fraction(fac)
                except ZeroDivisionError:
                    raise ValueError(f"term {term!r} has a zero denominator") from None
        e = tuple(exps)
        s = acc.get(e, 0) + coeff
        if s:
            acc[e] = _co(s)
        else:
            acc.pop(e, None)
    return LaurentPoly(ctx, acc)


def _outcome(parse, ctx, text):
    try:
        p = parse(ctx, text)
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)
    return p, type(next(iter(p.terms.values()), 0)), serialize_poly(p)


def _random_text(rng):
    """Either a string of random tokens, or terms of random factors joined
    by random signs and spaces, with now and then a token dropped in."""
    if rng.random() < 0.5:
        tokens = ["u", "e", "E", "1", "2", "0", "3/4", "1/0", ".5", "1.", "7", "+", "-",
                  "+", "-", "*", "^", " ", ".", "/", "_", "w", "e-", "1e", "2.5E+1", "^-"]
        return "".join(rng.choice(tokens) for _ in range(rng.randint(1, 9)))
    factors = ["u", "e", "u^2", "e^-1", "u ^ -2", "3", "0", "3/4", "1.5", ".5e-2",
               "2E+1", "1e3", "e^+2", " u "]
    odd = ["7e", "u^-", "+u", "-2", "", "w", "1_0", "1e-", "e-", "*", "^"]
    signs = ["+", "-", " + ", " - ", "+-", "--", "-+"]
    text = rng.choice(["", "-", "+", " -"])
    for k in range(rng.randint(1, 4)):
        if k:
            text += rng.choice(signs)
        text += "*".join(rng.choice(odd if rng.random() < 0.05 else factors)
                         for _ in range(rng.randint(1, 3)))
    return text


def test_grammar_splits_at_signs_as_the_frozen_parser_did():
    """On 20,000 seeded random strings, ``parse_poly`` gives the frozen
    parser's value, stored coefficient type and text, or raises its
    exception type with its message.  Where the frozen parser passed a
    malformed exponent to ``int``, or a factor that is neither a variable
    nor a number to ``Fraction``, ``parse_poly`` refuses the same text with
    a message that names the term.  Runs of four or more digits are left
    out, so that no exponent reaches the digit limit only the current
    parser checks."""
    EU = VarContext(["e", "u"])
    rng = random.Random(2718)
    seen = 0
    while seen < 20000:
        text = _random_text(rng)
        if re.search(r"[0-9_]{4}", text):
            continue
        seen += 1
        got, want = _outcome(parse_poly, EU, text), _outcome(_frozen_parse_poly, EU, text)
        if want[0] is ValueError and want[1].startswith(("invalid literal for int()",
                                                          "Invalid literal for Fraction")):
            assert got[0] is ValueError and got[1].startswith("term "), text
        else:
            assert got == want, text


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
    lambda: DenomBasis(UV, [u - v]).const(0.25),
    lambda: CTX_XY.var("x").substitute({"x": 0.5}),
    lambda: eval_poly(CTX_XY.var("x"), {"x": 0.5}, B_XY),
    lambda: specialize_connection(flat_quintic2_connection(), {"lam0": 0.5}),
    lambda: pole_positions_at(0.1, 4)],
    ids=["const", "monomial", "integral-float", "terms", "extension", "basis",
         "substitute", "eval_poly", "specialize", "pole_positions_at"])
def test_float_coefficients_are_rejected(build):
    # a float holds a binary approximation; storing it exactly would let it
    # decide a result, so every entry point refuses it, substitution images
    # and parameter points included
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
    _assert_stored_terms(p.terms)


def _assert_stored_terms(terms):
    for c in terms.values():
        assert (type(c) is int
                or (type(c) is Fraction and c.denominator != 1)), (terms, c)


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
    units, unit_target = (
        ({"u": Fraction(3, 2) * s ** -1, "v": -(s ** 2)}, S) if ctx is CTX_UV
        else ({"r": R_S.var("r") ** 2}, R_S))
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


@pytest.mark.parametrize("ctx", [CTX_UV, CTX_ROOT], ids=["uv", "root"])
def test_accumulators_sum_what_the_operators_give(ctx):
    """``add_into`` and ``add_product`` into one accumulator, made a value
    by ``from_terms``, give what ``+`` and ``*`` give at every scale; the
    accumulator keeps no zero coefficient and stores each as an ``int``
    when integral, and a sum that cancels leaves it empty."""
    rng = random.Random(36)
    for _ in range(200):
        p, q, w = (_random_poly(rng, ctx) for _ in range(3))
        for scale in (-1, Fraction(1, 2), 3):
            acc = Accumulator()
            add_into(acc, p)
            add_product(acc, q, w, scale)
            add_into(acc, q, scale)
            assert 0 not in acc._num.values()
            assert all(type(c) is int for c in acc._num.values()) and acc._den > 0
            got = from_terms(ctx, acc)
            _assert_stored(got)
            assert got == p + scale * q * w + scale * q
            add_product(acc, q, w, -scale)
            add_into(acc, q, -scale)
            add_into(acc, p, -1)
            assert acc._num == {}
    # the exponents of a product sum past the minimal polynomial's degree
    # in the accumulator, and from_terms reduces them: r^2 = -r - 1
    r = CTX_ROOT.var("r")
    acc = Accumulator()
    add_product(acc, r, r)
    assert (acc._num, acc._den) == ({(2,): 1}, 1)
    assert from_terms(CTX_ROOT, acc).terms == {(1,): -1, (0,): -1}


def _random_poly(rng, ctx, max_terms=3, max_exp=3):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        e = tuple(rng.randint(-max_exp, max_exp) for _ in ctx.names)
        terms[e] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return LaurentPoly(ctx, terms)
