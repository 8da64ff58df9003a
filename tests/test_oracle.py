"""Differential tests of the ring and fraction kernels against sympy.

Seeded random Laurent polynomials and factored fractions go through the
package's arithmetic and through sympy's rational function field over QQ
(the sparse arithmetic behind ``sympy.cancel``, which keeps every value in
lowest terms), its polynomial ``div``, its ``diff`` and its ``subs``; the
results must agree exactly.  sympy is only a test oracle: the package itself stays
standard-library only, and this module is skipped where sympy is missing.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from quintic_garnier.forms import RationalMap  # noqa: E402
from quintic_garnier.fractions import (DenomBasis, FactoredFraction,  # noqa: E402
                                       Substitution, eval_poly)
from quintic_garnier.ring import LaurentPoly, VarContext, exact_divide  # noqa: E402

UV = VarContext(["u", "v"])
u, v = UV.var("u"), UV.var("v")
B = DenomBasis(UV, [u - v, v - 1, u ** 2 + v], names=["u-v", "v-1", "u^2+v"])
K, KU, KV = sympy.field("u,v", sympy.QQ)
SU, SV = sympy.symbols("u v")


def polynomial_part(p):
    """``p`` shifted by the monomial ``u^-lo[0] v^-lo[1]`` into a polynomial
    without monomial content, as a sympy ring element, and ``lo``."""
    lo = [min((e[i] for e in p.terms), default=0) for i in (0, 1)]
    return K.ring.from_dict({(e[0] - lo[0], e[1] - lo[1]):
                             sympy.QQ(c.numerator, c.denominator)
                             for e, c in p.terms.items()}), lo


def sym(p):
    """A LaurentPoly or FactoredFraction as an element of sympy's QQ(u, v)."""
    if isinstance(p, FactoredFraction):
        out = sym(p.num)
        for f, e in zip(p.basis.factors, p.exps):
            out /= sym(f) ** e
        return out
    poly, lo = polynomial_part(p)
    return K(poly) * KU ** lo[0] * KV ** lo[1]


def random_poly(rng, nterms=3, lo=-2, hi=2):
    terms = {}
    for _ in range(rng.randint(1, nterms)):
        e = (rng.randint(lo, hi), rng.randint(lo, hi))
        terms[e] = Fraction(rng.choice([-3, -2, -1, 1, 2, 5]), rng.randint(1, 3))
    return LaurentPoly(UV, terms)


def random_frac(rng, lo=-1, hi=2):
    return FactoredFraction(B, random_poly(rng),
                            tuple(rng.randint(lo, hi) for _ in B.factors))


def test_laurent_ring_operations_match_sympy():
    rng = random.Random(11)
    for _ in range(60):
        a, b = random_poly(rng, 4), random_poly(rng, 4)
        assert sym(a * b) == sym(a) * sym(b)
        assert sym(a + b) == sym(a) + sym(b)
        assert sym(a - b) == sym(a) - sym(b)


def test_exact_divide_matches_sympy_div():
    rng = random.Random(12)
    hits = 0
    for k in range(60):
        b = random_poly(rng, 3)
        if b.is_monomial():
            continue
        # every other dividend is an exact multiple, the rest are arbitrary
        a = random_poly(rng, 3) * b if k % 2 else random_poly(rng, 4)
        got = exact_divide(a, b)
        _, rem = polynomial_part(a)[0].div(polynomial_part(b)[0])
        assert (got is not None) == (rem == 0)
        if got is not None:
            hits += 1
            assert sym(got) * sym(b) == sym(a)
    assert hits >= 20


def test_fraction_arithmetic_matches_sympy():
    rng = random.Random(13)
    for _ in range(40):
        x, y = random_frac(rng), random_frac(rng)
        assert all(e >= 0 for e in x.exps + y.exps)
        assert sym(x + y) == sym(x) + sym(y)
        assert sym(x - y) == sym(x) - sym(y)
        assert sym(x * y) == sym(x) * sym(y)


def test_inverse_matches_sympy():
    rng = random.Random(14)
    for _ in range(30):
        num = random_poly(rng, 1)
        for f in B.factors:
            num = num * f ** rng.randint(0, 2)
        x = FactoredFraction(B, num, tuple(rng.randint(-1, 2) for _ in B.factors))
        inv = x.inverse()
        assert all(e >= 0 for e in inv.exps)
        assert sym(inv) * sym(x) == 1


def test_reduce_matches_sympy_cancel():
    rng = random.Random(15)
    for _ in range(30):
        x = random_frac(rng)
        # hide a random product of basis factors in numerator and denominator
        extra = tuple(rng.randint(0, 2) for _ in B.factors)
        padded = FactoredFraction(B, x.num * x.basis.power(extra),
                                  tuple(a + b for a, b in zip(x.exps, extra)))
        r = padded.reduce()
        assert sym(r) == sym(x)
        # reduced: the lowest-terms denominator is the declared one up to a monomial
        ratio = sym(r.basis.power(r.exps)) / sym(r).denom
        assert len(ratio.numer.terms()) == len(ratio.denom.terms()) == 1


def test_derivative_matches_sympy_diff():
    rng = random.Random(16)
    for _ in range(30):
        x = random_frac(rng)
        for name, s in (("u", KU), ("v", KV)):
            assert sym(x.derivative(name)) == sym(x).diff(s)


def test_equal_values_hash_equally():
    rng = random.Random(17)
    for _ in range(40):
        num = random_poly(rng)
        exps = [rng.randint(0, 2) for _ in B.factors]
        i = rng.randrange(B.nfactors())
        f, k, j = B.factors[i], rng.randint(1, 2), rng.randint(1, 2)
        # num * f^k / D written with exponent -k, 0 and j at factor i
        forms = []
        for e, extra in ((-k, 0), (0, k), (j, k + j)):
            exps[i] = e
            forms.append(FactoredFraction(B, num * f ** extra, tuple(exps)))
        assert all(sym(w) == sym(forms[0]) for w in forms)
        assert all(w == forms[0] and hash(w) == hash(forms[0]) for w in forms)
        assert len(set(forms)) == 1


# maps of QQ(u, v) whose images, and the images of whose basis factors, are
# units times products of these factors, so every negative power of an
# image and every pulled denominator clears over the basis
BM = DenomBasis(UV, [u - 1, v - 1, u - v], names=["u-1", "v-1", "u-v"])
SUBSTITUTIONS = [
    {"u": BM.of(u, {0: 1}), "v": BM.of(v, {1: 1})},      # u/(u-1), v/(v-1)
    {"u": BM.of(u, {0: 1}), "v": BM.of(u - v, {0: 1})},  # u/(u-1), (u-v)/(u-1)
    {"u": BM.of(u ** -1), "v": BM.of(v * u ** -1)},      # 1/u, v/u
]


def sym_subs(x, images):
    """sympy's substitution of ``images`` into ``x``, back in QQ(u, v); its
    denominator's sign is not normalized, so compare by difference."""
    expr = sym(x).as_expr().subs({SU: sym(images["u"]).as_expr(),
                                  SV: sym(images["v"]).as_expr()},
                                 simultaneous=True)
    return K.from_expr(expr)


def test_substitution_matches_sympy():
    """``eval_poly`` and ``Substitution.fraction`` (a fresh memo per call)
    and ``RationalMap.pull`` (a memo that 200 earlier pulls filled)
    agree with sympy's ``subs`` on Laurent polynomials and fractions."""
    rng = random.Random(18)

    def random_frac_m():
        return FactoredFraction(BM, random_poly(rng, 4),
                                tuple(rng.randint(0, 2) for _ in BM.factors))

    for images in SUBSTITUTIONS:
        phi = RationalMap("m", BM, BM, ("u", "v"), ("u", "v"), images)
        for _ in range(200):
            phi.pull(random_frac_m())
        for _ in range(15):
            p, x = random_poly(rng, 4), random_frac_m()
            want_p, want_x = sym_subs(p, images), sym_subs(x, images)
            assert sym(eval_poly(p, images, BM)) - want_p == 0, (p, images)
            got_x = Substitution(BM.ctx, images, BM).fraction(x)
            assert sym(got_x) - want_x == 0, (x, images)
            assert sym(phi.pull(p)) - want_p == 0, (p, images)
            assert sym(phi.pull(x)) - want_x == 0, (x, images)
