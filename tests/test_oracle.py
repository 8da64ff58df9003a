"""Differential tests of the ring and fraction kernels against sympy.

Seeded random Laurent polynomials and factored fractions go through the
package's arithmetic and through sympy's rational function field over QQ
(the sparse arithmetic behind ``sympy.cancel``, which keeps every value in
lowest terms), its polynomial ``div``, its ``diff`` and its ``subs``; the
results must agree exactly.  sympy is only a test oracle: the package itself stays
standard-library only, and this module is skipped where sympy is missing.
"""

import math
import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from quintic_garnier import connections  # noqa: E402
from quintic_garnier.forms import RationalMap  # noqa: E402
from quintic_garnier.fractions import (DenomBasis, FactoredFraction,  # noqa: E402
                                       Substitution, eval_poly, serialize_frac)
from quintic_garnier.ring import (Accumulator, LaurentPoly, VarContext,  # noqa: E402
                                  add_into, add_product, exact_divide, from_terms,
                                  parse_poly, serialize_poly)

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # the property below is left out, the rest still runs
    given = None

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
    # second and mixed partials differentiate over the raised denominators;
    # the second round reads the basis's remembered quotient rules
    memo = DenomBasis(UV, B.factors)
    rounds = []
    for _ in range(2):
        rng = random.Random(18)
        got = []
        for _ in range(8):
            x = FactoredFraction(memo, random_poly(rng),
                                 tuple(rng.randint(0, 2) for _ in B.factors))
            xu, xv = x.derivative("u"), x.derivative("v")
            got.append((x, [(y.num, y.exps) for y in (
                xu.derivative("u"), xu.derivative("v"), xv.derivative("u"),
                xv.derivative("v"))]))
        rounds.append(got)
    assert [g for _, g in rounds[0]] == [g for _, g in rounds[1]]
    for x, (uu, uv, vu, vv) in rounds[0]:
        sx = sym(x)
        su, sv = sx.diff(KU), sx.diff(KV)
        assert sym(FactoredFraction(memo, *uu)) == su.diff(KU)
        assert sym(FactoredFraction(memo, *vv)) == sv.diff(KV)
        assert sym(FactoredFraction(memo, *uv)) == sym(FactoredFraction(memo, *vu)) \
            == su.diff(KV)


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


def _stored(p):
    """The stored form: integer numerators over a positive denominator, in
    lowest terms, and a rational view that holds an int where integral."""
    num, den = p._num, p._den
    assert den > 0 and all(type(n) is int and n for n in num.values())
    assert math.gcd(den, *num.values()) == 1
    assert all(type(c) is (int if c.denominator == 1 else Fraction)
               for c in p.terms.values())
    return num, den


if given is not None:
    RATS = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
    UNITS = st.builds(Fraction, st.sampled_from([-3, -2, -1, 1, 2, 5]), st.integers(1, 6))
    # no u^-1 term, so that every value has an antiderivative by u
    TERMS = st.dictionaries(st.tuples(st.sampled_from([-3, -2, 0, 1, 2]),
                                      st.integers(-2, 2)), RATS, max_size=4)

    @settings(max_examples=150, deadline=None)
    @given(TERMS, TERMS, UNITS, st.tuples(st.integers(-2, 2), st.integers(-2, 2)))
    def test_equal_values_hash_equally_by_every_route(terms, other, unit, shift):
        """One value built by every route that makes a value, the normalizing
        constructor, a product, a sum, the accumulator, ``exact_divide``,
        ``substitute``, ``derivative`` and the text grammar, has one stored
        form, so the values compare and hash equal; the same terms over
        another context never compare equal."""
        p = LaurentPoly(UV, terms)
        w = LaurentPoly(UV, other)
        m = LaurentPoly(UV, {shift: unit})
        halves = Accumulator()
        add_into(halves, p, Fraction(1, 3))
        add_product(halves, p, UV.const(unit), Fraction(2, 3) / unit)
        antiderivative = LaurentPoly(UV, {(a + 1, b): c / (a + 1)
                                          for (a, b), c in terms.items()})
        routes = [
            LaurentPoly(UV, dict(p.terms)),
            (p * m) * m.inverse(),
            (p + w) - w,
            from_terms(UV, halves),
            p.substitute({"u": unit * u, "v": v}).substitute({"u": u * (1 / unit)}),
            antiderivative.derivative("u"),
            parse_poly(UV, serialize_poly(p)),
        ]
        if w:
            routes.append(exact_divide(p * w, w))
        form = _stored(p)
        for q in routes:
            assert _stored(q) == form
            assert q == p and hash(q) == hash(p) and q.key() == p.key()
        for ctx in (VarContext(["s", "t"]), VarContext(["u", "v"], extension=("v", [1, 1]))):
            assert LaurentPoly(ctx, terms) != p and p != LaurentPoly(ctx, terms)


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


def test_catalog_flatness_matches_sympy():
    """The curvature F = dx A_y - dy A_x + [A_x, A_y] of each catalog matrix
    connection, read through ``serialize_frac`` into sympy, cancels to zero
    exactly when ``connections.is_flat`` says the connection is flat."""
    flat = set()
    for build in (connections.flat_quintic2_connection,
                  connections.flat_case1_connection,
                  connections.case1_connection,
                  connections.quintic2_matrix_connection,
                  connections.quintic2_scaled_connection):
        conn = build()
        names = {n: sympy.Symbol(n) for n in conn.basis.ctx.names}

        def entries(side):
            return sympy.Matrix(2, 2, lambda i, j: sympy.sympify(
                serialize_frac(getattr(conn.omega[i][j], side)).replace("^", "**"),
                locals=names))
        x, y = (names[n] for n in conn.base_vars)
        Ax, Ay = entries("A"), entries("B")
        F = Ay.diff(x) - Ax.diff(y) + Ax * Ay - Ay * Ax
        vanishes = all(sympy.cancel(e) == 0 for e in F)
        assert vanishes == connections.is_flat(conn), conn.name
        if vanishes:
            flat.add(conn.name)
    assert flat == {"quintic2_flat", "case1_flat"}


def sym_expr(fr, names):
    """A fraction or polynomial read through its text into a sympy expression."""
    text = serialize_frac(fr) if isinstance(fr, FactoredFraction) else serialize_poly(fr)
    return sympy.sympify(text.replace("^", "**"), locals=names)


def sym_residue_matrix(conn, chart, names):
    """The residue of ``d + conn.omega`` along ``chart``, computed in sympy
    from the entries' text alone: the chart at infinity x = 1/xt, y = yt/xt
    is pulled back by hand, each side's ``f * coefficient / df`` is cancelled
    and then restricted by the chart's substitution.  ``None`` for an entry
    whose ``f * coefficient`` keeps a pole along the divisor."""
    x, y = (names[n] for n in conn.base_vars)
    omega = [[(sym_expr(w.A, names), sym_expr(w.B, names)) for w in row]
             for row in conn.omega]
    if chart.chart is not None:
        xt, yt = names["xt"], names["yt"]
        at_inf = {x: 1 / xt, y: yt / xt}
        omega = [[(sympy.cancel((-A - B * yt).subs(at_inf, simultaneous=True) / xt ** 2),
                   sympy.cancel(B.subs(at_inf, simultaneous=True) / xt))
                  for A, B in row] for row in omega]
        x, y = xt, yt
    f = sym_expr(chart.poly, names)
    point = {names[n]: sym_expr(v, names) if not isinstance(v, (int, Fraction))
             else sympy.Rational(v.numerator, v.denominator)
             for n, v in chart.subs.items()}
    matrix = []
    for row in omega:
        out = []
        for sides in row:
            values = set()
            for var, coeff in zip((x, y), sides):
                df = sympy.diff(f, var)
                if df == 0:
                    continue
                scaled = sympy.cancel(coeff * f)
                den = sympy.fraction(scaled)[1]
                if sympy.cancel(den.subs(point, simultaneous=True)) == 0:
                    return None
                values.add(sympy.cancel((scaled / df).subs(point, simultaneous=True)))
            assert len(values) == 1, (chart.name, values)
            out.append(values.pop())
        matrix.append(out)
    return sympy.Matrix(matrix)


@pytest.mark.parametrize("label", ["quintic2", "case1_flat"])
def test_residue_eigenvalues_match_sympy(label):
    """On every chart of the quintic's table that ``residue`` reads as
    logarithmic, the eigenvalues it reports have the trace and determinant
    of sympy's residue matrix; on every other chart sympy finds a pole of
    higher order too."""
    conn, charts = {"quintic2": (connections.flat_quintic2_connection(),
                                 connections.QUINTIC2_DIVISORS),
                    "case1_flat": (connections.flat_case1_connection(),
                                   connections.CASE1_DIVISORS)}[label]
    names = {n: sympy.Symbol(n) for ctx in (connections.CTX_XY, connections.CTX_INF,
                                            connections.CTX_T) for n in ctx.names}
    logarithmic = []
    for name, chart in charts.items():
        rd = connections.residue(conn, chart)
        want = sym_residue_matrix(conn, chart, names)
        assert rd.consistent == (want is not None), name
        if want is None:
            continue
        logarithmic.append(name)
        e1, e2 = (sym_expr(e, names) for e in rd.eigenvalues)
        assert sympy.cancel(e1 + e2 - want.trace()) == 0, name
        assert sympy.cancel(e1 * e2 - want.det()) == 0, name
    assert logarithmic == {"quintic2": ["y", "y-1", "conic", "infinity"],
                           "case1_flat": ["x", "y", "tangent-conic"]}[label]


def test_restricted_lower_left_matches_sympy():
    """The lower-left numerator, ``S_q`` and ``P_q`` of the flat quintic
    restricted to x = a y + b with b = (1 - c^2)/(4a) are those of sympy's
    restriction of the entry's text: ``m21 = a A21 + B21`` at that line,
    cleared by 2 y (y-1) Q, and its y-coefficients' ratios."""
    from quintic_garnier import garnier

    conn = connections.flat_quintic2_connection()
    names = {n: sympy.Symbol(n) for ctx in (connections.CTX_XY, garnier.CTX_AC)
             for n in ctx.names}
    x, y, a, c = (names[n] for n in ("x", "y", "a", "c"))
    line = {x: a * y + (1 - c ** 2) / (4 * a)}
    w = conn.omega[1][0]
    m21 = (a * sym_expr(w.A, names) + sym_expr(w.B, names)).subs(line)
    rest = garnier.restrict_to_line(conn, "ac")
    numerator = sympy.expand(sympy.cancel(m21 * sym_expr(rest.denominator, names)))
    # a Laurent polynomial: a is a unit of the line's ring, and y is not
    assert sympy.fraction(sympy.together(numerator))[1].free_symbols <= {a}
    h = garnier.h21_extract(rest)
    assert sympy.cancel(numerator - sym_expr(h.numerator, names)) == 0
    n2, n1, n0 = (numerator.coeff(y, k) for k in (2, 1, 0))
    assert n2 != 0 and sympy.cancel(numerator - n2 * y ** 2 - n1 * y - n0) == 0
    assert sympy.cancel(sym_expr(h.S_q, names) + n1 / n2) == 0
    assert sympy.cancel(sym_expr(h.P_q, names) - n0 / n2) == 0
