"""Property tests of ``FactoredFraction.derivative``: the Leibniz rule and
linearity over one basis, on fractions that hypothesis draws.  The runs are
derandomized, so every run draws the same examples; the module is skipped
where hypothesis is missing."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from quintic_garnier.fractions import DenomBasis, FactoredFraction  # noqa: E402
from quintic_garnier.ring import LaurentPoly, VarContext  # noqa: E402

UV = VarContext(["u", "v"])
u, v = UV.var("u"), UV.var("v")
B = DenomBasis(UV, [u - v, u + v, v - 1], names=["u-v", "u+v", "v-1"])

coefficients = st.fractions(min_value=-4, max_value=4, max_denominator=3)
numerators = st.dictionaries(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                             coefficients, max_size=3).map(lambda t: LaurentPoly(UV, t))
fractions = st.builds(lambda num, exps: FactoredFraction(B, num, exps), numerators,
                      st.tuples(*[st.integers(0, 2)] * B.nfactors()))
names = st.sampled_from(["u", "v"])
laws = settings(derandomize=True, max_examples=40, deadline=None)


@laws
@given(fractions, fractions, names)
def test_derivative_obeys_the_leibniz_rule(f, g, name):
    assert (f * g).derivative(name) == f.derivative(name) * g + f * g.derivative(name)


@laws
@given(fractions, fractions, coefficients, coefficients, names)
def test_derivative_is_linear(f, g, a, b, name):
    assert (a * f + b * g).derivative(name) == a * f.derivative(name) + b * g.derivative(name)
