"""Property-based tests: route agreement, scaling and the series ring.

Parameters are drawn at random (rational alpha, beta, gamma, lambda with
beta = 0 included; integer ell (0 included), r, s), and each drawn
member must give the same value through the generating function, the
recursion, the enumeration oracle and, where the family has one and
beta != 0, the explicit sum.  The generalized numbers must obey the
scaling identity, and truncated series the commutative-ring axioms.
Runs are derandomized and bounded, so the suite stays deterministic and
fast.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stirlingkit.families import FAMILIES, FAMILY_TAGS, FamilySpec, family_egf, family_value
from stirlingkit.generalized import gen_stirling, gen_stirling_rec
from stirlingkit.series import TruncatedSeries, egf_coeff

RATIONALS = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
PARAMS = {
    "alpha": RATIONALS,
    "beta": st.one_of(st.just(Fraction(0)), RATIONALS),
    "gamma": RATIONALS,
    "lam": RATIONALS,
    "ell": st.integers(0, 4),
    "r": st.integers(0, 3),
    "s": st.integers(0, 3),
}


@st.composite
def members(draw, tag):
    params = {name: draw(PARAMS[name]) for name in FAMILIES[tag].params}
    n = draw(st.integers(0, 7))
    return FamilySpec(tag, **params), n


@pytest.mark.parametrize("tag", FAMILY_TAGS)
@settings(max_examples=50, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_routes_agree(tag, data):
    spec, n = data.draw(members(tag))
    # the generalized numbers exclude the all-zero triple
    assume(tag != "generalized" or (spec.alpha, spec.beta, spec.gamma) != (0, 0, 0))
    with_explicit = FAMILIES[tag].explicit is not None and spec.beta != 0
    for k in range(n + 1):
        value = family_value(spec, n, k)
        assert egf_coeff(family_egf(spec, k, n), n) == value
        assert family_value(spec, n, k, "recurrence") == value
        assert family_value(spec, n, k, "oracle") == value
        if with_explicit:
            assert family_value(spec, n, k, "explicit") == value


@settings(max_examples=50, derandomize=True, database=None, deadline=None)
@given(
    triple=st.tuples(RATIONALS, PARAMS["beta"], RATIONALS),
    c=RATIONALS.filter(bool),
    n=st.integers(0, 7),
)
def test_scaling_identity(triple, c, n):
    # S(n,k; c*alpha, c*beta, c*gamma) = c^(n-k) S(n,k; alpha, beta, gamma)
    assume(any(triple))
    scaled = [c * x for x in triple]
    for k in range(n + 1):
        assert gen_stirling(n, k, *scaled) == c ** (n - k) * gen_stirling(n, k, *triple)
        assert gen_stirling_rec(n, k, *scaled) == c ** (n - k) * gen_stirling_rec(n, k, *triple)


@st.composite
def series_triples(draw):
    order = draw(st.integers(0, 8))
    coeffs = st.lists(RATIONALS, min_size=order + 1, max_size=order + 1)
    return tuple(TruncatedSeries(draw(coeffs), order) for _ in range(3))


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(abc=series_triples(), m=st.integers(0, 6))
def test_series_ring_axioms(abc, m):
    a, b, c = abc
    one = TruncatedSeries.one(a.order)
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a * one == a == one * a
    power = one
    for _ in range(m):
        power = power * a
    assert a ** m == power
