"""Property-based tests: route agreement, scaling and the series ring.

Parameters are drawn at random (rational alpha, beta, gamma, lambda with
beta = 0 included; integer ell (0 included), r, s), and each drawn
member must give the same value through the generating function, the
recursion, the enumeration oracle and, where the family has one and
beta != 0, the explicit sum.  The generalized numbers must obey the
scaling identity, truncated series the commutative-ring axioms, and a
series power must equal the repeated product at a cost, counted in
series products, that does not grow with the exponent.
Runs are derandomized and bounded, so the suite stays deterministic and
fast.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stirlingkit import schemes, series
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
@given(abc=series_triples())
def test_series_ring_axioms(abc):
    a, b, c = abc
    one = TruncatedSeries.one(a.order)
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a * one == a == one * a


@st.composite
def shifted_series(draw):
    # t^v * U with U(0) != 0, v = 0..3, or the zero series
    order = draw(st.integers(0, 9))
    if draw(st.integers(0, 9)) == 0:
        return TruncatedSeries.zero(order)
    v = draw(st.integers(0, 3))
    head = draw(RATIONALS.filter(bool))
    tail = draw(st.lists(RATIONALS, min_size=order, max_size=order))
    return TruncatedSeries([0] * v + [head] + tail, order)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(s=shifted_series(), k=st.integers(0, 12))
def test_power_equals_repeated_product(s, k):
    # covers k = 0, the zero series and v*k > order (a zero power)
    power = TruncatedSeries.one(s.order)
    for _ in range(k):
        power = power * s
    assert s ** k == power


def test_family_series_products_do_not_depend_on_k(monkeypatch):
    # the column runs Miller's recurrence on U = B / t, so the coefficient
    # products it sums for block^k, and for the special series times it,
    # do not grow with k: k = 2 and k = 640 form the same number
    counts = []
    real = series._fraction_sum

    def counting(nums, dens):
        counts[-1] += len(nums)
        return real(nums, dens)

    monkeypatch.setattr(series, "_fraction_sum", counting)
    schemes.generalized_scheme.cache_clear()  # a fresh scheme has read no column yet
    spec = FamilySpec("generalized", alpha=Fraction(1, 2), beta=Fraction(-1, 3), gamma=2)
    for k in (2, 640):
        counts.append(0)
        family_egf(spec, k, k + 10)
    assert counts[0] == counts[1] > 0
