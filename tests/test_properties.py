"""Property-based tests: route agreement, scaling, composition and the series ring.

Parameters are drawn at random (rational alpha, beta, gamma, lambda with
beta = 0 included; integer ell (0 included), r, s), and each drawn
member must give the same value through the generating function, the
recursion, the enumeration oracle and, where the family has one and
beta != 0, the explicit sum.  The generalized numbers must obey the
scaling identity, the composition law and its inverse pairs
(orthogonality and the degenerate pair), on the explicit sum too
wherever every triple has beta != 0, truncated series the
commutative-ring axioms, a series power must equal the repeated
product at a cost, counted in series products, that does not grow with
the exponent, and a bare scheme on random rational weights must equal
the enumeration.
Runs are derandomized and bounded, so the suite stays deterministic and
fast.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stirlingkit import schemes
from stirlingkit.audit import partial_degenerate_swapped_scheme
from stirlingkit.families import FAMILIES, FAMILY_TAGS, FamilySpec, family_egf, family_value
from stirlingkit.generalized import gen_stirling, gen_stirling_explicit, gen_stirling_rec
from stirlingkit.oracle import oracle_sum
from stirlingkit.recurrence import recurrence_value
from stirlingkit.series import TruncatedSeries, block_series, egf, egf_coeff, special_series

from conftest import has_explicit_sum

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
    with_explicit = has_explicit_sum(spec)
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
    scaled = [c * x for x in triple]
    for k in range(n + 1):
        assert gen_stirling(n, k, *scaled) == c ** (n - k) * gen_stirling(n, k, *triple)
        assert gen_stirling_rec(n, k, *scaled) == c ** (n - k) * gen_stirling_rec(n, k, *triple)


def _oracle(n, k, alpha, beta, gamma):
    return oracle_sum(n, k, schemes.generalized_scheme(alpha, beta, gamma))


def _routes(n, explicit):
    """The routes checked at n; the explicit sum only where every triple it
    reads has beta != 0."""
    return ([gen_stirling, gen_stirling_rec] + ([_oracle] if n <= 8 else [])
            + ([gen_stirling_explicit] if explicit else []))


def _product(route, n, k, left, right):
    """Entry (n, k) of the product of the triangles of two triples on one route."""
    return sum(route(n, j, *left) * route(j, k, *right) for j in range(k, n + 1))


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(alpha=RATIONALS, beta=PARAMS["beta"], delta=PARAMS["beta"], gamma1=RATIONALS,
       gamma2=RATIONALS, n=st.integers(0, 10))
@example(alpha=0, beta=0, delta=1, gamma1=0, gamma2=0, n=6)  # S(0, 0, 0) is the identity
@example(alpha=0, beta=1, delta=0, gamma1=0, gamma2=0, n=6)  # classic times its inverse
def test_composition_law(alpha, beta, delta, gamma1, gamma2, n):
    # the connection relations compose (Hsu and Shiue 1998), so the triangles do:
    # sum_j S(n,j; alpha,beta,gamma1) S(j,k; beta,delta,gamma2) = S(n,k; alpha,delta,gamma1+gamma2)
    for route in _routes(n, beta != 0 and delta != 0):
        for k in range(n + 1):
            product = _product(route, n, k, (alpha, beta, gamma1), (beta, delta, gamma2))
            assert product == route(n, k, alpha, delta, gamma1 + gamma2), route.__name__


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(alpha=RATIONALS, beta=PARAMS["beta"], gamma=RATIONALS, n=st.integers(0, 10))
def test_orthogonality(alpha, beta, gamma, n):
    # the composition law's inverse pair: S(alpha, beta, gamma) S(beta, alpha, -gamma) = I
    for route in _routes(n, alpha != 0 and beta != 0):
        for k in range(n + 1):
            product = _product(route, n, k, (alpha, beta, gamma), (beta, alpha, -gamma))
            assert product == (n == k), route.__name__


@settings(max_examples=20, derandomize=True, database=None, deadline=None)
@given(lam=PARAMS["beta"], n=st.integers(0, 10))
def test_degenerate_pair(lam, n):
    # the degenerate numbers (lam, 1, 0) and their inverse (1, lam, 0), in both
    # orders; lam = 0 pairs the classic numbers with the signed first kind
    for route in _routes(n, lam != 0):
        for left, right in [((lam, 1, 0), (1, lam, 0)), ((1, lam, 0), (lam, 1, 0))]:
            for k in range(n + 1):
                assert _product(route, n, k, left, right) == (n == k), route.__name__


INTEGER_COLUMN_SCHEMES = {
    # every factory whose declaration has a1 = 0, on parameters drawn with
    # 0 included; generalized and gen_restricted declare it at alpha = 0
    "classic": st.builds(schemes.classic_scheme),
    "restricted": st.builds(schemes.restricted_scheme, st.integers(0, 3)),
    "associated": st.builds(schemes.associated_scheme, st.integers(0, 3)),
    "free_atleast": st.builds(schemes.free_atleast_scheme, PARAMS["beta"], st.integers(0, 3)),
    "partial_degenerate": st.builds(schemes.partial_degenerate_scheme, PARAMS["beta"],
                                    PARAMS["beta"], PARAMS["beta"], st.integers(0, 3)),
    "colored_singleton": st.builds(schemes.colored_singleton_scheme, PARAMS["r"], PARAMS["s"]),
    "generalized": st.builds(schemes.generalized_scheme, st.just(0), PARAMS["beta"],
                             PARAMS["beta"]),
    "gen_restricted": st.builds(schemes.gen_restricted_scheme, st.just(0), PARAMS["beta"],
                                PARAMS["beta"], st.integers(0, 3)),
}


@pytest.mark.parametrize("tag", INTEGER_COLUMN_SCHEMES)
@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_integer_column_equals_the_recurrence_and_the_series(tag, data):
    drawn = data.draw(INTEGER_COLUMN_SCHEMES[tag])
    assert drawn.scaling is None
    _check_declared_column(_fresh(drawn), data)


def _fresh(drawn):
    # a new scheme on the same declaration starts with an empty store
    return schemes.WeightScheme(drawn.name, drawn.special_weight, drawn.block_weight, drawn.ode,
                                drawn.denominator, drawn.scaling)


def _check_declared_column(scheme, data):
    n = data.draw(st.integers(0, 30))
    ks = data.draw(st.lists(st.integers(0, n + 1), min_size=1, max_size=3))
    block, power = block_series(scheme, n), TruncatedSeries.one(n)
    special = special_series(scheme, n)
    for k in range(max(ks) + 1):
        if k in ks:
            value, expected = scheme.value(k, n), recurrence_value(n, k, scheme)
            # an int when it is integral, like the recurrence's value
            assert value == expected and type(value) is type(expected), (k, n)
            assert egf(scheme, k, n) == special * power * Fraction(1, math.factorial(k)), k
        power = power * block
    # the declared D or scaling cleared every weight the reads kept
    assert all(type(x) is int for column in scheme._by_k.values() for x in column)


NONZERO = RATIONALS.filter(bool)


@st.composite
def alpha_schemes(draw, tag):
    # a factory whose declaration has a1 = alpha != 0, with beta and gamma
    # drawn with 0 included; degenerate is generalized (lam, 1, 0)
    alpha, beta, gamma = draw(NONZERO), draw(PARAMS["beta"]), draw(PARAMS["beta"])
    if tag == "degenerate":
        beta, gamma = 1, 0
    if tag == "gen_restricted":
        return schemes.gen_restricted_scheme(alpha, beta, gamma, draw(st.integers(0, 3))), beta
    return schemes.generalized_scheme(alpha, beta, gamma), beta


@pytest.mark.parametrize("tag", ["generalized", "gen_restricted", "degenerate"])
@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_alpha_columns_equal_the_recurrence_and_the_series(tag, data):
    # binomial blocks (beta != 0) and their polynomial truncations declare a
    # scaling and read the ordinary column; the log blocks of beta = 0 the
    # EGF one
    drawn, beta = data.draw(alpha_schemes(tag))
    assert drawn.ode[0] != 0 and bool(drawn.scaling) == bool(beta)
    _check_declared_column(_fresh(drawn), data)


@pytest.mark.parametrize("triple", [(Fraction(1, 2), Fraction(-1, 3), Fraction(1, 2)),
                                    (2, 3, 1), (Fraction(5, 7), Fraction(-2, 9), Fraction(4, 11)),
                                    (Fraction(-1, 3), 1, 0)])
def test_a_scaling_that_does_not_clear_the_coefficients_raises(triple):
    # E = 1 leaves s u_1 fractional here (s u_2 at lam = -1/3), so the
    # first read that needs it raises instead of returning a value
    drawn = schemes.generalized_scheme(*triple)
    s, e = drawn.scaling
    assert e > 1
    wrong = schemes.WeightScheme(drawn.name, drawn.special_weight, drawn.block_weight,
                                 drawn.ode, drawn.denominator, (s, 1))
    with pytest.raises(ValueError, match="fractional"):
        egf(wrong, 2, 12)
    assert egf(_fresh(drawn), 2, 12) == egf(drawn, 2, 12)


@pytest.mark.parametrize("drawn", [
    schemes.generalized_scheme(Fraction(1, 2), 0, Fraction(1, 2)),
    schemes.partial_degenerate_scheme(Fraction(1, 2), Fraction(1, 2), Fraction(-1, 3), 2),
    schemes.free_atleast_scheme(Fraction(1, 2), 1),
    partial_degenerate_swapped_scheme(Fraction(1, 2), Fraction(1, 2), Fraction(-1, 3), 2),
], ids=lambda scheme: scheme.name)
def test_a_denominator_that_does_not_clear_the_weights_raises(drawn):
    # the EGF twin of the scaling check: a declared D = 1 leaves a weight
    # fractional, so the first read that needs it raises instead of
    # returning a value on Fractions
    assert drawn.scaling is None and drawn.denominator > 1
    wrong = schemes.WeightScheme(drawn.name, drawn.special_weight, drawn.block_weight,
                                 drawn.ode, 1)
    with pytest.raises(ValueError, match="fractional"):
        egf(wrong, 2, 12)
    assert egf(_fresh(drawn), 2, 12) == egf(drawn, 2, 12)


@st.composite
def bare_schemes(draw):
    # rational weights with zeros, sw(0) among them, valuation v = 1..3,
    # declaring nothing
    v = draw(st.integers(1, 3))
    special = draw(st.lists(st.one_of(st.just(0), RATIONALS), min_size=10, max_size=10))
    blocks = [0] * v + [draw(NONZERO)] + draw(
        st.lists(st.one_of(st.just(0), RATIONALS), min_size=9 - v, max_size=9 - v))
    return schemes.WeightScheme("bare", special.__getitem__, blocks.__getitem__)


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(scheme=bare_schemes(), n=st.integers(0, 9))
def test_bare_schemes_equal_the_oracle(scheme, n):
    for k in range(n + 2):
        assert scheme.value(k, n) == oracle_sum(n, k, scheme), k


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
    # a bare scheme on rational weights reads the EGF column in Fractions,
    # whose x_j sums one product per weight term s <= j, whatever k is:
    # k = 2 and k = 640 form the same number
    counts = []
    real = schemes._egf_term

    def counting(j, k, v, u0, terms, row, x):
        counts[-1] += sum(s <= j for s, _ in terms)
        return real(j, k, v, u0, terms, row, x)

    monkeypatch.setattr(schemes, "_egf_term", counting)
    drawn = schemes.generalized_scheme(Fraction(5, 7), Fraction(-2, 9), Fraction(4, 11))
    scheme = schemes.WeightScheme(drawn.name, drawn.special_weight, drawn.block_weight)
    for k in (2, 640):
        counts.append(0)
        egf(scheme, k, k + 10)
    assert counts[0] == counts[1] > 0
    assert any(isinstance(x, Fraction) for x in scheme._by_k[2])


def test_ordinary_column_products_do_not_depend_on_k(monkeypatch):
    # the ordinary column's W_j sums one product per term i <= j, whatever
    # k is: k = 2 and k = 640 form the same number
    counts = []
    real = schemes._ordinary_term

    def counting(j, k, u0, terms, w):
        counts[-1] += sum(i <= j for i, _ in terms)
        return real(j, k, u0, terms, w)

    monkeypatch.setattr(schemes, "_ordinary_term", counting)
    schemes.generalized_scheme.cache_clear()  # a fresh scheme has read no column yet
    spec = FamilySpec("generalized", alpha=Fraction(1, 2), beta=Fraction(-1, 3), gamma=2)
    for k in (2, 640):
        counts.append(0)
        family_egf(spec, k, k + 10)
    assert counts[0] == counts[1] > 0


def test_integer_column_products_do_not_depend_on_k(monkeypatch):
    # the integer column's x_j sums one product per weight term s <= j,
    # whatever k is: k = 2 and k = 640 form the same number
    counts = []
    real = schemes._egf_term

    def counting(j, k, v, u0, terms, row, x):
        counts[-1] += sum(s <= j for s, _ in terms)
        return real(j, k, v, u0, terms, row, x)

    monkeypatch.setattr(schemes, "_egf_term", counting)
    schemes.partial_degenerate_scheme.cache_clear()  # a fresh scheme has read no column yet
    spec = FamilySpec("partial_degenerate", gamma=Fraction(1, 2), alpha=Fraction(1, 2),
                      beta=Fraction(-1, 3), ell=2)
    for k in (2, 640):
        counts.append(0)
        family_egf(spec, k, k + 10)
    assert counts[0] == counts[1] > 0
