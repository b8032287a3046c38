from fractions import Fraction

import pytest

from stirlingkit.series import (
    TruncatedSeries,
    degenerate_exp,
    egf_coeff,
    exp_series,
    incomplete_degenerate_exp,
    incomplete_exp,
)

from conftest import random_rational


def S(coeffs, order=None):
    return TruncatedSeries(coeffs, order)


def random_series(rng, order):
    return S([random_rational(rng) for _ in range(order + 1)], order)


def test_add_examples():
    assert S([1, 1]) + S([1, -1]) == S([2, 0])
    a = S([3, 5, 7])
    assert a + TruncatedSeries.zero(2) == a
    assert S([0, 1, 0]) + S([0, 0, 1]) == S([0, 1, 1])
    assert a - a == -a + a == TruncatedSeries.zero(2)
    assert -a == S([-3, -5, -7])
    # a series meets no other type in + - * or ==, and equal series hash alike
    for method in ("__add__", "__sub__", "__mul__", "__eq__"):
        assert getattr(a, method)("t") is NotImplemented
    assert a != [3, 5, 7]
    assert hash(a) == hash(S([3, 5, 7])) and len({a, S([3, 5, 7]), -a}) == 2


def test_mul_examples():
    one_plus_t = S([1, 1, 0])
    assert one_plus_t * one_plus_t == S([1, 2, 1])
    a = S([2, -1, 3])
    assert a * TruncatedSeries.one(2) == a
    t = S([0, 1])
    assert t * t == S([0, 0])  # truncation kills t^2 at order 1


def test_mismatched_orders_rejected():
    with pytest.raises(ValueError):
        S([1, 2]) + S([1, 2, 3])
    with pytest.raises(ValueError):
        S([1, 2]) * S([1, 2, 3])


def test_pow_examples():
    a = S([5, 1, 2, 3])
    assert a ** 0 == TruncatedSeries.one(3)
    one_plus_t = S([1, 1, 0, 0])
    assert one_plus_t ** 3 == S([1, 3, 3, 1])
    t = S([0, 1, 0, 0])
    assert t ** 2 == S([0, 0, 1, 0])
    with pytest.raises(ValueError):
        a ** -1


def test_pow_matches_naive(rng):
    for _ in range(25):
        order = rng.randint(0, 8)
        a = random_series(rng, order)
        k = rng.randint(0, 6)
        naive = TruncatedSeries.one(order)
        for _ in range(k):
            naive = naive * a
        assert a ** k == naive


def test_ring_axioms(rng):
    for _ in range(25):
        order = rng.randint(0, 12)
        a = random_series(rng, order)
        b = random_series(rng, order)
        c = random_series(rng, order)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_exp_series_examples():
    assert exp_series(0, 4) == TruncatedSeries.one(4)
    assert exp_series(1, 3) == S([1, 1, Fraction(1, 2), Fraction(1, 6)])
    assert exp_series(2, 2) == S([1, 2, 2])


def test_exp_series_product_rule(rng):
    for _ in range(20):
        g = random_rational(rng)
        d = random_rational(rng)
        order = rng.randint(0, 10)
        assert exp_series(g, order) * exp_series(d, order) == exp_series(g + d, order)


def test_degenerate_exp():
    assert degenerate_exp(1, 1, 5) == S([1, 1, 0, 0, 0, 0])
    assert degenerate_exp(0, 5, 3) == TruncatedSeries.one(3)


def test_degenerate_exp_zero_lambda_is_exponential(rng):
    for _ in range(20):
        x = random_rational(rng)
        order = rng.randint(0, 9)
        assert degenerate_exp(x, 0, order) == exp_series(x, order)


def test_incomplete_exp():
    assert incomplete_exp(0, 3) == TruncatedSeries.one(3)
    assert incomplete_exp(2, 4) == S([1, 1, Fraction(1, 2), 0, 0])
    assert incomplete_exp(1, 2, strict=True) == TruncatedSeries.one(2)
    with pytest.raises(ValueError):
        incomplete_exp(-1, 3)


def test_incomplete_degenerate_exp():
    assert incomplete_degenerate_exp(Fraction(7, 3), Fraction(1, 2), 0, 4) == TruncatedSeries.one(4)
    assert incomplete_degenerate_exp(2, 1, 2, 4) == S([1, 2, 1, 0, 0])
    # once ell clears the truncation order the cutoff is invisible
    assert incomplete_degenerate_exp(3, 2, 9, 5) == degenerate_exp(3, 2, 5)
    with pytest.raises(ValueError, match="ell >= 0"):
        incomplete_degenerate_exp(2, 1, -1, 4)


def test_egf_coeff():
    assert egf_coeff(exp_series(1, 5), 3) == 1
    sq = S([1, 2, 1])
    assert egf_coeff(sq, 2) == 2
    assert egf_coeff(TruncatedSeries.zero(4), 3) == 0
    with pytest.raises(IndexError):
        egf_coeff(sq, 3)


def test_immutability():
    a = S([1, 2, 3])
    with pytest.raises(AttributeError):
        a.order = 5
    with pytest.raises(ValueError, match="constant coefficient"):
        S([])
    with pytest.raises(ValueError, match="order must be >= 0"):
        S([1], -1)
