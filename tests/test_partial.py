import math
from fractions import Fraction

import pytest

from stirlingkit import partial
from stirlingkit.core import stirling2, stirling2_associated
from stirlingkit.incomplete import free_atleast, gen_restricted
from stirlingkit.oracle import oracle_sum
from stirlingkit.partial import (
    colored_singleton,
    colored_singleton_rec,
    partial_deg,
    partial_deg_convolution,
    partial_deg_derivative_recursion,
    partial_deg_multinomial,
    partial_deg_rec,
    partial_deg_recursion,
)
from stirlingkit.schemes import colored_singleton_scheme, partial_degenerate_scheme

# (gamma, alpha, beta) triples with beta nonzero, alpha | beta, alpha | gamma
PARTIAL_TRIPLES = [(0, 0, 1), (2, 0, 1), (0, 1, 2), (2, 1, 3), (2, 2, 4)]


def test_examples():
    for n in range(0, 8):
        assert partial_deg(n, 0, 2, 3, 1, 2) == Fraction(3) ** n
    assert partial_deg(2, 1, 1, 0, 1, 2) == 1
    assert partial_deg(2, 2, 2, 0, 1, 2) == 1
    assert partial_deg(2, 2, 2, 0, 2, 4) == 1
    for n in range(0, 9):
        for k in range(0, n + 1):
            assert partial_deg(n, k, 0, Fraction(1, 2), 1, 2) == free_atleast(
                n, k, Fraction(1, 2), 0
            )


def test_beta_zero_matches_recurrence_and_oracle():
    # a block of size m <= ell weighs (-alpha)_{m-1,alpha}; nothing divides by beta
    for gamma, alpha in ((2, 1), (0, Fraction(-1, 2)), (Fraction(1, 3), 0)):
        for ell in (0, 1, 2, 3):
            scheme = partial_degenerate_scheme(gamma, alpha, 0, ell)
            for n in range(0, 7):
                for k in range(0, n + 1):
                    value = partial_deg(n, k, ell, gamma, alpha, 0)
                    assert value == partial_deg_rec(n, k, ell, gamma, alpha, 0)
                    assert value == oracle_sum(n, k, scheme)
                    assert value == partial_deg_convolution(n, k, ell, gamma, alpha, 0)
                    assert value == partial_deg_multinomial(n, k, ell, gamma, alpha, 0)


def test_large_threshold_reduces_to_weighted_cells_only():
    # gamma = 0 and ell >= n: every block weighted, no free cells remain
    for n in range(0, 9):
        for k in range(0, n + 1):
            ell = max(n, 1)
            assert partial_deg(n, k, ell, 0, 1, 3) == gen_restricted(n, k, 1, 3, 0, ell)


def test_convolution():
    assert partial_deg_convolution(2, 1, 1, 0, 1, 2) == 1
    assert partial_deg_convolution(0, 0, 2, 5, 1, 2) == 1
    for n in range(0, 10):
        for k in range(0, n + 1):
            for ell in (0, 1, 2, 3):
                assert partial_deg_convolution(n, k, ell, 2, 1, 3) == partial_deg(
                    n, k, ell, 2, 1, 3
                )


def test_recursion():
    assert partial_deg_recursion(3, 1, 1, 0, 1, 2) == 1
    for n1 in range(1, 9):
        assert partial_deg_recursion(n1, 0, 1, 3, 1, 2) == Fraction(3) ** n1
    for gamma, alpha, beta in PARTIAL_TRIPLES:
        for n1 in range(1, 9):
            for k in range(0, n1 + 1):
                for ell in (0, 1, 2, 3):
                    assert partial_deg_recursion(
                        n1, k, ell, gamma, alpha, beta
                    ) == partial_deg(n1, k, ell, gamma, alpha, beta)


def test_multinomial_forms():
    assert partial_deg_multinomial(2, 2, 1, 0, 1, 2) == 1
    assert partial_deg_multinomial(2, 2, 1, 0, 1, 2, literal=True) == 2
    for n in range(0, 9):
        assert partial_deg_multinomial(n, 1, 2, 0, 1, 3) == partial_deg(n, 1, 2, 0, 1, 3)
    for gamma, alpha, beta in PARTIAL_TRIPLES:
        for n in range(0, 9):
            for k in range(0, n + 1):
                for ell in (0, 1, 2, 3):
                    assert partial_deg_multinomial(
                        n, k, ell, gamma, alpha, beta
                    ) == partial_deg(n, k, ell, gamma, alpha, beta)


def test_derivative_forms():
    assert partial_deg_derivative_recursion(3, 1, 1, 0, 1, 2) == 1
    assert partial_deg_derivative_recursion(3, 1, 1, 0, 1, 2, literal=True) == 3
    with pytest.raises(ValueError):
        partial_deg_derivative_recursion(3, 0, 1, 0, 1, 2)
    for gamma, alpha, beta in PARTIAL_TRIPLES:
        for n1 in range(1, 9):
            for k in range(1, n1 + 1):
                for ell in (0, 1, 2, 3):
                    assert partial_deg_derivative_recursion(
                        n1, k, ell, gamma, alpha, beta
                    ) == partial_deg(n1, k, ell, gamma, alpha, beta)


def test_pure_recursion_path():
    for gamma, alpha, beta in PARTIAL_TRIPLES:
        for n in range(0, 8):
            for k in range(0, n + 1):
                for ell in (0, 1, 2):
                    assert partial_deg_rec(n, k, ell, gamma, alpha, beta) == partial_deg(
                        n, k, ell, gamma, alpha, beta
                    )
    # rows with fewer elements than blocks are zero and not summed: a
    # near-diagonal value memoises only the band -1 <= m - j <= 3
    memo = partial._partial_rec.cache_info
    before = memo().currsize
    gamma = Fraction(5, 17)
    assert partial_deg_rec(60, 57, 2, gamma, 1, 2) == partial_deg(60, 57, 2, gamma, 1, 2)
    assert memo().currsize - before <= 5 * 58


def test_integrality():
    for gamma, alpha, beta in PARTIAL_TRIPLES:
        for n in range(0, 8):
            for k in range(0, n + 1):
                for ell in (0, 1, 2, 3):
                    value = partial_deg(n, k, ell, gamma, alpha, beta)
                    assert value.denominator == 1 and value >= 0


def test_oracle_equality():
    for gamma, alpha, beta in PARTIAL_TRIPLES:
        for n in range(0, 8):
            for k in range(0, n + 1):
                for ell in (0, 1, 2, 3):
                    assert partial_deg(n, k, ell, gamma, alpha, beta) == oracle_sum(
                        n, k, partial_degenerate_scheme(gamma, alpha, beta, ell)
                    )


def test_series_rearrangement_identity():
    # the binomial-theorem step behind the closed generating function,
    # checked as an exact series identity
    from stirlingkit.series import TruncatedSeries, exp_series, incomplete_exp
    from stirlingkit.exact import binomial, falling_factorial_deg

    order = 10
    for alpha, beta in ((0, 1), (1, 2), (1, 3), (2, 4)):
        for ell in (0, 1, 2, 3):
            big = exp_series(1, order) - incomplete_exp(ell, order)
            cs = [Fraction(0)] * (order + 1)
            for i in range(1, min(ell, order) + 1):
                cs[i] = Fraction(
                    falling_factorial_deg(Fraction(beta - alpha), i - 1, alpha)
                ) / math.factorial(i)
            small = TruncatedSeries(cs, order)
            for k in range(0, 6):
                expanded = TruncatedSeries.zero(order)
                for j in range(k + 1):
                    expanded = expanded + binomial(k, j) * (big ** j) * (small ** (k - j))
                assert expanded == (big + small) ** k


def test_colored_singleton():
    for n in range(0, 9):
        for k in range(0, n + 1):
            assert colored_singleton(n, k, 0, 1) == stirling2(n, k)
    assert colored_singleton(2, 1, 0, 2) == 1
    for s in range(0, 5):
        assert colored_singleton(1, 1, 0, s) == s
    with pytest.raises(ValueError):
        colored_singleton(2, 1, -1, 1)


def test_colored_singleton_oracle_and_recursion():
    for r in range(0, 4):
        for s in range(0, 4):
            for n in range(0, 7):
                for k in range(0, n + 1):
                    value = colored_singleton(n, k, r, s)
                    assert value == oracle_sum(n, k, colored_singleton_scheme(r, s))
                    assert value == colored_singleton_rec(n, k, r, s)


def test_reference_routes_ask_only_for_cells_that_exist(monkeypatch):
    # a cell with more blocks than elements is zero; the convolution, its
    # recursion and associated_from_free must not spend a column read on it
    from stirlingkit import incomplete

    asked = []

    def watched(module, name):
        real = getattr(module, name)

        def wrapper(n, k, *rest):
            if k > n:
                asked.append((module.__name__, name, n, k))
            return real(n, k, *rest)

        monkeypatch.setattr(module, name, wrapper)

    watched(partial, "free_atleast")
    watched(partial, "gen_restricted")
    watched(incomplete, "free_atleast")
    for ell in (1, 2):
        for n in range(0, 6):
            for k in range(0, n + 2):
                expected = partial_deg(n, k, ell, 2, 1, 3)
                assert partial_deg_convolution(n, k, ell, 2, 1, 3) == expected
                assert partial_deg_recursion(n, k, ell, 2, 1, 3) == expected
                assert incomplete.associated_from_free(n, k, 2, ell) == stirling2_associated(
                    n, k, ell
                )
    assert asked == []
