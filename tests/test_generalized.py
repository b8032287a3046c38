from fractions import Fraction

import pytest

from stirlingkit.core import stirling2
from stirlingkit.exact import binomial, falling_factorial_deg
from stirlingkit.families import FamilySpec, family_value
from stirlingkit.exact import FallingFactorials
from stirlingkit.generalized import (
    degenerate_stirling,
    explicit_value,
    gen_stirling,
    gen_stirling_explicit,
    gen_stirling_rec,
)
from stirlingkit.oracle import oracle_sum
from stirlingkit.recurrence import recurrence_value
from stirlingkit.schemes import WeightScheme, generalized_scheme
from stirlingkit.series import TruncatedSeries, degenerate_exp, egf_coeff

from conftest import random_rational

TRIPLES = [(0, 1, 0), (0, 1, 2), (1, 2, 0), (1, 3, 2), (2, 4, 2)]


def random_triple(rng):
    while True:
        trip = tuple(random_rational(rng) for _ in range(3))
        if trip[1] != 0:
            return trip


def test_examples():
    assert gen_stirling(2, 3, 1, 2, 1) == 0
    assert gen_stirling(2, 1, 0, 1, 1) == 3
    assert gen_stirling(3, 0, 1, 2, 3) == 6
    for n in range(0, 11):
        for k in range(0, n + 1):
            assert gen_stirling(n, k, 0, 1, 0) == stirling2(n, k)


def test_all_zero_triple_is_the_identity():
    # only singleton blocks weigh 1 and the special set must stay empty, so
    # S(n, k; 0, 0, 0) = [n = k]; only the explicit sum, which divides by
    # beta^k, is undefined there
    for zero in (0, Fraction(0)):
        spec = FamilySpec("generalized", alpha=zero, beta=zero, gamma=zero)
        for n in range(7):
            for k in range(n + 1):
                expected = int(n == k)
                assert gen_stirling(n, k, zero, zero, zero) == expected
                assert gen_stirling_rec(n, k, zero, zero, zero) == expected
                for method in ("egf", "recurrence", "oracle"):
                    assert family_value(spec, n, k, method) == expected
        with pytest.raises(ValueError, match="beta = 0"):
            gen_stirling_explicit(3, 2, zero, zero, zero)
        with pytest.raises(ValueError, match="beta = 0"):
            family_value(spec, 3, 2, "explicit")


def test_special_column(rng):
    for _ in range(20):
        a, b, g = random_triple(rng)
        for n in range(0, 10):
            assert gen_stirling(n, 0, a, b, g) == falling_factorial_deg(g, n, a)


def test_explicit_examples():
    assert gen_stirling_explicit(2, 1, 0, 1, 1) == 3
    for k in range(0, 6):
        assert gen_stirling_explicit(k, k, 1, 2, 2) == 1
    assert gen_stirling_explicit(3, 2, 1, 2, 0) == gen_stirling(3, 2, 1, 2, 0)
    # past k = n the sum is a k-th difference of a degree-n polynomial: 0 at once
    assert gen_stirling_explicit(3, 4, Fraction(1, 2), Fraction(-1, 3), 2) == 0
    assert gen_stirling_explicit(3, 10**6, 0, 1, 0) == 0


def test_explicit_route_reads_sw0_and_a_constant_q():
    # a bare scheme declaring (1 + a t) P' = p P and (1 + a t) B' = b B + q
    # with q = 3/2 and sw(0) = 3: the generalized series at (a, b, p) times
    # 3 and 3/2, so every route gives 3 (3/2)^k S(n, k; a, b, p)
    a, p, b, q = Fraction(1, 2), Fraction(2, 3), Fraction(-1, 3), Fraction(3, 2)
    special, blocks = FallingFactorials(p, a), FallingFactorials(b - a, a)
    scheme = WeightScheme("bare", lambda g: 3 * special(g), lambda m: q * blocks(m - 1),
                          ode=(a, p, b, 0, lambda i: q))
    for n in range(10):
        for k in range(n + 2):
            value = explicit_value(n, k, scheme)
            assert value == 3 * q ** k * gen_stirling(n, k, a, b, p)
            assert value == scheme.value(k, n) == recurrence_value(n, k, scheme)
            assert value == oracle_sum(n, k, scheme), (n, k)
    # no declaration, or a q that is not a constant, has no explicit sum
    for ode in (None, (a, p, b, 1, lambda i: q)):
        with pytest.raises(ValueError, match="declares no constant q"):
            explicit_value(3, 2, WeightScheme("bare", special, blocks, ode=ode))


def test_explicit_rejects_beta_zero():
    for k in (1, 10**6):
        with pytest.raises(ValueError):
            gen_stirling_explicit(3, k, 1, 0, 2)


def test_beta_zero_uses_recursion():
    # no generating function exists, the value still does
    v = gen_stirling(3, 2, 1, 0, 2)
    assert v == gen_stirling_rec(3, 2, 1, 0, 2)


def test_three_paths_agree(rng):
    for _ in range(8):
        a, b, g = random_triple(rng)
        for n in range(0, 13):
            for k in range(0, n + 1):
                egf = gen_stirling(n, k, a, b, g)
                assert gen_stirling_rec(n, k, a, b, g) == egf
                assert gen_stirling_explicit(n, k, a, b, g) == egf


def test_egf_statement_directly(rng):
    # n! [t^n] (e_a^b - 1)^k / (b^k k!) * e_a^g recovers the value
    import math

    for _ in range(6):
        a, b, g = random_triple(rng)
        order = 9
        base = degenerate_exp(b, a, order) - TruncatedSeries.one(order)
        for k in range(0, 5):
            series = (
                degenerate_exp(g, a, order)
                * (base ** k)
                * (Fraction(1, math.factorial(k)) / Fraction(b) ** k)
            )
            for n in range(0, order + 1):
                assert egf_coeff(series, n) == gen_stirling(n, k, a, b, g)


def test_oracle_equality_and_integrality():
    for a, b, g in TRIPLES:
        for n in range(0, 8):
            for k in range(0, n + 1):
                value = gen_stirling(n, k, a, b, g)
                assert value == oracle_sum(n, k, generalized_scheme(a, b, g))
                assert value.denominator == 1 and value >= 0


def test_bullet_identities(rng):
    for _ in range(6):
        a, b, g = random_triple(rng)
        for n in range(1, 11):
            assert gen_stirling(n, 1, a, b, 0) == falling_factorial_deg(b - a, n - 1, a)
            assert gen_stirling(n, n - 1, a, b, g) == n * g + binomial(n, 2) * (b - a)
        for n in range(0, 10):
            for k in range(1, n + 2):
                assert gen_stirling(n + 1, k, a, b, 0) == gen_stirling(n, k - 1, a, b, b - a)
        c = random_rational(rng, lo=1)
        for n in range(0, 9):
            for k in range(0, n + 1):
                assert gen_stirling(n, k, c * a, c * b, c * g) == c ** (n - k) * gen_stirling(
                    n, k, a, b, g
                )


def test_degenerate_examples():
    for n in range(0, 9):
        for k in range(0, n + 1):
            expected = 1 if n == k else 0
            assert degenerate_stirling(n, k, 1) == expected
            assert degenerate_stirling(n, k, 0) == stirling2(n, k)
    lam = Fraction(1, 2)
    assert degenerate_stirling(3, 2, lam) == gen_stirling_rec(3, 2, lam, 1, 0)


def test_degenerate_connection_identity(rng):
    # (t)_{n,lam} = sum_k S_lam(n,k) (t)_k at random points
    from stirlingkit.exact import falling_factorial

    for _ in range(15):
        lam = random_rational(rng)
        t = random_rational(rng)
        for n in range(0, 8):
            lhs = falling_factorial_deg(t, n, lam)
            rhs = sum(
                degenerate_stirling(n, k, lam) * falling_factorial(t, k)
                for k in range(0, n + 1)
            )
            assert lhs == rhs


def test_hsu_connection_identity(rng):
    # (t)_{n,alpha} = sum_k S(n,k) (t-gamma)_{k,beta}
    for _ in range(10):
        a, b, g = random_triple(rng)
        t = random_rational(rng)
        for n in range(0, 7):
            lhs = falling_factorial_deg(t, n, a)
            rhs = sum(
                gen_stirling(n, k, a, b, g) * falling_factorial_deg(t - g, k, b)
                for k in range(0, n + 1)
            )
            assert lhs == rhs
