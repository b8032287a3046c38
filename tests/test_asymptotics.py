import math
from fractions import Fraction
from functools import cache

import pytest

from stirlingkit import schemes
from stirlingkit.asymptotics import (
    LITERAL_MODE_N_CAP,
    VanishingPochhammer,
    _psi_coeffs,
    asymptotic_partial,
    decimal_str,
    hsu_expansion,
    integer_partitions,
    partial_bell,
)
from stirlingkit.exact import falling_factorial
from stirlingkit.partial import partial_deg, partial_deg_rec
from stirlingkit.series import TruncatedSeries

from conftest import random_rational


def test_integer_partitions_examples():
    assert integer_partitions(3, 2) == [(1, 1, 0)]  # 3 = 2 + 1
    for n in range(1, 7):
        ones = integer_partitions(n, n)
        assert ones == [tuple([n] + [0] * (n - 1))]
    assert integer_partitions(2, 0) == []
    assert integer_partitions(0, 0) == [()]
    for n, parts in ((-1, 0), (2, -1)):
        with pytest.raises(ValueError, match="non-negative"):
            integer_partitions(n, parts)


def test_integer_partitions_invariants():
    for n in range(0, 12):
        for parts in range(0, n + 1):
            for mult in integer_partitions(n, parts):
                assert sum((i + 1) * m for i, m in enumerate(mult)) == n
                assert sum(mult) == parts


@cache
def partition_count(n: int, parts: int) -> int:
    """p(n, parts) by the direct two-term recurrence (no enumeration)."""
    if n < 0 or parts < 0:
        return 0
    if n == 0:
        return 1 if parts == 0 else 0
    if parts == 0:
        return 0
    return partition_count(n - 1, parts - 1) + partition_count(n - parts, parts)


def test_partition_counts_match_direct_recurrence():
    for n in range(0, 31):
        total = 0
        for parts in range(0, n + 1):
            found = len(integer_partitions(n, parts))
            assert found == partition_count(n, parts)
            total += found
        assert total == sum(partition_count(n, p) for p in range(n + 1))


def test_partial_bell_examples(rng):
    a = [Fraction(1), Fraction(1), Fraction(2), Fraction(5), Fraction(7)]
    assert partial_bell(3, 1, a) == 2  # single partition 2+1 contributes a1*a2
    assert partial_bell(2, 2, a) == 0  # no partition of 2 into 0 parts
    assert partial_bell(0, 0, [Fraction(1)]) == 1
    for n in range(1, 9):
        seq = [Fraction(1)] + [random_rational(rng) for _ in range(n)]
        assert partial_bell(n, 0, seq) == seq[1] ** n / math.factorial(n)


def _partition_walk(n, j, a):
    total = Fraction(0)
    for mult in integer_partitions(n, n - j):
        term = Fraction(1)
        for size_minus_1, count in enumerate(mult):
            term *= Fraction(a[size_minus_1 + 1]) ** count / math.factorial(count)
        total += term
    return total


def test_partial_bell_matches_partition_walk(rng):
    # the Miller power against the sum over integer partitions, also with
    # a_1 = 0 (the power then starts beyond t^(n-j)) and a_1 = a_2 = 0
    sequences = [[Fraction(1)] + [random_rational(rng) for _ in range(14)] for _ in range(2)]
    sequences.append([Fraction(1), Fraction(0)] + [random_rational(rng) for _ in range(13)])
    sequences.append([Fraction(1), Fraction(0), Fraction(0)] + [Fraction(i, 3) for i in range(12)])
    for a in sequences:
        for n in range(0, 15):
            for j in range(0, n + 1):
                assert partial_bell(n, j, a) == _partition_walk(n, j, a)


def test_partial_bell_validation():
    with pytest.raises(ValueError):
        partial_bell(3, 4, [1, 1, 1, 1])
    with pytest.raises(ValueError):
        partial_bell(3, -1, [1, 1, 1, 1])
    with pytest.raises(ValueError):
        partial_bell(5, 0, [1, 1])
    with pytest.raises(ValueError):  # short, although only a_1, a_2 would be read
        partial_bell(4, 1, [1, 1, 1, 1])


class _Unread:
    """A coefficient that must not be read: Fraction(...) and bool(...) raise."""

    def __bool__(self):
        raise AssertionError("read a coefficient beyond a_(j+1)")


def test_partial_bell_reads_only_a_1_to_j_plus_1(rng):
    # the cost contract: B(n, j) reads a_1..a_(j+1) whatever n is, also when
    # a_1 = 0 (the valuation shift) and when a_1..a_(j+1) all vanish
    heads = [[random_rational(rng) for _ in range(12)],
             [Fraction(0)] + [random_rational(rng) for _ in range(11)],
             [Fraction(0), Fraction(0)] + [random_rational(rng) for _ in range(10)],
             [Fraction(0)] * 12]
    for head in heads:
        for n in range(13):
            for j in range(n + 1):
                a = [Fraction(1), *head[: min(j + 1, n)]] + [_Unread()] * (n - j - 1)
                assert partial_bell(n, j, a) == _partition_walk(n, j, [Fraction(1), *head])


def test_power_identity_exact(rng):
    # sum_j B(n,j) (lam)_{n-j} equals [t^n] phi^lam for integer lam >= 0
    from stirlingkit.series import TruncatedSeries

    for _ in range(10):
        order = rng.randint(1, 6)
        coeffs = [Fraction(1)] + [random_rational(rng) for _ in range(order)]
        lam = rng.randint(0, 7)
        phi = TruncatedSeries(coeffs, order)
        powed = phi ** lam
        for n in range(0, order + 1):
            total = sum(
                partial_bell(n, j, coeffs) * falling_factorial(lam, n - j)
                for j in range(0, n + 1)
            )
            assert total == powed.coefficient(n)


def test_hsu_examples():
    one_plus_t = [Fraction(1), Fraction(1), Fraction(0)]
    assert hsu_expansion(one_plus_t, 2, 10, 2) == Fraction(1, 2)
    # m = 0 keeps only the leading partition term
    a = [Fraction(1), Fraction(3), Fraction(5), Fraction(7)]
    assert hsu_expansion(a, 3, 11, 0) == partial_bell(3, 0, a)
    exp_coeffs = [Fraction(1, math.factorial(i)) for i in range(4)]
    assert hsu_expansion(exp_coeffs, 1, Fraction(9, 2), 1) == 1


def test_hsu_exact_at_full_depth():
    coeffs = [Fraction(1), Fraction(1)] + [Fraction(0)] * 7
    for lam in (Fraction(10), Fraction(17, 2), Fraction(-3)):
        for n in range(0, 9):
            assert hsu_expansion(coeffs[: n + 1], n, lam, n) == Fraction(
                1, math.factorial(n)
            )


def test_hsu_validation():
    with pytest.raises(ValueError):
        hsu_expansion([Fraction(2), Fraction(1)], 1, 10, 1)
    with pytest.raises(ValueError):
        hsu_expansion([Fraction(1), Fraction(1)], 1, 10, 2)
    with pytest.raises(VanishingPochhammer) as exc:
        hsu_expansion([Fraction(1)] * 7, 6, 4, 3)
    assert exc.value.j == 2


def _hsu_outcome(a, n, lam, m):
    try:
        return hsu_expansion(a, n, lam, m)
    except VanishingPochhammer as exc:
        return exc.j, str(exc)


def test_hsu_int_and_fraction_lambda_agree(rng):
    # an int lam keeps the denominators ints; the value, and where
    # (lam-n+j)_j first vanishes (j = n - lam) the raised j and message, are
    # those of Fraction(lam)
    a = [Fraction(1)] + [random_rational(rng) for _ in range(9)]
    for n in range(10):
        for lam in (-3, 0, 1, 4, 7, 12):
            for m in range(n + 1):
                outcome = _hsu_outcome(a, n, lam, m)
                assert outcome == _hsu_outcome(a, n, Fraction(lam), m)
                if 1 <= n - lam <= m:
                    assert outcome[0] == n - lam
                else:
                    assert isinstance(outcome, Fraction)


def test_shifted_series_has_unit_head():
    for gamma in (Fraction(0), Fraction(1), Fraction(5, 2)):
        for ell in (0, 1, 3):
            assert _psi_coeffs(gamma, Fraction(1), Fraction(2), ell, 6)[0] == 1


def test_shift_identity():
    # [t^d] psi^k = k! S(k+d, k) / (k+d)!
    gamma, alpha, beta, ell = Fraction(1), Fraction(1), Fraction(2), 2
    for k in (3, 5, 8):
        for d in (0, 1, 2, 3, 4):
            psi = TruncatedSeries(_psi_coeffs(gamma, alpha, beta, ell, d), d)
            lhs = (psi ** k).coefficient(d)
            n_tot = k + d
            rhs = partial_deg(n_tot, k, ell, gamma * k, alpha, beta) * Fraction(
                math.factorial(k), math.factorial(n_tot)
            )
            assert lhs == rhs


def test_large_k_row_reads_d_plus_one_coefficients():
    # the exact side of a normalized row is [t^d] P * U^k, read from column k
    # of the scheme with special parameter gamma*k: at k = 10^5 its integer
    # column computes x_0..x_d and nothing more
    schemes.partial_degenerate_scheme.cache_clear()  # a fresh store
    gamma, alpha, beta, ell, d, k = Fraction(1), Fraction(1), Fraction(2), 2, 4, 10 ** 5
    row = asymptotic_partial(d, k, gamma, alpha, beta, ell, 3)
    assert row.n_total == k + d
    (x,) = schemes.partial_degenerate_scheme(gamma * k, alpha, beta, ell)._by_k[k]
    assert len(x) <= d + 1
    # [t^d] psi^k = k! S(k+d, k) / (k+d)! by a series power instead
    psi = TruncatedSeries(_psi_coeffs(gamma, alpha, beta, ell, d), d)
    assert row.exact == (psi ** k).coefficient(d)


def test_asymptotic_zero_offset_is_exact():
    row = asymptotic_partial(20, 20, 1, 1, 2, 2, 0)
    assert row.n_total == 20 and row.estimate == row.exact == 1 and row.rel_error == 0


def test_asymptotic_offset_lift():
    lifted = asymptotic_partial(4, 20, 1, 1, 2, 2, 3)
    explicit = asymptotic_partial(24, 20, 1, 1, 2, 2, 3)
    assert lifted == explicit
    assert lifted.n_total == 24


def test_asymptotic_error_decays():
    errors = []
    for k in (20, 40, 80):
        row = asymptotic_partial(5, k, 1, 1, 2, 2, 3)
        assert row.rel_error is not None and row.rel_error > 0
        errors.append(row.rel_error)
    assert errors[0] > errors[1] > errors[2]


def test_asymptotic_error_monotone_over_grid():
    # offsets at or below the truncation depth come out exact; beyond it
    # the error still never grows as k doubles
    for offset in (3, 4, 5):
        for ell in (1, 2):
            errors = []
            for k in (20, 40, 80, 160):
                row = asymptotic_partial(offset, k, 1, 1, 2, ell, 3)
                assert row.rel_error is not None, row.note
                errors.append(row.rel_error)
            for previous, current in zip(errors, errors[1:]):
                assert current <= previous, (offset, ell, errors)
            if offset <= 4:
                assert errors == [0, 0, 0, 0]
            else:
                assert all(e > 0 for e in errors)


def test_asymptotic_full_depth_is_exact():
    for k in (10, 25):
        row = asymptotic_partial(4, k, 1, 1, 2, 2, 4)
        assert row.rel_error == 0


def test_literal_mode_flags():
    row = asymptotic_partial(4, 20, 1, 1, 2, 2, 3, mode="literal")
    assert row.exact == 0 and row.rel_error is None
    assert "zero" in row.note
    # the uncorrected normalization misses the (k)_n factor entirely
    row = asymptotic_partial(4, 4, 1, 1, 2, 2, 3, mode="literal")
    assert row.estimate == Fraction(1, 6)
    assert row.exact == Fraction(1, 576)
    row = asymptotic_partial(6, 4, 1, 1, 2, 2, 2, mode="literal")
    assert row.estimate is None and "vanishes" in row.note


def test_literal_mode_cap():
    row = asymptotic_partial(LITERAL_MODE_N_CAP, 1, 1, 1, 2, 2, 3, mode="literal")
    assert row.n_total == LITERAL_MODE_N_CAP and row.estimate is not None
    with pytest.raises(ValueError, match="partial Bell"):
        asymptotic_partial(LITERAL_MODE_N_CAP + 1, 1, 1, 1, 2, 2, 3, mode="literal")


def test_normalized_offset_cap():
    # the offset d is n itself when n < k, else n - k; both forms share the cap
    row = asymptotic_partial(LITERAL_MODE_N_CAP, LITERAL_MODE_N_CAP + 1, 1, 1, 2, 2, 3)
    assert row.n_total == 2 * LITERAL_MODE_N_CAP + 1 and row.estimate is not None
    for n, k in [(LITERAL_MODE_N_CAP + 1, LITERAL_MODE_N_CAP + 2), (LITERAL_MODE_N_CAP + 3, 2)]:
        with pytest.raises(ValueError, match="partial Bell"):
            asymptotic_partial(n, k, 1, 1, 2, 2, 3)


def test_mode_validation():
    with pytest.raises(ValueError):
        asymptotic_partial(4, 4, 1, 1, 2, 2, 3, mode="bogus")


def test_beta_zero_row():
    # the full expansion (m = d) reproduces the exact value, here at beta = 0
    for k in (5, 12):
        row = asymptotic_partial(3, k, 1, 1, 0, 2, 3)
        expected = partial_deg_rec(k + 3, k, 2, k, 1, 0) * Fraction(
            math.factorial(k), math.factorial(k + 3)
        )
        assert row.exact == expected
        assert row.estimate == expected and row.rel_error == 0


def test_decimal_str():
    assert decimal_str(Fraction(1, 3)) == "0.333333"
    assert decimal_str(Fraction(0)) == "0.000000"
    assert decimal_str(Fraction(-5, 4), 2) == "-1.25"
    assert decimal_str(Fraction(1234, 1), 3) == "1234.000"
    # no digits: the integer part, truncated toward zero, and no point
    assert decimal_str(Fraction(5), 0) == "5"
    assert decimal_str(Fraction(1, 3), 0) == "0"
    assert decimal_str(Fraction(-3, 2), 0) == "-1"
    assert decimal_str(Fraction(-1, 3), 0) == "0"
    assert decimal_str(Fraction(7, 2), 0) == "3"
    with pytest.raises(ValueError):
        decimal_str(Fraction(1, 3), -1)
