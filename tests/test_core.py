import math

import pytest

from stirlingkit.core import (
    stirling2,
    stirling2_associated,
    stirling2_associated_rec,
    stirling2_rec,
    stirling2_rec_literal,
    stirling2_restricted,
    stirling2_restricted_rec,
)
from stirlingkit.oracle import oracle_sum
from stirlingkit.schemes import associated_scheme, restricted_scheme

from conftest import brute_stirling2


def test_stirling2_examples():
    assert stirling2(3, 2) == 3
    assert stirling2(4, 2) == 7
    assert stirling2(6, 6) == 1
    assert stirling2(5, 0) == 0
    assert stirling2(0, 0) == 1
    assert stirling2(4, 9) == 0


def test_stirling2_against_enumeration():
    for n in range(0, 10):
        for k in range(0, n + 1):
            assert stirling2(n, k) == brute_stirling2(n, k)


def test_restricted_examples():
    assert stirling2_restricted(4, 2, 2) == 3
    assert stirling2_restricted(5, 2, 3) == 10
    assert stirling2_restricted(9, 2, 3) == 0  # pigeonhole: 9 > 2*3
    for n in range(0, 8):
        for k in range(0, n + 1):
            assert stirling2_restricted(n, k, max(n, 1)) == stirling2(n, k)


def test_ell_zero_matches_recurrence_and_oracle():
    # blocks of size <= 0 leave only the empty partition; blocks of size
    # >= 0 are unrestricted, so the associated numbers are the classic ones
    restricted, associated = restricted_scheme(0), associated_scheme(0)
    for n in range(0, 8):
        for k in range(0, n + 1):
            value = stirling2_restricted(n, k, 0)
            assert value == (1 if n == 0 else 0)
            assert value == stirling2_restricted_rec(n, k, 0) == oracle_sum(n, k, restricted)
            value = stirling2_associated(n, k, 0)
            assert value == stirling2(n, k)
            assert value == stirling2_associated_rec(n, k, 0) == oracle_sum(n, k, associated)


def test_associated_examples():
    assert stirling2_associated(4, 2, 2) == 3
    assert stirling2_associated(6, 2, 3) == 10
    assert stirling2_associated(5, 3, 2) == 0  # pigeonhole: 5 < 3*2
    for n in range(0, 8):
        for k in range(0, n + 1):
            assert stirling2_associated(n, k, 1) == stirling2(n, k)


def test_incomplete_against_enumeration():
    for n in range(0, 10):
        for k in range(0, n + 1):
            for ell in range(1, n + 1):
                assert stirling2_restricted(n, k, ell) == brute_stirling2(
                    n, k, lambda s, e=ell: s <= e
                )
                assert stirling2_associated(n, k, ell) == brute_stirling2(
                    n, k, lambda s, e=ell: s >= e
                )


def test_recursions_match_generating_functions():
    for n in range(0, 16):
        for k in range(0, n + 1):
            assert stirling2_rec(n, k) == stirling2(n, k)
            for ell in (1, 2, 3):
                assert stirling2_restricted_rec(n, k, ell) == stirling2_restricted(n, k, ell)
                assert stirling2_associated_rec(n, k, ell) == stirling2_associated(n, k, ell)


def test_associated_recurrence_matches_generating_function():
    # the recurrence stops its printed sum where the remaining blocks no
    # longer fit; every dropped term is zero, so values stay the egf's
    for ell in range(0, 5):
        for n in range(0, 30):
            for k in range(0, n + 1):
                assert stirling2_associated_rec(n, k, ell) == stirling2_associated(n, k, ell)
    # 1199 blocks, far past Python's recursion limit: one pair, C(1200, 2) ways
    assert stirling2_associated_rec(1200, 1199, 1) == math.comb(1200, 2)


def test_literal_recursion_breaks():
    # the as-printed second term cannot reach the k=1 column at all
    assert stirling2_rec_literal(2, 1) == 0
    assert stirling2(2, 1) == 1
    assert stirling2_rec_literal(0, 0) == 1
    # 5000 rows, past Python's recursion limit
    assert stirling2_rec_literal(5000, 1) == 0 == stirling2_rec_literal(5000, 0)


def test_negative_indices_rejected():
    with pytest.raises(ValueError):
        stirling2(-1, 0)
    with pytest.raises(ValueError):
        stirling2(3, -2)
