from fractions import Fraction

import pytest

from stirlingkit.audit import (
    associated_from_free,
    free_atleast_recursion,
    gen_restricted_recursion,
    gen_restricted_three_term,
)
from stirlingkit.core import stirling2, stirling2_associated, stirling2_restricted
from stirlingkit.exact import binomial, falling_factorial_deg
from stirlingkit.generalized import gen_stirling
from stirlingkit.incomplete import free_atleast, free_atleast_rec, gen_restricted, gen_restricted_rec
from stirlingkit.oracle import oracle_sum
from stirlingkit.schemes import free_atleast_scheme, gen_restricted_scheme

TRIPLES = [(0, 1, 0), (0, 1, 2), (1, 2, 0), (1, 3, 2), (2, 4, 2)]


def test_gen_restricted_examples():
    assert gen_restricted(4, 2, 0, 1, 0, 2) == stirling2_restricted(4, 2, 2) == 3
    for n in range(0, 9):
        for k in range(0, n + 1):
            assert gen_restricted(n, k, 1, 3, 2, max(n, 1)) == gen_stirling(n, k, 1, 3, 2)
    for n in range(0, 8):
        assert gen_restricted(n, 0, 1, 2, 2, 2) == falling_factorial_deg(2, n, 1)


def test_gen_restricted_ell_zero_matches_recurrence_and_oracle():
    # no block fits, so only k = 0 survives: the special set's weight
    for a, b, g in TRIPLES + [(0, 0, 0), (Fraction(-1, 2), 0, Fraction(3, 2))]:
        scheme = gen_restricted_scheme(a, b, g, 0)
        for n in range(0, 8):
            for k in range(0, n + 1):
                value = gen_restricted(n, k, a, b, g, 0)
                assert value == (falling_factorial_deg(g, n, a) if k == 0 else 0)
                assert value == gen_restricted_rec(n, k, a, b, g, 0)
                assert value == oracle_sum(n, k, scheme)


def test_gen_restricted_beta_zero_falls_back():
    v = gen_restricted(4, 2, 1, 0, 2, 2)
    assert v == gen_restricted_rec(4, 2, 1, 0, 2, 2)
    # the recursion path agrees with the generating function when both exist
    for n in range(0, 8):
        for k in range(0, n + 1):
            assert gen_restricted_rec(n, k, 1, 2, 2, 2) == gen_restricted(n, k, 1, 2, 2, 2)


def test_one_step_recursion():
    assert gen_restricted_recursion(5, 2, 1, 2, 2, 2) == gen_restricted(5, 2, 1, 2, 2, 2)
    assert gen_restricted_recursion(3, 5, 1, 2, 2, 2) == 0
    for n1 in range(1, 8):
        for k in range(0, n1 + 1):
            for ell in (1, 2, 3):
                assert gen_restricted_recursion(n1, k, 1, 3, 2, ell) == gen_restricted(
                    n1, k, 1, 3, 2, ell
                )


def test_one_step_literal_bounds_break():
    mismatches = [
        (n1, k)
        for n1 in range(1, 7)
        for k in range(0, n1 + 1)
        if gen_restricted_recursion(n1, k, 1, 2, 2, 2, literal=True)
        != gen_restricted(n1, k, 1, 2, 2, 2)
    ]
    assert (2, 1) in mismatches


def test_one_step_classic_specialization():
    # at (0,1,0) the corrected step is the plain size-capped recursion
    for n1 in range(1, 9):
        for k in range(0, n1 + 1):
            for ell in (1, 2, 3):
                step = gen_restricted_recursion(n1, k, 0, 1, 0, ell)
                direct = sum(
                    binomial(n1 - 1, i) * stirling2_restricted(n1 - 1 - i, k - 1, ell)
                    for i in range(0, min(ell - 1, n1 - 1) + 1)
                ) if k >= 1 else 0
                assert step == direct == stirling2_restricted(n1, k, ell)


def test_three_term_forms():
    for a, b, g in ((1, 2, 2), (2, 4, 2)):
        for ell in (1, 2, 3):
            for n in range(0, 8):
                for k in range(0, n + 2):
                    derived = gen_restricted_three_term(n, k, a, b, g, ell)
                    assert derived == gen_restricted(n + 1, k, a, b, g, ell)
    # the printed reading disagrees with its own left side somewhere
    bad = [
        (n, k)
        for n in range(0, 8)
        for k in range(0, n + 1)
        if gen_restricted_three_term(n, k, 1, 2, 2, 2, literal=True)
        != gen_restricted(n, k, 1, 2, 2, 2)
    ]
    assert bad


def test_free_atleast_examples():
    for n in range(0, 8):
        assert free_atleast(n, 0, Fraction(5, 2), 1) == Fraction(5, 2) ** n
    assert free_atleast(3, 1, 1, 1) == 4
    assert free_atleast(2, 1, 1, 0) == 3
    for n in range(0, 9):
        for k in range(0, n + 1):
            assert free_atleast(n, k, 0, 0) == stirling2(n, k)


def test_free_atleast_recursion_forms():
    assert free_atleast_recursion(3, 1, 1, 0) == 7 == free_atleast(3, 1, 1, 0)
    # no element: only the empty partition, as in the sibling one-step rules
    for k, expected in ((0, 1), (1, 0), (2, 0)):
        assert free_atleast_recursion(0, k, 3, 1) == expected == free_atleast(0, k, 3, 1)
    for args in ((-1, 0, 3, 1), (2, -1, 3, 1), (2, 1, 3, -1)):
        with pytest.raises(ValueError, match="non-negative"):
            free_atleast_recursion(*args)
    assert free_atleast_recursion(3, 1, 1, 0, literal=True) == 6
    for n1 in range(1, 8):
        assert free_atleast_recursion(n1, 0, 3, 1) == Fraction(3) ** n1
    assert free_atleast_recursion(4, 2, 1, 0) == free_atleast(4, 2, 1, 0)
    for n1 in range(1, 9):
        for k in range(0, n1 + 1):
            for ell in (0, 1, 2):
                assert free_atleast_recursion(n1, k, 2, ell) == free_atleast(n1, k, 2, ell)


def test_free_atleast_pure_recursion_path():
    for n in range(0, 9):
        for k in range(0, n + 1):
            for ell in (0, 1, 2):
                assert free_atleast_rec(n, k, Fraction(1, 2), ell) == free_atleast(
                    n, k, Fraction(1, 2), ell
                )


def test_free_atleast_binomial_convolution():
    for gamma in (Fraction(1), Fraction(2), Fraction(-1, 2)):
        for ell in (0, 1, 2):
            for n in range(0, 11):
                for k in range(0, n + 1):
                    expected = sum(
                        binomial(n, i)
                        * gamma ** i
                        * stirling2_associated(n - i, k, ell + 1)
                        for i in range(0, n + 1)
                    )
                    assert free_atleast(n, k, gamma, ell) == expected


def test_associated_from_free():
    assert associated_from_free(2, 1, 1, 1) == stirling2(2, 1) == 1
    assert associated_from_free(4, 2, 2, 2) == 3
    with pytest.raises(ValueError, match="ell >= 1"):
        associated_from_free(4, 2, 2, 0)
    for n in range(0, 8):
        for k in range(0, n + 1):
            assert associated_from_free(n, k, 0, 2) == free_atleast(n, k, 0, 1)


def test_associated_from_free_gamma_independent():
    gammas = (0, 1, 2, Fraction(1, 2), Fraction(-3, 2), 7)
    for ell in (1, 2, 3):
        for n in range(0, 11):
            for k in range(0, n + 1):
                values = {associated_from_free(n, k, g, ell) for g in gammas}
                assert values == {Fraction(stirling2_associated(n, k, ell))}


def test_oracle_equality():
    for a, b, g in TRIPLES:
        for ell in (1, 2, 3):
            for n in range(0, 8):
                for k in range(0, n + 1):
                    value = gen_restricted(n, k, a, b, g, ell)
                    assert value == oracle_sum(n, k, gen_restricted_scheme(a, b, g, ell))
                    # counts something: non-negative integer
                    assert value.denominator == 1 and value >= 0
    for g in (0, 1, 2):
        for ell in (0, 1, 2, 3):
            for n in range(0, 8):
                for k in range(0, n + 1):
                    assert free_atleast(n, k, g, ell) == oracle_sum(
                        n, k, free_atleast_scheme(g, ell)
                    )
