import gc
import math
from fractions import Fraction
from types import SimpleNamespace

import pytest

from stirlingkit import audit, partial
from stirlingkit.audit import (
    partial_deg_convolution,
    partial_deg_derivative_recursion,
    partial_deg_multinomial,
    partial_deg_recursion,
)
from stirlingkit.core import stirling2, stirling2_associated
from stirlingkit.exact import CACHE_SIZE, multinomial, rational
from stirlingkit.incomplete import free_atleast, gen_restricted
from stirlingkit.oracle import oracle_sum
from stirlingkit.partial import (
    colored_singleton,
    colored_singleton_rec,
    partial_deg,
    partial_deg_rec,
)
from stirlingkit.schemes import WeightScheme, colored_singleton_scheme, partial_degenerate_scheme

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


def _iter_head_compositions(n, k, minimum):
    """Ordered block-size tuples r_1..r_k >= minimum with sum <= n."""
    if k == 0:
        yield ()
        return
    for first in range(minimum, n - minimum * (k - 1) + 1):
        for rest in _iter_head_compositions(n - first, k - 1, minimum):
            yield (first,) + rest


def _multinomial_as_stated(n, k, ell, gamma, alpha, beta, literal):
    """The decomposition term by term, each composition enumerated and
    its multinomial formed where it is used."""
    block_weight = partial_degenerate_scheme(gamma, alpha, beta, ell).block_weight
    total = 0
    for head in _iter_head_compositions(n, k, ell if literal else 1):
        remainder = n - sum(head)
        w = multinomial(n, list(head) + [remainder]) * gamma ** remainder
        for i, size in enumerate(head, 1):
            w *= block_weight(i if literal else size)
        total += w
    return total if literal else rational(total, math.factorial(k))


def test_composition_table():
    # the ordered compositions, grouped by their multiset of sizes, give the
    # table: one row per multiset, its coefficient the multinomial of any
    # one ordering times their number.  At minimum 0 there are C(n + k, k)
    # compositions: k stops at 4 there, as in the audit's grid
    for minimum in range(0, 4):
        for n in range(0, 11):
            for k in range(0, (n if minimum else min(n, 4)) + 1):
                grouped = {}
                for head in _iter_head_compositions(n, k, minimum):
                    remainder = n - sum(head)
                    key = tuple(sorted(head, reverse=True))
                    grouped[key] = grouped.get(key, 0) + multinomial(n, list(head) + [remainder])
                table = audit._composition_table(n, k, minimum)
                assert {head: coefficient for head, _, coefficient in table} == grouped
                assert len(table) == len(grouped)
                for head, remainder, _ in table:
                    assert remainder == n - sum(head) >= 0
    assert audit._composition_table.cache_info().maxsize == CACHE_SIZE


def test_multinomial_forms():
    assert partial_deg_multinomial(2, 2, 1, 0, 1, 2) == 1
    assert partial_deg_multinomial(2, 2, 1, 0, 1, 2, literal=True) == 2
    for n in range(0, 9):
        assert partial_deg_multinomial(n, 1, 2, 0, 1, 3) == partial_deg(n, 1, 2, 0, 1, 3)
    rational_triples = [(Fraction(1, 2), Fraction(-1, 3), Fraction(5, 2)),
                        (Fraction(-2, 3), Fraction(1, 2), 0)]
    for gamma, alpha, beta in PARTIAL_TRIPLES + rational_triples:
        for n in range(0, 9):
            for k in range(0, n + 1):
                for ell in (0, 1, 2, 3):
                    corrected = partial_deg_multinomial(n, k, ell, gamma, alpha, beta)
                    expected = partial_deg(n, k, ell, gamma, alpha, beta)
                    assert corrected == expected and type(corrected) is type(expected)
                    assert corrected == _multinomial_as_stated(
                        n, k, ell, gamma, alpha, beta, literal=False)
                    if k > 4 and ell == 0:
                        continue  # C(n + k, k) heads; the audit reads k <= 4
                    literal = partial_deg_multinomial(n, k, ell, gamma, alpha, beta, literal=True)
                    stated = _multinomial_as_stated(n, k, ell, gamma, alpha, beta, literal=True)
                    assert literal == stated and type(literal) is type(stated)


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
    # rows with fewer elements than blocks are zero and never filled: a
    # near-diagonal value fills only the band 0 <= m - j <= 3 of its scheme
    gamma = Fraction(5, 17)
    scheme = partial_degenerate_scheme(gamma, 1, 2, 2)
    before = sum(len(column) for column in scheme._rows)
    assert partial_deg_rec(60, 57, 2, gamma, 1, 2) == partial_deg(60, 57, 2, gamma, 1, 2)
    assert sum(len(column) for column in scheme._rows) - before <= 5 * 58


def test_recurrence_memory_is_bounded_by_the_scheme_cache():
    # the recurrence keeps its values in the scheme's columns, so a caller
    # asking for ever new parameters keeps at most CACHE_SIZE schemes alive
    gammas = [Fraction(i, 997) for i in range(1, 301)]
    names = {partial_degenerate_scheme(gamma, 1, 2, 2).name for gamma in gammas}
    partial_degenerate_scheme.cache_clear()
    for gamma in gammas:
        partial_deg_rec(12, 3, 2, gamma, 1, 2)
    gc.collect()
    alive = [obj for obj in gc.get_objects() if isinstance(obj, WeightScheme) and obj.name in names]
    assert len(names) == 300 and len(alive) <= CACHE_SIZE


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


def test_parameters_are_converted_where_the_scheme_is_built(monkeypatch):
    # the entry point hands the factory the caller's own objects, and an
    # int and the equal Fraction share one cached scheme
    real = partial_degenerate_scheme
    received = []

    def watched(*args):
        received.append(args)
        return real(*args)

    monkeypatch.setattr(partial, "partial_degenerate_scheme", watched)
    gamma, alpha, beta = 3, -1, 2
    value = partial_deg(6, 2, 2, gamma, alpha, beta)
    assert [type(x) for x in received[0]] == [int] * 4
    assert received[0][0] is gamma and received[0][1] is alpha and received[0][2] is beta
    before = real.cache_info()
    assert partial_deg(6, 2, 2, Fraction(gamma), Fraction(alpha), Fraction(beta)) == value
    after = real.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)
    assert real(gamma, alpha, beta, 2) is real(Fraction(gamma), Fraction(alpha), Fraction(beta), 2)


def test_reference_routes_ask_only_for_cells_that_exist(monkeypatch):
    # a cell with more blocks than elements is zero; the convolution, its
    # recursion and associated_from_free must not spend a column read on it
    from stirlingkit import incomplete

    asked = []
    reads = []

    def watched(module, name):
        real = getattr(module, name)

        def wrapper(n, k, *rest):
            if k > n:
                asked.append((module.__name__, name, n, k))
            return real(n, k, *rest)

        monkeypatch.setattr(module, name, wrapper)

    def watched_scheme(module, name):
        # the convolution and associated_from_free read the schemes' values
        # directly, value(k, n)
        real = getattr(module, name)

        def factory(*args):
            value = real(*args).value

            def read(k, n):
                reads.append(name)
                if k > n:
                    asked.append((module.__name__, name, n, k))
                return value(k, n)

            return SimpleNamespace(value=read)

        monkeypatch.setattr(module, name, factory)

    watched(incomplete, "free_atleast")
    watched(incomplete, "gen_restricted")
    watched_scheme(audit, "free_atleast_scheme")
    watched_scheme(audit, "gen_restricted_scheme")
    watched_scheme(incomplete, "free_atleast_scheme")
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
    assert set(reads) == {"free_atleast_scheme", "gen_restricted_scheme"}
