"""Mixed free/degenerate-cell partition numbers, computed five ways.

The model: a free special set G of weight gamma^|G| plus k non-empty
blocks, where a block of size at most ell carries the degenerate weight
(beta-alpha)_{size-1,alpha} and a larger block is free (weight 1).

Reference path is coefficient extraction from the generating function
of that weight scheme (schemes module),

    e^(gamma*x) / k! * (e^x + sum_{i=1..ell} (beta-alpha)_{i-1,alpha} x^i/i!
                            - e_{<=ell}(x))^k,

which is defined for every beta.  Four independent routes re-derive
the same value: a binomial convolution splitting free from weighted
cells, an element-shift recursion, a multinomial block decomposition,
and a derivative-style recursion.  The multinomial and derivative
routes exist in a literal and a corrected reading; the audit compares
both.  The recurrence route (partial_deg_rec) reads the differential
equation the scheme declares (WeightScheme.recurrence).

Colored-singleton numbers (special set weight r^|G|, singleton blocks
in one of s colors) share the machinery and close the module.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from functools import lru_cache
from itertools import groupby

from .exact import (
    CACHE_SIZE,
    Rational,
    binomial,
    check_indices,
    multinomial,
    rational,
)
from .schemes import (
    colored_singleton_scheme,
    free_atleast_scheme,
    gen_restricted_scheme,
    partial_degenerate_scheme,
)

__all__ = [
    "partial_deg",
    "partial_deg_rec",
    "partial_deg_convolution",
    "partial_deg_recursion",
    "partial_deg_multinomial",
    "partial_deg_derivative_recursion",
    "colored_singleton",
    "colored_singleton_rec",
]


def partial_deg(
    n: int, k: int, ell: int, gamma: Rational, alpha: Rational, beta: Rational
) -> Rational:
    """Weighted count of mixed free/degenerate-cell partitions."""
    return partial_degenerate_scheme(gamma, alpha, beta, ell).value(k, n)


def partial_deg_convolution(
    n: int, k: int, ell: int, gamma: Rational, alpha: Rational, beta: Rational, split=None
) -> Rational:
    """Split by the element set living in free cells: a binomial convolution
    of the free-cell numbers with the size-capped weighted numbers (the
    gen_restricted numbers with an empty special set, gamma = 0).

    split(free, weighted, k) evaluates one split; None means
    _splits(ell, gamma, alpha, beta)."""
    check_indices(n, k, ell)
    split = split or _splits(ell, gamma, alpha, beta)
    total = 0
    for i in range(0, n + 1):
        total += binomial(n, i) * split(i, n - i, k)
    return total


def _splits(ell: int, g: Rational, a: Rational, b: Rational):
    """(free, weighted, k) -> sum_j free_atleast(free, j) * gen_restricted(weighted, k - j)
    at gamma = 0: j of the k blocks hold the `free` elements of free cells,
    the rest the `weighted` ones.  Blocks are non-empty, so j runs only
    where neither factor has more blocks than elements.  The two schemes
    are looked up once, here, not once per split."""
    free_value = free_atleast_scheme(g, ell).value
    weighted_value = gen_restricted_scheme(a, b, 0, ell).value

    def split(free: int, weighted: int, k: int) -> Rational:
        total = 0
        for j in range(max(0, k - weighted), min(free, k) + 1):
            fa = free_value(j, free)
            if fa:
                total += fa * weighted_value(k - j, weighted)
        return total

    return split


def partial_deg_recursion(
    n_plus_1: int, k: int, ell: int, gamma: Rational, alpha: Rational, beta: Rational,
    split=None,
) -> Rational:
    """Recursion on the newest element's position: it joins either a free
    cell or a weighted cell, shifting one factor of the convolution.  It
    reads the splits of n + 1 elements, exactly those the convolution at
    n + 1 reads; split is as there."""
    check_indices(n_plus_1, k, ell)
    if n_plus_1 == 0:
        return 1 if k == 0 else 0
    split = split or _splits(ell, gamma, alpha, beta)
    n = n_plus_1 - 1
    total = 0
    for i in range(0, n + 1):
        total += binomial(n, i) * (split(i + 1, n - i, k) + split(i, n - i + 1, k))
    return total


def partial_deg_multinomial(
    n: int,
    k: int,
    ell: int,
    gamma: Rational,
    alpha: Rational,
    beta: Rational,
    literal: bool = False,
) -> Rational:
    """Block-by-block multinomial decomposition.

    Corrected reading: sum over ordered size compositions r_1..r_k >= 1
    plus a special-set remainder, each block contributing its own
    single-block weight, divided by k! because blocks are unordered.
    The literal reading keeps the product subscripts at 1..k and drops
    the 1/k!; the audit scores it.  Both sums read the compositions
    grouped by their multiset of sizes (_composition_table).
    """
    check_indices(n, k, ell)
    block_weight = partial_degenerate_scheme(gamma, alpha, beta, ell).block_weight
    total = 0
    if literal:
        fixed = 1
        for i in range(1, k + 1):
            fixed *= block_weight(i)
        for _, remainder, coefficient in _composition_table(n, k, ell):
            total += coefficient * gamma ** remainder * fixed
        return total
    for head, remainder, coefficient in _composition_table(n, k, 1):
        w = coefficient * gamma ** remainder
        for size in head:
            w *= block_weight(size)
        total += w
    return rational(total, math.factorial(k))


@lru_cache(maxsize=CACHE_SIZE)
def _composition_table(n: int, k: int, minimum: int) -> tuple:
    """(head, remainder, coefficient) for each non-increasing head of k
    block sizes >= minimum with sum <= n, one row for all its orderings:
    the remainder n - sum(head) is the special set's size and the
    coefficient is the number of distinct orderings of the head times
    n! / (r_1! ... r_k! remainder!).  Every term the decomposition sums is
    symmetric in the order of the head, so both readings of every
    parameter set read this one table."""
    table = []
    for head in _iter_heads(n, k, minimum, n):
        remainder = n - sum(head)
        orderings = multinomial(k, [len(list(run)) for _, run in groupby(head)])
        table.append((head, remainder, orderings * multinomial(n, head + (remainder,))))
    return tuple(table)


def _iter_heads(n: int, k: int, minimum: int, largest: int) -> Iterator[tuple[int, ...]]:
    """Block-size tuples largest >= r_1 >= ... >= r_k >= minimum with sum <= n."""
    if k == 0:
        yield ()
        return
    for first in range(minimum, min(largest, n - minimum * (k - 1)) + 1):
        for rest in _iter_heads(n - first, k - 1, minimum, first):
            yield (first,) + rest


def partial_deg_derivative_recursion(
    n_plus_1: int,
    k: int,
    ell: int,
    gamma: Rational,
    alpha: Rational,
    beta: Rational,
    literal: bool = False,
) -> Rational:
    """Recursion from differentiating the generating function.

    Corrected inner index k-1: the newest element either joins the
    special set or completes one distinguished block.  The literal
    variant keeps the inner index at k; the audit scores it.  The rows
    below n+1 are the reference values, partial_deg.
    """
    check_indices(n_plus_1, k, ell)
    if k < 1:
        raise ValueError("derivative recursion needs k >= 1")
    n = n_plus_1 - 1
    block_weight = partial_degenerate_scheme(gamma, alpha, beta, ell).block_weight
    total = gamma * partial_deg(n, k, ell, gamma, alpha, beta)
    inner_k = k if literal else k - 1
    # rows with fewer elements than blocks are zero
    for i in range(inner_k, n + 1):
        row = partial_deg(i, inner_k, ell, gamma, alpha, beta)
        if row:
            total += binomial(n, i) * row * block_weight(n - i + 1)
    return total


def partial_deg_rec(
    n: int, k: int, ell: int, gamma: Rational, alpha: Rational, beta: Rational
) -> Rational:
    """Recurrence path (no generating function): the scheme's declared
    differential equation read by WeightScheme.recurrence."""
    return partial_degenerate_scheme(gamma, alpha, beta, ell).recurrence(k, n)


def colored_singleton_rec(n: int, k: int, r: int, s: int) -> int:
    """Recurrence path for the colored-singleton numbers: the scheme's
    declared differential equation read by WeightScheme.recurrence."""
    return colored_singleton_scheme(r, s).recurrence(k, n)


def colored_singleton(n: int, k: int, r: int, s: int) -> int:
    """Partition count with an r-compartment free special set and singleton
    blocks colored one of s ways."""
    return colored_singleton_scheme(r, s).value(k, n)
