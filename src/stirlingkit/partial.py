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
both.  The recurrence route (partial_deg_rec) applies the audited
corrected derivative rule to its own memoised rows, filled bottom-up.

Colored-singleton numbers (special set weight r^|G|, singleton blocks
in one of s colors) share the machinery and close the module.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from fractions import Fraction
from functools import cache

from .exact import Rational, as_integer, binomial, cells_below, check_indices, multinomial
from .incomplete import free_atleast, gen_restricted
from .schemes import colored_singleton_scheme, partial_degenerate_scheme

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
) -> Fraction:
    """Weighted count of mixed free/degenerate-cell partitions."""
    g, a, b = Fraction(gamma), Fraction(alpha), Fraction(beta)
    check_indices(n, k, ell)
    return partial_degenerate_scheme(g, a, b, ell).value(k, n)


def partial_deg_convolution(
    n: int, k: int, ell: int, gamma: Rational, alpha: Rational, beta: Rational
) -> Fraction:
    """Split by the element set living in free cells: a binomial convolution
    of the free-cell numbers with the size-capped weighted numbers (the
    gen_restricted numbers with an empty special set, gamma = 0)."""
    g, a, b = Fraction(gamma), Fraction(alpha), Fraction(beta)
    check_indices(n, k, ell)
    total = Fraction(0)
    for i in range(0, n + 1):
        total += binomial(n, i) * _split(i, n - i, k, ell, g, a, b)
    return total


def _split(
    free: int, weighted: int, k: int, ell: int, g: Fraction, a: Fraction, b: Fraction
) -> Fraction:
    """sum_j free_atleast(free, j) * gen_restricted(weighted, k - j) at
    gamma = 0: j of the k blocks hold the `free` elements of free cells,
    the rest the `weighted` ones.  Blocks are non-empty, so j runs only
    where neither factor has more blocks than elements."""
    total = Fraction(0)
    for j in range(max(0, k - weighted), min(free, k) + 1):
        fa = free_atleast(free, j, g, ell)
        if fa:
            total += fa * gen_restricted(weighted, k - j, a, b, 0, ell)
    return total


def partial_deg_recursion(
    n_plus_1: int, k: int, ell: int, gamma: Rational, alpha: Rational, beta: Rational
) -> Fraction:
    """Recursion on the newest element's position: it joins either a free
    cell or a weighted cell, shifting one factor of the convolution."""
    g, a, b = Fraction(gamma), Fraction(alpha), Fraction(beta)
    check_indices(n_plus_1, k, ell)
    if n_plus_1 == 0:
        return Fraction(1 if k == 0 else 0)
    n = n_plus_1 - 1
    total = Fraction(0)
    for i in range(0, n + 1):
        total += binomial(n, i) * (
            _split(i + 1, n - i, k, ell, g, a, b) + _split(i, n - i + 1, k, ell, g, a, b)
        )
    return total


def partial_deg_multinomial(
    n: int,
    k: int,
    ell: int,
    gamma: Rational,
    alpha: Rational,
    beta: Rational,
    literal: bool = False,
) -> Fraction:
    """Block-by-block multinomial decomposition.

    Corrected reading: sum over ordered size compositions r_1..r_k >= 1
    plus a special-set remainder, each block contributing its own
    single-block weight, divided by k! because blocks are unordered.
    The literal reading keeps the product subscripts at 1..k and drops
    the 1/k!; the audit scores it.
    """
    g, a, b = Fraction(gamma), Fraction(alpha), Fraction(beta)
    check_indices(n, k, ell)
    block_weight = partial_degenerate_scheme(g, a, b, ell).block_weight
    total = Fraction(0)
    if literal:
        fixed = Fraction(1)
        for i in range(1, k + 1):
            fixed *= block_weight(i)
        for head in _iter_head_compositions(n, k, ell):
            remainder = n - sum(head)
            total += multinomial(n, list(head) + [remainder]) * g ** remainder * fixed
        return total
    for head in _iter_head_compositions(n, k, 1):
        remainder = n - sum(head)
        w = Fraction(multinomial(n, list(head) + [remainder])) * g ** remainder
        for size in head:
            w *= block_weight(size)
        total += w
    return total / math.factorial(k)


def _iter_head_compositions(n: int, k: int, minimum: int) -> Iterator[tuple[int, ...]]:
    """Ordered block-size tuples r_1..r_k >= minimum with sum <= n."""
    if k == 0:
        yield ()
        return
    for first in range(minimum, n - minimum * (k - 1) + 1):
        for rest in _iter_head_compositions(n - first, k - 1, minimum):
            yield (first,) + rest


def partial_deg_derivative_recursion(
    n_plus_1: int,
    k: int,
    ell: int,
    gamma: Rational,
    alpha: Rational,
    beta: Rational,
    literal: bool = False,
    lower=None,
) -> Fraction:
    """Recursion from differentiating the generating function.

    Corrected inner index k-1: the newest element either joins the
    special set or completes one distinguished block.  The literal
    variant keeps the inner index at k; the audit scores it.
    lower(m, j, ell, gamma, alpha, beta) evaluates the rows below n+1,
    on the parameters as given; None means the reference values,
    partial_deg as looked up at call time.  The recurrence route passes
    its own memoised rows instead.
    """
    check_indices(n_plus_1, k, ell)
    if k < 1:
        raise ValueError("derivative recursion needs k >= 1")
    if lower is None:
        lower = partial_deg
    n = n_plus_1 - 1
    block_weight = partial_degenerate_scheme(gamma, alpha, beta, ell).block_weight
    total = gamma * lower(n, k, ell, gamma, alpha, beta)
    inner_k = k if literal else k - 1
    # rows with fewer elements than blocks are zero, so the memoised rows
    # of the recurrence route stay within the band m - j <= n - k
    for i in range(inner_k, n + 1):
        row = lower(i, inner_k, ell, gamma, alpha, beta)
        if row:
            total += binomial(n, i) * row * block_weight(n - i + 1)
    return total


def partial_deg_rec(
    n: int, k: int, ell: int, gamma: Rational, alpha: Rational, beta: Rational
) -> Fraction:
    """Full recursion path: the corrected derivative-style rule applied to
    its own rows, filled bottom-up so n has no depth limit."""
    g, a, b = Fraction(gamma), Fraction(alpha), Fraction(beta)
    check_indices(n, k, ell)
    for m, j in cells_below(n, k):
        _partial_rec(m, j, ell, g, a, b)
    return _partial_rec(n, k, ell, g, a, b)


@cache
def _partial_rec(
    n: int, k: int, ell: int, gamma: Fraction, alpha: Fraction, beta: Fraction
) -> Fraction:
    if k > n:
        return Fraction(0)
    if k == 0:
        return gamma ** n
    return partial_deg_derivative_recursion(n, k, ell, gamma, alpha, beta, lower=_partial_rec)


@cache
def _colored_rec(n: int, k: int, r: int, s: int) -> int:
    if n == 0:
        return 1 if k == 0 else 0
    if k > n:
        return 0
    if k == 0:
        return r ** n
    m = n - 1
    total = r * _colored_rec(m, k, r, s)
    for i in range(0, m + 1):
        row = _colored_rec(i, k - 1, r, s)
        if row:
            total += binomial(m, i) * row * (s if m - i + 1 == 1 else 1)
    return total


def colored_singleton_rec(n: int, k: int, r: int, s: int) -> int:
    """Full recursion path for the colored-singleton numbers, its rows
    filled bottom-up so n has no depth limit."""
    if n < 0 or k < 0 or r < 0 or s < 0:
        raise ValueError("all arguments must be non-negative")
    for m, j in cells_below(n, k):
        _colored_rec(m, j, r, s)
    return _colored_rec(n, k, r, s)


def colored_singleton(n: int, k: int, r: int, s: int) -> int:
    """Partition count with an r-compartment free special set and singleton
    blocks colored one of s ways."""
    if n < 0 or k < 0 or r < 0 or s < 0:
        raise ValueError("all arguments must be non-negative")
    return as_integer(colored_singleton_scheme(r, s).value(k, n))
