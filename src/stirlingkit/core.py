"""Classic, restricted and associated Stirling numbers of the second kind.

Values are defined here through coefficient extraction from the
exponential generating functions

    classic:     (e^x - 1)^k / k!
    restricted:  (e_{<=ell}(x) - 1)^k / k!      blocks of size at most ell
    associated:  (e^x - e_{<ell}(x))^k / k!     blocks of size at least ell

with e_{<=ell} and e_{<ell} the truncated exponentials; each is the EGF
of the family's weight scheme in the oracle module.  The classical
recurrences are provided separately as verification targets; the audit
module compares them (including a commonly printed but wrong variant of
the basic recursion) against these reference values.
"""

from __future__ import annotations

from functools import cache

from .exact import UNFILLED_ROWS, as_integer, binomial, cells_below, check_indices
from .oracle import associated_scheme, classic_scheme, restricted_scheme

__all__ = [
    "stirling2",
    "stirling2_restricted",
    "stirling2_associated",
    "stirling2_rec",
    "stirling2_rec_literal",
    "stirling2_restricted_rec",
    "stirling2_associated_rec",
]


def stirling2(n: int, k: int) -> int:
    """Partitions of an n-set into k non-empty blocks."""
    check_indices(n, k)
    return as_integer(classic_scheme().value(k, n))


def stirling2_restricted(n: int, k: int, ell: int) -> int:
    """Partitions of an n-set into k blocks, each of size at most ell."""
    check_indices(n, k, ell)
    # the column cannot see that the block series is a polynomial of degree
    # ell, so it would reach this zero only after O(n) coefficients
    if n > k * ell:
        return 0
    return as_integer(restricted_scheme(ell).value(k, n))


def stirling2_associated(n: int, k: int, ell: int) -> int:
    """Partitions of an n-set into k blocks, each of size at least ell."""
    check_indices(n, k, ell)
    return as_integer(associated_scheme(ell).value(k, n))


# -- recurrence evaluators (verification targets) ---------------------------


def stirling2_rec(n: int, k: int) -> int:
    """Standard recursion S(n,k) = k*S(n-1,k) + S(n-1,k-1), its rows
    filled bottom-up so n has no depth limit."""
    check_indices(n, k)
    for m, j in cells_below(n, k):
        _stirling2_rec(m, j)
    return _stirling2_rec(n, k)


@cache
def _stirling2_rec(n: int, k: int) -> int:
    if n == 0:
        return 1 if k == 0 else 0
    if k == 0 or k > n:
        return 0
    return k * _stirling2_rec(n - 1, k) + _stirling2_rec(n - 1, k - 1)


@cache
def stirling2_rec_literal(n: int, k: int) -> int:
    """As-printed variant with second term S(n-2,k) instead of S(n-1,k-1).

    Seeded only with S(0,0) = 1 and zero row/column, exactly as stated
    alongside it; entries the rule cannot reach stay 0.  Kept for the
    identity audit, where it fails (first counterexample S(2,1)).
    """
    check_indices(n, k)
    if n == 0:
        return 1 if k == 0 else 0
    if k == 0:
        return 0
    prev2 = stirling2_rec_literal(n - 2, k) if n >= 2 else 0
    return k * stirling2_rec_literal(n - 1, k) + prev2


def stirling2_restricted_rec(n: int, k: int, ell: int) -> int:
    """Size-limited recursion: the new element's block takes i more members,
    i <= ell-1, and the rest form k-1 blocks.  Each level drops one block,
    so the memo is filled bottom-up, column by column, over the cells the
    recursion reaches and k has no depth limit."""
    check_indices(n, k, ell)
    for j in range(k - UNFILLED_ROWS):
        # k-j blocks of 1..ell elements were removed, j blocks remain
        for m in range(max(j, n - (k - j) * ell), min(j * ell, n - (k - j)) + 1):
            _restricted_rec(m, j, ell)
    return _restricted_rec(n, k, ell)


@cache
def _restricted_rec(n: int, k: int, ell: int) -> int:
    if k == 0 or not k <= n <= k * ell:
        return 1 if n == k == 0 else 0
    m = n - 1
    return sum(
        binomial(m, i) * _restricted_rec(m - i, k - 1, ell)
        for i in range(0, min(ell - 1, m) + 1)
    )


def stirling2_associated_rec(n: int, k: int, ell: int) -> int:
    """Size-floored recursion: the new element's block takes i >= ell-1 more
    members.  Filled bottom-up like the size-limited one, so k has no
    depth limit."""
    check_indices(n, k, ell)
    low = max(ell, 1)
    for j in range(k - UNFILLED_ROWS):
        # k-j blocks of at least `low` elements were removed, j blocks remain
        for m in range(j * low, n - (k - j) * low + 1):
            _associated_rec(m, j, ell)
    return _associated_rec(n, k, ell)


@cache
def _associated_rec(n: int, k: int, ell: int) -> int:
    if k == 0 or n < k * max(ell, 1):
        return 1 if n == k == 0 else 0
    m = n - 1
    # the printed sum runs to i = m; past m - (k-1)*max(ell, 1) the k-1
    # remaining blocks no longer fit, so every later term is zero
    return sum(
        binomial(m, i) * _associated_rec(m - i, k - 1, ell)
        for i in range(max(ell - 1, 0), m - (k - 1) * max(ell, 1) + 1)
    )
