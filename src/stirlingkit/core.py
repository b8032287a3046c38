"""Classic, restricted and associated Stirling numbers of the second kind.

Values are defined here through coefficient extraction from the
exponential generating functions

    classic:     (e^x - 1)^k / k!
    restricted:  (e_{<=ell}(x) - 1)^k / k!      blocks of size at most ell
    associated:  (e^x - e_{<ell}(x))^k / k!     blocks of size at least ell

with e_{<=ell} and e_{<ell} the truncated exponentials; each is the EGF
of the family's weight scheme in the schemes module.  The classical
recurrences are provided separately as verification targets; the audit
module compares them (including a commonly printed but wrong variant of
the basic recursion) against these reference values.  The basic,
size-limited and size-floored recursions each run as the recurrence of a
scheme's declared differential equation (recurrence module), which reads
no series and no column and keeps its values in the scheme; the wrong
variant is a loop.  So neither n nor k meets a recursion depth
limit.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .exact import CACHE_SIZE, check_indices
from .recurrence import recurrence_value
from .schemes import WeightScheme, associated_scheme, classic_scheme, restricted_scheme

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
    return classic_scheme().value(k, n)


def stirling2_restricted(n: int, k: int, ell: int) -> int:
    """Partitions of an n-set into k blocks, each of size at most ell."""
    return restricted_scheme(ell).value(k, n)


def stirling2_associated(n: int, k: int, ell: int) -> int:
    """Partitions of an n-set into k blocks, each of size at least ell."""
    return associated_scheme(ell).value(k, n)


# -- recurrence evaluators (verification targets) ---------------------------


def stirling2_rec(n: int, k: int) -> int:
    """Standard recursion S(n,k) = k*S(n-1,k) + S(n-1,k-1): the classic
    scheme's declared recurrence, which is this rule itself."""
    return recurrence_value(n, k, classic_scheme())


def stirling2_rec_literal(n: int, k: int) -> int:
    """As-printed variant with second term S(n-2,k) instead of S(n-1,k-1).

    Seeded only with S(0,0) = 1 and zero row/column, exactly as stated
    alongside it; entries the rule cannot reach stay 0.  Kept for the
    identity audit, where it fails (first counterexample S(2,1)).  Each
    column of the rule reads only itself, so it runs as a two-term loop.
    """
    check_indices(n, k)
    if k == 0:
        return int(n == 0)
    before, value = 0, 0  # S(n-2,k), S(n-1,k) from S(-1,k) = S(0,k) = 0
    for _ in range(n):
        before, value = value, k * value + before
    return value


def stirling2_restricted_rec(n: int, k: int, ell: int) -> int:
    """Size-limited recursion: the new element's block takes i more members,
    i <= ell-1, and the rest form k-1 blocks.  This is the restricted
    scheme's declared recurrence, B' = q with q(i) = 1 for i < ell."""
    return recurrence_value(n, k, restricted_scheme(ell))


def stirling2_associated_rec(n: int, k: int, ell: int) -> int:
    """Size-floored recursion: the new element's block takes i >= ell-1 more
    members.  This printed sum is not the associated scheme's own equation,
    so it runs on a scheme with the same weights and the trivial B' = q."""
    return recurrence_value(n, k, _printed_associated_scheme(ell))


@lru_cache(maxsize=CACHE_SIZE)
def _printed_associated_scheme(ell: int) -> WeightScheme:
    """The associated weights with q(i) = bw(i+1): the printed sum over every
    i, its columns kept between calls like any scheme's."""
    base = associated_scheme(ell)
    weight = base.block_weight
    return WeightScheme("associated_printed(ell=%d)" % ell, base.special_weight, weight,
                        ode=(0, 0, 0, math.inf, lambda i: weight(i + 1)))
