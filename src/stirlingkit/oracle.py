"""Brute-force enumeration of weighted mixed partitions: the ground truth.

A mixed partition of {1..n} is a pair (G, P): a possibly-empty special
set G together with k pairwise-disjoint non-empty blocks covering the
rest.  Every number family in this package is a weighted sum over these
pairs for some weight scheme, so exhaustive enumeration at small n
defines the expected value of everything else.

Enumeration is restricted-growth style with the special set as an extra
always-available class: element 1 is offered the special set, any block
already started, or a fresh block.  Each pair is produced exactly once,
blocks canonically ordered by first element, and the stream order is
deterministic so failures reproduce.

A weight scheme (schemes module) weighs a pair by sw(|G|) and bw of each
block size.  The oracle reads it through these two weights only, never
through its generating function, so it checks the canonical value path
independently.  Weights depend only on |G| and the block sizes, so the
summation helper counts the pairs by size profile.  The counter walks
the same tree as enumerate_mixed but carries only the sizes, building no
pair object; it still counts every pair one by one, with no closed-form
shortcut, and the tests check it against enumerate_mixed.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterator, NamedTuple

from .exact import CACHE_SIZE, check_indices

__all__ = [
    "ENUMERATION_CAP",
    "MixedPartition",
    "enumerate_mixed",
    "oracle_sum",
    "oracle_sum_blocksum",
]

# Bell-like growth with an extra class: n = 11 is 4.2M pairs over all k,
# which the profile counter walks in about 3.5 s (2 shared vCPUs).
ENUMERATION_CAP = 11


class MixedPartition(NamedTuple):
    special_set: frozenset
    blocks: tuple

    def is_valid(self, n: int) -> bool:
        seen = set(self.special_set)
        if any(not b for b in self.blocks):
            return False
        for b in self.blocks:
            if seen & b:
                return False
            seen |= b
        return seen == set(range(1, n + 1))


def _check_indices(n: int, k: int) -> None:
    check_indices(n, k)
    if n > ENUMERATION_CAP:
        raise ValueError(
            "enumeration of mixed partitions is capped at n=%d (asked for n=%d)"
            % (ENUMERATION_CAP, n)
        )


def enumerate_mixed(n: int, k: int) -> Iterator[MixedPartition]:
    """Yield every (G, P_k) pair over {1..n} exactly once; n beyond the
    enumeration cap is refused."""
    _check_indices(n, k)
    special: list[int] = []
    blocks: list[list[int]] = []

    def rec(element: int) -> Iterator[MixedPartition]:
        if element > n:
            if len(blocks) == k:
                yield MixedPartition(
                    frozenset(special), tuple(frozenset(b) for b in blocks)
                )
            return
        # remaining elements must still be able to open all missing blocks
        if k - len(blocks) > n - element + 1:
            return
        special.append(element)
        yield from rec(element + 1)
        special.pop()
        for b in blocks:
            b.append(element)
            yield from rec(element + 1)
            b.pop()
        if len(blocks) < k:
            blocks.append([element])
            yield from rec(element + 1)
            blocks.pop()

    return rec(1)


@lru_cache(maxsize=CACHE_SIZE)
def _profile_counts(n: int, k: int) -> dict:
    """Count pairs by (|G|, sorted block sizes).

    Walks the tree of enumerate_mixed (the same choices in the same order,
    the same pruning) keeping only the size vector (|G|, |B_1|, ..., |B_k|),
    and counts each pair one by one under its vector; the vectors are folded
    into profiles once, at the end.
    """
    _check_indices(n, k)
    if n == 0:
        return {(0, ()): 1} if k == 0 else {}
    sizes = [0] * (k + 1)  # sizes[0] is |G|, sizes[i] is |B_i|
    vectors: dict = {}

    def walk(element: int, opened: int) -> None:
        # remaining elements must still be able to open all missing blocks
        if k - opened > n - element + 1:
            return
        if element == n:
            # the pruning leaves opened >= k - 1: the last element goes to the
            # special set or an open block, or else it opens the last block
            for i in range(k + 1) if opened == k else (k,):
                sizes[i] += 1
                vector = tuple(sizes)
                vectors[vector] = vectors.get(vector, 0) + 1
                sizes[i] -= 1
            return
        for i in range(opened + 1):
            sizes[i] += 1
            walk(element + 1, opened)
            sizes[i] -= 1
        if opened < k:
            sizes[opened + 1] = 1
            walk(element + 1, opened + 1)
            sizes[opened + 1] = 0

    walk(1, 0)
    counts: dict = {}
    for vector, count in vectors.items():
        profile = (vector[0], tuple(sorted(vector[1:])))
        counts[profile] = counts.get(profile, 0) + count
    return counts


def oracle_sum(n: int, k: int, scheme) -> Fraction:
    """Sum of w(G, P) over all pairs (G, P_k) under the scheme, read through
    its special_weight and block_weight only."""
    total = Fraction(0)
    for (g, sizes), count in _profile_counts(n, k).items():
        w = Fraction(scheme.special_weight(g))
        for s in sizes:
            w *= scheme.block_weight(s)
        total += count * w
    return total


def oracle_sum_blocksum(n: int, k: int, scheme) -> Fraction:
    """Variant folding block weights by sum instead of product.

    The notation w(P_k) = sum_i w(B_i) circulates alongside the product
    form; the audit evaluates this variant to show it breaks the special
    values.  The empty partition keeps weight 1.  A zero block weight does
    not zero the sum, so a pair with an excluded block size still counts
    here; the audit reads the variant on the generalized scheme only.
    """
    total = Fraction(0)
    for (g, sizes), count in _profile_counts(n, k).items():
        if sizes:
            w_blocks = sum(Fraction(scheme.block_weight(s)) for s in sizes)
        else:
            w_blocks = Fraction(1)
        total += count * Fraction(scheme.special_weight(g)) * w_blocks
    return total

