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
the same tree as enumerate_mixed but builds no pair object: it carries one
int key, the size vector (|G|, |B_1|, ..., |B_k|) written in base n + 1,
so placing an element adds a power of n + 1.  It still counts every pair
one by one, with no memo and no closed-form shortcut, decodes each
distinct key once at the end, and the tests check it against
enumerate_mixed.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from functools import lru_cache

from .exact import CACHE_SIZE, Rational, check_indices
from .names import ENUMERATION_CAP

__all__ = [
    "ENUMERATION_CAP",
    "MixedPartition",
    "enumerate_mixed",
    "oracle_sum",
    "oracle_sum_blocksum",
]

# special_set is a frozenset of elements, blocks a tuple of frozensets
class MixedPartition(namedtuple("MixedPartition", ("special_set", "blocks"))):
    """One pair (G, P): the special set and the blocks, in canonical order."""

    __slots__ = ()

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
    the same pruning) carrying only one int key: the size vector
    (|G|, |B_1|, ..., |B_k|) written in base n + 1 (no size exceeds n), so
    putting an element in class i adds (n + 1)**i.  Each pair is counted
    one by one under its key, and each distinct key is decoded and folded
    into its profile once, at the end.
    """
    _check_indices(n, k)
    if n == 0:
        return {(0, ()): 1} if k == 0 else {}
    base = n + 1
    place = [base ** i for i in range(k + 1)]  # place[0] is G, place[i] is B_i
    keys: dict = {}

    def walk(element: int, opened: int, key: int) -> None:
        # remaining elements must still be able to open all missing blocks
        if k - opened > n - element + 1:
            return
        if element == n:
            # the pruning leaves opened >= k - 1: the last element goes to the
            # special set or an open block, or else it opens the last block
            for step in place if opened == k else place[k:]:
                leaf = key + step
                keys[leaf] = keys.get(leaf, 0) + 1
            return
        for step in place[: opened + 1]:
            walk(element + 1, opened, key + step)
        if opened < k:
            walk(element + 1, opened + 1, key + place[opened + 1])

    walk(1, 0, 0)
    counts: dict = {}
    for key, count in keys.items():
        sizes = []
        for _ in range(k + 1):
            key, size = divmod(key, base)
            sizes.append(size)
        profile = (sizes[0], tuple(sorted(sizes[1:])))
        counts[profile] = counts.get(profile, 0) + count
    return counts


def oracle_sum(n: int, k: int, scheme) -> Rational:
    """Sum of w(G, P) over all pairs (G, P_k) under the scheme, read through
    its special_weight and block_weight only; an int when the weights are."""
    total = 0
    for (g, sizes), count in _profile_counts(n, k).items():
        w = scheme.special_weight(g)
        for s in sizes:
            w *= scheme.block_weight(s)
        total += count * w
    return total


def oracle_sum_blocksum(n: int, k: int, scheme) -> Rational:
    """Variant folding block weights by sum instead of product.

    The notation w(P_k) = sum_i w(B_i) circulates alongside the product
    form; the audit evaluates this variant to show it breaks the special
    values.  The empty partition keeps weight 1.  A zero block weight does
    not zero the sum, so a pair with an excluded block size still counts
    here; the audit reads the variant on the generalized scheme only.
    """
    total = 0
    for (g, sizes), count in _profile_counts(n, k).items():
        w_blocks = sum(scheme.block_weight(s) for s in sizes) if sizes else 1
        total += count * scheme.special_weight(g) * w_blocks
    return total

