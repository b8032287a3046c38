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
so placing an element adds a power of n + 1.  As in any restricted growth
string, a subtree depends only on how many elements remain and how many
blocks are open, so the walk lists the last TAIL elements' placements once
per open-block count and replays them under every prefix.  Many prefixes
share a key (at n = 10, k = 4, 855 prefixes hold 57 keys), so the replay
shifts a tail by each distinct key once and adds that list for every
prefix holding the key.  It still gives every pair exactly one increment,
with no memo, no multiplied count and no closed form, and the tests check
it against enumerate_mixed, and count its increments, at every split.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from collections.abc import Iterator
from functools import lru_cache
from itertools import groupby

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


# _profile_counts lists the placements of the last TAIL elements once per
# count of open blocks and replays them under every prefix.  Of 3..6, 4 took
# the least time at (n, k) = (10, 4) and (11, 5) and for the whole oracle
# table at nmax 11; on the table at nmax 9, 3 was as fast (within 4 %).
TAIL = 4


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
    putting an element in class i adds (n + 1)**i.

    The walk stops at the split element n - TAIL + 1 (element 1 when
    n <= TAIL).  From there on, the subtree depends only on how many
    blocks are open, so for each such count the same walker first lists,
    once per call, the key offset of every placement of the elements left
    that ends with k blocks: its tail.  The walk then lists the keys of
    the prefixes and sorts them, which groups equal keys; a key's open
    blocks are its non-zero digits above |G|.  For each distinct key, the
    tail of its open-block count shifted by the key is formed once, and
    each prefix holding the key adds that list in one Counter.update, so
    every pair still gets exactly one increment.  Each distinct key of the
    Counter is decoded and folded into its profile once, at the end.
    """
    _check_indices(n, k)
    if k > n:
        return {}
    base = n + 1
    place = [base ** i for i in range(k + 1)]  # place[0] is G, place[i] is B_i
    split = max(n - TAIL, 0)  # the last element of the prefix
    keys: Counter = Counter()

    def walk(element: int, last: int, opened: int, key: int, leaf) -> None:
        # remaining elements must still be able to open all missing blocks
        if k - opened > n - element + 1:
            return
        if element > last:
            leaf(key)
            return
        for step in place[: opened + 1]:
            walk(element + 1, last, opened, key + step, leaf)
        if opened < k:
            walk(element + 1, last, opened + 1, key + place[opened + 1], leaf)

    # tails[opened], for the counts a prefix of split elements can leave;
    # past the last element the pruning leaves opened == k
    tails: list = []
    for opened in range(min(split, k) + 1):
        tails.append([])
        walk(split + 1, n, opened, 0, tails[-1].append)
    prefixes: list = []
    walk(1, split, 0, 0, prefixes.append)
    # a prefix's key has a non-zero digit at each open block and zeros above,
    # so sorted keys come grouped by key and in order of open blocks
    prefixes.sort()
    opened = 0
    for key, group in groupby(prefixes):
        while opened < k and key >= place[opened + 1]:
            opened += 1
        shifted = list(map(key.__add__, tails[opened]))
        for _ in group:
            keys.update(shifted)
    counts: dict = {}
    for key, count in keys.items():
        sizes = []
        for _ in range(k + 1):
            key, size = divmod(key, base)
            sizes.append(size)
        profile = (sizes[0], tuple(sorted(sizes[1:])))
        counts[profile] = counts.get(profile, 0) + count
    return counts


def _weights(n: int, k: int, scheme) -> tuple:
    """The scheme's weights as lists indexed by size, each read once: sw of
    every special set a pair (G, P_k) of {1..n} can hold, 0..n - k
    elements, and bw of every block, 1..n - k + 1 elements (none at k = 0)."""
    top = n - k
    sw = [scheme.special_weight(g) for g in range(top + 1)]
    bw = [None] + [scheme.block_weight(s) for s in range(1, top + 2)] if k else []
    return sw, bw


def oracle_sum(n: int, k: int, scheme) -> Rational:
    """Sum of w(G, P) over all pairs (G, P_k) under the scheme, read through
    its special_weight and block_weight only; an int when the weights are."""
    counts = _profile_counts(n, k)
    sw, bw = _weights(n, k, scheme)
    total = 0
    for (g, sizes), count in counts.items():
        w = sw[g]
        for s in sizes:
            w *= bw[s]
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
    counts = _profile_counts(n, k)
    sw, bw = _weights(n, k, scheme)
    total = 0
    for (g, sizes), count in counts.items():
        w_blocks = sum(bw[s] for s in sizes) if sizes else 1
        total += count * sw[g] * w_blocks
    return total
