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

Weights depend only on |G| and the block sizes, so the summation helper
counts the pairs by size profile.  The counter walks the same tree as
enumerate_mixed but carries only the sizes, building no pair object; it
still counts every pair one by one, with no closed-form shortcut, and the
tests check it against enumerate_mixed.

The same weight scheme also fixes each family's generating function.  By
the exponential formula (Flajolet-Sedgewick, Analytic Combinatorics,
section II.2) the weighted pairs with k blocks have the EGF

    sum_g sw(g) t^g/g!  *  (sum_{ok(m)} bw(m) t^m/m!)^k / k!,

which WeightScheme.egf builds; it is the canonical value path of every
family in the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cache
from typing import Callable, Iterator

from .exact import FallingFactorials, Rational
from .series import TruncatedSeries

__all__ = [
    "ENUMERATION_CAP",
    "MixedPartition",
    "WeightScheme",
    "degenerate_block_weight",
    "enumerate_mixed",
    "oracle_sum",
    "oracle_sum_blocksum",
    "classic_scheme",
    "restricted_scheme",
    "associated_scheme",
    "generalized_scheme",
    "gen_restricted_scheme",
    "free_atleast_scheme",
    "partial_degenerate_scheme",
    "partial_degenerate_swapped_scheme",
    "colored_singleton_scheme",
]

# Bell-like growth with an extra class: n = 11 is 4.2M pairs over all k,
# which the profile counter walks in about 3.5 s (2 shared vCPUs).
ENUMERATION_CAP = 11


@dataclass(frozen=True)
class MixedPartition:
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


@dataclass(frozen=True)
class WeightScheme:
    """Multiplicative weights by size: w(G,P) = sw(|G|) * prod bw(|B_i|).

    block_size_ok filters which block sizes are admissible at all;
    sw(0) must be 1 (the empty special set always carries weight one).
    """

    name: str
    special_weight: Callable[[int], Rational]
    block_weight: Callable[[int], Rational]
    block_size_ok: Callable[[int], bool] = staticmethod(lambda size: True)

    def block_series(self, order: int) -> TruncatedSeries:
        """sum over admissible sizes m >= 1 of bw(m) t^m / m!."""
        cs = [Fraction(0)] * (order + 1)
        for m in range(1, order + 1):
            if self.block_size_ok(m):
                cs[m] = Fraction(self.block_weight(m)) / math.factorial(m)
        return TruncatedSeries(cs, order)

    def special_series(self, order: int) -> TruncatedSeries:
        """sum over g >= 0 of sw(g) t^g / g!."""
        return TruncatedSeries(
            [Fraction(self.special_weight(g)) / math.factorial(g) for g in range(order + 1)],
            order,
        )

    def egf(self, k: int, order: int) -> TruncatedSeries:
        """EGF of the pairs with k blocks: special * block^k / k!, mod t^(order+1)."""
        return _exponential_formula(self, k, order)


@cache
def _exponential_formula(scheme: WeightScheme, k: int, order: int) -> TruncatedSeries:
    block = scheme.block_series(order) ** k
    return scheme.special_series(order) * block * Fraction(1, math.factorial(k))


def _degenerate_blocks(alpha: Rational, beta: Rational) -> Callable[[int], Fraction]:
    """size -> (beta-alpha)_{size-1,alpha}, the block weight of the generalized
    model, each size extending the product for the size before."""
    factorials = FallingFactorials(Fraction(beta) - alpha, alpha)
    return lambda size: factorials(size - 1)


def degenerate_block_weight(size: int, alpha: Rational, beta: Rational) -> Fraction:
    """(beta-alpha)_{size-1,alpha}: the weight of one block of the given size
    in the generalized model."""
    return _degenerate_blocks(alpha, beta)(size)


def _check_indices(n: int, k: int, cap: int) -> None:
    if n < 0 or k < 0:
        raise ValueError("indices must be non-negative, got n=%r k=%r" % (n, k))
    if n > cap:
        raise ValueError(
            "enumeration of mixed partitions is capped at n=%d (asked for n=%d); "
            "raise the cap explicitly if you really want this" % (cap, n)
        )


def enumerate_mixed(
    n: int,
    k: int,
    block_size_ok: Callable[[int], bool] | None = None,
    cap: int = ENUMERATION_CAP,
) -> Iterator[MixedPartition]:
    """Yield every (G, P_k) pair over {1..n} exactly once.

    block_size_ok, when given, drops pairs containing a block of an
    inadmissible size.  n beyond the enumeration cap is refused.
    """
    _check_indices(n, k, cap)
    special: list[int] = []
    blocks: list[list[int]] = []

    def rec(element: int) -> Iterator[MixedPartition]:
        if element > n:
            if len(blocks) == k:
                if block_size_ok is not None and not all(
                    block_size_ok(len(b)) for b in blocks
                ):
                    return
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


@cache
def _profile_counts(n: int, k: int, cap: int = ENUMERATION_CAP) -> dict:
    """Count pairs by (|G|, sorted block sizes).

    Walks the tree of enumerate_mixed (the same choices in the same order,
    the same pruning) keeping only the size vector (|G|, |B_1|, ..., |B_k|),
    and counts each pair one by one under its vector; the vectors are folded
    into profiles once, at the end.
    """
    _check_indices(n, k, cap)
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


def oracle_sum(
    n: int, k: int, scheme: WeightScheme, cap: int = ENUMERATION_CAP
) -> Fraction:
    """Sum of w(G, P) over all admissible pairs under the scheme."""
    total = Fraction(0)
    for (g, sizes), count in _profile_counts(n, k, cap).items():
        if not all(scheme.block_size_ok(s) for s in sizes):
            continue
        w = Fraction(scheme.special_weight(g))
        for s in sizes:
            w *= scheme.block_weight(s)
        total += count * w
    return total


def oracle_sum_blocksum(
    n: int, k: int, scheme: WeightScheme, cap: int = ENUMERATION_CAP
) -> Fraction:
    """Variant folding block weights by sum instead of product.

    The notation w(P_k) = sum_i w(B_i) circulates alongside the product
    form; the audit evaluates this variant to show it breaks the special
    values.  The empty partition keeps weight 1.
    """
    total = Fraction(0)
    for (g, sizes), count in _profile_counts(n, k, cap).items():
        if not all(scheme.block_size_ok(s) for s in sizes):
            continue
        if sizes:
            w_blocks = sum(Fraction(scheme.block_weight(s)) for s in sizes)
        else:
            w_blocks = Fraction(1)
        total += count * Fraction(scheme.special_weight(g)) * w_blocks
    return total


# -- built-in weight schemes -------------------------------------------------


@cache
def generalized_scheme(alpha: Rational, beta: Rational, gamma: Rational) -> WeightScheme:
    a, b, g = Fraction(alpha), Fraction(beta), Fraction(gamma)
    return WeightScheme(
        name="generalized(%s,%s,%s)" % (a, b, g),
        special_weight=FallingFactorials(g, a),
        block_weight=_degenerate_blocks(a, b),
    )


@cache
def gen_restricted_scheme(
    alpha: Rational, beta: Rational, gamma: Rational, ell: int
) -> WeightScheme:
    return replace(
        generalized_scheme(alpha, beta, gamma),
        name="gen_restricted(%s,%s,%s,ell=%d)" % (alpha, beta, gamma, ell),
        block_size_ok=lambda size: size <= ell,
    )


@cache
def free_atleast_scheme(gamma: Rational, ell: int) -> WeightScheme:
    g = Fraction(gamma)
    return WeightScheme(
        name="free_atleast(%s,ell=%d)" % (g, ell),
        special_weight=lambda size: g ** size,
        block_weight=lambda size: Fraction(1),
        block_size_ok=lambda size: size >= ell + 1,
    )


@cache
def partial_degenerate_scheme(
    gamma: Rational, alpha: Rational, beta: Rational, ell: int
) -> WeightScheme:
    """Free special set gamma^|G|; blocks of size <= ell carry the degenerate
    weight, larger blocks are free (weight 1)."""
    a, b, g = Fraction(alpha), Fraction(beta), Fraction(gamma)
    blocks = _degenerate_blocks(a, b)
    return WeightScheme(
        name="partial_degenerate(%s,%s,%s,ell=%d)" % (g, a, b, ell),
        special_weight=lambda size: g ** size,
        block_weight=lambda size: blocks(size) if size <= ell else Fraction(1),
    )


@cache
def partial_degenerate_swapped_scheme(
    gamma: Rational, alpha: Rational, beta: Rational, ell: int
) -> WeightScheme:
    """Orientation with the weights on the wrong side of ell (audit target)."""
    a, b, g = Fraction(alpha), Fraction(beta), Fraction(gamma)
    blocks = _degenerate_blocks(a, b)
    return WeightScheme(
        name="partial_degenerate_swapped(%s,%s,%s,ell=%d)" % (g, a, b, ell),
        special_weight=lambda size: g ** size,
        block_weight=lambda size: Fraction(1) if size <= ell else blocks(size),
    )


@cache
def classic_scheme() -> WeightScheme:
    return WeightScheme(
        name="classic",
        special_weight=lambda size: Fraction(1 if size == 0 else 0),
        block_weight=lambda size: Fraction(1),
    )


@cache
def restricted_scheme(ell: int) -> WeightScheme:
    return replace(
        classic_scheme(), name="restricted(ell=%d)" % ell, block_size_ok=lambda size: size <= ell
    )


@cache
def associated_scheme(ell: int) -> WeightScheme:
    return replace(
        classic_scheme(), name="associated(ell=%d)" % ell, block_size_ok=lambda size: size >= ell
    )


@cache
def colored_singleton_scheme(r: int, s: int) -> WeightScheme:
    """Special set r^|G|; singleton blocks may take one of s colors."""
    return WeightScheme(
        name="colored_singleton(r=%d,s=%d)" % (r, s),
        special_weight=lambda size: Fraction(r) ** size,
        block_weight=lambda size: Fraction(s if size == 1 else 1),
    )
