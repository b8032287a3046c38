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

A weight scheme is two weights, sw by |G| and bw by block size; a
family that excludes some block sizes gives them weight 0, so it needs
no filter of its own.  Weights depend only on |G| and the block sizes,
so the summation helper counts the pairs by size profile.  The counter
walks the same tree as enumerate_mixed but carries only the sizes,
building no pair object; it still counts every pair one by one, with no
closed-form shortcut, and the tests check it against enumerate_mixed.

The same weight scheme also fixes each family's generating function.  By
the exponential formula (Flajolet-Sedgewick, Analytic Combinatorics,
section II.2) the weighted pairs with k blocks have the EGF

    sum_g sw(g) t^g/g!  *  (sum_{m>=1} bw(m) t^m/m!)^k / k!,

P(t) * B(t)^k / k!, the canonical value path of every family in the
package.  With B = t^v * U and U(0) != 0 the value at n is

    n!/k! * [t^(n - vk)] P * U^k,

zero when vk > n.  A scheme keeps one lazy column per k: the coefficients
of U^k (Miller's recurrence, which is online) and of P * U^k, computed
once each and only as far as a read needs, so a value at n costs
coefficients up to n - vk whatever k is, and n!/k! is a falling
factorial.  WeightScheme.value reads a value, product_coefficient the
column itself, and egf views the column as a truncated series.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterator, NamedTuple

from . import series
from .exact import FallingFactorials, Rational, check_indices
from .series import TruncatedSeries

__all__ = [
    "ENUMERATION_CAP",
    "MixedPartition",
    "WeightScheme",
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

# Entries kept by each cache in this module: the size profiles and the
# scheme factories.  After `verify --suite all --nmax 8` the largest,
# generalized_scheme, holds 52 schemes; a long-lived caller asking for ever
# new parameters keeps at most this many schemes and their columns alive.
CACHE_SIZE = 256


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


class _Columns:
    """The coefficients a weight scheme has computed, extended as values are
    read.  With B = t^v * U and u_0 = U(0) != 0, P and U are shared by every
    k: their non-zero coefficients are kept as (index, numerator,
    denominator), U indexed from u_0.  Column k keeps the coefficients w_j of
    U^k (numerators and denominators, which Miller's recurrence reads) and
    c_j of P * U^k, each computed once, and the values already read are
    kept by (k, n).  One lock guards the lists, so concurrent readers never
    extend one twice.
    """

    def __init__(self):
        self.lock = threading.Lock()
        self.block_top = 0  # b_1..b_block_top scanned
        self.v: int | None = None
        self.u0: Fraction | None = None
        self.unit: list = []  # non-zero u_i = b_(v+i), i >= 1
        self.special: list = []  # non-zero p_j
        self.special_top = -1
        self.by_k: dict = {}
        self.values: dict = {}


class _Column:
    """Block count k: w_j of U^k as numerators and denominators, c_j of P * U^k."""

    __slots__ = ("k", "w_num", "w_den", "coeffs")

    def __init__(self, k: int, w0: Fraction):
        self.k = k
        self.w_num, self.w_den = [w0.numerator], [w0.denominator]
        self.coeffs: list = []


class WeightScheme:
    """Multiplicative weights by size: w(G,P) = sw(|G|) * prod bw(|B_i|).

    A scheme is its two weights: a block size the family excludes weighs
    0, and so does every pair with a block of that size.  sw(0) must be 1
    (the empty special set always carries weight one).

    Values are read from one lazy column per k (see _Columns), kept on the
    instance: every new scheme starts with an empty store, and no read
    hashes the scheme.
    """

    __slots__ = ("name", "special_weight", "block_weight", "_columns")

    def __init__(
        self,
        name: str,
        special_weight: Callable[[int], Rational],
        block_weight: Callable[[int], Rational],
    ):
        self.name = name
        self.special_weight = special_weight
        self.block_weight = block_weight
        self._columns = _Columns()

    def block_coefficient(self, m: int) -> Fraction:
        """[t^m] of the block series: bw(m)/m! for a size m >= 1; a zero
        weight costs no m!."""
        w = Fraction(self.block_weight(m)) if m >= 1 else Fraction(0)
        return w / math.factorial(m) if w else w

    def special_coefficient(self, g: int) -> Fraction:
        """[t^g] of the special series: sw(g)/g!; a zero weight costs no g!."""
        w = Fraction(self.special_weight(g))
        return w / math.factorial(g) if w else w

    def block_series(self, order: int) -> TruncatedSeries:
        """sum over sizes m >= 1 of bw(m) t^m / m!."""
        return TruncatedSeries([self.block_coefficient(m) for m in range(order + 1)], order)

    def special_series(self, order: int) -> TruncatedSeries:
        """sum over g >= 0 of sw(g) t^g / g!."""
        return TruncatedSeries([self.special_coefficient(g) for g in range(order + 1)], order)

    def value(self, k: int, n: int) -> Fraction:
        """n! [t^n] of the EGF with k blocks: the weighted count of the pairs
        (G, P_k) over {1..n}.  n!/k! is formed as a falling factorial."""
        values = self._columns.values
        value = values.get((k, n))
        if value is None:
            c = self.product_coefficient(k, n)
            value = values[k, n] = c * math.perm(n, n - k) if c else c
        return value

    def product_coefficient(self, k: int, n: int) -> Fraction:
        """k! [t^n] of the EGF with k blocks, that is [t^n] P * B^k, read from
        column k; it extends the column only up to t^(n - vk)."""
        store = self._columns
        with store.lock:
            if k == 0:
                shift = 0
            else:
                v = self._valuation(n // k)
                if v is None or v * k > n:
                    return Fraction(0)
                shift = v * k
            column = store.by_k.get(k)
            if column is None:
                column = store.by_k[k] = _Column(k, Fraction(1) if k == 0 else store.u0 ** k)
            return self._extend(column, n - shift)

    def egf(self, k: int, order: int) -> TruncatedSeries:
        """EGF of the pairs with k blocks: special * block^k / k!, mod t^(order+1).
        Blocks are non-empty, so it is zero when k > order and 1/k! is not formed."""
        scale = Fraction(1, math.factorial(k)) if k <= order else 0
        return TruncatedSeries(
            [self.product_coefficient(k, n) * scale for n in range(order + 1)], order
        )

    # -- the store; callers hold its lock --------------------------------------

    def _valuation(self, limit: int) -> int | None:
        """v, the first size with a non-zero block coefficient, looked for up
        to `limit`; None while no size up to there has one."""
        store = self._columns
        while store.v is None and store.block_top < limit:
            m = store.block_top + 1
            b = self.block_coefficient(m)
            if b:
                store.v, store.u0 = m, b
            store.block_top = m
        return store.v

    def _extend(self, column: _Column, top: int) -> Fraction:
        """c_top of P * U^k, computing w_j and c_j for every j up to top that
        the column does not hold yet."""
        store, k = self._columns, column.k
        w_num, w_den, coeffs = column.w_num, column.w_den, column.coeffs
        # each list grows only by a finished entry, so a read that raises
        # leaves the store consistent
        for j in range(store.special_top + 1, top + 1):
            p = self.special_coefficient(j)
            if p:
                store.special.append((j, p.numerator, p.denominator))
            store.special_top = j
        if k >= 2:
            for m in range(store.block_top + 1, store.v + top + 1):
                u = self.block_coefficient(m)
                if u:
                    store.unit.append((m - store.v, u.numerator, u.denominator))
                store.block_top = m
        for j in range(len(coeffs), top + 1):
            if len(w_num) == j:
                if k == 0:
                    w = Fraction(0)
                elif k == 1:
                    w = self.block_coefficient(store.v + j)
                else:
                    w = series._miller_term(j, k, store.u0, store.unit, w_num, w_den)
                w_num.append(w.numerator)
                w_den.append(w.denominator)
            coeffs.append(series._product_term(j, store.special, w_num, w_den))
        return coeffs[top]


def _degenerate_blocks(alpha: Rational, beta: Rational) -> Callable[[int], Fraction]:
    """size -> (beta-alpha)_{size-1,alpha}, the block weight of the generalized
    model, each size extending the product for the size before."""
    factorials = FallingFactorials(Fraction(beta) - alpha, alpha)
    return lambda size: factorials(size - 1)


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


def oracle_sum(n: int, k: int, scheme: WeightScheme) -> Fraction:
    """Sum of w(G, P) over all pairs (G, P_k) under the scheme."""
    total = Fraction(0)
    for (g, sizes), count in _profile_counts(n, k).items():
        w = Fraction(scheme.special_weight(g))
        for s in sizes:
            w *= scheme.block_weight(s)
        total += count * w
    return total


def oracle_sum_blocksum(n: int, k: int, scheme: WeightScheme) -> Fraction:
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


# -- built-in weight schemes -------------------------------------------------


@lru_cache(maxsize=CACHE_SIZE)
def generalized_scheme(alpha: Rational, beta: Rational, gamma: Rational) -> WeightScheme:
    a, b, g = Fraction(alpha), Fraction(beta), Fraction(gamma)
    return WeightScheme(
        name="generalized(%s,%s,%s)" % (a, b, g),
        special_weight=FallingFactorials(g, a),
        block_weight=_degenerate_blocks(a, b),
    )


@lru_cache(maxsize=CACHE_SIZE)
def gen_restricted_scheme(
    alpha: Rational, beta: Rational, gamma: Rational, ell: int
) -> WeightScheme:
    base = generalized_scheme(alpha, beta, gamma)
    blocks = base.block_weight
    return WeightScheme(
        name="gen_restricted(%s,%s,%s,ell=%d)" % (alpha, beta, gamma, ell),
        special_weight=base.special_weight,
        block_weight=lambda size: blocks(size) if size <= ell else Fraction(0),
    )


@lru_cache(maxsize=CACHE_SIZE)
def free_atleast_scheme(gamma: Rational, ell: int) -> WeightScheme:
    g = Fraction(gamma)
    return WeightScheme(
        name="free_atleast(%s,ell=%d)" % (g, ell),
        special_weight=lambda size: g ** size,
        block_weight=lambda size: Fraction(1 if size > ell else 0),
    )


@lru_cache(maxsize=CACHE_SIZE)
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


@lru_cache(maxsize=CACHE_SIZE)
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


@lru_cache(maxsize=CACHE_SIZE)
def classic_scheme() -> WeightScheme:
    return WeightScheme(
        name="classic",
        special_weight=lambda size: Fraction(1 if size == 0 else 0),
        block_weight=lambda size: Fraction(1),
    )


@lru_cache(maxsize=CACHE_SIZE)
def restricted_scheme(ell: int) -> WeightScheme:
    return WeightScheme(
        name="restricted(ell=%d)" % ell,
        special_weight=classic_scheme().special_weight,
        block_weight=lambda size: Fraction(1 if size <= ell else 0),
    )


@lru_cache(maxsize=CACHE_SIZE)
def associated_scheme(ell: int) -> WeightScheme:
    return WeightScheme(
        name="associated(ell=%d)" % ell,
        special_weight=classic_scheme().special_weight,
        block_weight=lambda size: Fraction(1 if size >= ell else 0),
    )


@lru_cache(maxsize=CACHE_SIZE)
def colored_singleton_scheme(r: int, s: int) -> WeightScheme:
    """Special set r^|G|; singleton blocks may take one of s colors."""
    return WeightScheme(
        name="colored_singleton(r=%d,s=%d)" % (r, s),
        special_weight=lambda size: Fraction(r) ** size,
        block_weight=lambda size: Fraction(s if size == 1 else 1),
    )
