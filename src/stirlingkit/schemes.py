"""Weight schemes and their generating functions: the canonical value path.

Every number family in this package weighs the mixed partitions (G, P)
of {1..n}, a possibly-empty special set G and k non-empty blocks, by a
scheme of two weights: sw by |G| and bw by block size, a size the family
excludes weighing 0.  The oracle module sums these weights pair by pair.
By the exponential formula (Flajolet-Sedgewick, Analytic Combinatorics,
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
column (both by exact's kernels); egf and the *_series views load series.

Each family's factory also declares the first-order linear differential
equations its two series satisfy, a*P' = p*P and a*B' = b*B + q with
a = 1 + a1*t, constants p and b and a polynomial q.  Then V_k = P*B^k/k!
satisfies a*V_k' = (p + k*b)*V_k + q*V_(k-1), so every value also follows
from one short recurrence, WeightScheme.recurrence, which reads neither
series nor column: an independent route to the same values (Stanley,
Europ. J. Combin. 1, 1980, on D-finite series).
"""

from __future__ import annotations

import math
import threading
from collections.abc import Callable
from fractions import Fraction
from functools import lru_cache

from .exact import CACHE_SIZE, FallingFactorials, Rational, _miller_term, _product_term, rational

__all__ = [
    "WeightScheme",
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


class WeightScheme:
    """Multiplicative weights by size: w(G,P) = sw(|G|) * prod bw(|B_i|).

    A scheme is its two weights: a block size the family excludes weighs
    0, and so does every pair with a block of that size.  sw(0) must be 1
    (the empty special set always carries weight one).

    The instance also keeps the coefficients it has computed, extended as
    values are read, so every new scheme starts with an empty store and no
    read hashes the scheme.  With B = t^v * U and u_0 = U(0) != 0, P and U
    are shared by every k: their non-zero coefficients are kept as (index,
    numerator, denominator), U indexed from u_0.  Column k is three lists:
    the numerators and denominators of the w_j of U^k (which Miller's
    recurrence reads) and the c_j of P * U^k, each computed once; the
    values already read are kept by (k, n).  One lock guards the store, so
    concurrent readers never extend a list twice.

    ode, where the family declares one, is (a1, p, b, degree, q): with
    a = 1 + a1*t, a*P' = p*P and a*B' = b*B + q, q of that degree and q(i)
    = i! [t^i] q, read only as far as a recurrence needs it.  degree may be
    math.inf, for a q that is a series, read term by term.  The store
    keeps those q(i) and, for the recurrence, one column of values per j.
    """

    __slots__ = ("name", "special_weight", "block_weight", "ode", "_lock", "_block_top", "_v",
                 "_u0", "_unit", "_special", "_special_top", "_by_k", "_values", "_q", "_rows")

    def __init__(
        self,
        name: str,
        special_weight: Callable[[int], Rational],
        block_weight: Callable[[int], Rational],
        ode: tuple | None = None,
    ):
        self.name = name
        self.special_weight = special_weight
        self.block_weight = block_weight
        self.ode = ode
        self._lock = threading.Lock()
        self._block_top = 0  # b_1..b_block_top scanned
        self._v = self._u0 = None  # v and u_0, once a non-zero b_m is found
        self._unit: list = []  # non-zero u_i = b_(v+i), i >= 1
        self._special: list = []  # non-zero p_j
        self._special_top = -1
        self._by_k: dict = {}  # k -> (w numerators, w denominators, c)
        self._values: dict = {}
        self._q: list = []  # q(0), q(1), ... as read so far
        self._rows: list = []  # j -> [V(j, j), V(j+1, j), ...]

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
        from .series import TruncatedSeries
        return TruncatedSeries([self.block_coefficient(m) for m in range(order + 1)], order)

    def special_series(self, order: int) -> TruncatedSeries:
        """sum over g >= 0 of sw(g) t^g / g!."""
        from .series import TruncatedSeries
        return TruncatedSeries([self.special_coefficient(g) for g in range(order + 1)], order)

    def value(self, k: int, n: int) -> Rational:
        """n! [t^n] of the EGF with k blocks: the weighted count of the pairs
        (G, P_k) over {1..n}, an int when it is integral.  n!/k! is formed as
        a falling factorial."""
        value = self._values.get((k, n))
        if value is None:
            c = self.product_coefficient(k, n)
            value = self._values[k, n] = (
                rational(c.numerator * math.perm(n, n - k), c.denominator) if c else 0)
        return value

    def product_coefficient(self, k: int, n: int) -> Fraction:
        """k! [t^n] of the EGF with k blocks, that is [t^n] P * B^k, read from
        column k; it extends the column only up to t^(n - vk)."""
        with self._lock:
            if k == 0:
                shift = 0
            else:
                v = self._valuation(n // k)
                if v is None or v * k > n:
                    return Fraction(0)
                shift = v * k
            column = self._by_k.get(k)
            if column is None:
                w0 = Fraction(1) if k == 0 else self._u0 ** k
                column = self._by_k[k] = ([w0.numerator], [w0.denominator], [])
            return self._extend(k, column, n - shift)

    def egf(self, k: int, order: int) -> TruncatedSeries:
        """EGF of the pairs with k blocks: special * block^k / k!, mod t^(order+1).
        Blocks are non-empty, so it is zero when k > order and 1/k! is not formed."""
        from .series import TruncatedSeries
        scale = Fraction(1, math.factorial(k)) if k <= order else 0
        return TruncatedSeries(
            [self.product_coefficient(k, n) * scale for n in range(order + 1)], order
        )

    def recurrence(self, k: int, n: int) -> Rational:
        """The value at (n, k) from the declared differential equation alone,
        an int when it is integral:

            V(n+1, k) = (p + k*b - a1*n) V(n, k) + sum_i C(n, i) q(i) V(n-i, k-1)

        from V(0, 0) = 1, so column 0 is sw(n).  Column j is kept from
        V(j, j) on and filled iteratively only to V(j + n - k, j), the band
        the read needs, so n has no depth limit; k > n builds nothing."""
        if self.ode is None:
            raise ValueError("scheme %s declares no differential equation" % self.name)
        if k > n:
            return 0
        depth = n - k
        with self._lock:
            rows = self._rows
            if k < len(rows) and depth < len(rows[k]):
                return rational(rows[k][depth])
            a1, p, b, degree, q = self.ode
            q_hat = self._q
            for i in range(len(q_hat), min(degree, depth) + 1):
                q_hat.append(q(i))
            while len(rows) <= k:
                rows.append([])
            # a fill leaves the columns no longer as j grows, so the ones
            # short of depth are j0..k
            j0 = k
            while j0 and len(rows[j0 - 1]) <= depth:
                j0 -= 1
            for j in range(j0, k + 1):
                # column j - 1 holds V(j-1, j-1) .. V(j-1 + depth, j-1) already
                column, lower, factor = rows[j], rows[j - 1] if j else (), p + j * b
                for d in range(len(column), depth + 1):
                    m = j + d - 1  # V(m+1, j) from row m; V(j-1, j) = 0
                    value = (factor - a1 * m) * column[d - 1] if d else int(j == 0)
                    for i in range(min(d, degree) + 1 if lower else 0):
                        if q_hat[i]:
                            value += math.comb(m, i) * q_hat[i] * lower[d - i]
                    column.append(value)
            return rational(rows[k][depth])

    # -- the store; callers hold its lock --------------------------------------

    def _valuation(self, limit: int) -> int | None:
        """v, the first size with a non-zero block coefficient, looked for up
        to `limit`; None while no size up to there has one."""
        while self._v is None and self._block_top < limit:
            m = self._block_top + 1
            b = self.block_coefficient(m)
            if b:
                self._v, self._u0 = m, b
            self._block_top = m
        return self._v

    def _extend(self, k: int, column: tuple, top: int) -> Fraction:
        """c_top of P * U^k, computing w_j and c_j for every j up to top that
        column k does not hold yet."""
        w_num, w_den, coeffs = column
        # each list grows only by a finished entry, so a read that raises
        # leaves the store consistent
        for j in range(self._special_top + 1, top + 1):
            p = self.special_coefficient(j)
            if p:
                self._special.append((j, p.numerator, p.denominator))
            self._special_top = j
        if k >= 2:
            for m in range(self._block_top + 1, self._v + top + 1):
                u = self.block_coefficient(m)
                if u:
                    self._unit.append((m - self._v, u.numerator, u.denominator))
                self._block_top = m
        for j in range(len(coeffs), top + 1):
            if len(w_num) == j:
                if k == 0:
                    w = Fraction(0)
                elif k == 1:
                    w = self.block_coefficient(self._v + j)
                else:
                    w = _miller_term(j, k, self._u0, self._unit, w_num, w_den)
                w_num.append(w.numerator)
                w_den.append(w.denominator)
            coeffs.append(_product_term(j, self._special, w_num, w_den))
        return coeffs[top]


def _degenerate_blocks(alpha: Rational, beta: Rational) -> Callable[[int], Rational]:
    """size -> (beta-alpha)_{size-1,alpha}, the block weight of the generalized
    model, each size extending the product for the size before."""
    factorials = FallingFactorials(beta - alpha, alpha)
    return lambda size: factorials(size - 1)


def _tail(block_weight: Callable[[int], Rational], ell: int, c: int,
          a1: Rational = 0) -> tuple:
    """(degree, q) for a block weight that is the constant c = b above ell
    (c = 1 needs a1 = 0): B = c(e^t - 1) + h with h = sum_{1<=m<=ell}
    (bw(m) - c) t^m/m!, so q = a*B' - c*B = c + a*h' - c*h and
    q(i) = c[i = 0] + h(i+1) + a1*i*h(i) - c*h(i), read at sizes 1..ell."""
    def h(m):
        return block_weight(m) - c if 1 <= m <= ell else 0

    return ell, lambda i: c * (i == 0) + h(i + 1) + (a1 * i - c) * h(i)


# -- built-in weight schemes -------------------------------------------------
#
# Each family's factory declares ode = (a1, p, b, degree, q) next to its weights.


@lru_cache(maxsize=CACHE_SIZE)
def generalized_scheme(alpha: Rational, beta: Rational, gamma: Rational) -> WeightScheme:
    """(1 + alpha t) P' = gamma P and (1 + alpha t) B' = beta B + 1, for
    every alpha and beta."""
    a, b, g = rational(alpha), rational(beta), rational(gamma)
    return WeightScheme(
        name="generalized(%s,%s,%s)" % (a, b, g),
        special_weight=FallingFactorials(g, a),
        block_weight=_degenerate_blocks(a, b),
        ode=(a, g, b, 0, lambda i: 1),
    )


@lru_cache(maxsize=CACHE_SIZE)
def gen_restricted_scheme(
    alpha: Rational, beta: Rational, gamma: Rational, ell: int
) -> WeightScheme:
    a, b, g = rational(alpha), rational(beta), rational(gamma)
    base = generalized_scheme(a, b, g)
    blocks = base.block_weight
    return WeightScheme(
        name="gen_restricted(%s,%s,%s,ell=%d)" % (a, b, g, ell),
        special_weight=base.special_weight,
        block_weight=(weight := lambda size: blocks(size) if size <= ell else 0),
        ode=(a, g, 0, *_tail(weight, ell, 0, a)),
    )


@lru_cache(maxsize=CACHE_SIZE)
def free_atleast_scheme(gamma: Rational, ell: int) -> WeightScheme:
    g = rational(gamma)
    return WeightScheme(
        name="free_atleast(%s,ell=%d)" % (g, ell),
        special_weight=lambda size: g ** size,
        block_weight=(weight := lambda size: 1 if size > ell else 0),
        ode=(0, g, 1, *_tail(weight, ell, 1)),
    )


@lru_cache(maxsize=CACHE_SIZE)
def partial_degenerate_scheme(
    gamma: Rational, alpha: Rational, beta: Rational, ell: int
) -> WeightScheme:
    """Free special set gamma^|G|; blocks of size <= ell carry the degenerate
    weight, larger blocks are free (weight 1)."""
    a, b, g = rational(alpha), rational(beta), rational(gamma)
    blocks = _degenerate_blocks(a, b)
    return WeightScheme(
        name="partial_degenerate(%s,%s,%s,ell=%d)" % (g, a, b, ell),
        special_weight=lambda size: g ** size,
        block_weight=(weight := lambda size: blocks(size) if size <= ell else 1),
        ode=(0, g, 1, *_tail(weight, ell, 1)),
    )


@lru_cache(maxsize=CACHE_SIZE)
def partial_degenerate_swapped_scheme(
    gamma: Rational, alpha: Rational, beta: Rational, ell: int
) -> WeightScheme:
    """Orientation with the weights on the wrong side of ell (audit target;
    it declares no differential equation)."""
    a, b, g = rational(alpha), rational(beta), rational(gamma)
    blocks = _degenerate_blocks(a, b)
    return WeightScheme(
        name="partial_degenerate_swapped(%s,%s,%s,ell=%d)" % (g, a, b, ell),
        special_weight=lambda size: g ** size,
        block_weight=lambda size: 1 if size <= ell else blocks(size),
    )


@lru_cache(maxsize=CACHE_SIZE)
def classic_scheme() -> WeightScheme:
    return WeightScheme(
        name="classic",
        special_weight=lambda size: 1 if size == 0 else 0,
        block_weight=lambda size: 1,
        ode=(0, 0, 1, 0, lambda i: 1),
    )


@lru_cache(maxsize=CACHE_SIZE)
def restricted_scheme(ell: int) -> WeightScheme:
    return WeightScheme(
        name="restricted(ell=%d)" % ell,
        special_weight=classic_scheme().special_weight,
        block_weight=(weight := lambda size: 1 if size <= ell else 0),
        ode=(0, 0, 0, *_tail(weight, ell, 0)),
    )


@lru_cache(maxsize=CACHE_SIZE)
def associated_scheme(ell: int) -> WeightScheme:
    return WeightScheme(
        name="associated(ell=%d)" % ell,
        special_weight=classic_scheme().special_weight,
        block_weight=(weight := lambda size: 1 if size >= ell else 0),
        ode=(0, 0, 1, *_tail(weight, ell, 1)),
    )


@lru_cache(maxsize=CACHE_SIZE)
def colored_singleton_scheme(r: int, s: int) -> WeightScheme:
    """Special set r^|G|; singleton blocks may take one of s colors."""
    return WeightScheme(
        name="colored_singleton(r=%d,s=%d)" % (r, s),
        special_weight=lambda size: r ** size,
        block_weight=(weight := lambda size: s if size == 1 else 1),
        ode=(0, r, 1, *_tail(weight, 1, 1)),
    )
