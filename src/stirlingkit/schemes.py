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

zero when vk > n.  A scheme keeps one lazy column per k, computed once
and only as far as a read needs, so a value at n costs coefficients up to
n - vk whatever k is.  A declared scaling (s, E), for the binomial blocks
at alpha, beta != 0 and their truncations, gives a column of ordinary
coefficients of (s U)^k in ints; every other scheme keeps EGF
coefficients of B^k, in ints where a declared D clears its weights (every
factory's does) and in Fractions for a bare scheme whose weights are not
integers.  Each runs an online recurrence with one exact division per
coefficient, and a value is one `rational`.  WeightScheme.value reads a
value from the column, by the kernels of this module, which fix the
column's scaling; series.egf reads the same column as a whole series.

Each family's factory also declares the differential equations its two
series satisfy (WeightScheme.ode), which the recurrence module reads as an
independent route.  That module, series (egf and the *_series views) and
oracle hold the other reads of a scheme, so the value path never compiles
them; the scheme's methods of those names forward there.  The factories
here are the families' own schemes; a scheme the audit builds only to
score a printed form (the swapped mixed-cell orientation) lives there.
"""

from __future__ import annotations

import math
import sys
import threading
from collections.abc import Callable
from fractions import Fraction
from functools import lru_cache

from .exact import CACHE_SIZE, FallingFactorials, Rational, check_indices, rational

_package = sys.modules[__package__]  # imports a route module on first access (PEP 562)

__all__ = [
    "WeightScheme",
    "classic_scheme",
    "restricted_scheme",
    "associated_scheme",
    "generalized_scheme",
    "gen_restricted_scheme",
    "free_atleast_scheme",
    "partial_degenerate_scheme",
    "colored_singleton_scheme",
]


class WeightScheme:
    """Multiplicative weights by size: w(G,P) = sw(|G|) * prod bw(|B_i|).

    A scheme is its two weights: a block size the family excludes weighs
    0, and so does every pair with a block of that size.

    ode, where the family declares one, is (a1, p, b, degree, q): with
    a = 1 + a1*t, a*P' = p*P and a*B' = b*B + q, q of that degree and q(i)
    = i! [t^i] q, read only as far as a recurrence needs it.  degree may be
    math.inf, for a q that is a series, read term by term; only the
    recurrence module reads it.  Next to it come denominator, D, the lcm of
    the parameters' denominators, so that D^(m-1) bw(m) and D^g sw(g) are
    integers, and, where a fixed E clears the ordinary coefficients u_i =
    bw(v+i)/(v+i)! and p_g = sw(g)/g!, scaling = (s, E): E^(v+i-1) s u_i
    and E^g p_g are integers.  A declared D or scaling that leaves one
    fractional raises.

    The instance also keeps what it has computed, extended as values are
    read, so every new scheme starts with an empty store and no read
    hashes the scheme.  With B = t^v * U, P and U are shared by every k:
    their non-zero terms are kept, U indexed from u_0, in one of two kinds
    of column, as the scaling picks:

    * a scaling (ordinary): E^(v+i-1) s u_i as (i, int) and E^g p_g as (g,
      int).  Column k is (W, c), the ints W_j = E^(j+k(v-1)) [t^j] (s U)^k
      (_ordinary_term) and c_j = E^(j+k(v-1)) [t^j] P * (s U)^k,
      and the value at n is n!/k! c_(n-vk) / (s^k E^(n-k)).
    * none (EGF): beta_(v+i) = D^(v+i-1) bw(v+i) as (i, beta) and D^g
      sw(g) as (g, D^g sw(g)), D being 1 where none is declared, so a bare
      scheme keeps a Fraction where its weight is not an integer.  Column k
      is (x,), x_j = D^(N-k) (N!/k!) [t^N] B^k at N = vk + j
      (_egf_term), and the value at n is sum_g C(n, g) D^g sw(g)
      x_(n-vk-g) / D^(n-k).

    The values already read are kept by (k, n).  The recurrence keeps the
    q(i) and one column of values per j.  One lock guards the store, so
    concurrent readers never extend a list twice.
    Every read refuses a negative n or k, so no caller need check them.
    """

    __slots__ = ("name", "special_weight", "block_weight", "ode", "denominator", "scaling", "_lock",
                 "_block_top", "_v", "_u0", "_unit", "_special", "_special_top", "_by_k", "_values",
                 "_q", "_rows")

    def __init__(
        self,
        name: str,
        special_weight: Callable[[int], Rational],
        block_weight: Callable[[int], Rational],
        ode: tuple | None = None,
        denominator: int | None = None,
        scaling: tuple | None = None,
    ):
        self.name = name
        self.special_weight = special_weight
        self.block_weight = block_weight
        self.ode = ode
        self.denominator = denominator
        self.scaling = scaling
        self._lock = threading.Lock()
        self._block_top = 0  # b_1..b_block_top scanned
        self._v = self._u0 = None  # v and u_0 as kept, once a non-zero b_m is found
        self._unit: list = []  # non-zero u_i = b_(v+i), i >= 1
        self._special: list = []  # non-zero p_g
        self._special_top = -1
        self._by_k: dict = {}  # k -> its column
        self._values: dict = {}
        self._q: list = []  # q(0), q(1), ... as read so far
        self._rows: list = []  # j -> [V(j, j), V(j+1, j), ...]

    def value(self, k: int, n: int) -> Rational:
        """n! [t^n] of the EGF with k blocks: the weighted count of the pairs
        (G, P_k) over {1..n}, an int when it is integral."""
        value = self._values.get((k, n))
        if value is None:
            with self._lock:
                value = self._values[k, n] = self._value(k, n)
        return value

    # -- the other reads, one line each into the module that holds the route

    def egf(self, k: int, order: int) -> TruncatedSeries:
        """series.egf: special * block^k / k!, mod t^(order+1)."""
        return _package.series.egf(self, k, order)

    def block_series(self, order: int) -> TruncatedSeries:
        """series.block_series: sum over sizes m >= 1 of bw(m) t^m / m!."""
        return _package.series.block_series(self, order)

    def special_series(self, order: int) -> TruncatedSeries:
        """series.special_series: sum over g >= 0 of sw(g) t^g / g!."""
        return _package.series.special_series(self, order)

    def recurrence(self, k: int, n: int) -> Rational:
        """recurrence.recurrence_value: the value at (n, k) from the ode."""
        return _package.recurrence.recurrence_value(n, k, self)

    # -- the store; callers hold its lock --------------------------------------

    def _term(self, weight: Callable[[int], Rational], size: int, power: int) -> Rational:
        """weight(size) as the store keeps it, power being 1 for a block and 0
        for the special set: D^(size - power) w in an EGF column, E^(size -
        power) s^power w / size! in an ordinary one."""
        w = weight(size)
        if not w:
            return 0
        s, e = self.scaling or (1, self.denominator or 1)
        scaled = rational(w.numerator * e ** (size - power) * s ** power,
                          w.denominator * (math.factorial(size) if self.scaling else 1))
        if isinstance(scaled, Fraction) and (self.scaling or self.denominator):
            raise ValueError("scheme %s: the declared D or scaling leaves the weight of size %d"
                             " fractional" % (self.name, size))
        return scaled

    def _valuation(self, limit: int) -> int | None:
        """v, the first size with a non-zero block weight, looked for up to
        `limit`; None while no size up to there has one."""
        while self._v is None and self._block_top < limit:
            m = self._block_top + 1
            u0 = self._term(self.block_weight, m, 1)
            if u0:
                self._v, self._u0 = m, u0
            self._block_top = m
        return self._v

    def _column(self, k: int, n: int) -> tuple | None:
        """(column k, top), k >= 1, with the column extended to its
        coefficient of t^n, top = n - vk; None when vk > n, so that
        coefficient is zero."""
        v = self._valuation(n // k)
        if v is None or v * k > n:
            return None
        top = n - v * k
        # each list grows only by a finished entry, so a read that raises
        # leaves the store consistent
        for g in range(self._special_top + 1, top + 1):
            p = self._term(self.special_weight, g, 0)
            if p:
                self._special.append((g, p))
            self._special_top = g
        for m in range(self._block_top + 1, v + top + 1 if k >= 2 else 0):
            u = self._term(self.block_weight, m, 1)
            if u:
                self._unit.append((m - v, u))
            self._block_top = m
        column = self._by_k.get(k)
        if column is None:
            column = self._by_k[k] = ([], []) if self.scaling else ([],)
        if k == 1:  # U^1 = U: its terms are x or W
            first = column[0]
            for j in range(len(first), top + 1):
                first.append(self._term(self.block_weight, v + j, 1))
        if self.scaling:
            _ordinary_fill(k, self._u0, self._unit, self._special, column, top)
        elif k >= 2:
            _integer_fill(k, v, self._u0, self._unit, column, top)
        return column, top

    def _value(self, k: int, n: int) -> Rational:
        check_indices(n, k)
        if k == 0:
            return rational(self.special_weight(n))
        found = self._column(k, n)
        if found is None:
            return 0
        column, top = found
        if self.scaling:
            s, e = self.scaling
            return rational(column[1][top] * math.perm(n, n - k), s ** k * e ** (n - k))
        return rational(_special_sum(n, top, self._special, column[0]),
                        (self.denominator or 1) ** (n - k))


# -- the column kernels, one coefficient at a time in the scaling of
#    WeightScheme._term: ints wherever the declared D or scaling clears it
def _binomials(n: int, length: int) -> list[int]:
    """C(n, 0), C(n, 1), ..., C(n, length - 1), each from the one before."""
    row = [1]
    for i in range(length - 1):
        row.append(row[i] * (n - i) // (i + 1))
    return row


def _egf_term(j: int, k: int, v: int, u0: int, terms: list, row: list[int], x: list[int]) -> int:
    """x_j of an integer column, j >= 1, from B * (B^k)' = k * B' * B^k.

    With B = sum_m b_m t^m/m! of valuation v and the integers beta_m =
    D^(m-1) b_m, the column holds x_j = D^(N-k) (N!/k!) [t^N] B^k at
    N = vk + j.  At n = N + v - 1 the identity reads

        C(n, v-1) j beta_v x_j = v sum_{s=1..j} (k C(n, v+s-1) - C(n, v+s)) beta_(v+s) x_(j-s)

    u0 is beta_v, terms the non-zero (s, beta_(v+s)), s >= 1, in rising s,
    and row holds C(n, 0..v+s) for every s it reads.  On int operands x_j
    is an integer, so the division is exact and a remainder means a weight
    the declared D does not clear, and raises; a bare scheme's Fraction
    weights give an exact Fraction instead."""
    total = 0
    for s, u in terms:
        if s > j:
            break
        total += (k * row[v + s - 1] - row[v + s]) * u * x[j - s]
    numerator, divisor = v * total, row[v - 1] * j * u0
    if not (isinstance(numerator, int) and isinstance(divisor, int)):
        return rational(numerator, divisor)
    quotient, remainder = divmod(numerator, divisor)
    if remainder:
        raise ArithmeticError("inexact integer column coefficient x_%d of k = %d" % (j, k))
    return quotient


def _integer_fill(k: int, v: int, u0: int, terms: list, column: tuple, top: int) -> None:
    """Extend the integer column k = (x,), k >= 2, with every x_j up to x_top
    that it does not hold yet: x_0 = beta_v^k times the (vk)!/(v!^k k!)
    ways to cut vk elements into k blocks of size v, then _egf_term, each
    on the binomial row as far as its terms read."""
    x = column[0]
    if not x:
        x.append(u0 ** k if v == 1 else
                 math.factorial(v * k) // (math.factorial(v) ** k * math.factorial(k)) * u0 ** k)
    used = 0
    for j in range(len(x), top + 1):
        while used < len(terms) and terms[used][0] <= j:
            used += 1
        # the terms s <= j read C(n, v-1 .. v+s)
        row = _binomials(v * (k + 1) + j - 1, v + (terms[used - 1][0] if used else 0) + 1)
        x.append(_egf_term(j, k, v, u0, terms, row, x))


def _special_sum(n: int, top: int, special: list, x: list[int]) -> int:
    """sum_g C(n, g) p_g x_(top-g) over the non-zero terms (g, p_g) of P
    with g <= top, in rising g: the special set's g elements chosen from
    n, the rest in k blocks; 0 when there is no such term."""
    terms = [(g, p) for g, p in special if g <= top]
    if not terms:
        return 0
    row = _binomials(n, terms[-1][0] + 1)
    return sum(row[g] * p * x[top - g] for g, p in terms)


def _ordinary_term(j: int, k: int, u0: int, terms: list, w: list[int]) -> int:
    """W_j = E^j [t^j] U^k, j >= 1, by Miller's recurrence times E^j,

        j u_0 W_j = sum_{i=1..j} ((k+1) i - j) E^i u_i W_(j-i),

    u0 being u_0 and terms the non-zero (i, E^i u_i), i >= 1, in rising i.
    W_j is an integer, so a remainder means an E that does not clear U."""
    total = 0
    for i, u in terms:
        if i > j:
            break
        total += ((k + 1) * i - j) * u * w[j - i]
    quotient, remainder = divmod(total, j * u0)
    if remainder:
        raise ArithmeticError("inexact integer column coefficient W_%d of k = %d" % (j, k))
    return quotient


def _ordinary_fill(k: int, u0: int, terms: list, special: list, column: tuple, top: int) -> None:
    """Extend the ordinary column k = (W, c) with every c_j = E^(j+k(v-1))
    [t^j] P * (s U)^k up to c_top that it does not hold yet, and every W_j
    those read: W_0 = u0^k, then _ordinary_term.  special holds the
    non-zero (g, E^g p_g).  Column 1 comes with its W filled by the caller."""
    w, coeffs = column
    if k >= 2 and not w:
        w.append(u0 ** k)
    for j in range(len(coeffs), top + 1):
        if len(w) == j:
            w.append(_ordinary_term(j, k, u0, terms, w))
        coeffs.append(sum(p * w[j - g] for g, p in special if g <= j))


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
# Each family's factory declares ode = (a1, p, b, degree, q) next to its weights,
# the denominator D of its parameters (1 when it declares none) and, where
# a fixed E clears its ordinary coefficients, the scaling (s, E).  It refuses
# a negative ell, r or s, as the scheme refuses a negative index.


def _binomial_scaling(a: Rational, b: Rational, g: Rational) -> tuple:
    """(s, E) of the generalized weights at a, b != 0.  With lam = b/a = p/q,
    B = ((1 + a t)^lam - 1)/b, so s = p gives s u_i = q C(lam, i+1) a^i,
    and p_g = C(g/a, g) a^g.  C(x, n) has at most den(x)^(2n-1) in its
    denominator, so E = lcm(q^2, den(g/a)^2) den(a) clears both."""
    lam, ratio = Fraction(b) / a, Fraction(g) / a
    return lam.numerator, math.lcm(lam.denominator ** 2, ratio.denominator ** 2) * a.denominator


@lru_cache(maxsize=CACHE_SIZE)
def generalized_scheme(alpha: Rational, beta: Rational, gamma: Rational) -> WeightScheme:
    """(1 + alpha t) P' = gamma P and (1 + alpha t) B' = beta B + 1, for
    every alpha and beta; binomial blocks, scaled, where alpha, beta != 0."""
    a, b, g = rational(alpha), rational(beta), rational(gamma)
    return WeightScheme(
        name="generalized(%s,%s,%s)" % (a, b, g),
        special_weight=FallingFactorials(g, a),
        block_weight=_degenerate_blocks(a, b),
        ode=(a, g, b, 0, lambda i: 1),
        denominator=math.lcm(a.denominator, b.denominator, g.denominator),
        scaling=_binomial_scaling(a, b, g) if a and b else None,
    )


@lru_cache(maxsize=CACHE_SIZE)
def gen_restricted_scheme(
    alpha: Rational, beta: Rational, gamma: Rational, ell: int
) -> WeightScheme:
    check_indices(0, 0, ell)
    a, b, g = rational(alpha), rational(beta), rational(gamma)
    base = generalized_scheme(a, b, g)
    blocks = base.block_weight
    return WeightScheme(
        name="gen_restricted(%s,%s,%s,ell=%d)" % (a, b, g, ell),
        special_weight=base.special_weight,
        block_weight=(weight := lambda size: blocks(size) if size <= ell else 0),
        ode=(a, g, 0, *_tail(weight, ell, 0, a)),
        denominator=base.denominator,
        scaling=base.scaling,  # its u_i are the base's up to ell; log ones keep D
    )


@lru_cache(maxsize=CACHE_SIZE)
def free_atleast_scheme(gamma: Rational, ell: int) -> WeightScheme:
    check_indices(0, 0, ell)
    g = rational(gamma)
    return WeightScheme(
        name="free_atleast(%s,ell=%d)" % (g, ell),
        special_weight=lambda size: g ** size,
        block_weight=(weight := lambda size: 1 if size > ell else 0),
        ode=(0, g, 1, *_tail(weight, ell, 1)),
        denominator=g.denominator,
    )


@lru_cache(maxsize=CACHE_SIZE)
def partial_degenerate_scheme(
    gamma: Rational, alpha: Rational, beta: Rational, ell: int
) -> WeightScheme:
    """Free special set gamma^|G|; blocks of size <= ell carry the degenerate
    weight, larger blocks are free (weight 1)."""
    check_indices(0, 0, ell)
    a, b, g = rational(alpha), rational(beta), rational(gamma)
    blocks = _degenerate_blocks(a, b)
    return WeightScheme(
        name="partial_degenerate(%s,%s,%s,ell=%d)" % (g, a, b, ell),
        special_weight=lambda size: g ** size,
        block_weight=(weight := lambda size: blocks(size) if size <= ell else 1),
        ode=(0, g, 1, *_tail(weight, ell, 1)),
        denominator=math.lcm(g.denominator, a.denominator, b.denominator),
    )


@lru_cache(maxsize=CACHE_SIZE)
def colored_singleton_scheme(r: int, s: int) -> WeightScheme:
    """Special set r^|G|; singleton blocks may take one of s colors."""
    if r < 0 or s < 0:
        raise ValueError("all arguments must be non-negative")
    return WeightScheme(
        name="colored_singleton(r=%d,s=%d)" % (r, s),
        special_weight=lambda size: r ** size,
        block_weight=(weight := lambda size: s if size == 1 else 1),
        ode=(0, r, 1, *_tail(weight, 1, 1)),
    )


# -- the classical numbers: each is a family above at fixed parameters, so
#    it shares that family's scheme, its columns and its cache
def classic_scheme() -> WeightScheme:
    """Degenerate at lambda = 0: the generalized triple (0, 1, 0)."""
    return generalized_scheme(0, 1, 0)


def restricted_scheme(ell: int) -> WeightScheme:
    """Blocks of size at most ell: gen_restricted at (0, 1, 0)."""
    return gen_restricted_scheme(0, 1, 0, ell)


def associated_scheme(ell: int) -> WeightScheme:
    """Blocks of size at least ell: free_atleast at gamma = 0, above ell - 1."""
    check_indices(0, 0, ell)
    return free_atleast_scheme(0, max(ell - 1, 0))
