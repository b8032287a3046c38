"""Exact rational arithmetic, factorial-type primitives, index helpers.

Every quantity in this package is an exact rational: an int when it is
integral, else a :class:`fractions.Fraction`, which keeps values in
canonical form (gcd(|num|, den) = 1, den > 0) after every operation.
Either is accepted wherever a rational is expected.  A weight scheme
makes an integral parameter an int where it is built (`rational`), so on
int inputs its weights, its values and the independent routes to them
stay int.  So does Miller's kernel below, which keeps the coefficients
of series powers and products as reduced int pairs; a Fraction is formed
only where a value is returned.
"""

from __future__ import annotations

import math
import re
import threading
from collections.abc import Sequence
from fractions import Fraction

Rational = int | Fraction

_RATIONAL_RE = re.compile(r"([+-]?\d+)(?:/(\d+))?\Z")


def check_indices(n: int, k: int, ell: int = 0) -> None:
    """Refuse a negative n or k, and a negative ell where one is given."""
    if n < 0 or k < 0:
        raise ValueError("indices must be non-negative, got n=%r k=%r" % (n, k))
    if ell < 0:
        raise ValueError("ell must be non-negative, got %r" % (ell,))


def falling_factorial_deg(t: Rational, n: int, lam: Rational) -> Rational:
    """Product t(t-lam)(t-2*lam)...(t-(n-1)*lam); 1 when n = 0.

    The lam=0 case degenerates to t**n and lam=1 to the ordinary
    falling factorial.  Total function for n >= 0.
    """
    if n < 0:
        raise ValueError("falling_factorial_deg needs n >= 0, got %r" % (n,))
    if lam == 0:
        return t ** n
    out: Rational = 1
    for i in range(n):
        out *= t - i * lam
    return out


def rational(numerator: Rational, denominator: Rational = 1) -> Rational:
    """numerator / denominator, exactly: an int when it is integral, else a
    Fraction.  Never a float, whatever the operands."""
    if isinstance(numerator, int) and isinstance(denominator, int):
        quotient, remainder = divmod(numerator, denominator)
        return quotient if remainder == 0 else Fraction(numerator, denominator)
    if isinstance(numerator, Fraction) and denominator == 1:
        return numerator.numerator if numerator.denominator == 1 else numerator
    value = Fraction(numerator) / denominator
    return value.numerator if value.denominator == 1 else value


class FallingFactorials:
    """size -> (t)_{size,lam} for one (t, lam); an int when both are ints.

    Each value extends the one for the previous size by a single product
    and is kept, so the sizes 0..n cost n products in all, in whatever
    order they are asked for.  A weight scheme holds one per falling
    factorial it weighs by, so building its series costs O(order)
    products, not the O(order^2) of a falling_factorial_deg per size.
    Schemes and recursions share one instance, so the list grows under a
    lock: two callers extending it at once would append one size twice.
    """

    def __init__(self, t: Rational, lam: Rational):
        self.t, self.lam = t, lam
        self.values = [1]
        self.lock = threading.Lock()

    def __call__(self, size: int) -> Rational:
        if size < 0:
            raise ValueError("falling factorial needs a size >= 0, got %r" % (size,))
        values = self.values
        if size >= len(values) and values[-1]:
            with self.lock:
                while len(values) <= size and values[-1]:
                    values.append(values[-1] * (self.t - (len(values) - 1) * self.lam))
        # zero from the first zero factor on, which ends the list
        return values[size] if size < len(values) else values[-1]


def falling_factorial(t: Rational, n: int) -> Rational:
    """Ordinary falling factorial t(t-1)...(t-n+1)."""
    return falling_factorial_deg(t, n, 1)


def binomial(n: int, k: int) -> int:
    """C(n, k); zero outside the range 0 <= k <= n."""
    if n < 0:
        raise ValueError("binomial needs n >= 0, got %r" % (n,))
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def multinomial(n: int, parts: Sequence[int]) -> int:
    """n! / (parts[0]! * parts[1]! * ...).  The parts must sum to n."""
    if any(p < 0 for p in parts):
        raise ValueError("multinomial parts must be non-negative: %r" % (parts,))
    if sum(parts) != n:
        raise ValueError(
            "multinomial parts %r sum to %d, expected %d" % (list(parts), sum(parts), n)
        )
    out = math.factorial(n)
    for p in parts:
        out //= math.factorial(p)
    return out


def parse_rational(text: str) -> Fraction:
    """Parse the literal format used across the CLI: '-3', '7', '3/2', '-3/2'.

    The denominator, when present, must be a positive integer with no sign.
    """
    m = _RATIONAL_RE.match(text.strip())
    if m is None:
        raise ValueError("not a rational literal: %r" % (text,))
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) is not None else 1
    if den == 0:
        raise ValueError("zero denominator in rational literal: %r" % (text,))
    return Fraction(num, den)


def format_rational(value: Rational) -> str:
    """Render a rational as 'p' or 'p/q' with q > 0."""
    f = Fraction(value)
    if f.denominator == 1:
        return str(f.numerator)
    return "%d/%d" % (f.numerator, f.denominator)


# Entries kept by each bounded cache: the scheme factories (core's
# printed-form associated scheme among them), the oracle's size profiles
# and the multinomial route's composition tables
# (audit._composition_table, one per (n, k, minimum), one row per
# multiset of head sizes).  After `verify --suite all --nmax 8` the
# composition tables number 140, and the largest scheme factory,
# generalized_scheme, holds 52 of the 175 schemes (classic's, the triple
# (0, 1, 0), among them), which keep 988 columns in all.  A long-lived
# caller asking for ever new parameters keeps at most this many schemes
# per factory alive, each with its columns: the generating-function
# columns and the recurrence columns, which also hold every value the
# audited recursions of core have read.  The printed forms' shared stores
# (the audit's thm13 splits, thm3's sums, thm20's powers) live only for
# one suite run.
CACHE_SIZE = 256


# -- Miller's pair kernel, run by the series powers and products and by the
#    partial Bell numbers: a coefficient is a reduced pair (numerator,
#    denominator > 0).  The scheme columns keep theirs as ints, by the
#    kernels of the schemes module.
def _miller_term(
    n: int, k: int, u0: tuple, terms: list, w_num: list[int], w_den: list[int]
) -> tuple:
    """w_n of U^k, n >= 1, as a pair, by Miller's recurrence: u0 is the pair
    of u_0, terms are the non-zero (i, numerator, denominator) of U with
    i >= 1, in rising i, and w_num, w_den hold w_0..w_(n-1).  Needs only
    u_0..u_n, so U^k can be extended one coefficient at a time."""
    nums, dens = [], []
    for i, num, den in terms:
        if i > n:
            break
        nums.append(((k + 1) * i - n) * num * w_num[n - i])
        dens.append(den * w_den[n - i])
    return _pair_sum(nums, dens, u0[1], n * u0[0])


def _miller_power(coeffs: Sequence[Rational], k: int, order: int) -> list:
    """B^k mod t^(order+1), k >= 1, from the coefficients b_0, b_1, ... of B,
    as its coefficients of t^(order+1-len(w)) .. t^order, Fractions; [] when
    the power vanishes mod t^(order+1).

    With B = t^v * U and u_0 = U(0) != 0, B^k = t^(vk) * U^k, so the power
    is zero once vk > order and otherwise needs w_0..w_N of U^k only,
    N = order - vk: w_0 = u_0^k and w_n by _miller_term, O(N^2) products in
    all, whatever k is.  They read b_v..b_(v+N) and nothing beyond, so
    coeffs may stop at b_L for any L >= v + N; if b_0..b_L are all zero,
    B is read as having valuation L + 1.
    """
    v = next((i for i, c in enumerate(coeffs) if c), len(coeffs))
    if v * k > order:
        return []
    top = order - v * k
    u0 = (coeffs[v].numerator, coeffs[v].denominator)
    terms = [(i, c.numerator, c.denominator)
             for i, c in enumerate(coeffs[v + 1 : v + top + 1], 1) if c]
    w_num, w_den = [u0[0] ** k], [u0[1] ** k]
    for n in range(1, top + 1):
        num, den = _miller_term(n, k, u0, terms, w_num, w_den)
        w_num.append(num)
        w_den.append(den)
    return list(map(Fraction, w_num, w_den))


def _pair_sum(nums: list[int], dens: list[int], scale_num: int = 1, scale_den: int = 1) -> tuple:
    """sum of nums[i] / dens[i], times scale_num / scale_den (scale_den !=
    0), as a reduced pair: one sum over the least common denominator and one
    gcd.  The series products sum many terms whose denominators share most
    of their factors, and a Fraction sum would reduce after every term."""
    common = math.lcm(*dens)
    num = sum(a * (common // d) for a, d in zip(nums, dens)) * scale_num
    den = common * scale_den
    if den < 0:
        num, den = -num, -den
    g = math.gcd(num, den)
    return num // g, den // g
