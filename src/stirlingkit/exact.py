"""Exact rational arithmetic, factorial-type primitives, index helpers.

Every quantity in this package is an exact rational.  We use
:class:`fractions.Fraction`, which keeps values in canonical form
(gcd(|num|, den) = 1, den > 0) after every operation.  Plain Python
ints are accepted everywhere a rational is expected; results stay
int when all inputs are int.
"""

from __future__ import annotations

import math
import re
import threading
from collections.abc import Iterator, Sequence
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
    out: Rational = 1
    for i in range(n):
        out *= t - i * lam
    return out


class FallingFactorials:
    """size -> (t)_{size,lam} as a Fraction, for one (t, lam).

    Each value extends the one for the previous size by a single product
    and is kept, so the sizes 0..n cost n products in all, in whatever
    order they are asked for.  A weight scheme holds one per falling
    factorial it weighs by, so building its series costs O(order)
    products, not the O(order^2) of a falling_factorial_deg per size.
    Schemes and recursions share one instance, so the list grows under a
    lock: two callers extending it at once would append one size twice.
    """

    def __init__(self, t: Rational, lam: Rational):
        self.t, self.lam = Fraction(t), Fraction(lam)
        self.values = [Fraction(1)]
        self.lock = threading.Lock()

    def __call__(self, size: int) -> Fraction:
        if size < 0:
            raise ValueError("falling factorial needs a size >= 0, got %r" % (size,))
        values = self.values
        if size >= len(values):
            with self.lock:
                while len(values) <= size:
                    values.append(values[-1] * (self.t - (len(values) - 1) * self.lam))
        return values[size]


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


def as_integer(value: Rational) -> int:
    """Convert an integral rational to int; reject non-integers."""
    f = Fraction(value)
    if f.denominator != 1:
        raise ValueError("expected an integer value, got %s" % (f,))
    return f.numerator


# Rows a memoised recursion may descend before it meets filled rows (or
# columns, for the size-limited and size-floored recursions, which drop
# one block per level).  At up to three interpreter levels a row this
# stays well inside Python's default recursion limit of 1000, and calls
# with n (or k) up to it fill nothing.
UNFILLED_ROWS = 150

# Entries kept by each bounded cache: the scheme factories and the oracle's
# size profiles.  After `verify --suite all --nmax 8` the largest,
# generalized_scheme, holds 52 schemes; a long-lived caller asking for ever
# new parameters keeps at most this many schemes and their columns alive.
CACHE_SIZE = 256


def cells_below(n: int, k: int) -> Iterator[tuple[int, int]]:
    """Cells (m, j) of the rows m < n - UNFILLED_ROWS, row by row from
    m = 0, that a triangular recursion from (n, k) reaches when each step
    drops at least one element and at most one block:
    k-(n-m) <= j <= min(m, k).  A memoised recursion evaluated on them
    first never nests calls more than UNFILLED_ROWS rows deep."""
    for m in range(n - UNFILLED_ROWS):
        for j in range(max(0, k - (n - m)), min(m, k) + 1):
            yield m, j
