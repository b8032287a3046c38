"""Three-parameter generalized Stirling numbers and their degenerate case.

S(n,k) for parameters (alpha, beta, gamma) is defined as the connection
coefficient between the degenerate falling factorials (t)_{n,alpha} and
(t-gamma)_{k,beta}.  Combinatorially the numbers are weighted sums over
mixed partitions (a possibly-empty special set G plus k non-empty
blocks): G carries weight (gamma)_{|G|,alpha} and a block B carries
(beta-alpha)_{|B|-1,alpha}.  That weight scheme (schemes module) fixes the
exponential generating function

    e_alpha^gamma(t) * (sum_{m>=1} (beta-alpha)_{m-1,alpha} t^m/m!)^k / k!,

which is e_alpha^gamma(t) * (e_alpha^beta(t) - 1)^k / (beta^k * k!) when
beta != 0 and needs no division by beta in general; coefficient
extraction from it is the canonical computation path for every beta.
The triangular recursion

    S(n+1,k) = S(n,k-1) + (k*beta - n*alpha + gamma) * S(n,k)

and an explicit alternating sum (finite-difference style, beta != 0 only)
are independent routes to the same values.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache

from .exact import Rational, binomial, cells_below, check_indices, falling_factorial_deg
from .schemes import generalized_scheme

__all__ = [
    "gen_stirling",
    "gen_stirling_rec",
    "gen_stirling_explicit",
    "degenerate_stirling",
]


def check_triple(alpha: Rational, beta: Rational, gamma: Rational) -> None:
    """Every route refuses the excluded generalized triple (0, 0, 0)."""
    if alpha == 0 and beta == 0 and gamma == 0:
        raise ValueError("parameter triple (0, 0, 0) is excluded")


def _validate(n: int, k: int, alpha: Fraction, beta: Fraction, gamma: Fraction) -> None:
    check_indices(n, k)
    check_triple(alpha, beta, gamma)


def gen_stirling(n: int, k: int, alpha: Rational, beta: Rational, gamma: Rational) -> Fraction:
    """Generalized Stirling number for the parameter triple (alpha, beta, gamma)."""
    a, b, g = Fraction(alpha), Fraction(beta), Fraction(gamma)
    _validate(n, k, a, b, g)
    return generalized_scheme(a, b, g).value(k, n)


def gen_stirling_rec(n: int, k: int, alpha: Rational, beta: Rational, gamma: Rational) -> Fraction:
    """Same value through the triangular recursion (works for any beta),
    its rows filled bottom-up so n has no depth limit."""
    a, b, g = Fraction(alpha), Fraction(beta), Fraction(gamma)
    _validate(n, k, a, b, g)
    for m, j in cells_below(n, k):
        _gen_rec_full(m, j, a, b, g)
    return _gen_rec_full(n, k, a, b, g)


@cache
def _gen_rec_full(n: int, k: int, alpha: Fraction, beta: Fraction, gamma: Fraction) -> Fraction:
    if n == 0:
        return Fraction(1 if k == 0 else 0)
    if k > n:
        return Fraction(0)
    m = n - 1
    lower = _gen_rec_full(m, k - 1, alpha, beta, gamma) if k >= 1 else Fraction(0)
    return lower + (k * beta - m * alpha + gamma) * _gen_rec_full(m, k, alpha, beta, gamma)


def gen_stirling_explicit(n: int, k: int, alpha: Rational, beta: Rational, gamma: Rational) -> Fraction:
    """Alternating-sum formula; requires beta != 0.

    (1 / (beta^k k!)) * sum_{j=0..k} (-1)^(k-j) C(k,j) (beta*j + gamma)_{n,alpha}
    """
    a, b, g = Fraction(alpha), Fraction(beta), Fraction(gamma)
    _validate(n, k, a, b, g)
    if b == 0:
        raise ValueError("explicit sum is undefined for beta = 0; use the recursion path")
    total = Fraction(0)
    for j in range(k + 1):
        sign = -1 if (k - j) % 2 else 1
        total += sign * binomial(k, j) * falling_factorial_deg(b * j + g, n, a)
    return total / (b ** k * math.factorial(k))


def degenerate_stirling(n: int, k: int, lam: Rational) -> Fraction:
    """Degenerate Stirling numbers: the (lam, 1, 0) parameter specialization.

    lam = 0 is the limit case: its weights are the classic ones, so it
    gives the classic numbers.
    """
    return gen_stirling(n, k, lam, 1, 0)
