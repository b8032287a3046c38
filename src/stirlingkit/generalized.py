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

    S(n+1,k) = S(n,k-1) + (k*beta - n*alpha + gamma) * S(n,k),

which is the differential equation the scheme declares read as a
recurrence (recurrence module), and an explicit alternating sum
(finite-difference style, beta != 0 only) are independent routes to the
same values.

The alternating sum is also the explicit route of every scheme whose
declared q is a constant and b != 0 (explicit_value): its two series
are then the generalized ones up to constant factors, so classic,
degenerate, generalized, associated at ell <= 1 and free_atleast and
partial_degenerate at ell = 0 all take it.
"""

from __future__ import annotations

import math

from .exact import Rational, binomial, check_indices, falling_factorial_deg, rational
from .recurrence import recurrence_value
from .schemes import generalized_scheme

__all__ = [
    "gen_stirling",
    "gen_stirling_rec",
    "gen_stirling_explicit",
    "explicit_value",
    "degenerate_stirling",
]


def gen_stirling(n: int, k: int, alpha: Rational, beta: Rational, gamma: Rational) -> Rational:
    """Generalized Stirling number for the parameter triple (alpha, beta, gamma)."""
    return generalized_scheme(alpha, beta, gamma).value(k, n)


def gen_stirling_rec(n: int, k: int, alpha: Rational, beta: Rational, gamma: Rational) -> Rational:
    """Same value through the triangular recursion (works for any beta),
    which is the scheme's declared differential equation read by
    the recurrence module, filled iteratively so n has no depth limit."""
    return recurrence_value(n, k, generalized_scheme(alpha, beta, gamma))


def gen_stirling_explicit(n: int, k: int, alpha: Rational, beta: Rational, gamma: Rational) -> Rational:
    """Alternating-sum formula; requires beta != 0.

    (1 / (beta^k k!)) * sum_{j=0..k} (-1)^(k-j) C(k,j) (beta*j + gamma)_{n,alpha}
    """
    check_indices(n, k)
    if beta == 0:
        raise ValueError("explicit sum is undefined for beta = 0; use the recursion path")
    if k > n:
        return 0  # the k-th difference of a polynomial in j of degree n
    total = 0
    for j in range(k + 1):
        sign = -1 if (k - j) % 2 else 1
        total += sign * binomial(k, j) * falling_factorial_deg(beta * j + gamma, n, alpha)
    return rational(total, beta ** k * math.factorial(k))


def explicit_value(n: int, k: int, scheme) -> Rational:
    """The value of scheme at (n, k) by the alternating sum, read off the
    differential equation it declares, never off a column.

    With ode = (a1, p, b, 0, q), q a constant, the series are P = sw(0) times
    the generalized special series at (a1, p) and B = q(0) times the
    generalized block series at (a1, b), so the value is
    sw(0) q(0)^k S(n, k; a1, b, p).  Any other declaration is refused.
    """
    if scheme.ode is None or scheme.ode[3] != 0:
        raise ValueError("no explicit sum for scheme %s: it declares no constant q" % scheme.name)
    a1, p, b, _, q = scheme.ode
    value = gen_stirling_explicit(n, k, a1, b, p)
    return value and rational(scheme.special_weight(0) * q(0) ** k * value)


def degenerate_stirling(n: int, k: int, lam: Rational) -> Rational:
    """Degenerate Stirling numbers: the (lam, 1, 0) parameter specialization.

    lam = 0 is the limit case: its weights are the classic ones, so it
    gives the classic numbers.
    """
    return gen_stirling(n, k, lam, 1, 0)
