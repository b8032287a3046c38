"""Hybrids of the generalized and incomplete families.

Two families live here:

* gen_restricted: generalized numbers whose k ordinary blocks hold at
  most ell elements each.  Reference path is the generating function
  of that weight scheme,
  e_alpha^gamma(x) * (sum_{m=1..ell} (beta-alpha)_{m-1,alpha} x^m/m!)^k / k!,
  which is e_alpha^gamma(x) * (e_{alpha;<=ell}^beta(x) - 1)^k / (beta^k k!)
  when beta != 0 and is defined for every beta.

* free_atleast: a free (unweighted) special set with weight gamma^|G|
  and k blocks forced to exceed ell elements; generating function
  e^(gamma*x) * (e^x - e_{<=ell}(x))^k / k!.

Both generating functions come from the weight schemes in the oracle
module; self-contained recursions re-derive the values independently.

The free-cell numbers resemble r-Stirling-style counts (distinguished
elements pinned to distinct blocks, the rest size-floored) but do not
coincide with them: here the special set has no size constraint at all.
Those counts are out of scope; only this comparison note is kept.

The one-step recursion evaluators accept a literal flag so the audit
can score the commonly printed index variants against the corrected
ones; see the audit module for the scoreboard.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from .core import stirling2_associated, stirling2_associated_rec
from .exact import Rational, binomial, falling_factorial_deg
from .oracle import degenerate_block_weight, free_atleast_scheme, gen_restricted_scheme
from .series import egf_coeff

__all__ = [
    "gen_restricted",
    "gen_restricted_rec",
    "gen_restricted_recursion",
    "gen_restricted_three_term",
    "free_atleast",
    "free_atleast_rec",
    "free_atleast_recursion",
    "associated_from_free",
]


def _validate(n: int, k: int, ell: int) -> None:
    if n < 0 or k < 0:
        raise ValueError("indices must be non-negative, got n=%r k=%r" % (n, k))
    if ell < 1:
        raise ValueError("size-restricted families need ell >= 1")


@cache
def _gen_restricted_rec(
    n: int, k: int, alpha: Fraction, beta: Fraction, gamma: Fraction, ell: int
) -> Fraction:
    # corrected one-step rule applied recursively
    if k < 0:
        return Fraction(0)
    if n == 0:
        return Fraction(1 if k == 0 else 0)
    if k > n:
        return Fraction(0)
    m = n - 1
    total = gamma * _gen_restricted_rec(m, k, alpha, beta, gamma - alpha, ell)
    if k >= 1:
        for i in range(max(k - 1, m + 1 - ell), m + 1):
            total += (
                binomial(m, i)
                * degenerate_block_weight(m - i + 1, alpha, beta)
                * _gen_restricted_rec(i, k - 1, alpha, beta, gamma, ell)
            )
    return total


def gen_restricted(
    n: int, k: int, alpha: Rational, beta: Rational, gamma: Rational, ell: int
) -> Fraction:
    """Generalized numbers with every ordinary block of size at most ell."""
    _validate(n, k, ell)
    a, b, g = Fraction(alpha), Fraction(beta), Fraction(gamma)
    if k > n:
        return Fraction(0)
    return egf_coeff(gen_restricted_scheme(a, b, g, ell).egf(k, n), n)


def gen_restricted_rec(
    n: int, k: int, alpha: Rational, beta: Rational, gamma: Rational, ell: int
) -> Fraction:
    """Full recursion path (no generating function); any beta."""
    _validate(n, k, ell)
    return _gen_restricted_rec(n, k, Fraction(alpha), Fraction(beta), Fraction(gamma), ell)


def gen_restricted_recursion(
    n_plus_1: int,
    k: int,
    alpha: Rational,
    beta: Rational,
    gamma: Rational,
    ell: int,
    literal: bool = False,
) -> Fraction:
    """One step of the basic recursion, evaluated on reference values.

    Corrected summation bounds run max(k-1, n+1-ell) <= i <= n so the
    new element's block keeps size n-i+1 <= ell.  The literal variant
    uses the widely printed bounds k-1 <= i <= n-ell-1, which the audit
    shows to be wrong.
    """
    _validate(n_plus_1, k, ell)
    if n_plus_1 == 0:
        return Fraction(1 if k == 0 else 0)
    a, b, g = Fraction(alpha), Fraction(beta), Fraction(gamma)
    n = n_plus_1 - 1
    total = g * gen_restricted(n, k, a, b, g - a, ell)
    if k >= 1:
        if literal:
            lo, hi = k - 1, n - ell - 1
        else:
            lo, hi = max(k - 1, n + 1 - ell), n
        for i in range(max(lo, 0), hi + 1):
            total += (
                binomial(n, i)
                * degenerate_block_weight(n - i + 1, a, b)
                * gen_restricted(i, k - 1, a, b, g, ell)
            )
    return total


def gen_restricted_three_term(
    n: int,
    k: int,
    alpha: Rational,
    beta: Rational,
    gamma: Rational,
    ell: int,
    form: str = "derived",
) -> Fraction:
    """Right-hand side of the three-term recurrence, two readings.

    form="literal" evaluates the printed expression, whose left side is
    indexed S(n,k); form="derived" re-derives the expansion by applying
    the corrected one-step rule twice, giving a value for S(n+1,k).
    The audit compares each against the matching reference value.
    """
    _validate(n, k, ell)
    a, b, g = Fraction(alpha), Fraction(beta), Fraction(gamma)

    if form == "literal":
        total = g * gen_restricted(n, k, a, b, g - a, ell)
        for i in range(max(k - 1, 0), ell + 1):
            if i > n:
                break
            w = binomial(n, i) * Fraction(falling_factorial_deg(b - a, n - i + 1, a))
            if i >= 1:
                total += g * w * _safe_gen_restricted(i - 1, k - 1, a, b, g - a, ell)
            inner = Fraction(0)
            for j in range(0, i):
                inner += (
                    binomial(i - 1, j)
                    * Fraction(falling_factorial_deg(b - a, i - j, a))
                    * _safe_gen_restricted(j, k - 2, a, b, g, ell)
                )
            total += w * inner
        return total

    if form != "derived":
        raise ValueError("form must be 'literal' or 'derived', got %r" % (form,))

    if n + 1 == 0:
        return Fraction(1 if k == 0 else 0)
    total = g * gen_restricted(n, k, a, b, g - a, ell)
    if k >= 1:
        for i in range(max(k - 1, n + 1 - ell, 0), n + 1):
            w = binomial(n, i) * degenerate_block_weight(n - i + 1, a, b)
            if i == 0:
                total += w * gen_restricted(0, k - 1, a, b, g, ell)
                continue
            inner = g * gen_restricted(i - 1, k - 1, a, b, g - a, ell)
            for j in range(max(k - 2, i - ell, 0), i):
                inner += (
                    binomial(i - 1, j)
                    * degenerate_block_weight(i - j, a, b)
                    * _safe_gen_restricted(j, k - 2, a, b, g, ell)
                )
            total += w * inner
    return total


def _safe_gen_restricted(
    n: int, k: int, alpha: Fraction, beta: Fraction, gamma: Fraction, ell: int
) -> Fraction:
    return Fraction(0) if k < 0 else gen_restricted(n, k, alpha, beta, gamma, ell)


# -- free special set, size-floored blocks -----------------------------------


def free_atleast(n: int, k: int, gamma: Rational, ell: int) -> Fraction:
    """Pairs (G, P_k) weighted gamma^|G| with every block larger than ell."""
    if n < 0 or k < 0 or ell < 0:
        raise ValueError("indices must be non-negative")
    if k > n:
        return Fraction(0)
    return egf_coeff(free_atleast_scheme(Fraction(gamma), ell).egf(k, n), n)


@cache
def _free_atleast_rec(n: int, k: int, gamma: Fraction, ell: int) -> Fraction:
    if n == 0:
        return Fraction(1 if k == 0 else 0)
    m = n - 1
    total = gamma * _free_atleast_rec(m, k, gamma, ell)
    for i in range(0, m + 1):
        total += gamma ** i * binomial(m, i) * stirling2_associated_rec(m + 1 - i, k, ell + 1)
    return total


def free_atleast_rec(n: int, k: int, gamma: Rational, ell: int) -> Fraction:
    """Full recursion path built on the size-floored recursion only."""
    if n < 0 or k < 0 or ell < 0:
        raise ValueError("indices must be non-negative")
    return _free_atleast_rec(n, k, Fraction(gamma), ell)


def free_atleast_recursion(
    n_plus_1: int, k: int, gamma: Rational, ell: int, literal: bool = False
) -> Fraction:
    """One recursion step by the position of the newest element.

    Corrected form: gamma * F(n,k) + sum_i gamma^i C(n,i) A(n+1-i, k)
    with A the size-floored partition count at floor ell+1.  The literal
    variant uses A(n-i, k), off by the element that joined the blocks.
    """
    if n_plus_1 < 1 or k < 0 or ell < 0:
        raise ValueError("need n_plus_1 >= 1 and non-negative k, ell")
    g = Fraction(gamma)
    n = n_plus_1 - 1
    shift = 0 if literal else 1
    total = g * free_atleast(n, k, g, ell)
    for i in range(0, n + 1):
        total += g ** i * binomial(n, i) * stirling2_associated(n + shift - i, k, ell + 1)
    return total


def associated_from_free(n: int, k: int, gamma: Rational, ell: int) -> Fraction:
    """Inclusion-exclusion over the special set size.

    sum_{i=0..n} (-1)^i gamma^i C(n,i) F(n-i, k; gamma, ell-1) recovers
    the size-floored partition count, independently of gamma.
    """
    if ell < 1:
        raise ValueError("associated numbers need ell >= 1")
    if n < 0 or k < 0:
        raise ValueError("indices must be non-negative")
    g = Fraction(gamma)
    total = Fraction(0)
    for i in range(0, n + 1):
        sign = -1 if i % 2 else 1
        total += sign * g ** i * binomial(n, i) * free_atleast(n - i, k, g, ell - 1)
    return total
