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

Both generating functions come from the weight schemes in the schemes
module.  The recurrence routes re-derive the values independently by
applying the audited corrected one-step rules to their own rows.

The free-cell numbers resemble r-Stirling-style counts (distinguished
elements pinned to distinct blocks, the rest size-floored) but do not
coincide with them: here the special set has no size constraint at all.
Those counts are out of scope; only this comparison note is kept.

The one-step recursion evaluators accept a literal flag so the audit
can score the commonly printed index variants against the corrected
ones (see the audit module for the scoreboard), and a lower function
for the rows they build on.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from .core import _associated_rec, stirling2_associated_rec
from .exact import UNFILLED_ROWS, Rational, binomial, cells_below, check_indices, falling_factorial_deg
from .schemes import free_atleast_scheme, gen_restricted_scheme, generalized_scheme

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


def gen_restricted(
    n: int, k: int, alpha: Rational, beta: Rational, gamma: Rational, ell: int
) -> Fraction:
    """Generalized numbers with every ordinary block of size at most ell."""
    check_indices(n, k, ell)
    a, b, g = Fraction(alpha), Fraction(beta), Fraction(gamma)
    return gen_restricted_scheme(a, b, g, ell).value(k, n)


def gen_restricted_rec(
    n: int, k: int, alpha: Rational, beta: Rational, gamma: Rational, ell: int
) -> Fraction:
    """Full recursion path (no generating function); any beta.  The memo
    is filled bottom-up over the states the recursion reaches, so n has
    no depth limit."""
    check_indices(n, k, ell)
    a, b, g = Fraction(alpha), Fraction(beta), Fraction(gamma)
    for m, j in cells_below(n, k):
        # (m, j) at gamma - t*alpha: t removed elements joined the special
        # set, the other n-m-t formed k-j blocks of 1..ell elements
        for t in range(max(0, n - m - ell * (k - j)), n - m - (k - j) + 1):
            _gen_restricted_rec(m, j, a, b, g - t * a, ell)
    return _gen_restricted_rec(n, k, a, b, g, ell)


@cache
def _gen_restricted_rec(
    n: int, k: int, alpha: Fraction, beta: Fraction, gamma: Fraction, ell: int
) -> Fraction:
    if k > n:
        return Fraction(0)
    return gen_restricted_recursion(n, k, alpha, beta, gamma, ell, lower=_gen_restricted_rec)


def gen_restricted_recursion(
    n_plus_1: int,
    k: int,
    alpha: Rational,
    beta: Rational,
    gamma: Rational,
    ell: int,
    literal: bool = False,
    lower=None,
) -> Fraction:
    """One step of the basic recursion: S(n+1, k) from the rows below.

    lower(m, j, alpha, beta, gamma, ell) evaluates those rows, on the
    parameters as given; None means the reference values, gen_restricted
    as looked up at call time.  The recurrence route passes its own
    memoised rows instead.

    Corrected summation bounds run max(k-1, n+1-ell) <= i <= n so the
    new element's block keeps size n-i+1 <= ell.  The literal variant
    uses the widely printed bounds k-1 <= i <= n-ell-1, which the audit
    shows to be wrong.  Those bounds reach blocks larger than ell, so the
    block weight is the generalized one, which excludes no size.
    """
    check_indices(n_plus_1, k, ell)
    if n_plus_1 == 0:
        return Fraction(1 if k == 0 else 0)
    if lower is None:
        lower = gen_restricted
    n = n_plus_1 - 1
    total = gamma * lower(n, k, alpha, beta, gamma - alpha, ell)
    if k >= 1:
        if literal:
            lo, hi = k - 1, n - ell - 1
        else:
            lo, hi = max(k - 1, n + 1 - ell), n
        block_weight = generalized_scheme(alpha, beta, 0).block_weight
        for i in range(max(lo, 0), hi + 1):
            total += (
                binomial(n, i)
                * block_weight(n - i + 1)
                * lower(i, k - 1, alpha, beta, gamma, ell)
            )
    return total


def gen_restricted_three_term(
    n: int,
    k: int,
    alpha: Rational,
    beta: Rational,
    gamma: Rational,
    ell: int,
    literal: bool = False,
) -> Fraction:
    """Right-hand side of the three-term recurrence, two readings.

    The literal reading evaluates the printed expression, whose left side
    is indexed S(n,k); the derived one (the default) applies the corrected
    one-step rule twice (the step, evaluated on rows that are themselves
    one step from the reference values), giving a value for S(n+1,k).
    The audit compares each against the matching reference value.
    """
    check_indices(n, k, ell)
    a, b, g = Fraction(alpha), Fraction(beta), Fraction(gamma)

    if not literal:
        return gen_restricted_recursion(n + 1, k, a, b, g, ell, lower=gen_restricted_recursion)

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


def _safe_gen_restricted(
    n: int, k: int, alpha: Fraction, beta: Fraction, gamma: Fraction, ell: int
) -> Fraction:
    return Fraction(0) if k < 0 else gen_restricted(n, k, alpha, beta, gamma, ell)


# -- free special set, size-floored blocks -----------------------------------


def free_atleast(n: int, k: int, gamma: Rational, ell: int) -> Fraction:
    """Pairs (G, P_k) weighted gamma^|G| with every block larger than ell."""
    check_indices(n, k, ell)
    return free_atleast_scheme(Fraction(gamma), ell).value(k, n)


def free_atleast_rec(n: int, k: int, gamma: Rational, ell: int) -> Fraction:
    """Full recursion path built on the size-floored recursion only; the
    rows below n are filled bottom-up first, so n has no depth limit."""
    check_indices(n, k, ell)
    g = Fraction(gamma)
    for m in range(n - UNFILLED_ROWS):
        _free_atleast_rec(m, k, g, ell)
    return _free_atleast_rec(n, k, g, ell)


@cache
def _free_atleast_rec(n: int, k: int, gamma: Fraction, ell: int) -> Fraction:
    if n == 0:
        return Fraction(1 if k == 0 else 0)
    return free_atleast_recursion(n, k, gamma, ell, lower=_free_atleast_rec)


def free_atleast_recursion(
    n_plus_1: int, k: int, gamma: Rational, ell: int, literal: bool = False, lower=None
) -> Fraction:
    """One recursion step by the position of the newest element.

    Corrected form: gamma * F(n,k) + sum_i gamma^i C(n,i) A(n+1-i, k)
    with A the size-floored partition count at floor ell+1, taken from
    its own recursion.  lower(n, k, gamma, ell) evaluates F, on the
    parameters as given; None means the reference values, free_atleast
    as looked up at call time.  The recurrence route passes its own
    memoised rows instead.  The literal variant uses A(n-i, k), off by
    the element that joined the blocks.
    """
    if n_plus_1 < 1 or k < 0 or ell < 0:
        raise ValueError("need n_plus_1 >= 1 and non-negative k, ell")
    if lower is None:
        lower = free_atleast
    n = n_plus_1 - 1
    shift = 0 if literal else 1
    total = gamma * lower(n, k, gamma, ell)
    # one bottom-up fill for the largest count covers every smaller one
    stirling2_associated_rec(n + shift, k, ell + 1)
    for i in range(0, n + 1):
        term = gamma ** i * _associated_rec(n + shift - i, k, ell + 1)
        if term:
            total += binomial(n, i) * term
    return total


def associated_from_free(n: int, k: int, gamma: Rational, ell: int) -> Fraction:
    """Inclusion-exclusion over the special set size.

    sum_{i=0..n} (-1)^i gamma^i C(n,i) F(n-i, k; gamma, ell-1) recovers
    the size-floored partition count, independently of gamma.  F(n-i, k)
    is zero for i > n-k (blocks are non-empty), so the sum stops there.
    """
    if ell < 1:
        raise ValueError("associated numbers need ell >= 1")
    check_indices(n, k)
    g = Fraction(gamma)
    total = Fraction(0)
    for i in range(0, n - k + 1):
        sign = -1 if i % 2 else 1
        total += sign * g ** i * binomial(n, i) * free_atleast(n - i, k, g, ell - 1)
    return total
