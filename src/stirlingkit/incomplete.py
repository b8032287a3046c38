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
module.  The recurrence routes re-derive the values independently from
the differential equation each scheme declares (recurrence module);
the audited one-step rules below are verification targets.  The
size-floored counts that free_atleast_recursion sums come from the
associated scheme's recurrence as well, so no route here reads core.

The free-cell numbers resemble r-Stirling-style counts (distinguished
elements pinned to distinct blocks, the rest size-floored) but do not
coincide with them: here the special set has no size constraint at all.
Those counts are out of scope; only this comparison note is kept.

The one-step recursion evaluators accept a literal flag so the audit
can score the commonly printed index variants against the corrected
ones (see the audit module for the scoreboard); gen_restricted_recursion
also takes a lower function for the rows it builds on, which the derived
three-term form sets to the step itself.
"""

from __future__ import annotations

from .exact import Rational, binomial, check_indices, falling_factorial_deg, rational
from .recurrence import recurrence_value
from .schemes import (
    associated_scheme,
    free_atleast_scheme,
    gen_restricted_scheme,
    generalized_scheme,
)

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
) -> Rational:
    """Generalized numbers with every ordinary block of size at most ell."""
    return gen_restricted_scheme(alpha, beta, gamma, ell).value(k, n)


def gen_restricted_rec(
    n: int, k: int, alpha: Rational, beta: Rational, gamma: Rational, ell: int
) -> Rational:
    """Recurrence path (no generating function); any beta: the scheme's
    declared differential equation read by the recurrence module."""
    return recurrence_value(n, k, gen_restricted_scheme(alpha, beta, gamma, ell))


def gen_restricted_recursion(
    n_plus_1: int,
    k: int,
    alpha: Rational,
    beta: Rational,
    gamma: Rational,
    ell: int,
    literal: bool = False,
    lower=None,
) -> Rational:
    """One step of the basic recursion: S(n+1, k) from the rows below.

    lower(m, j, alpha, beta, gamma, ell) evaluates those rows, on the
    parameters as given; None means the reference values, gen_restricted.

    Corrected summation bounds run max(k-1, n+1-ell) <= i <= n so the
    new element's block keeps size n-i+1 <= ell.  The literal variant
    uses the widely printed bounds k-1 <= i <= n-ell-1, which the audit
    shows to be wrong.  Those bounds reach blocks larger than ell, so the
    block weight is the generalized one, which excludes no size.
    """
    check_indices(n_plus_1, k, ell)
    if n_plus_1 == 0:
        return 1 if k == 0 else 0
    n = n_plus_1 - 1
    lower = lower or gen_restricted
    total = gamma * lower(n, k, alpha, beta, gamma - alpha, ell)
    if k >= 1:
        if literal:
            lo, hi = k - 1, n - ell - 1
        else:
            lo, hi = max(k - 1, n + 1 - ell), n
        block_weight = generalized_scheme(alpha, beta, 0).block_weight
        for i in range(max(lo, 0), hi + 1):
            total += (binomial(n, i) * block_weight(n - i + 1)
                      * lower(i, k - 1, alpha, beta, gamma, ell))
    return total


def gen_restricted_three_term(
    n: int,
    k: int,
    alpha: Rational,
    beta: Rational,
    gamma: Rational,
    ell: int,
    literal: bool = False,
) -> Rational:
    """Right-hand side of the three-term recurrence, two readings.

    The literal reading evaluates the printed expression, whose left side
    is indexed S(n,k); the derived one (the default) applies the corrected
    one-step rule twice (the step, evaluated on rows that are themselves
    one step from the reference values), giving a value for S(n+1,k).
    The audit compares each against the matching reference value.
    """
    check_indices(n, k, ell)
    if not literal:
        step = gen_restricted_recursion
        return step(n + 1, k, alpha, beta, gamma, ell, lower=step)

    total = gamma * gen_restricted(n, k, alpha, beta, gamma - alpha, ell)
    for i in range(max(k - 1, 0), ell + 1):
        if i > n:
            break
        w = binomial(n, i) * falling_factorial_deg(beta - alpha, n - i + 1, alpha)
        if i >= 1:
            total += gamma * w * _safe_gen_restricted(i - 1, k - 1, alpha, beta, gamma - alpha, ell)
        inner = 0
        for j in range(0, i):
            inner += (
                binomial(i - 1, j)
                * falling_factorial_deg(beta - alpha, i - j, alpha)
                * _safe_gen_restricted(j, k - 2, alpha, beta, gamma, ell)
            )
        total += w * inner
    return total


def _safe_gen_restricted(
    n: int, k: int, alpha: Rational, beta: Rational, gamma: Rational, ell: int
) -> Rational:
    return 0 if k < 0 else gen_restricted(n, k, alpha, beta, gamma, ell)


# -- free special set, size-floored blocks -----------------------------------


def free_atleast(n: int, k: int, gamma: Rational, ell: int) -> Rational:
    """Pairs (G, P_k) weighted gamma^|G| with every block larger than ell."""
    return free_atleast_scheme(gamma, ell).value(k, n)


def free_atleast_rec(n: int, k: int, gamma: Rational, ell: int) -> Rational:
    """Recurrence path (no generating function): the scheme's declared
    differential equation read by the recurrence module."""
    return recurrence_value(n, k, free_atleast_scheme(gamma, ell))


def free_atleast_recursion(
    n_plus_1: int, k: int, gamma: Rational, ell: int, literal: bool = False
) -> Rational:
    """One recursion step by the position of the newest element.

    Corrected form: gamma * F(n,k) + sum_i gamma^i C(n,i) A(n+1-i, k)
    with A the size-floored partition count at floor ell+1, read from
    its scheme's recurrence (no series), and F the reference values.
    The literal variant uses A(n-i, k), off by the element that joined
    the blocks.
    """
    if n_plus_1 < 1 or k < 0 or ell < 0:
        raise ValueError("need n_plus_1 >= 1 and non-negative k, ell")
    gamma = rational(gamma)
    n = n_plus_1 - 1
    shift = 0 if literal else 1
    total = gamma * free_atleast(n, k, gamma, ell)
    for i in range(0, n + 1):
        count = recurrence_value(n + shift - i, k, associated_scheme(ell + 1))
        if count:
            total += binomial(n, i) * gamma ** i * count
    return total


def associated_from_free(n: int, k: int, gamma: Rational, ell: int) -> Rational:
    """Inclusion-exclusion over the special set size.

    sum_{i=0..n} (-1)^i gamma^i C(n,i) F(n-i, k; gamma, ell-1) recovers
    the size-floored partition count, independently of gamma.  F(n-i, k)
    is zero for i > n-k (blocks are non-empty), so the sum stops there.
    """
    if ell < 1:
        raise ValueError("associated numbers need ell >= 1")
    check_indices(n, k)
    gamma = rational(gamma)
    free = free_atleast_scheme(gamma, ell - 1).value
    total, power = 0, 1  # power = (-gamma)^i
    for i in range(0, n - k + 1):
        total += power * binomial(n, i) * free(k, n - i)
        power *= -gamma
    return total
