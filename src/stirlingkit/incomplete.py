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
the differential equation each scheme declares (recurrence module).
The printed one-step rules for these families, each in a literal and a
corrected reading, and the inclusion-exclusion that recovers the
associated numbers from the free-cell ones live in the audit that
scores them, so no value call compiles them.

The free-cell numbers resemble r-Stirling-style counts (distinguished
elements pinned to distinct blocks, the rest size-floored) but do not
coincide with them: here the special set has no size constraint at all.
Those counts are out of scope; only this comparison note is kept.
"""

from __future__ import annotations

from .exact import Rational
from .recurrence import recurrence_value
from .schemes import free_atleast_scheme, gen_restricted_scheme

__all__ = ["gen_restricted", "gen_restricted_rec", "free_atleast", "free_atleast_rec"]


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


def free_atleast(n: int, k: int, gamma: Rational, ell: int) -> Rational:
    """Pairs (G, P_k) weighted gamma^|G| with every block larger than ell."""
    return free_atleast_scheme(gamma, ell).value(k, n)


def free_atleast_rec(n: int, k: int, gamma: Rational, ell: int) -> Rational:
    """Recurrence path (no generating function): the scheme's declared
    differential equation read by the recurrence module."""
    return recurrence_value(n, k, free_atleast_scheme(gamma, ell))
