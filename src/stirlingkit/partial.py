"""Mixed free/degenerate-cell partition numbers and colored-singleton numbers.

The model: a free special set G of weight gamma^|G| plus k non-empty
blocks, where a block of size at most ell carries the degenerate weight
(beta-alpha)_{size-1,alpha} and a larger block is free (weight 1).

Reference path is coefficient extraction from the generating function
of that weight scheme (schemes module),

    e^(gamma*x) / k! * (e^x + sum_{i=1..ell} (beta-alpha)_{i-1,alpha} x^i/i!
                            - e_{<=ell}(x))^k,

which is defined for every beta.  The recurrence route (partial_deg_rec)
reads the differential equation the scheme declares (recurrence module).
The four printed routes that re-derive the same value, a binomial
convolution, an element-shift recursion, a multinomial block
decomposition and a derivative-style recursion, each in a literal and a
corrected reading where the two differ, live in the audit that scores
them, so `asympt`, which loads this module for partial_deg, never
compiles them.

Colored-singleton numbers (special set weight r^|G|, singleton blocks
in one of s colors) share the machinery and close the module.
"""

from __future__ import annotations

import sys

from .exact import Rational
from .schemes import colored_singleton_scheme, partial_degenerate_scheme

_package = sys.modules[__package__]  # imports the recurrence module on first access (PEP 562)

__all__ = [
    "partial_deg",
    "partial_deg_rec",
    "colored_singleton",
    "colored_singleton_rec",
]


def partial_deg(
    n: int, k: int, ell: int, gamma: Rational, alpha: Rational, beta: Rational
) -> Rational:
    """Weighted count of mixed free/degenerate-cell partitions."""
    return partial_degenerate_scheme(gamma, alpha, beta, ell).value(k, n)


def partial_deg_rec(
    n: int, k: int, ell: int, gamma: Rational, alpha: Rational, beta: Rational
) -> Rational:
    """Recurrence path (no generating function): the scheme's declared
    differential equation read by the recurrence module."""
    return _package.recurrence.recurrence_value(
        n, k, partial_degenerate_scheme(gamma, alpha, beta, ell))


def colored_singleton_rec(n: int, k: int, r: int, s: int) -> int:
    """Recurrence path for the colored-singleton numbers: the scheme's
    declared differential equation read by the recurrence module."""
    return _package.recurrence.recurrence_value(n, k, colored_singleton_scheme(r, s))


def colored_singleton(n: int, k: int, r: int, s: int) -> int:
    """Partition count with an r-compartment free special set and singleton
    blocks colored one of s ways."""
    return colored_singleton_scheme(r, s).value(k, n)
