"""Shared test helpers: seeded rational sampling and an independent
brute-force partition counter used as the oracle for the core numbers."""

import random
from fractions import Fraction
from functools import lru_cache

import pytest

from stirlingkit.families import FAMILIES


@pytest.fixture
def rng():
    return random.Random(987654321)


def random_rational(rng, lo=-6, hi=6, den=4):
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


@lru_cache(maxsize=None)
def brute_set_partitions(n):
    """All partitions of {1..n} as tuples of block-size-sorted tuples.

    Independent of the package: plain recursive insertion, no restricted
    growth strings, no generating functions.
    """
    if n == 0:
        return [()]
    out = []
    for smaller in brute_set_partitions(n - 1):
        for i in range(len(smaller)):
            out.append(smaller[:i] + (smaller[i] + (n,),) + smaller[i + 1 :])
        out.append(smaller + ((n,),))
    return out


def has_explicit_sum(spec):
    """Whether the explicit route serves spec, read off its scheme's
    declaration: a constant q (degree 0), and b != 0 or q = 0."""
    a1, p, b, degree, q = FAMILIES[spec.tag].scheme(spec).ode
    return degree == 0 and (b != 0 or q(0) == 0)


def brute_stirling2(n, k, size_ok=lambda s: True):
    return sum(
        1
        for part in brute_set_partitions(n)
        if len(part) == k and all(size_ok(len(b)) for b in part)
    )
