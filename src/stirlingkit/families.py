"""Family registry and uniform value dispatch.

Each of the nine number families is defined once, in FAMILIES: its
parameters and its weight scheme, which fixes the value by every route
(the schemes module).  PARAMETERS (from the
names module) states the kind of every parameter once, and a FamilySpec
names one family together with exactly the parameters that family
takes.  Values can be computed by several methods:

    egf         coefficient extraction from the generating function of
                the family's weight scheme (the canonical path, one
                generic read of WeightScheme.value for every family)
    recurrence  the differential equation the scheme declares, read as
                a recurrence (recurrence module), no series involved
    explicit    the alternating sum, read off the same declaration
                where its q is a constant and b != 0 (generalized
                module's explicit_value): classic, degenerate and
                generalized, associated at ell <= 1, free_atleast and
                partial_degenerate at ell = 0
    oracle      brute-force weighted enumeration (small n only)

Cross-method agreement is part of the test suite and of the CLI
--check flag.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from fractions import Fraction

from . import schemes as _schemes
from .exact import Rational
from .names import METHODS, PARAMETERS

_package = sys.modules[__package__]  # imports a route module on first access (PEP 562)

__all__ = [
    "FAMILIES",
    "FAMILY_TAGS",
    "METHODS",
    "PARAMETERS",
    "Family",
    "FamilySpec",
    "ValueTable",
    "family_value",
    "family_egf",
]

# a family's parameters and spec -> its weight scheme: the egf and the oracle
# read its weights, the recurrence and the explicit sum its declaration
Family = namedtuple("Family", ("params", "scheme"))


FAMILIES = {
    "classic": Family((), lambda s: _schemes.classic_scheme()),
    "restricted": Family(("ell",), lambda s: _schemes.restricted_scheme(s.ell)),
    "associated": Family(("ell",), lambda s: _schemes.associated_scheme(s.ell)),
    "degenerate": Family(("lam",), lambda s: _schemes.generalized_scheme(s.lam, 1, 0)),
    "generalized": Family(("alpha", "beta", "gamma"),
                          lambda s: _schemes.generalized_scheme(s.alpha, s.beta, s.gamma)),
    "gen_restricted": Family(
        ("alpha", "beta", "gamma", "ell"),
        lambda s: _schemes.gen_restricted_scheme(s.alpha, s.beta, s.gamma, s.ell)),
    "free_atleast": Family(("gamma", "ell"),
                           lambda s: _schemes.free_atleast_scheme(s.gamma, s.ell)),
    "partial_degenerate": Family(
        ("gamma", "alpha", "beta", "ell"),
        lambda s: _schemes.partial_degenerate_scheme(s.gamma, s.alpha, s.beta, s.ell)),
    "colored_singleton": Family(("r", "s"), lambda s: _schemes.colored_singleton_scheme(s.r, s.s)),
}

FAMILY_TAGS = tuple(FAMILIES)


_SpecFields = namedtuple("FamilySpec", ("tag", *PARAMETERS), defaults=(None,) * len(PARAMETERS))


class FamilySpec(_SpecFields):
    """One family tag plus exactly the parameters the tag requires.

    A tuple of the tag and every parameter of PARAMETERS (None where the
    family does not take it), so it is equal by value, hashable and
    read-only. `_replace` and `_make` build through the constructor, so a
    copy is checked and coerced like any other spec.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        spec = super().__new__(cls, *args, **kwargs)
        if spec.tag not in FAMILY_TAGS:
            raise ValueError("unknown family tag %r (one of %s)" % (spec.tag, ", ".join(FAMILY_TAGS)))
        required = set(FAMILIES[spec.tag].params)
        for name in PARAMETERS:
            value = getattr(spec, name)
            if name in required and value is None:
                raise ValueError("family %r requires parameter %s" % (spec.tag, name))
            if name not in required and value is not None:
                raise ValueError("family %r does not take parameter %s" % (spec.tag, name))
        rationals = {}
        for name, kind in PARAMETERS.items():
            value = getattr(spec, name)
            if value is None:
                continue
            if kind == "rational":
                rationals[name] = Fraction(value)
            elif not isinstance(value, int) or value < 0:
                raise ValueError("parameter %s must be a %s" % (name, kind))
        return super().__new__(cls, **{**spec._asdict(), **rationals})

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def _replace(self, **changes):
        return type(self)(**{**self._asdict(), **changes})

    def describe(self) -> str:
        parts = [self.tag]
        for name in FAMILIES[self.tag].params:
            parts.append("%s=%s" % (name, getattr(self, name)))
        return " ".join(parts)


def family_value(spec: FamilySpec, n: int, k: int, method: str = "egf") -> Rational:
    """Value of the family member at (n, k) by the chosen method: an int or a
    Fraction, always a Fraction by the recurrence and explicit methods."""
    if method not in METHODS:
        raise ValueError("unknown method %r (one of %s)" % (method, ", ".join(METHODS)))
    family = FAMILIES[spec.tag]
    if method == "oracle":
        from .oracle import oracle_sum  # only this method loads the enumeration

        return oracle_sum(n, k, family.scheme(spec))
    if method == "explicit":
        return Fraction(_package.generalized.explicit_value(n, k, family.scheme(spec)))
    if method == "recurrence":
        return Fraction(_package.recurrence.recurrence_value(n, k, family.scheme(spec)))
    return family.scheme(spec).value(k, n)


def family_egf(spec: FamilySpec, k: int, order: int):
    """The family's generating function at block count k, truncated."""
    return _package.series.egf(FAMILIES[spec.tag].scheme(spec), k, order)


class ValueTable:
    """Triangle of values for one family, read on demand.

    Every cell is family_value by the table's method; on the egf method
    that reads the lazy column k of the family's weight scheme, which
    computes each coefficient once however the cells are visited and
    keeps the values read, as the scheme's recurrence columns keep theirs.
    """

    def __init__(self, family: FamilySpec, method: str = "egf"):
        self.family = family
        self.method = method

    def value(self, n: int, k: int) -> Rational:
        return family_value(self.family, n, k, self.method)

    def rows(self, nmax: int):
        for n in range(nmax + 1):
            for k in range(n + 1):
                yield n, k, self.value(n, k)
