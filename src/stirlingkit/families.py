"""Family registry and uniform value dispatch.

Each of the nine number families is defined once, in FAMILIES: its
parameters, its weight scheme (which fixes the generating function, see
the schemes module) and its independent routes.  PARAMETERS states the
kind of every parameter once, and a FamilySpec names one family together
with exactly the parameters that family takes.  Values can be computed
by several methods:

    egf         coefficient extraction from the generating function of
                the family's weight scheme (the canonical path, one
                generic read of WeightScheme.value for every family)
    recurrence  self-contained recursion, no series involved
    explicit    alternating-sum formula (classic, degenerate and
                generalized families only, beta != 0)
    oracle      brute-force weighted enumeration (small n only)

Cross-method agreement is part of the test suite and of the CLI
--check flag.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from . import schemes as _schemes
from .core import stirling2_associated_rec, stirling2_rec, stirling2_restricted_rec
from .exact import check_indices
from .generalized import check_triple, gen_stirling_explicit, gen_stirling_rec
from .incomplete import free_atleast_rec, gen_restricted_rec
from .partial import colored_singleton_rec, partial_deg_rec

__all__ = [
    "FAMILIES",
    "FAMILY_TAGS",
    "METHODS",
    "PARAMETERS",
    "REQUIRED_PARAMS",
    "Family",
    "FamilySpec",
    "ValueTable",
    "family_value",
    "family_egf",
]

METHODS = ("egf", "recurrence", "explicit", "oracle")

# every family parameter and its kind; FamilySpec has these fields, in order
PARAMETERS = {
    "alpha": "rational",
    "beta": "rational",
    "gamma": "rational",
    "lam": "rational",
    "ell": "non-negative integer",
    "r": "non-negative integer",
    "s": "non-negative integer",
}


class Family(namedtuple("Family", ("params", "scheme", "recurrence", "explicit"),
                         defaults=(None,))):
    """One family: its parameters, weight scheme and routes to its values.

    The scheme alone fixes the canonical egf values, so a family has no
    value route of its own; recurrence and explicit (None where the
    family has no explicit sum) are independent of the scheme.  scheme
    takes a FamilySpec, and a route takes (spec, n, k).  Routes are
    lambdas, so each call looks its function up by name in this module
    and a rebound name takes effect.
    """

    __slots__ = ()


FAMILIES = {
    "classic": Family(
        params=(),
        scheme=lambda s: _schemes.classic_scheme(),
        recurrence=lambda s, n, k: stirling2_rec(n, k),
        explicit=lambda s, n, k: gen_stirling_explicit(n, k, 0, 1, 0),
    ),
    "restricted": Family(
        params=("ell",),
        scheme=lambda s: _schemes.restricted_scheme(s.ell),
        recurrence=lambda s, n, k: stirling2_restricted_rec(n, k, s.ell),
    ),
    "associated": Family(
        params=("ell",),
        scheme=lambda s: _schemes.associated_scheme(s.ell),
        recurrence=lambda s, n, k: stirling2_associated_rec(n, k, s.ell),
    ),
    "degenerate": Family(
        params=("lam",),
        scheme=lambda s: _schemes.generalized_scheme(s.lam, 1, 0),
        recurrence=lambda s, n, k: gen_stirling_rec(n, k, s.lam, 1, 0),
        explicit=lambda s, n, k: gen_stirling_explicit(n, k, s.lam, 1, 0),
    ),
    "generalized": Family(
        params=("alpha", "beta", "gamma"),
        scheme=lambda s: _schemes.generalized_scheme(s.alpha, s.beta, s.gamma),
        recurrence=lambda s, n, k: gen_stirling_rec(n, k, s.alpha, s.beta, s.gamma),
        explicit=lambda s, n, k: gen_stirling_explicit(n, k, s.alpha, s.beta, s.gamma),
    ),
    "gen_restricted": Family(
        params=("alpha", "beta", "gamma", "ell"),
        scheme=lambda s: _schemes.gen_restricted_scheme(s.alpha, s.beta, s.gamma, s.ell),
        recurrence=lambda s, n, k: gen_restricted_rec(n, k, s.alpha, s.beta, s.gamma, s.ell),
    ),
    "free_atleast": Family(
        params=("gamma", "ell"),
        scheme=lambda s: _schemes.free_atleast_scheme(s.gamma, s.ell),
        recurrence=lambda s, n, k: free_atleast_rec(n, k, s.gamma, s.ell),
    ),
    "partial_degenerate": Family(
        params=("gamma", "alpha", "beta", "ell"),
        scheme=lambda s: _schemes.partial_degenerate_scheme(s.gamma, s.alpha, s.beta, s.ell),
        recurrence=lambda s, n, k: partial_deg_rec(n, k, s.ell, s.gamma, s.alpha, s.beta),
    ),
    "colored_singleton": Family(
        params=("r", "s"),
        scheme=lambda s: _schemes.colored_singleton_scheme(s.r, s.s),
        recurrence=lambda s, n, k: colored_singleton_rec(n, k, s.r, s.s),
    ),
}

FAMILY_TAGS = tuple(FAMILIES)

REQUIRED_PARAMS = {tag: family.params for tag, family in FAMILIES.items()}


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
        required = set(REQUIRED_PARAMS[spec.tag])
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
        for name in REQUIRED_PARAMS[self.tag]:
            parts.append("%s=%s" % (name, getattr(self, name)))
        return " ".join(parts)


def _check_defined(spec: FamilySpec) -> None:
    if spec.tag == "generalized":
        check_triple(spec.alpha, spec.beta, spec.gamma)


def family_value(spec: FamilySpec, n: int, k: int, method: str = "egf") -> Fraction:
    """Value of the family member at (n, k) by the chosen method."""
    if method not in METHODS:
        raise ValueError("unknown method %r (one of %s)" % (method, ", ".join(METHODS)))
    _check_defined(spec)
    family = FAMILIES[spec.tag]
    if method == "oracle":
        from .oracle import oracle_sum  # only this method loads the enumeration

        return oracle_sum(n, k, family.scheme(spec))
    if method == "explicit":
        if family.explicit is None:
            raise ValueError("no explicit-sum formula for family %r" % spec.tag)
        return Fraction(family.explicit(spec, n, k))
    if method == "recurrence":
        return Fraction(family.recurrence(spec, n, k))
    check_indices(n, k)
    return family.scheme(spec).value(k, n)


def family_egf(spec: FamilySpec, k: int, order: int):
    """The family's generating function at block count k, truncated."""
    if k < 0 or order < 0:
        raise ValueError("k and order must be non-negative")
    _check_defined(spec)
    return FAMILIES[spec.tag].scheme(spec).egf(k, order)


class ValueTable:
    """Triangle of values for one family, read on demand.

    Every cell is family_value by the table's method; on the egf method
    that reads the lazy column k of the family's weight scheme, which
    computes each coefficient once however the cells are visited and
    keeps the values read, as the recurrences' memos keep theirs.
    """

    def __init__(self, family: FamilySpec, method: str = "egf"):
        self.family = family
        self.method = method

    def value(self, n: int, k: int) -> Fraction:
        return family_value(self.family, n, k, self.method)

    def rows(self, nmax: int):
        for n in range(nmax + 1):
            for k in range(n + 1):
                yield n, k, self.value(n, k)
