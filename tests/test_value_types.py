"""Value types: integral parameters give int values, and nothing is a float.

A weight scheme turns an integral parameter into an int where it is
built, so on integer parameters every value route runs in int
arithmetic and returns an int; on rational ones it returns an int or a
Fraction.  A true division of two ints would give a float instead, so
every route is read here in both kinds of parameters.
"""

from fractions import Fraction
from functools import partial

import pytest

from stirlingkit import schemes
from stirlingkit.asymptotics import asymptotic_partial
from stirlingkit.core import (
    stirling2,
    stirling2_associated,
    stirling2_associated_rec,
    stirling2_rec,
    stirling2_rec_literal,
    stirling2_restricted,
    stirling2_restricted_rec,
)
from stirlingkit.families import FAMILIES, METHODS, FamilySpec, family_value
from stirlingkit.generalized import (
    degenerate_stirling,
    gen_stirling,
    gen_stirling_explicit,
    gen_stirling_rec,
)
from stirlingkit.incomplete import free_atleast, free_atleast_rec, gen_restricted, gen_restricted_rec
from stirlingkit.oracle import oracle_sum, oracle_sum_blocksum
from stirlingkit.audit import (
    INTEGER_TRIPLES,
    associated_from_free,
    free_atleast_recursion,
    gen_restricted_recursion,
    gen_restricted_three_term,
    partial_deg_convolution,
    partial_deg_derivative_recursion,
    partial_deg_multinomial,
    partial_deg_recursion,
    partial_degenerate_swapped_scheme,
)
from stirlingkit.partial import (
    colored_singleton,
    colored_singleton_rec,
    partial_deg,
    partial_deg_rec,
)

from conftest import has_explicit_sum

RATIONAL_TRIPLES = (
    (Fraction(1, 2), Fraction(-1, 3), Fraction(1, 2)),
    (Fraction(-1, 2), 2, Fraction(3, 2)),
    (1, Fraction(5, 3), 0),
)
ELLS = (0, 1, 2, 3)
NMAX = 7


def _triple_routes(a, b, g):
    """name -> (function of (n, k), least n, least k) for every route that
    takes the triple (alpha, beta, gamma)."""
    routes = {
        "gen_stirling": (lambda n, k: gen_stirling(n, k, a, b, g), 0, 0),
        "gen_stirling_rec": (lambda n, k: gen_stirling_rec(n, k, a, b, g), 0, 0),
        "gen_stirling_explicit": (lambda n, k: gen_stirling_explicit(n, k, a, b, g), 0, 0),
        "degenerate_stirling": (lambda n, k: degenerate_stirling(n, k, a), 0, 0),
        "oracle generalized": (
            lambda n, k: oracle_sum(n, k, schemes.generalized_scheme(a, b, g)), 0, 0),
        "oracle_sum_blocksum": (
            lambda n, k: oracle_sum_blocksum(n, k, schemes.generalized_scheme(a, b, g)), 0, 0),
    }
    for ell in ELLS:
        for literal in (False, True):
            reading = " literal" if literal else ""
            routes.update({
                "gen_restricted_recursion%s ell=%d" % (reading, ell): (
                    partial(_mixed, gen_restricted_recursion, a, b, g, ell, literal=literal),
                    0, 0),
                "gen_restricted_three_term%s ell=%d" % (reading, ell): (
                    partial(_mixed, gen_restricted_three_term, a, b, g, ell, literal=literal),
                    0, 0),
                "partial_deg_multinomial%s ell=%d" % (reading, ell): (
                    partial(_partial, partial_deg_multinomial, g, a, b, ell, literal=literal),
                    0, 0),
                "partial_deg_derivative_recursion%s ell=%d" % (reading, ell): (
                    partial(_partial, partial_deg_derivative_recursion, g, a, b, ell,
                            literal=literal),
                    1, 1),
                "free_atleast_recursion%s ell=%d" % (reading, ell): (
                    lambda n, k, ell=ell, literal=literal: free_atleast_recursion(
                        n, k, g, ell, literal=literal),
                    1, 0),
            })
        routes.update({
            "gen_restricted ell=%d" % ell: (partial(_mixed, gen_restricted, a, b, g, ell), 0, 0),
            "gen_restricted_rec ell=%d" % ell: (
                partial(_mixed, gen_restricted_rec, a, b, g, ell), 0, 0),
            "free_atleast ell=%d" % ell: (
                lambda n, k, ell=ell: free_atleast(n, k, g, ell), 0, 0),
            "free_atleast_rec ell=%d" % ell: (
                lambda n, k, ell=ell: free_atleast_rec(n, k, g, ell), 0, 0),
            "partial_deg ell=%d" % ell: (partial(_partial, partial_deg, g, a, b, ell), 0, 0),
            "partial_deg_rec ell=%d" % ell: (
                partial(_partial, partial_deg_rec, g, a, b, ell), 0, 0),
            "partial_deg_convolution ell=%d" % ell: (
                partial(_partial, partial_deg_convolution, g, a, b, ell), 0, 0),
            "partial_deg_recursion ell=%d" % ell: (
                partial(_partial, partial_deg_recursion, g, a, b, ell), 0, 0),
        })
        if ell >= 1:
            routes["associated_from_free ell=%d" % ell] = (
                lambda n, k, ell=ell: associated_from_free(n, k, g, ell), 0, 0)
        for scheme in (schemes.gen_restricted_scheme(a, b, g, ell),
                       schemes.free_atleast_scheme(g, ell),
                       schemes.partial_degenerate_scheme(g, a, b, ell),
                       partial_degenerate_swapped_scheme(g, a, b, ell)):
            routes["oracle " + scheme.name] = (
                lambda n, k, scheme=scheme: oracle_sum(n, k, scheme), 0, 0)
    return routes


def _mixed(function, a, b, g, ell, n, k, **kwargs):
    return function(n, k, a, b, g, ell, **kwargs)


def _partial(function, g, a, b, ell, n, k, **kwargs):
    return function(n, k, ell, g, a, b, **kwargs)


def _integer_routes():
    """Routes whose only parameters are integers: ell, r and s."""
    routes = {
        "stirling2": (stirling2, 0, 0),
        "stirling2_rec": (stirling2_rec, 0, 0),
        "stirling2_rec_literal": (stirling2_rec_literal, 0, 0),
    }
    for ell in ELLS:
        routes.update({
            "stirling2_restricted ell=%d" % ell: (
                lambda n, k, ell=ell: stirling2_restricted(n, k, ell), 0, 0),
            "stirling2_restricted_rec ell=%d" % ell: (
                lambda n, k, ell=ell: stirling2_restricted_rec(n, k, ell), 0, 0),
            "stirling2_associated ell=%d" % ell: (
                lambda n, k, ell=ell: stirling2_associated(n, k, ell), 0, 0),
            "stirling2_associated_rec ell=%d" % ell: (
                lambda n, k, ell=ell: stirling2_associated_rec(n, k, ell), 0, 0),
        })
    for r in range(3):
        for s in range(3):
            routes["colored_singleton r=%d s=%d" % (r, s)] = (
                lambda n, k, r=r, s=s: colored_singleton(n, k, r, s), 0, 0)
            routes["colored_singleton_rec r=%d s=%d" % (r, s)] = (
                lambda n, k, r=r, s=s: colored_singleton_rec(n, k, r, s), 0, 0)
    for scheme in (schemes.classic_scheme(), schemes.restricted_scheme(2),
                   schemes.associated_scheme(2), schemes.colored_singleton_scheme(2, 3)):
        routes["oracle " + scheme.name] = (
            lambda n, k, scheme=scheme: oracle_sum(n, k, scheme), 0, 0)
    return routes


def _read(routes):
    """(route name, n, k, value) over n < NMAX + 1 and k <= n + 1."""
    for name, (function, least_n, least_k) in routes.items():
        for n in range(least_n, NMAX + 1):
            for k in range(least_k, n + 2):
                yield name, n, k, function(n, k)


def test_integer_parameters_give_int_values():
    routes = _integer_routes()
    for triple in INTEGER_TRIPLES:
        routes.update({"%s %s" % (name, triple): route
                       for name, route in _triple_routes(*triple).items()})
    wrong = [(name, n, k, value) for name, n, k, value in _read(routes) if type(value) is not int]
    assert not wrong, wrong[:5]


@pytest.mark.parametrize("triple", RATIONAL_TRIPLES)
def test_rational_parameters_give_no_float(triple):
    values = list(_read(_triple_routes(*triple)))
    wrong = [entry for entry in values if type(entry[3]) not in (int, Fraction)]
    assert not wrong, wrong[:5]
    # the rational parameters reach the values
    assert any(type(value) is Fraction for *_, value in values)


def test_family_values_are_never_floats():
    specs = [FamilySpec("generalized", alpha=a, beta=b, gamma=g)
             for a, b, g in INTEGER_TRIPLES + RATIONAL_TRIPLES]
    specs += [FamilySpec(tag, **{name: 2 for name in family.params})
              for tag, family in FAMILIES.items()]
    for spec in specs:
        for method in METHODS:
            if method == "explicit" and not has_explicit_sum(spec):
                continue
            for n in range(6):
                for k in range(n + 2):
                    value = family_value(spec, n, k, method)
                    assert type(value) in (int, Fraction), (spec, method, n, k, value)


@pytest.mark.parametrize("mode", ["normalized", "literal"])
def test_asymptotic_rows_hold_no_float(mode):
    for a, b, g in INTEGER_TRIPLES:
        for ell in (0, 2):
            for n, k in ((4, 3), (6, 2), (2, 5)):
                row = asymptotic_partial(n, k, g, a, b, ell, 3, mode)
                assert not [field for field in row if isinstance(field, float)], row


def test_scheme_weight_types_do_not_depend_on_who_built_it_first():
    # 2 == Fraction(2) and both hash alike, so both spellings share one
    # cache entry: the scheme built from either must weigh in ints
    for first, then in ((Fraction(2), 2), (2, Fraction(2))):
        schemes.generalized_scheme.cache_clear()
        schemes.partial_degenerate_scheme.cache_clear()
        built = [schemes.generalized_scheme(first, 2 * first, first),
                 schemes.partial_degenerate_scheme(first, first, 3 * first, 2)]
        read = [schemes.generalized_scheme(then, 2 * then, then),
                schemes.partial_degenerate_scheme(then, then, 3 * then, 2)]
        assert read == built
        for scheme in read:
            assert type(scheme.block_weight(3)) is int
            assert type(scheme.special_weight(3)) is int
            for n in range(6):
                for k in range(n + 2):
                    assert type(scheme.value(k, n)) is int, (scheme.name, first, k, n)
