import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stirlingkit import (
    colored_singleton,
    degenerate_stirling,
    exact,
    free_atleast,
    gen_restricted,
    gen_stirling,
    partial_deg,
    schemes,
    series,
    stirling2,
    stirling2_associated,
    stirling2_restricted,
)
from stirlingkit.core import stirling2_associated_rec, stirling2_rec, stirling2_restricted_rec
from stirlingkit.generalized import gen_stirling_rec
from stirlingkit.incomplete import free_atleast_rec, gen_restricted_rec
from stirlingkit.partial import colored_singleton_rec, partial_deg_rec
from stirlingkit.families import (
    FAMILIES,
    FAMILY_TAGS,
    FamilySpec,
    ValueTable,
    family_egf,
    family_value,
)
from stirlingkit.oracle import oracle_sum
from stirlingkit.series import TruncatedSeries, egf_coeff


def test_spec_validation():
    FamilySpec("classic")
    FamilySpec("restricted", ell=2)
    FamilySpec("degenerate", lam=Fraction(1, 2))
    FamilySpec("generalized", alpha=1, beta=2, gamma=0)
    with pytest.raises(ValueError):
        FamilySpec("bogus")
    with pytest.raises(ValueError):
        FamilySpec("classic", ell=2)  # extra parameter
    with pytest.raises(ValueError):
        FamilySpec("restricted")  # missing ell
    with pytest.raises(ValueError):
        FamilySpec("colored_singleton", r=1, s=-2)


def test_spec_is_a_read_only_value():
    spec = FamilySpec("generalized", alpha=1, beta=Fraction(3), gamma=Fraction(2, 4))
    same = FamilySpec("generalized", alpha=Fraction(1), beta=3, gamma=Fraction(1, 2))
    assert spec == same and hash(spec) == hash(same) and len({spec, same}) == 1
    assert spec != FamilySpec("generalized", alpha=1, beta=3, gamma=1)
    assert isinstance(spec.alpha, Fraction)
    with pytest.raises(AttributeError):
        spec.alpha = Fraction(2)
    assert spec.alpha == 1


def test_spec_copies_are_checked_like_new_specs():
    spec = FamilySpec("partial_degenerate", gamma=2, alpha=1, beta=3, ell=2)
    copy = spec._replace(alpha=2)
    assert type(copy) is FamilySpec and isinstance(copy.alpha, Fraction)
    assert copy == FamilySpec("partial_degenerate", gamma=2, alpha=2, beta=3, ell=2)
    assert FamilySpec._make(spec) == spec
    with pytest.raises(ValueError, match="ell must be"):
        spec._replace(ell=-1)
    with pytest.raises(ValueError, match="unknown family tag"):
        spec._replace(tag="bogus")
    with pytest.raises(ValueError, match="requires parameter ell"):
        FamilySpec._make(("partial_degenerate", 2, 1, 3))


ALL_SPECS = [
    FamilySpec("classic"),
    FamilySpec("restricted", ell=2),
    FamilySpec("associated", ell=2),
    FamilySpec("degenerate", lam=Fraction(1, 2)),
    FamilySpec("generalized", alpha=1, beta=3, gamma=2),
    FamilySpec("gen_restricted", alpha=1, beta=3, gamma=2, ell=2),
    FamilySpec("free_atleast", gamma=2, ell=1),
    FamilySpec("partial_degenerate", gamma=2, alpha=1, beta=3, ell=2),
    FamilySpec("colored_singleton", r=2, s=3),
]


# each family's public value function, called on a spec's parameters
PUBLIC_VALUE = {
    "classic": lambda s, n, k: stirling2(n, k),
    "restricted": lambda s, n, k: stirling2_restricted(n, k, s.ell),
    "associated": lambda s, n, k: stirling2_associated(n, k, s.ell),
    "degenerate": lambda s, n, k: degenerate_stirling(n, k, s.lam),
    "generalized": lambda s, n, k: gen_stirling(n, k, s.alpha, s.beta, s.gamma),
    "gen_restricted": lambda s, n, k: gen_restricted(n, k, s.alpha, s.beta, s.gamma, s.ell),
    "free_atleast": lambda s, n, k: free_atleast(n, k, s.gamma, s.ell),
    "partial_degenerate": lambda s, n, k: partial_deg(n, k, s.ell, s.gamma, s.alpha, s.beta),
    "colored_singleton": lambda s, n, k: colored_singleton(n, k, s.r, s.s),
}


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.tag)
def test_methods_agree(spec):
    # k runs past n, and the grid holds the restricted cells n > k*ell and
    # the associated cells n < k*ell, where every value is zero
    for n in range(0, 8):
        for k in range(0, n + 3):
            canonical = family_value(spec, n, k)
            assert PUBLIC_VALUE[spec.tag](spec, n, k) == canonical
            assert family_value(spec, n, k, "recurrence") == canonical
            assert family_value(spec, n, k, "oracle") == canonical
            if FAMILIES[spec.tag].explicit is not None:
                assert family_value(spec, n, k, "explicit") == canonical


def test_recurrence_routes_multiply_no_series(monkeypatch):
    # the recurrence reads the scheme's declared equation only: it forms
    # no series product, and none of the lazy columns' coefficients, which
    # go through schemes._egf_term in the EGF columns and schemes._ordinary_term
    # in the ordinary ones
    def refuse(*args):
        raise AssertionError("the recurrence route multiplied series")

    for name in ("__mul__", "__rmul__", "__pow__"):
        monkeypatch.setattr(TruncatedSeries, name, refuse)
    monkeypatch.setattr(exact, "_pair_sum", refuse)
    monkeypatch.setattr(schemes, "_egf_term", refuse)
    monkeypatch.setattr(schemes, "_ordinary_term", refuse)
    # fresh schemes have read no column yet; classic is generalized (0, 1, 0)
    schemes.generalized_scheme.cache_clear()
    schemes.partial_degenerate_swapped_scheme.cache_clear()
    params = dict(
        alpha=Fraction(5, 7), beta=Fraction(-2, 9), gamma=Fraction(4, 11),
        lam=Fraction(-3, 13), ell=2, r=3, s=2,
    )
    for tag in FAMILY_TAGS:
        spec = FamilySpec(tag, **{name: params[name] for name in FAMILIES[tag].params})
        for n in range(0, 9):
            for k in range(0, n + 1):
                family_value(spec, n, k, "recurrence")
    # each column kind: classic, the log blocks of generalized at beta = 0
    # and a scheme that declares no equation read the EGF column,
    # generalized at beta != 0 the ordinary one
    for beta in (0, params["beta"]):
        with pytest.raises(AssertionError):
            family_value(FamilySpec("generalized", alpha=params["alpha"], beta=beta,
                                    gamma=params["gamma"]), 9, 4, "egf")
    with pytest.raises(AssertionError):
        family_value(FamilySpec("classic"), 9, 4, "egf")
    with pytest.raises(AssertionError):
        schemes.partial_degenerate_swapped_scheme(2, 1, 3, 2).value(4, 9)


def test_independent_routes_never_read_a_column(monkeypatch):
    # recurrence, explicit and oracle verify the egf path only while none
    # of them reads a value or a coefficient from a scheme's column, of
    # either kind: every read of one goes through WeightScheme._column
    def refuse(*args):
        raise AssertionError("an independent route read a column")

    for name in ("value", "egf", "_column"):
        monkeypatch.setattr(schemes.WeightScheme, name, refuse)
    # Miller's pairs, in a power or a partial Bell number, and a series product
    for module in (exact, series):
        monkeypatch.setattr(module, "_pair_sum", refuse)
    for name in ("_egf_term", "_ordinary_term"):
        monkeypatch.setattr(schemes, name, refuse)
    specs = ALL_SPECS + [
        FamilySpec("generalized", alpha=1, beta=0, gamma=2),
        FamilySpec("restricted", ell=0),
    ]
    for spec in specs:
        for n in range(0, 8):
            for k in range(0, n + 2):
                for method in ("recurrence", "explicit", "oracle"):
                    try:
                        family_value(spec, n, k, method)
                    except ValueError:
                        # the family has no explicit sum, or none at beta = 0
                        assert method == "explicit"
    # the audited printed recursions are scored against the column, so
    # they must not read it either
    for n in range(0, 8):
        for k in range(0, n + 2):
            stirling2_rec(n, k)
            for ell in range(0, 4):
                stirling2_restricted_rec(n, k, ell)
                stirling2_associated_rec(n, k, ell)
    # classic and generalized (1, 0, 2) read the EGF integer column,
    # generalized (1/2, -1/3, 1/2) the ordinary one
    ordinary = FamilySpec("generalized", alpha=Fraction(1, 2), beta=Fraction(-1, 3),
                          gamma=Fraction(1, 2))
    for spec in (FamilySpec("classic"), specs[-2], ordinary):
        with pytest.raises(AssertionError):
            family_value(spec, 3, 2, "egf")


def test_unknown_method():
    with pytest.raises(ValueError):
        family_value(FamilySpec("classic"), 3, 2, "guess")
    with pytest.raises(ValueError):
        family_value(FamilySpec("restricted", ell=2), 3, 2, "explicit")


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.tag)
def test_family_egf_matches_values(spec):
    for k in (0, 1, 2, 3):
        series = family_egf(spec, k, 7)
        for n in range(0, 8):
            assert egf_coeff(series, n) == family_value(spec, n, k)


def test_huge_block_count_series_forms_no_factorial(monkeypatch):
    # blocks are non-empty, so every coefficient is zero when k > order
    # and 1/k! must never be formed: 10^6! alone takes seconds
    order, factorial = 1, math.factorial

    def bounded(m):
        assert m <= order, "factorial of %d formed" % m
        return factorial(m)

    monkeypatch.setattr(math, "factorial", bounded)
    series = family_egf(FamilySpec("classic"), 10 ** 6, order)
    assert series == TruncatedSeries.zero(order)


def test_excluded_block_sizes_form_no_factorial(monkeypatch):
    # a restricted scheme weighs every block size above ell and every
    # non-empty special set zero, and a zero weight costs no factorial:
    # the egf route reads n = 400 with factorials of 2 at most
    ell, factorial = 2, math.factorial

    def bounded(m):
        assert m <= ell, "factorial of %d formed" % m
        return factorial(m)

    monkeypatch.setattr(math, "factorial", bounded)
    # a fresh scheme has read no column yet; restricted is gen_restricted at
    # (0, 1, 0), whose special weight is generalized (0, 1, 0)'s
    schemes.generalized_scheme.cache_clear()
    schemes.gen_restricted_scheme.cache_clear()
    spec = FamilySpec("restricted", ell=ell)
    assert family_value(spec, 400, 2) == 0
    assert family_value(spec, 6, 3) == 15


def test_value_table():
    table = ValueTable(FamilySpec("classic"))
    assert table.value(5, 9) == 0
    rows = list(table.rows(3))
    assert rows[-1] == (3, 3, 1)
    assert (3, 2, 3) in rows


DIAGONAL_ONE = [
    FamilySpec("classic"),
    FamilySpec("restricted", ell=1),
    FamilySpec("restricted", ell=3),
    FamilySpec("degenerate", lam=Fraction(2)),
    FamilySpec("generalized", alpha=1, beta=3, gamma=2),
    FamilySpec("gen_restricted", alpha=1, beta=3, gamma=2, ell=1),
    FamilySpec("partial_degenerate", gamma=2, alpha=1, beta=3, ell=2),
]


@pytest.mark.parametrize("spec", DIAGONAL_ONE, ids=lambda s: s.describe())
def test_diagonal_is_one_for_singleton_families(spec):
    table = ValueTable(spec)
    for n in range(0, 9):
        assert table.value(n, n) == 1


def test_diagonal_zero_when_singletons_excluded():
    table = ValueTable(FamilySpec("free_atleast", gamma=1, ell=1))
    assert table.value(0, 0) == 1
    for n in range(1, 8):
        assert table.value(n, n) == 0
    assoc = ValueTable(FamilySpec("associated", ell=2))
    for n in range(1, 8):
        assert assoc.value(n, n) == 0


def test_concurrent_callers_see_consistent_values():
    # values are pure and memoized; hammering the cache from several
    # threads must never surface a torn or inconsistent result
    from concurrent.futures import ThreadPoolExecutor

    spec = FamilySpec("partial_degenerate", gamma=2, alpha=1, beta=3, ell=2)
    cells = [(n, k) for n in range(0, 9) for k in range(n + 1)] * 4
    expected = {cell: family_value(spec, *cell) for cell in set(cells)}
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda cell: (cell, family_value(spec, *cell)), cells))
    for cell, value in results:
        assert value == expected[cell]


# -- the differential equation each scheme declares -------------------------

DECLARED_SPECS = ALL_SPECS + [
    FamilySpec("restricted", ell=0),
    FamilySpec("restricted", ell=3),
    FamilySpec("associated", ell=0),
    FamilySpec("associated", ell=1),
    FamilySpec("degenerate", lam=0),
    FamilySpec("generalized", alpha=Fraction(1, 2), beta=Fraction(-1, 3), gamma=Fraction(1, 2)),
    FamilySpec("generalized", alpha=Fraction(1, 2), beta=0, gamma=Fraction(1, 2)),
    FamilySpec("gen_restricted", alpha=Fraction(1, 2), beta=Fraction(-1, 3),
               gamma=Fraction(1, 2), ell=3),
    FamilySpec("gen_restricted", alpha=2, beta=0, gamma=1, ell=0),
    FamilySpec("free_atleast", gamma=Fraction(2, 3), ell=0),
    FamilySpec("partial_degenerate", gamma=Fraction(1, 2), alpha=Fraction(-1, 3), beta=2, ell=3),
    FamilySpec("partial_degenerate", gamma=1, alpha=1, beta=2, ell=0),
    FamilySpec("colored_singleton", r=0, s=0),
]


def _residuals(scheme, order=12, ode=None):
    """The coefficients of t^0..t^(order-1) in a*P' - p*P and in
    a*B' - b*B - q, with a = 1 + a1*t, from the scheme's own series."""
    a1, p, b, degree, q = ode or scheme.ode
    special = scheme.special_series(order).coeffs
    block = scheme.block_series(order).coeffs

    def lhs(c, m):  # [t^m] of a*C'
        return (m + 1) * c[m + 1] + a1 * m * c[m]

    q_series = [Fraction(q(m), math.factorial(m)) if m <= degree else 0 for m in range(order)]
    return ([lhs(special, m) - p * special[m] for m in range(order)],
            [lhs(block, m) - b * block[m] - q_series[m] for m in range(order)])


def _holds(scheme, ode=None):
    special, block = _residuals(scheme, ode=ode)
    return not any(special) and not any(block)


@pytest.mark.parametrize("spec", DECLARED_SPECS, ids=lambda s: s.describe())
def test_each_scheme_declares_its_differential_equation(spec):
    scheme = FAMILIES[spec.tag].scheme(spec)
    assert _holds(scheme)
    # a wrong declaration fails here, before any value is compared: one
    # coefficient of q off by one breaks a*B' = b*B + q
    a1, p, b, degree, q = scheme.ode
    for i in range(degree + 1):
        mutated = (a1, p, b, degree, lambda m, i=i: q(m) + (m == i))
        assert not _holds(scheme, mutated), i


_DRAWN = {
    "alpha": st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)),
    "beta": st.one_of(st.just(Fraction(0)), st.builds(Fraction, st.integers(-4, 4),
                                                       st.integers(1, 3))),
    "gamma": st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)),
    "lam": st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)),
    "ell": st.integers(0, 5),
    "r": st.integers(0, 4),
    "s": st.integers(0, 4),
}


@pytest.mark.parametrize("tag", FAMILY_TAGS)
@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_drawn_schemes_satisfy_their_declarations(tag, data):
    spec = FamilySpec(tag, **{name: data.draw(_DRAWN[name]) for name in FAMILIES[tag].params})
    assert _holds(FAMILIES[tag].scheme(spec))


@pytest.mark.parametrize("spec", DECLARED_SPECS, ids=lambda s: s.describe())
def test_the_recurrence_reads_its_columns_in_any_order(spec):
    # a read fills only the band it needs, so the columns stay ragged; a
    # later read of any cell must extend them consistently
    cells = [(n, k) for n in range(16) for k in range(n + 2)]
    expected = {cell: family_value(spec, *cell) for cell in cells}
    random.Random(spec.describe()).shuffle(cells)
    _clear_scheme_caches()
    scheme = FAMILIES[spec.tag].scheme(spec)
    for n, k in cells:
        value = scheme.recurrence(k, n)
        assert value == expected[n, k] and type(value) is type(expected[n, k]), (n, k)


def test_a_scheme_without_a_declaration_refuses_the_recurrence():
    swapped = schemes.partial_degenerate_swapped_scheme(1, 1, 2, 2)
    own = schemes.WeightScheme("mine", lambda g: int(g == 0), lambda m: m)
    for scheme in (swapped, own):
        for k, n in ((2, 4), (5, 3)):
            with pytest.raises(ValueError, match="%s declares no" % re.escape(scheme.name)):
                scheme.recurrence(k, n)


def _clear_scheme_caches():
    # classic, restricted and associated are schemes of the factories below
    for factory in (schemes.generalized_scheme,
                    schemes.gen_restricted_scheme, schemes.free_atleast_scheme,
                    schemes.partial_degenerate_scheme, schemes.colored_singleton_scheme):
        factory.cache_clear()


@pytest.mark.parametrize("spec", DECLARED_SPECS, ids=lambda s: s.describe())
def test_egf_and_oracle_never_read_the_declaration(spec):
    expected = {(n, k): family_value(spec, n, k) for n in range(7) for k in range(n + 2)}
    _clear_scheme_caches()  # a fresh scheme has read nothing yet
    scheme = FAMILIES[spec.tag].scheme(spec)
    scheme.ode = ("garbage",)
    try:
        for (n, k), value in expected.items():
            assert scheme.value(k, n) == value
            assert oracle_sum(n, k, scheme) == value
        with pytest.raises(ValueError):
            scheme.recurrence(1, 2)
    finally:
        _clear_scheme_caches()  # no later read meets the garbage


_HALF = Fraction(1, 2)

# every scheme factory with the arguments it is called on, each ell, r and s
# among them marked by its position
FACTORY_CALLS = [
    (schemes.classic_scheme, (), ()),
    (schemes.restricted_scheme, (2,), (0,)),
    (schemes.associated_scheme, (2,), (0,)),
    (schemes.generalized_scheme, (_HALF, Fraction(-1, 3), _HALF), ()),
    (schemes.gen_restricted_scheme, (_HALF, Fraction(-1, 3), _HALF, 2), (3,)),
    (schemes.free_atleast_scheme, (2, 1), (1,)),
    (schemes.partial_degenerate_scheme, (_HALF, Fraction(1, 3), 2, 3), (3,)),
    (schemes.partial_degenerate_swapped_scheme, (1, 1, 2, 2), (3,)),
    (schemes.colored_singleton_scheme, (2, 3), (0, 1)),
]

# the public value and recurrence functions f(n, k, *args), likewise
INDEX_CALLS = [
    (stirling2, (), ()),
    (stirling2_rec, (), ()),
    (stirling2_restricted, (2,), (0,)),
    (stirling2_restricted_rec, (2,), (0,)),
    (stirling2_associated, (2,), (0,)),
    (stirling2_associated_rec, (2,), (0,)),
    (gen_stirling, (_HALF, 2, _HALF), ()),
    (gen_stirling_rec, (_HALF, 2, _HALF), ()),
    (gen_restricted, (_HALF, 2, _HALF, 2), (3,)),
    (gen_restricted_rec, (_HALF, 2, _HALF, 2), (3,)),
    (free_atleast, (2, 1), (1,)),
    (free_atleast_rec, (2, 1), (1,)),
    (partial_deg, (2, _HALF, 1, 3), (0,)),
    (partial_deg_rec, (2, _HALF, 1, 3), (0,)),
    (colored_singleton, (2, 3), (0, 1)),
    (colored_singleton_rec, (2, 3), (0, 1)),
]

NEGATIVE_INDICES = [(-1, 0), (0, -1), (3, -1), (-3, 2), (-2, -2)]
INDICES = "indices must be non-negative"


def _negated(args, at):
    return args[:at] + (-1,) + args[at + 1:]


@pytest.mark.parametrize("factory, args, naturals", FACTORY_CALLS,
                         ids=[call[0].__name__ for call in FACTORY_CALLS])
def test_each_scheme_refuses_a_negative_index(factory, args, naturals):
    scheme = factory(*args)
    for n, k in NEGATIVE_INDICES:
        for read in (scheme.value, scheme.egf, scheme.recurrence):
            with pytest.raises(ValueError, match=INDICES):
                read(k, n)
    for at in naturals:
        with pytest.raises(ValueError, match="must be non-negative"):
            factory(*_negated(args, at))


@pytest.mark.parametrize("function, args, naturals", INDEX_CALLS,
                         ids=[call[0].__name__ for call in INDEX_CALLS])
def test_each_value_function_refuses_a_negative_argument(function, args, naturals):
    for n, k in NEGATIVE_INDICES:
        with pytest.raises(ValueError, match=INDICES):
            function(n, k, *args)
    for at in naturals:
        with pytest.raises(ValueError, match="must be non-negative"):
            function(4, 2, *_negated(args, at))


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.tag)
def test_family_value_and_egf_refuse_a_negative_index(spec):
    for n, k in NEGATIVE_INDICES:
        for method in ("egf", "recurrence", "oracle"):
            with pytest.raises(ValueError, match=INDICES):
                family_value(spec, n, k, method)
        with pytest.raises(ValueError, match=INDICES):
            family_egf(spec, k, n)


def test_the_classical_schemes_are_general_schemes_at_fixed_parameters():
    # classic is degenerate at lambda = 0, restricted is gen_restricted at
    # (0, 1, 0) and associated is free_atleast at gamma = 0: one scheme each,
    # with one store of columns
    assert schemes.classic_scheme() is schemes.generalized_scheme(0, 1, 0)
    for ell in range(5):
        assert schemes.restricted_scheme(ell) is schemes.gen_restricted_scheme(0, 1, 0, ell)
        assert schemes.associated_scheme(ell) is schemes.free_atleast_scheme(0, max(ell - 1, 0))
    for factory in (schemes.restricted_scheme, schemes.associated_scheme,
                    lambda ell: schemes.gen_restricted_scheme(0, 1, 0, ell)):
        with pytest.raises(ValueError, match=r"^ell must be non-negative, got -1$"):
            factory(-1)


@pytest.mark.parametrize("factory, args", [
    (schemes.free_atleast_scheme, (_HALF, 1)),
    (schemes.generalized_scheme, (_HALF, Fraction(-1, 3), _HALF)),
    (schemes.colored_singleton_scheme, (2, 3)),
], ids=["free_atleast", "generalized", "colored_singleton"])
def test_every_route_reads_the_empty_special_set_weight(factory, args):
    # a*P' = p*P is linear, so twice the special weights keep the declaration
    # and double every value: the recurrence starts from sw(0), not from 1
    base = factory(*args)
    doubled = schemes.WeightScheme("doubled", lambda g: 2 * base.special_weight(g),
                                   base.block_weight, base.ode, base.denominator, base.scaling)
    for n in range(8):
        for k in range(n + 2):
            expected = 2 * base.value(k, n)
            assert doubled.recurrence(k, n) == expected, (n, k)
            assert doubled.value(k, n) == expected, (n, k)
            assert oracle_sum(n, k, doubled) == expected, (n, k)
