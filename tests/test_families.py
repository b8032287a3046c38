import math
from fractions import Fraction

import pytest

from stirlingkit import (
    colored_singleton,
    degenerate_stirling,
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
from stirlingkit.families import (
    FAMILIES,
    FAMILY_TAGS,
    FamilySpec,
    ValueTable,
    family_egf,
    family_value,
)
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
            if spec.tag in ("classic", "degenerate", "generalized"):
                assert family_value(spec, n, k, "explicit") == canonical


def test_recurrence_routes_multiply_no_series(monkeypatch):
    # the step functions default to the series-based reference values, so
    # a route that forgot to pass its own rows would fail here; the lazy
    # columns form their coefficients through series._fraction_sum
    def refuse(*args):
        raise AssertionError("the recurrence route multiplied series")

    for name in ("__mul__", "__rmul__", "__pow__"):
        monkeypatch.setattr(TruncatedSeries, name, refuse)
    monkeypatch.setattr(series, "_fraction_sum", refuse)
    schemes.classic_scheme.cache_clear()  # a fresh scheme has read no column yet
    params = dict(
        alpha=Fraction(5, 7), beta=Fraction(-2, 9), gamma=Fraction(4, 11),
        lam=Fraction(-3, 13), ell=2, r=3, s=2,
    )
    for tag in FAMILY_TAGS:
        spec = FamilySpec(tag, **{name: params[name] for name in FAMILIES[tag].params})
        for n in range(0, 9):
            for k in range(0, n + 1):
                family_value(spec, n, k, "recurrence")
    with pytest.raises(AssertionError):
        family_value(FamilySpec("classic"), 9, 4, "egf")


def test_independent_routes_never_read_a_column(monkeypatch):
    # recurrence, explicit and oracle verify the egf path only while none
    # of them reads a value or a coefficient from a scheme's column
    def refuse(*args):
        raise AssertionError("an independent route read a column")

    monkeypatch.setattr(schemes.WeightScheme, "value", refuse)
    monkeypatch.setattr(schemes.WeightScheme, "product_coefficient", refuse)
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
    with pytest.raises(AssertionError):
        family_value(FamilySpec("classic"), 3, 2, "egf")


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
    schemes.classic_scheme.cache_clear()
    schemes.restricted_scheme.cache_clear()  # a fresh scheme has read no column yet
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
