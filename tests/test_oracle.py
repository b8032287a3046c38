import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from stirlingkit import oracle
from stirlingkit.audit import partial_degenerate_swapped_scheme
from stirlingkit.core import stirling2
from stirlingkit.exact import CACHE_SIZE, binomial
from stirlingkit.families import FAMILIES, FamilySpec
from stirlingkit.oracle import (
    ENUMERATION_CAP,
    MixedPartition,
    _profile_counts,
    enumerate_mixed,
    oracle_sum,
    oracle_sum_blocksum,
)
from stirlingkit.schemes import (
    WeightScheme,
    associated_scheme,
    classic_scheme,
    colored_singleton_scheme,
    free_atleast_scheme,
    gen_restricted_scheme,
    generalized_scheme,
    partial_degenerate_scheme,
    restricted_scheme,
)
from stirlingkit.series import block_series, egf, egf_coeff, special_series

from conftest import brute_stirling2


def test_enumerate_small():
    pairs = list(enumerate_mixed(2, 1))
    assert len(pairs) == 3
    forms = {(tuple(sorted(p.special_set)), tuple(tuple(sorted(b)) for b in p.blocks)) for p in pairs}
    assert forms == {
        ((), ((1, 2),)),
        ((1,), ((2,),)),
        ((2,), ((1,),)),
    }


def test_enumerate_k_zero():
    pairs = list(enumerate_mixed(4, 0))
    assert len(pairs) == 1
    assert pairs[0].special_set == frozenset({1, 2, 3, 4})
    assert pairs[0].blocks == ()


def test_enumeration_complete_and_duplicate_free():
    for n in range(0, 8):
        for k in range(0, n + 1):
            pairs = list(enumerate_mixed(n, k))
            expected = sum(
                binomial(n, i) * brute_stirling2(n - i, k) for i in range(n + 1)
            )
            assert len(pairs) == expected
            assert len(set(pairs)) == len(pairs)
            assert all(p.is_valid(n) for p in pairs)
            # blocks come out ordered by first element
            for p in pairs:
                mins = [min(b) for b in p.blocks]
                assert mins == sorted(mins)
    # an empty block, and an element in two classes, are no pair
    assert not MixedPartition(frozenset(), (frozenset({1}), frozenset())).is_valid(1)
    assert not MixedPartition(frozenset({1}), (frozenset({1, 2}),)).is_valid(2)


def test_enumeration_deterministic():
    assert list(enumerate_mixed(5, 2)) == list(enumerate_mixed(5, 2))


def test_cap_enforced():
    with pytest.raises(ValueError):
        list(enumerate_mixed(ENUMERATION_CAP + 1, 1))


def test_profile_counts_match_enumeration(monkeypatch):
    # the size-only walk must count exactly the pairs enumerate_mixed yields,
    # wherever it splits its tree into prefixes and replayed tails
    cells = [(n, k) for n in range(0, 9) for k in range(0, n + 2)] + [
        (9, 4), (9, 0), (9, 9), (9, 1)
    ]
    for n, k in cells:
        expected = dict(Counter(
            (len(p.special_set), tuple(sorted(len(b) for b in p.blocks)))
            for p in enumerate_mixed(n, k)
        ))
        assert _profile_counts(n, k) == expected, (n, k)
        for tail in range(1, n + 2) if n <= 8 else ():
            monkeypatch.setattr(oracle, "TAIL", tail)
            assert _profile_counts.__wrapped__(n, k) == expected, (n, k, tail)
        monkeypatch.undo()


def test_profile_counts_give_each_pair_one_increment(monkeypatch):
    # the walk counts pairs, it does not multiply counts: the items its
    # Counter receives, one per pair, number S(n + 1, k + 1) at every split
    received, default = [], oracle.TAIL

    class Tally(Counter):
        def update(self, iterable=None, /, **kwds):
            items = list(iterable or ())
            received.append(len(items))
            super().update(items, **kwds)

    monkeypatch.setattr(oracle, "Counter", Tally)
    for n in range(0, 10):
        for tail in range(1, n + 2) if n <= 8 else (default,):
            monkeypatch.setattr(oracle, "TAIL", tail)
            for k in range(0, n + 2):
                received.clear()
                _profile_counts.__wrapped__(n, k)
                assert sum(received) == stirling2(n + 1, k + 1), (n, k, tail)


def test_profile_counts_total_the_pairs():
    # placing a new element n + 1 in its own class turns the special set into
    # a block: sum_i C(n, i) S(n - i, k) = S(n + 1, k + 1)
    for n in range(0, 11):
        for k in range(0, n + 2):
            assert sum(_profile_counts(n, k).values()) == stirling2(n + 1, k + 1), (n, k)


def test_profile_counts_past_n_build_nothing():
    # no pair has more blocks than elements: the walk must not first write
    # down the k + 1 place values of its key
    assert _profile_counts(3, 10**6) == {}


def test_profile_counts_at_the_cap():
    # S(m, 2) = 2^(m-1) - 1 for m >= 1 and S(0, 2) = 0
    n = ENUMERATION_CAP
    total = sum(_profile_counts(n, 2).values())
    assert total == sum(binomial(n, g) * (2 ** (n - g - 1) - 1) for g in range(n))
    for n, k in [(ENUMERATION_CAP + 1, 2), (-1, 0), (3, -1)]:
        with pytest.raises(ValueError):
            oracle_sum(n, k, classic_scheme())


def test_profile_counts_at_the_widest_digits():
    # at the cap each size is one base-(n + 1) digit of the walk's key, and
    # these profiles hold a size of n or many digits of 1
    n = ENUMERATION_CAP
    assert _profile_counts(n, 0) == {(n, ()): 1}
    assert _profile_counts(n, n) == {(0, (1,) * n): 1}
    one_block = _profile_counts(n, 1)
    assert one_block[(0, (n,))] == 1
    assert sum(one_block.values()) == 2 ** n - 1


def test_oracle_sum_examples():
    assert oracle_sum(2, 1, generalized_scheme(0, 1, 1)) == 3
    assert oracle_sum(3, 1, free_atleast_scheme(1, 1)) == 4
    for n in range(0, 7):
        assert oracle_sum(n, n, classic_scheme()) == 1
        assert oracle_sum(n, n, generalized_scheme(1, 3, 2)) == 1


def test_pair_count_identity():
    ones = generalized_scheme(0, 1, 1)  # every weight is 1
    for n in range(0, 10):
        for k in range(0, n + 1):
            expected = sum(
                binomial(n, i) * brute_stirling2(n - i, k) for i in range(n + 1)
            )
            assert oracle_sum(n, k, ones) == expected


def test_schemes_have_unit_empty_special_weight():
    schemes = [
        classic_scheme(),
        generalized_scheme(1, 2, 0),
        generalized_scheme(2, 4, 2),
        gen_restricted_scheme(1, 3, 2, 2),
        free_atleast_scheme(Fraction(5, 3), 1),
        partial_degenerate_scheme(2, 1, 3, 2),
        colored_singleton_scheme(3, 2),
    ]
    for scheme in schemes:
        assert Fraction(scheme.special_weight(0)) == 1


def test_blocksum_variant_differs():
    # two singleton blocks: product of weights 1, sum of weights 2
    prod = oracle_sum(2, 2, generalized_scheme(0, 1, 1))
    summed = oracle_sum_blocksum(2, 2, generalized_scheme(0, 1, 1))
    assert prod == 1 and summed == 2
    # single block: both folds agree
    assert oracle_sum(3, 1, generalized_scheme(1, 2, 0)) == oracle_sum_blocksum(
        3, 1, generalized_scheme(1, 2, 0)
    )


def _dense_egf(scheme, k, order):
    """The exponential formula on whole truncated series, special *
    block^k / k!: the reference the lazy columns are held to."""
    return (
        special_series(scheme, order)
        * block_series(scheme, order) ** k
        * Fraction(1, math.factorial(k))
    )


_HALF, _THIRD = Fraction(1, 2), Fraction(-1, 3)
_SPECS = [
    FamilySpec("classic"),
    FamilySpec("restricted", ell=2),
    FamilySpec("associated", ell=2),
    FamilySpec("degenerate", lam=_THIRD),
    FamilySpec("generalized", alpha=_HALF, beta=_THIRD, gamma=_HALF),
    FamilySpec("gen_restricted", alpha=_HALF, beta=_THIRD, gamma=_HALF, ell=2),
    FamilySpec("free_atleast", gamma=_HALF, ell=1),
    FamilySpec("partial_degenerate", gamma=_HALF, alpha=_HALF, beta=_THIRD, ell=2),
    FamilySpec("colored_singleton", r=2, s=3),
]
COLUMN_SCHEMES = [FAMILIES[spec.tag].scheme(spec) for spec in _SPECS] + [
    partial_degenerate_swapped_scheme(_HALF, _HALF, _THIRD, 2),
    restricted_scheme(0),  # ell = 0: the block series is zero
    gen_restricted_scheme(_HALF, _THIRD, _HALF, 0),
    free_atleast_scheme(_HALF, 0),
    partial_degenerate_scheme(_HALF, _HALF, _THIRD, 0),
    associated_scheme(3),  # v = 3, so vk > n from k = 5 on
    colored_singleton_scheme(2, 0),  # no singletons: v = 2
    generalized_scheme(_HALF, 0, _HALF),  # beta = 0
    gen_restricted_scheme(1, 0, 2, 3),
    generalized_scheme(2, 3, 1),  # integer parameters, E = 4
]
# classic, restricted and associated are schemes of the general families at
# fixed parameters; their ids keep the names these families go by
_LABELS = {
    classic_scheme(): "classic",
    restricted_scheme(0): "restricted(ell=0)",
    restricted_scheme(2): "restricted(ell=2)",
    associated_scheme(2): "associated(ell=2)",
    associated_scheme(3): "associated(ell=3)",
}


def _label(scheme):
    return _LABELS.get(scheme, scheme.name)


@pytest.mark.parametrize("scheme", COLUMN_SCHEMES, ids=_label)
def test_columns_match_the_dense_formula(scheme):
    # a new scheme on the same weights starts with an empty store; declaring
    # no D, it reads the EGF column in Fractions wherever its weights are not
    # integers
    _check_columns(scheme, WeightScheme(scheme.name, scheme.special_weight, scheme.block_weight))


@pytest.mark.parametrize("scheme", [scheme for scheme in COLUMN_SCHEMES if scheme.ode],
                         ids=_label)
def test_integer_columns_match_the_dense_formula(scheme):
    # the same reads from a new scheme that declares its equation and D but
    # no scaling, so it reads the EGF integer column, whatever its a1
    fresh = WeightScheme(scheme.name, scheme.special_weight, scheme.block_weight, scheme.ode,
                         scheme.denominator)
    _check_columns(scheme, fresh)
    assert all(type(x) is int for column in fresh._by_k.values() for x in column)


@pytest.mark.parametrize("scheme", [scheme for scheme in COLUMN_SCHEMES if scheme.scaling],
                         ids=_label)
def test_ordinary_columns_match_the_dense_formula(scheme):
    # the same reads from a new scheme that declares the scaling too, so it
    # reads the ordinary integer column: one list of ints W_j per k
    fresh = WeightScheme(scheme.name, scheme.special_weight, scheme.block_weight, scheme.ode,
                         scheme.denominator, scheme.scaling)
    _check_columns(scheme, fresh)
    assert all(type(w) is int for column in fresh._by_k.values() for w in column)


@pytest.mark.parametrize("scheme", [scheme for scheme in COLUMN_SCHEMES
                                    if scheme.scaling and scheme.block_weight(1)], ids=_label)
def test_an_ordinary_read_fills_one_list(scheme):
    # one read of value(k, n) fills column k with W_0..W_(n-vk) and nothing
    # else: the special sum is formed for that one value, not kept per j
    fresh = WeightScheme(scheme.name, scheme.special_weight, scheme.block_weight, scheme.ode,
                         scheme.denominator, scheme.scaling)
    k, n = 3, 12
    fresh.value(k, n)
    column = fresh._by_k[k]
    assert type(column) is list and len(column) == n - fresh._v * k + 1
    assert all(type(w) is int for w in column)


def _check_columns(scheme, fresh):
    # reads in a random order, each column extended out of order and
    # across k, equal the whole-series product at every (k, n)
    order, ks = 12, range(8)
    dense = {k: _dense_egf(scheme, k, order) for k in ks}
    cells = [(k, n) for k in ks for n in range(order + 1)]
    random.Random(scheme.name).shuffle(cells)
    for k, n in cells:
        assert fresh.value(k, n) == egf_coeff(dense[k], n)
    for k in ks:
        assert egf(fresh, k, order) == dense[k]
    assert fresh._by_k is not scheme._by_k and fresh._values is not scheme._values


@pytest.mark.parametrize("scheme", COLUMN_SCHEMES, ids=_label)
def test_factory_columns_hold_only_ints(scheme):
    # every factory declares a D (or a scaling) that clears its weights, so
    # once every value up to n = 12 is read its store holds no Fraction: a
    # wrong declaration fails here instead of moving a family onto Fractions
    for n in range(13):
        for k in range(n + 2):
            scheme.value(k, n)
    kept = [x for column in scheme._by_k.values() for x in column]
    kept += [term for _, term in scheme._unit + scheme._special]
    assert all(type(x) is int for x in kept)


def _bare_scheme(v):
    # weights no fixed D clears: sw(g) = 1/2^g, bw(m) = 1/m! from size v on
    return WeightScheme("bare(v=%d)" % v, lambda g: Fraction(1, 2 ** g),
                        lambda m: Fraction(1, math.factorial(m)) if m >= v else 0)


@pytest.mark.parametrize("v", [1, 2, 3])
def test_bare_schemes_read_exact_fractions(v):
    # a scheme that declares no D reads the EGF column in Fractions: its
    # values are the weighted sums over every pair, and its series the
    # exponential formula on whole series, the power by repeated products
    scheme = _bare_scheme(v)
    for n in range(10):
        for k in range(n + 2):
            assert scheme.value(k, n) == oracle_sum(n, k, scheme), (n, k)
    order, fresh = 14, _bare_scheme(v)
    block, power = block_series(fresh, order), special_series(fresh, order)
    for k in range(8):
        assert egf(fresh, k, order) == power * Fraction(1, math.factorial(k)), k
        power = power * block


def test_scheme_factory_cache_is_bounded():
    # more distinct schemes than the bound: the oldest is dropped, and the
    # scheme built again in its place reads the same values
    partial_degenerate_scheme.cache_clear()
    first = partial_degenerate_scheme(_HALF, _HALF, _THIRD, 2)
    expected = [first.value(k, 7) for k in range(8)]
    for ell in range(3, CACHE_SIZE + 13):
        partial_degenerate_scheme(_HALF, _HALF, _THIRD, ell)
        assert partial_degenerate_scheme.cache_info().currsize <= CACHE_SIZE
    again = partial_degenerate_scheme(_HALF, _HALF, _THIRD, 2)
    assert again is not first
    assert [again.value(k, 7) for k in range(8)] == expected
