"""Property-based route agreement for every registry family.

Parameters are drawn at random (rational alpha, beta, gamma, lambda with
beta = 0 included; integer ell, r, s), and each drawn member must give
the same value through the generating function, the recursion, the
enumeration oracle and, where the family has one and beta != 0, the
explicit sum.  Runs are derandomized and bounded, so the suite stays
deterministic and fast.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stirlingkit.families import FAMILIES, FAMILY_TAGS, FamilySpec, family_egf, family_value
from stirlingkit.series import egf_coeff

RATIONALS = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
PARAMS = {
    "alpha": RATIONALS,
    "beta": st.one_of(st.just(Fraction(0)), RATIONALS),
    "gamma": RATIONALS,
    "lam": RATIONALS,
    "ell": st.integers(1, 4),
    "r": st.integers(0, 3),
    "s": st.integers(0, 3),
}


@st.composite
def members(draw, tag):
    params = {name: draw(PARAMS[name]) for name in FAMILIES[tag].params}
    n = draw(st.integers(0, 7))
    return FamilySpec(tag, **params), n


@pytest.mark.parametrize("tag", FAMILY_TAGS)
@settings(max_examples=50, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_routes_agree(tag, data):
    spec, n = data.draw(members(tag))
    # the generalized numbers exclude the all-zero triple
    assume(tag != "generalized" or (spec.alpha, spec.beta, spec.gamma) != (0, 0, 0))
    with_explicit = FAMILIES[tag].explicit is not None and spec.beta != 0
    for k in range(n + 1):
        value = family_value(spec, n, k)
        assert egf_coeff(family_egf(spec, k, n), n) == value
        assert family_value(spec, n, k, "recurrence") == value
        assert family_value(spec, n, k, "oracle") == value
        if with_explicit:
            assert family_value(spec, n, k, "explicit") == value
