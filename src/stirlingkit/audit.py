"""Identity audit: literal vs corrected forms, scored against references.

Several identities for these number families circulate with defects:
index shifts, wrong summation bounds, a missing symmetry factor, or
weights attached to the wrong side of a size threshold.  Rather than
correcting silently, this module evaluates each identity in both its
literal (as circulated) form and its corrected form over exact grids
and reports a verdict per form.

Each identity is written once per case grid and reference: one
`_score` call names it, its grid and its reference, and lists its forms
as (form, function, note) entries, a literal form next to its corrected
one.  Every form is scored on the same cases against the same
reference, in the order listed, and the first failing case is its
counterexample.  (The three-term recurrence takes two calls: its
literal and corrected forms have different left sides.)

Verdicts: a "literal" form may PASS or FAIL freely; every "as printed"
or "corrected" form must PASS for the audit to succeed (that is the
CLI exit-code condition).  "report" entries are informational only.

Suites group related identities and build their identity lists when
they run, so a name rebound in this module takes effect; `run_suite`
runs one suite, or every suite in order for "all".  The names module
names them, so the command line lists them without importing this one.

The printed forms no other module reads live here, so a value or an
`asympt` call never compiles them: the partial Bell closed forms and the
four printed routes of the mixed-cell numbers (partial module).
"""

from __future__ import annotations

import math
import random
from collections import namedtuple
from collections.abc import Callable, Iterable, Iterator, Sequence
from fractions import Fraction
from functools import cache, lru_cache, partial
from itertools import groupby

from . import oracle as _oracle
from .core import (
    stirling2,
    stirling2_associated,
    stirling2_associated_rec,
    stirling2_rec,
    stirling2_rec_literal,
    stirling2_restricted,
    stirling2_restricted_rec,
)
from .exact import (CACHE_SIZE, Rational, binomial, check_indices, falling_factorial_deg,
                    multinomial, rational)
from .generalized import gen_stirling
from .incomplete import (
    associated_from_free,
    free_atleast,
    free_atleast_recursion,
    gen_restricted,
    gen_restricted_recursion,
    gen_restricted_three_term,
)
from .asymptotics import partial_bell
from .partial import colored_singleton, partial_deg
from .schemes import (free_atleast_scheme, gen_restricted_scheme, generalized_scheme,
                      partial_degenerate_scheme, partial_degenerate_swapped_scheme)
from .series import TruncatedSeries, _product_term, block_series
from .names import SUITE_NAMES, SUITES as _SUITE_ORDER

__all__ = [
    "AuditFinding",
    "SUITE_NAMES",
    "run_suite",
    "run_all",
    "audit_ok",
    "report_text",
    "report_json",
    "INTEGER_TRIPLES",
    "partial_deg_convolution",
    "partial_deg_recursion",
    "partial_deg_multinomial",
    "partial_deg_derivative_recursion",
]

# (alpha, beta, gamma): non-negative integers with alpha | beta, alpha | gamma
INTEGER_TRIPLES = ((0, 1, 0), (0, 1, 2), (1, 2, 0), (1, 3, 2), (2, 4, 2))

_SEED = 20260809


# form is "literal", "corrected", "as printed" or "report"; verdict is "PASS",
# "FAIL" or "REPORT"; checked and failed are ints; counterexample and note
# are a str or None
class AuditFinding(namedtuple("AuditFinding", ("suite", "identity", "form", "verdict", "checked",
                                               "failed", "counterexample", "note"),
                              defaults=(None, None))):
    """One verdict: a form of an identity scored on a case grid."""

    __slots__ = ()


def _score(suite: str, identity: str, cases: list, reference: Callable, *forms: tuple) -> list:
    """Score every form of one identity against one reference on one case
    list.  Each form is a (form, function, note) entry; the findings keep
    the order of the entries, and a counterexample is the first failing
    case in the order of the list.  The reference is evaluated once per
    case, whatever the number of forms."""
    rights = [reference(*case) for case in cases]
    findings = []
    for form, function, note in forms:
        checked = failed = 0
        first = None
        for case, right in zip(cases, rights):
            left = function(*case)
            checked += 1
            if left != right:
                failed += 1
                if first is None:
                    first = "at %s: %s != %s" % (case, left, right)
        verdict = "FAIL" if failed else "PASS"
        findings.append(
            AuditFinding(suite, identity, form, verdict, checked, failed, first, note)
        )
    return findings


def _cells(
    params: Iterable, nmax: int, first: int = 0, kmin: int = 0, kmax: int | None = None
) -> list:
    """Cases (n, k, *p): each parameter tuple p in turn, then n from first
    to nmax, then k from kmin to min(n, kmax)."""
    return [
        (n, k) + p
        for p in params
        for n in range(first, nmax + 1)
        for k in range(kmin, (n if kmax is None else min(n, kmax)) + 1)
    ]


def _mixed_cells(nmax: int, first: int = 0, kmin: int = 0, kmax: int | None = None) -> list:
    """The mixed-cell grid (n, k, ell, gamma, alpha, beta) over the integer
    triples and ell = 0..3."""
    params = [(ell, g, a, b) for (a, b, g) in INTEGER_TRIPLES for ell in (0, 1, 2, 3)]
    return _cells(params, nmax, first, kmin, kmax)


def _per_parameters(build: Callable) -> Callable:
    """p -> build(*p), built once per distinct parameter tuple p in one
    suite run.  The grids list their cases grouped by p, and equal tuples
    of the same objects compare without hashing a Fraction, so a case
    looks its p up only where the group changes."""
    built, last = {}, [None, None]

    def get(*p):
        if last[0] != p:
            if p not in built:
                built[p] = build(*p)
            last[:] = p, built[p]
        return last[1]

    return get


def _rational_triples() -> list:
    """Six seeded rational (alpha, beta, gamma) with beta != 0."""
    rng = random.Random(_SEED)
    out = []
    while len(out) < 6:
        trip = tuple(
            Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(3)
        )
        if trip[1] != 0:
            out.append(trip)
    return out


# -- the printed routes of the mixed-cell numbers: each re-derives partial_deg
#    from a printed identity, in a literal and a corrected reading where the
#    two differ


def partial_deg_convolution(
    n: int, k: int, ell: int, gamma: Rational, alpha: Rational, beta: Rational, split=None
) -> Rational:
    """Split by the element set living in free cells: a binomial convolution
    of the free-cell numbers with the size-capped weighted numbers (the
    gen_restricted numbers with an empty special set, gamma = 0).

    split(free, weighted, k) evaluates one split; None means
    _splits(ell, gamma, alpha, beta)."""
    check_indices(n, k, ell)
    split = split or _splits(ell, gamma, alpha, beta)
    total = 0
    for i in range(0, n + 1):
        total += binomial(n, i) * split(i, n - i, k)
    return total


def _splits(ell: int, g: Rational, a: Rational, b: Rational):
    """(free, weighted, k) -> sum_j free_atleast(free, j) * gen_restricted(weighted, k - j)
    at gamma = 0: j of the k blocks hold the `free` elements of free cells,
    the rest the `weighted` ones.  Blocks are non-empty, so j runs only
    where neither factor has more blocks than elements.  The two schemes
    are looked up once, here, not once per split."""
    free_value = free_atleast_scheme(g, ell).value
    weighted_value = gen_restricted_scheme(a, b, 0, ell).value

    def split(free: int, weighted: int, k: int) -> Rational:
        total = 0
        for j in range(max(0, k - weighted), min(free, k) + 1):
            fa = free_value(j, free)
            if fa:
                total += fa * weighted_value(k - j, weighted)
        return total

    return split


def partial_deg_recursion(
    n_plus_1: int, k: int, ell: int, gamma: Rational, alpha: Rational, beta: Rational,
    split=None,
) -> Rational:
    """Recursion on the newest element's position: it joins either a free
    cell or a weighted cell, shifting one factor of the convolution.  It
    reads the splits of n + 1 elements, exactly those the convolution at
    n + 1 reads; split is as there."""
    check_indices(n_plus_1, k, ell)
    if n_plus_1 == 0:
        return 1 if k == 0 else 0
    split = split or _splits(ell, gamma, alpha, beta)
    n = n_plus_1 - 1
    total = 0
    for i in range(0, n + 1):
        total += binomial(n, i) * (split(i + 1, n - i, k) + split(i, n - i + 1, k))
    return total


def partial_deg_multinomial(
    n: int,
    k: int,
    ell: int,
    gamma: Rational,
    alpha: Rational,
    beta: Rational,
    literal: bool = False,
) -> Rational:
    """Block-by-block multinomial decomposition.

    Corrected reading: sum over ordered size compositions r_1..r_k >= 1
    plus a special-set remainder, each block contributing its own
    single-block weight, divided by k! because blocks are unordered.
    The literal reading keeps the product subscripts at 1..k and drops
    the 1/k!; the audit scores it.  Both sums read the compositions
    grouped by their multiset of sizes (_composition_table).
    """
    check_indices(n, k, ell)
    block_weight = partial_degenerate_scheme(gamma, alpha, beta, ell).block_weight
    total = 0
    if literal:
        fixed = 1
        for i in range(1, k + 1):
            fixed *= block_weight(i)
        for _, remainder, coefficient in _composition_table(n, k, ell):
            total += coefficient * gamma ** remainder * fixed
        return total
    for head, remainder, coefficient in _composition_table(n, k, 1):
        w = coefficient * gamma ** remainder
        for size in head:
            w *= block_weight(size)
        total += w
    return rational(total, math.factorial(k))


@lru_cache(maxsize=CACHE_SIZE)
def _composition_table(n: int, k: int, minimum: int) -> tuple:
    """(head, remainder, coefficient) for each non-increasing head of k
    block sizes >= minimum with sum <= n, one row for all its orderings:
    the remainder n - sum(head) is the special set's size and the
    coefficient is the number of distinct orderings of the head times
    n! / (r_1! ... r_k! remainder!).  Every term the decomposition sums is
    symmetric in the order of the head, so both readings of every
    parameter set read this one table."""
    table = []
    for head in _iter_heads(n, k, minimum, n):
        remainder = n - sum(head)
        orderings = multinomial(k, [len(list(run)) for _, run in groupby(head)])
        table.append((head, remainder, orderings * multinomial(n, head + (remainder,))))
    return tuple(table)


def _iter_heads(n: int, k: int, minimum: int, largest: int) -> Iterator[tuple[int, ...]]:
    """Block-size tuples largest >= r_1 >= ... >= r_k >= minimum with sum <= n."""
    if k == 0:
        yield ()
        return
    for first in range(minimum, min(largest, n - minimum * (k - 1)) + 1):
        for rest in _iter_heads(n - first, k - 1, minimum, first):
            yield (first,) + rest


def partial_deg_derivative_recursion(
    n_plus_1: int,
    k: int,
    ell: int,
    gamma: Rational,
    alpha: Rational,
    beta: Rational,
    literal: bool = False,
) -> Rational:
    """Recursion from differentiating the generating function.

    Corrected inner index k-1: the newest element either joins the
    special set or completes one distinguished block.  The literal
    variant keeps the inner index at k; the audit scores it.  The rows
    below n+1 are the reference values, partial_deg.
    """
    check_indices(n_plus_1, k, ell)
    if k < 1:
        raise ValueError("derivative recursion needs k >= 1")
    n = n_plus_1 - 1
    block_weight = partial_degenerate_scheme(gamma, alpha, beta, ell).block_weight
    total = gamma * partial_deg(n, k, ell, gamma, alpha, beta)
    inner_k = k if literal else k - 1
    # rows with fewer elements than blocks are zero
    for i in range(inner_k, n + 1):
        row = partial_deg(i, inner_k, ell, gamma, alpha, beta)
        if row:
            total += binomial(n, i) * row * block_weight(n - i + 1)
    return total


# -- suites -------------------------------------------------------------------


def _suite_thm21(nmax: int) -> list:
    nk = _cells([()], nmax)
    nkl = [(n, k, ell) for n, k in nk for ell in (1, 2, 3)]
    capped = _cells(
        [(a, b, g, ell) for (a, b, g) in INTEGER_TRIPLES for ell in (1, 2, 3)], nmax, first=1
    )
    return [
        *_score(
            "thm21",
            "classic-recursion",
            nk,
            stirling2,
            ("literal", stirling2_rec_literal,
             "second term read as S(n-1,k) of the previous row pair"),
            ("corrected", stirling2_rec, "second term S(n,k-1)"),
        ),
        *_score(
            "thm21",
            "restricted-recursion",
            nkl,
            stirling2_restricted,
            ("as printed", stirling2_restricted_rec, None),
        ),
        *_score(
            "thm21",
            "associated-recursion",
            nkl,
            stirling2_associated,
            ("as printed", stirling2_associated_rec, None),
        ),
        *_score(
            "thm21",
            "size-capped-recursion-bounds",
            capped,
            gen_restricted,
            ("literal", partial(gen_restricted_recursion, literal=True),
             "summation bounds k-1 <= i <= n-ell-1 as printed"),
            ("corrected", gen_restricted_recursion, "bounds max(k-1, n+1-ell) <= i <= n"),
        ),
    ]


def _suite_threeterm(nmax: int) -> list:
    params = [(a, b, g, ell) for (a, b, g) in ((1, 2, 2), (2, 4, 2)) for ell in (1, 2, 3)]
    derived_cases = [(n, k) + p for p in params for n in range(nmax) for k in range(n + 2)]
    return [
        *_score(
            "threeterm",
            "three-term-recurrence",
            _cells(params, nmax),
            gen_restricted,
            ("literal", partial(gen_restricted_three_term, literal=True),
             "upper limit ell and exponents n-i+1, i-j as printed; left side S(n,k)"),
        ),
        *_score(
            "threeterm",
            "three-term-recurrence",
            derived_cases,
            lambda n, k, a, b, g, ell: gen_restricted(n + 1, k, a, b, g, ell),
            ("corrected", gen_restricted_three_term,
             "re-derived by applying the one-step rule twice; left side S(n+1,k)"),
        ),
    ]


def _suite_bullets24(nmax: int) -> list:
    triples = _rational_triples()
    scales = (Fraction(2), Fraction(-1), Fraction(1, 2), Fraction(5, 3))
    scaled = _per_parameters(
        lambda a, b, g, c: generalized_scheme(c * a, c * b, c * g).value)
    return [
        *_score(
            "bullets24",
            "boundary-values",
            [(n, k) + t for t in triples for n in range(nmax + 1) for k in (n, n + 1, n + 2)],
            lambda n, k, a, b, g: Fraction(1 if n == k else 0),
            ("as printed", gen_stirling, "zero above the diagonal, one on it"),
        ),
        *_score(
            "bullets24",
            "all-in-special-set",
            [(n,) + t for t in triples for n in range(nmax + 1)],
            lambda n, a, b, g: Fraction(falling_factorial_deg(g, n, a)),
            ("as printed", lambda n, a, b, g: gen_stirling(n, 0, a, b, g),
             "k = 0 forces every element into the special set"),
        ),
        *_score(
            "bullets24",
            "single-block",
            [(n, a, b) for (a, b, _) in triples for n in range(1, nmax + 1)],
            lambda n, a, b: Fraction(falling_factorial_deg(b - a, n - 1, a)),
            ("as printed", lambda n, a, b: gen_stirling(n, 1, a, b, 0), None),
        ),
        *_score(
            "bullets24",
            "shift-to-special",
            [(n, k, a, b) for (a, b, _) in triples for n in range(nmax) for k in range(1, n + 2)],
            lambda n, k, a, b: gen_stirling(n, k - 1, a, b, b - a),
            ("as printed", lambda n, k, a, b: gen_stirling(n + 1, k, a, b, 0),
             "delete the block of the first element"),
        ),
        *_score(
            "bullets24",
            "one-merged-pair",
            [(n,) + t for t in triples for n in range(1, nmax + 1)],
            lambda n, a, b, g: n * g + binomial(n, 2) * (b - a),
            ("as printed", lambda n, a, b, g: gen_stirling(n, n - 1, a, b, g), None),
        ),
        *_score(
            "bullets24",
            "parameter-scaling",
            _cells([t + (c,) for t in triples for c in scales], nmax),
            lambda n, k, a, b, g, c: c ** (n - k) * gen_stirling(n, k, a, b, g),
            ("as printed", lambda n, k, *p: scaled(*p)(k, n), None),
        ),
        *_score(
            "bullets24",
            "block-weight-fold",
            _cells(INTEGER_TRIPLES, min(nmax, 7)),
            gen_stirling,
            ("literal",
             lambda n, k, a, b, g: _oracle.oracle_sum_blocksum(
                 n, k, generalized_scheme(a, b, g)),
             "partition weight read as the sum of block weights"),
            ("corrected",
             lambda n, k, a, b, g: _oracle.oracle_sum(n, k, generalized_scheme(a, b, g)),
             "partition weight is the product of block weights"),
        ),
    ]


def _suite_thm3(nmax: int) -> list:
    gammas = (Fraction(0), Fraction(1), Fraction(2), Fraction(1, 2), Fraction(-3, 2), Fraction(5))
    cases = [(n, k, g, ell) for ell in (1, 2, 3) for n, k in _cells([()], nmax) for g in gammas]

    @cache
    def _from_free(n, k, g, ell):
        # both identities score the sum on the same cases, and the reference
        # at gamma = 0 is the case at gammas[0]: one evaluation per case
        return associated_from_free(n, k, g, ell)

    return [
        *_score(
            "thm3",
            "alternating-special-set-removal",
            cases,
            lambda n, k, g, ell: Fraction(stirling2_associated(n, k, ell)),
            ("as printed", _from_free, "inclusion-exclusion over the special set"),
        ),
        *_score(
            "thm3",
            "gamma-independence",
            cases,
            lambda n, k, g, ell: _from_free(n, k, 0, ell),
            ("as printed", _from_free, "the alternating sum does not depend on gamma"),
        ),
    ]


def _suite_s_gt_recursion(nmax: int) -> list:
    gammas = (Fraction(1), Fraction(2), Fraction(1, 2))
    return _score(
        "s-gt-recursion",
        "free-cell-recursion",
        _cells([(g, ell) for g in gammas for ell in (0, 1, 2, 3)], nmax, first=1),
        free_atleast,
        ("literal", partial(free_atleast_recursion, literal=True),
         "inner term with index n-i as printed"),
        ("corrected", free_atleast_recursion,
         "inner index n+1-i: the new element joins the blocks"),
    )


def _suite_thm13(nmax: int) -> list:
    # the recursion at n + 1 reads exactly the splits the convolution reads
    # at n + 1: one store of them per parameter set serves both forms
    split = _per_parameters(lambda *p: cache(_splits(*p)))
    return [
        *_score(
            "thm13",
            "free-weighted-convolution",
            _mixed_cells(nmax),
            partial_deg,
            ("as printed", lambda n, k, *p: partial_deg_convolution(n, k, *p, split(*p)), None),
        ),
        *_score(
            "thm13",
            "element-shift-recursion",
            _mixed_cells(nmax, first=1),
            partial_deg,
            ("as printed", lambda n, k, *p: partial_deg_recursion(n, k, *p, split(*p)), None),
        ),
    ]


def _suite_thm20(nmax: int) -> list:
    cases = _mixed_cells(min(nmax, 8))
    order = 10
    powers = range(6)
    series_cases = [
        (k, ell, a, b) for (a, b, _) in INTEGER_TRIPLES for ell in (0, 1, 2, 3) for k in powers
    ]

    @cache
    def _powers(ell, a, b):
        # powers of the free blocks above ell, as their non-zero terms (i,
        # numerator, denominator); of the degenerate-weighted blocks up to ell,
        # as numerator and denominator lists; and of their sum, as series:
        # built once per (ell, a, b) for both sides
        big = block_series(free_atleast_scheme(0, ell), order)
        smallp = block_series(gen_restricted_scheme(a, b, 0, ell), order)
        total = big + smallp
        return (
            [[(i, c.numerator, c.denominator) for i, c in enumerate(p.coeffs) if c]
             for p in (big ** k for k in powers)],
            [([c.numerator for c in p.coeffs], [c.denominator for c in p.coeffs])
             for p in (smallp ** k for k in powers)],
            [total ** k for k in powers],
        )

    def _lhs(k, ell, a, b):
        # each coefficient of sum_j C(k, j) big^j smallp^(k-j) as one exact sum
        big, smallp, _ = _powers(ell, a, b)
        products = [(binomial(k, j), big[j], smallp[k - j]) for j in range(k + 1)]
        return TruncatedSeries(
            [Fraction(*_product_term(n, products)) for n in range(order + 1)], order)

    def _rhs(k, ell, a, b):
        return _powers(ell, a, b)[2][k]

    return [
        *_score(
            "thm20",
            "mixed-cell-egf",
            cases,
            lambda n, k, ell, g, a, b: _oracle.oracle_sum(
                n, k, partial_degenerate_scheme(g, a, b, ell)
            ),
            ("as printed", partial_deg, "degenerate weight on blocks of size <= ell, free above"),
        ),
        *_score(
            "thm20",
            "swapped-weight-orientation",
            cases,
            partial_deg,
            ("literal",
             lambda n, k, ell, g, a, b: _oracle.oracle_sum(
                 n, k, partial_degenerate_swapped_scheme(g, a, b, ell)),
             "weight-1 blocks below the threshold, degenerate above"),
        ),
        *_score(
            "thm20",
            "binomial-rearrangement",
            series_cases,
            _rhs,
            ("as printed", _lhs, "series identity mod t^%d" % (order + 1)),
        ),
        _colored_report(min(nmax, 7)),
    ]


def _colored_report(nmax: int) -> AuditFinding:
    """Compare colored-singleton numbers against the threshold-1 mixed family
    at (alpha, beta) = (0, 1); report the match pattern, assert nothing."""
    matches = []
    diverges = []
    checked = 0
    for s in range(0, 4):
        first = None
        for r in range(0, 4):
            for n in range(nmax + 1):
                for k in range(n + 1):
                    checked += 1
                    lhs = Fraction(colored_singleton(n, k, r, s))
                    rhs = partial_deg(n, k, 1, r, 0, 1)
                    if lhs != rhs and first is None:
                        first = "(n=%d,k=%d,r=%d,s=%d): %s != %s" % (n, k, r, s, lhs, rhs)
        if first is None:
            matches.append(s)
        else:
            diverges.append((s, first))
    note = "coincides with the threshold-1 mixed family exactly for s in %s; " % matches
    note += "; ".join("s=%d diverges first at %s" % (s, cx) for s, cx in diverges)
    return AuditFinding(
        "thm20", "colored-singleton-grid", "report", "REPORT", checked, 0, None, note
    )


def _suite_multinomial(nmax: int) -> list:
    return _score(
        "multinomial",
        "multinomial-decomposition",
        _mixed_cells(nmax, kmax=4),
        partial_deg,
        ("literal", partial(partial_deg_multinomial, literal=True),
         "block product subscripted 1..k and no 1/k!, as printed"),
        ("corrected", partial_deg_multinomial, "per-part subscripts and a 1/k! symmetry factor"),
    )


def _suite_derivative(nmax: int) -> list:
    return _score(
        "derivative",
        "derivative-recursion",
        _mixed_cells(nmax, first=1, kmin=1),
        partial_deg,
        ("literal", partial(partial_deg_derivative_recursion, literal=True),
         "inner index k as printed"),
        ("corrected", partial_deg_derivative_recursion, "inner index k-1"),
    )


def _closed_form_bell(n: int, j: int, a: Sequence[Fraction]) -> Fraction:
    """Displayed closed forms for j <= 3; factorials of negative numbers
    mark absent terms."""

    def inv_fact(m: int) -> Fraction:
        return Fraction(1, math.factorial(m)) if m >= 0 else Fraction(0)

    a1 = Fraction(a[1]) if n >= 1 else Fraction(0)

    def pw(base: Fraction, e: int) -> Fraction:
        return base ** e if e >= 0 else Fraction(0)

    if j == 0:
        return inv_fact(n) * pw(a1, n)
    if j == 1:
        return inv_fact(n - 2) * pw(a1, n - 2) * a[2]
    if j == 2:
        return inv_fact(n - 3) * pw(a1, n - 3) * a[3] + Fraction(1, 2) * inv_fact(
            n - 4
        ) * pw(a1, n - 4) * a[2] ** 2
    if j == 3:
        return (
            inv_fact(n - 4) * pw(a1, n - 4) * a[4]
            + inv_fact(n - 5) * pw(a1, n - 5) * a[2] * a[3]
            + Fraction(1, 6) * inv_fact(n - 6) * pw(a1, n - 6) * a[2] ** 3
        )
    raise ValueError("closed forms displayed only for j <= 3")


def _suite_bell_closed_forms(nmax: int) -> list:
    rng = random.Random(_SEED + 1)
    top = max(nmax, 4)
    sequences = []
    for _ in range(4):
        seq = [Fraction(1)] + [
            Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(top)
        ]
        sequences.append(tuple(seq))
    return _score(
        "bell-closed-forms",
        "partition-coefficient-closed-forms",
        _cells([(seq,) for seq in sequences], top, kmax=3),
        _closed_form_bell,
        ("as printed", partial_bell, "displayed values for j = 0..3, generic coefficients"),
    )


# suite name -> its function, _suite_<name> with "-" read as "_"
SUITES = {name: globals()["_suite_" + name.replace("-", "_")] for name in _SUITE_ORDER}


def run_suite(name: str, nmax: int = 8) -> list:
    """Findings of one suite, or of every suite in order for "all"."""
    if nmax < 0:
        raise ValueError("nmax must be non-negative")
    if name not in SUITE_NAMES:
        raise ValueError("unknown suite %r (one of %s)" % (name, ", ".join(SUITE_NAMES)))
    names = SUITES if name == "all" else [name]
    return [finding for suite in names for finding in SUITES[suite](nmax)]


def run_all(nmax: int = 8) -> list:
    return run_suite("all", nmax)


def audit_ok(findings: Iterable[AuditFinding]) -> bool:
    """Exit condition: every corrected / as-printed form passes."""
    return all(
        f.verdict == "PASS" for f in findings if f.form in ("corrected", "as printed")
    )


def report_text(findings: Sequence[AuditFinding]) -> str:
    lines = []
    header = "%-16s %-34s %-11s %-7s %8s %7s" % (
        "suite",
        "identity",
        "form",
        "verdict",
        "checked",
        "failed",
    )
    lines.append(header)
    lines.append("-" * len(header))
    for f in findings:
        lines.append(
            "%-16s %-34s %-11s %-7s %8d %7d"
            % (f.suite, f.identity, f.form, f.verdict, f.checked, f.failed)
        )
        if f.counterexample:
            lines.append("    first counterexample %s" % f.counterexample)
        if f.note:
            lines.append("    note: %s" % f.note)
    ok = audit_ok(findings)
    lines.append("")
    lines.append(
        "audit %s: every corrected/as-printed form %s"
        % ("OK" if ok else "FAILED", "passed" if ok else "did NOT pass")
    )
    return "\n".join(lines)


def report_json(findings: Sequence[AuditFinding], nmax: int) -> dict:
    return {
        "nmax": nmax,
        "ok": audit_ok(findings),
        "findings": [f._asdict() for f in findings],
    }
