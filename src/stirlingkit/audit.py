"""Identity audit: literal vs corrected forms, scored against references.

Several identities for these number families circulate with defects:
index shifts, wrong summation bounds, a missing symmetry factor, or
weights attached to the wrong side of a size threshold.  Rather than
correcting silently, this module evaluates each identity in both its
literal (as circulated) form and its corrected form over exact grids
and reports a verdict per form.

Verdicts: a "literal" form may PASS or FAIL freely; every "as printed"
or "corrected" form must PASS for the audit to succeed (that is the
CLI exit-code condition).  "report" entries are informational only.

Suites group related identities; `run_all` runs every suite.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

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
from .exact import binomial, falling_factorial_deg
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
from .partial import (
    colored_singleton,
    partial_deg,
    partial_deg_convolution,
    partial_deg_derivative_recursion,
    partial_deg_multinomial,
    partial_deg_recursion,
)
from .series import TruncatedSeries

__all__ = [
    "AuditFinding",
    "SUITE_NAMES",
    "run_suite",
    "run_all",
    "audit_ok",
    "report_text",
    "report_json",
    "INTEGER_TRIPLES",
]

# (alpha, beta, gamma): non-negative integers with alpha | beta, alpha | gamma
INTEGER_TRIPLES = ((0, 1, 0), (0, 1, 2), (1, 2, 0), (1, 3, 2), (2, 4, 2))

_SEED = 20260809


@dataclass(frozen=True)
class AuditFinding:
    suite: str
    identity: str
    form: str  # "literal" | "corrected" | "as printed" | "report"
    verdict: str  # "PASS" | "FAIL" | "REPORT"
    checked: int
    failed: int
    counterexample: str | None = None
    note: str | None = None


def _check(
    suite: str,
    identity: str,
    form: str,
    cases: Iterable,
    lhs: Callable,
    rhs: Callable,
    note: str | None = None,
) -> AuditFinding:
    checked = failed = 0
    first = None
    for case in cases:
        left = lhs(*case)
        right = rhs(*case)
        checked += 1
        if left != right:
            failed += 1
            if first is None:
                first = "at %s: %s != %s" % (case, left, right)
    verdict = "FAIL" if failed else "PASS"
    return AuditFinding(suite, identity, form, verdict, checked, failed, first, note)


def _rational_triples(count: int = 6, nonzero_beta: bool = True) -> list:
    rng = random.Random(_SEED)
    out = []
    while len(out) < count:
        trip = tuple(
            Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(3)
        )
        if trip == (0, 0, 0):
            continue
        if nonzero_beta and trip[1] == 0:
            continue
        out.append(trip)
    return out


# -- suites -------------------------------------------------------------------


def _suite_thm21(nmax: int) -> list:
    findings = []
    nk = [(n, k) for n in range(nmax + 1) for k in range(n + 1)]
    findings.append(
        _check(
            "thm21",
            "classic-recursion",
            "literal",
            nk,
            lambda n, k: stirling2_rec_literal(n, k),
            lambda n, k: stirling2(n, k),
            note="second term read as S(n-1,k) of the previous row pair",
        )
    )
    findings.append(
        _check(
            "thm21",
            "classic-recursion",
            "corrected",
            nk,
            lambda n, k: stirling2_rec(n, k),
            lambda n, k: stirling2(n, k),
            note="second term S(n,k-1)",
        )
    )
    nkl = [(n, k, ell) for n, k in nk for ell in (1, 2, 3)]
    findings.append(
        _check(
            "thm21",
            "restricted-recursion",
            "as printed",
            nkl,
            lambda n, k, ell: stirling2_restricted_rec(n, k, ell),
            lambda n, k, ell: stirling2_restricted(n, k, ell),
        )
    )
    findings.append(
        _check(
            "thm21",
            "associated-recursion",
            "as printed",
            nkl,
            lambda n, k, ell: stirling2_associated_rec(n, k, ell),
            lambda n, k, ell: stirling2_associated(n, k, ell),
        )
    )
    cases = [
        (n1, k, a, b, g, ell)
        for (a, b, g) in INTEGER_TRIPLES
        for ell in (1, 2, 3)
        for n1 in range(1, nmax + 1)
        for k in range(n1 + 1)
    ]
    findings.append(
        _check(
            "thm21",
            "size-capped-recursion-bounds",
            "literal",
            cases,
            lambda n1, k, a, b, g, ell: gen_restricted_recursion(n1, k, a, b, g, ell, literal=True),
            lambda n1, k, a, b, g, ell: gen_restricted(n1, k, a, b, g, ell),
            note="summation bounds k-1 <= i <= n-ell-1 as printed",
        )
    )
    findings.append(
        _check(
            "thm21",
            "size-capped-recursion-bounds",
            "corrected",
            cases,
            lambda n1, k, a, b, g, ell: gen_restricted_recursion(n1, k, a, b, g, ell),
            lambda n1, k, a, b, g, ell: gen_restricted(n1, k, a, b, g, ell),
            note="bounds max(k-1, n+1-ell) <= i <= n",
        )
    )
    return findings


def _suite_threeterm(nmax: int) -> list:
    findings = []
    params = ((1, 2, 2), (2, 4, 2))
    lit_cases = [
        (n, k, a, b, g, ell)
        for (a, b, g) in params
        for ell in (1, 2, 3)
        for n in range(nmax + 1)
        for k in range(n + 1)
    ]
    findings.append(
        _check(
            "threeterm",
            "three-term-recurrence",
            "literal",
            lit_cases,
            lambda n, k, a, b, g, ell: gen_restricted_three_term(n, k, a, b, g, ell, form="literal"),
            lambda n, k, a, b, g, ell: gen_restricted(n, k, a, b, g, ell),
            note="upper limit ell and exponents n-i+1, i-j as printed; left side S(n,k)",
        )
    )
    der_cases = [
        (n, k, a, b, g, ell)
        for (a, b, g) in params
        for ell in (1, 2, 3)
        for n in range(nmax)
        for k in range(n + 2)
    ]
    findings.append(
        _check(
            "threeterm",
            "three-term-recurrence",
            "corrected",
            der_cases,
            lambda n, k, a, b, g, ell: gen_restricted_three_term(n, k, a, b, g, ell, form="derived"),
            lambda n, k, a, b, g, ell: gen_restricted(n + 1, k, a, b, g, ell),
            note="re-derived by applying the one-step rule twice; left side S(n+1,k)",
        )
    )
    return findings


def _suite_bullets24(nmax: int) -> list:
    findings = []
    triples = _rational_triples()
    boundary = [
        (n, k, a, b, g)
        for (a, b, g) in triples
        for n in range(nmax + 1)
        for k in (n, n + 1, n + 2)
    ]
    findings.append(
        _check(
            "bullets24",
            "boundary-values",
            "as printed",
            boundary,
            lambda n, k, a, b, g: gen_stirling(n, k, a, b, g),
            lambda n, k, a, b, g: Fraction(1 if n == k else 0),
            note="zero above the diagonal, one on it",
        )
    )
    findings.append(
        _check(
            "bullets24",
            "all-in-special-set",
            "as printed",
            [(n, a, b, g) for (a, b, g) in triples for n in range(nmax + 1)],
            lambda n, a, b, g: gen_stirling(n, 0, a, b, g),
            lambda n, a, b, g: Fraction(falling_factorial_deg(g, n, a)),
            note="k = 0 forces every element into the special set",
        )
    )
    findings.append(
        _check(
            "bullets24",
            "single-block",
            "as printed",
            [(n, a, b) for (a, b, _) in triples for n in range(1, nmax + 1)],
            lambda n, a, b: gen_stirling(n, 1, a, b, 0),
            lambda n, a, b: Fraction(falling_factorial_deg(b - a, n - 1, a)),
        )
    )
    findings.append(
        _check(
            "bullets24",
            "shift-to-special",
            "as printed",
            [
                (n, k, a, b)
                for (a, b, _) in triples
                for n in range(nmax)
                for k in range(1, n + 2)
            ],
            lambda n, k, a, b: gen_stirling(n + 1, k, a, b, 0),
            lambda n, k, a, b: gen_stirling(n, k - 1, a, b, b - a),
            note="delete the block of the first element",
        )
    )
    findings.append(
        _check(
            "bullets24",
            "one-merged-pair",
            "as printed",
            [(n, a, b, g) for (a, b, g) in triples for n in range(1, nmax + 1)],
            lambda n, a, b, g: gen_stirling(n, n - 1, a, b, g),
            lambda n, a, b, g: n * g + binomial(n, 2) * (b - a),
        )
    )
    scales = (Fraction(2), Fraction(-1), Fraction(1, 2), Fraction(5, 3))
    findings.append(
        _check(
            "bullets24",
            "parameter-scaling",
            "as printed",
            [
                (n, k, a, b, g, c)
                for (a, b, g) in triples
                for c in scales
                for n in range(nmax + 1)
                for k in range(n + 1)
            ],
            lambda n, k, a, b, g, c: gen_stirling(n, k, c * a, c * b, c * g),
            lambda n, k, a, b, g, c: c ** (n - k) * gen_stirling(n, k, a, b, g),
        )
    )
    small = min(nmax, 7)
    fold_cases = [
        (n, k, a, b, g)
        for (a, b, g) in INTEGER_TRIPLES
        for n in range(small + 1)
        for k in range(n + 1)
    ]
    findings.append(
        _check(
            "bullets24",
            "block-weight-fold",
            "literal",
            fold_cases,
            lambda n, k, a, b, g: _oracle.oracle_sum_blocksum(
                n, k, _oracle.generalized_scheme(a, b, g)
            ),
            lambda n, k, a, b, g: gen_stirling(n, k, a, b, g),
            note="partition weight read as the sum of block weights",
        )
    )
    findings.append(
        _check(
            "bullets24",
            "block-weight-fold",
            "corrected",
            fold_cases,
            lambda n, k, a, b, g: _oracle.oracle_sum(
                n, k, _oracle.generalized_scheme(a, b, g)
            ),
            lambda n, k, a, b, g: gen_stirling(n, k, a, b, g),
            note="partition weight is the product of block weights",
        )
    )
    return findings


def _suite_thm3(nmax: int) -> list:
    gammas = (Fraction(0), Fraction(1), Fraction(2), Fraction(1, 2), Fraction(-3, 2), Fraction(5))
    cases = [
        (n, k, g, ell)
        for ell in (1, 2, 3)
        for n in range(nmax + 1)
        for k in range(n + 1)
        for g in gammas
    ]
    findings = [
        _check(
            "thm3",
            "alternating-special-set-removal",
            "as printed",
            cases,
            lambda n, k, g, ell: associated_from_free(n, k, g, ell),
            lambda n, k, g, ell: Fraction(stirling2_associated(n, k, ell)),
            note="inclusion-exclusion over the special set",
        )
    ]
    findings.append(
        _check(
            "thm3",
            "gamma-independence",
            "as printed",
            cases,
            lambda n, k, g, ell: associated_from_free(n, k, g, ell),
            lambda n, k, g, ell: associated_from_free(n, k, 0, ell),
            note="the alternating sum does not depend on gamma",
        )
    )
    return findings


def _suite_s_gt_recursion(nmax: int) -> list:
    gammas = (Fraction(1), Fraction(2), Fraction(1, 2))
    cases = [
        (n1, k, g, ell)
        for g in gammas
        for ell in (0, 1, 2, 3)
        for n1 in range(1, nmax + 1)
        for k in range(n1 + 1)
    ]
    return [
        _check(
            "s-gt-recursion",
            "free-cell-recursion",
            "literal",
            cases,
            lambda n1, k, g, ell: free_atleast_recursion(n1, k, g, ell, literal=True),
            lambda n1, k, g, ell: free_atleast(n1, k, g, ell),
            note="inner term with index n-i as printed",
        ),
        _check(
            "s-gt-recursion",
            "free-cell-recursion",
            "corrected",
            cases,
            lambda n1, k, g, ell: free_atleast_recursion(n1, k, g, ell),
            lambda n1, k, g, ell: free_atleast(n1, k, g, ell),
            note="inner index n+1-i: the new element joins the blocks",
        ),
    ]


def _partial_triples():
    return tuple((g, a, b) for (a, b, g) in INTEGER_TRIPLES)


def _suite_thm13(nmax: int) -> list:
    cases = [
        (n, k, ell, g, a, b)
        for (g, a, b) in _partial_triples()
        for ell in (0, 1, 2, 3)
        for n in range(nmax + 1)
        for k in range(n + 1)
    ]
    findings = [
        _check(
            "thm13",
            "free-weighted-convolution",
            "as printed",
            cases,
            lambda n, k, ell, g, a, b: partial_deg_convolution(n, k, ell, g, a, b),
            lambda n, k, ell, g, a, b: partial_deg(n, k, ell, g, a, b),
        )
    ]
    rec_cases = [
        (n1, k, ell, g, a, b)
        for (g, a, b) in _partial_triples()
        for ell in (0, 1, 2, 3)
        for n1 in range(1, nmax + 1)
        for k in range(n1 + 1)
    ]
    findings.append(
        _check(
            "thm13",
            "element-shift-recursion",
            "as printed",
            rec_cases,
            lambda n1, k, ell, g, a, b: partial_deg_recursion(n1, k, ell, g, a, b),
            lambda n1, k, ell, g, a, b: partial_deg(n1, k, ell, g, a, b),
        )
    )
    return findings


def _suite_thm20(nmax: int) -> list:
    findings = []
    small = min(nmax, 8)
    cases = [
        (n, k, ell, g, a, b)
        for (g, a, b) in _partial_triples()
        for ell in (0, 1, 2, 3)
        for n in range(small + 1)
        for k in range(n + 1)
    ]
    findings.append(
        _check(
            "thm20",
            "mixed-cell-egf",
            "as printed",
            cases,
            lambda n, k, ell, g, a, b: partial_deg(n, k, ell, g, a, b),
            lambda n, k, ell, g, a, b: _oracle.oracle_sum(
                n, k, _oracle.partial_degenerate_scheme(g, a, b, ell)
            ),
            note="degenerate weight on blocks of size <= ell, free above",
        )
    )
    findings.append(
        _check(
            "thm20",
            "swapped-weight-orientation",
            "literal",
            cases,
            lambda n, k, ell, g, a, b: _oracle.oracle_sum(
                n, k, _oracle.partial_degenerate_swapped_scheme(g, a, b, ell)
            ),
            lambda n, k, ell, g, a, b: partial_deg(n, k, ell, g, a, b),
            note="weight-1 blocks below the threshold, degenerate above",
        )
    )
    order = 10
    series_cases = [
        (k, ell, a, b)
        for (_, a, b) in _partial_triples()
        for ell in (0, 1, 2, 3)
        for k in range(0, 6)
    ]

    def _parts(ell, a, b):
        # free blocks above ell and degenerate-weighted blocks up to ell
        big = _oracle.free_atleast_scheme(0, ell).block_series(order)
        smallp = _oracle.gen_restricted_scheme(a, b, 0, ell).block_series(order)
        return big, smallp

    def _lhs(k, ell, a, b):
        big, smallp = _parts(ell, a, b)
        total = TruncatedSeries.zero(order)
        for j in range(k + 1):
            total = total + binomial(k, j) * (big ** j) * (smallp ** (k - j))
        return total

    def _rhs(k, ell, a, b):
        big, smallp = _parts(ell, a, b)
        return (big + smallp) ** k

    findings.append(
        _check(
            "thm20",
            "binomial-rearrangement",
            "as printed",
            series_cases,
            _lhs,
            _rhs,
            note="series identity mod t^%d" % (order + 1),
        )
    )
    findings.append(_colored_report(min(nmax, 7)))
    return findings


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
    cases = [
        (n, k, ell, g, a, b)
        for (g, a, b) in _partial_triples()
        for ell in (0, 1, 2, 3)
        for n in range(nmax + 1)
        for k in range(min(n, 4) + 1)
    ]
    return [
        _check(
            "multinomial",
            "multinomial-decomposition",
            "literal",
            cases,
            lambda n, k, ell, g, a, b: partial_deg_multinomial(n, k, ell, g, a, b, literal=True),
            lambda n, k, ell, g, a, b: partial_deg(n, k, ell, g, a, b),
            note="block product subscripted 1..k and no 1/k!, as printed",
        ),
        _check(
            "multinomial",
            "multinomial-decomposition",
            "corrected",
            cases,
            lambda n, k, ell, g, a, b: partial_deg_multinomial(n, k, ell, g, a, b),
            lambda n, k, ell, g, a, b: partial_deg(n, k, ell, g, a, b),
            note="per-part subscripts and a 1/k! symmetry factor",
        ),
    ]


def _suite_derivative(nmax: int) -> list:
    cases = [
        (n1, k, ell, g, a, b)
        for (g, a, b) in _partial_triples()
        for ell in (0, 1, 2, 3)
        for n1 in range(1, nmax + 1)
        for k in range(1, n1 + 1)
    ]
    return [
        _check(
            "derivative",
            "derivative-recursion",
            "literal",
            cases,
            lambda n1, k, ell, g, a, b: partial_deg_derivative_recursion(
                n1, k, ell, g, a, b, literal=True
            ),
            lambda n1, k, ell, g, a, b: partial_deg(n1, k, ell, g, a, b),
            note="inner index k as printed",
        ),
        _check(
            "derivative",
            "derivative-recursion",
            "corrected",
            cases,
            lambda n1, k, ell, g, a, b: partial_deg_derivative_recursion(n1, k, ell, g, a, b),
            lambda n1, k, ell, g, a, b: partial_deg(n1, k, ell, g, a, b),
            note="inner index k-1",
        ),
    ]


def _closed_form_bell(n: int, j: int, a: Sequence[Fraction]) -> Fraction:
    """Displayed closed forms for j <= 3; factorials of negative numbers
    mark absent terms."""
    import math as _math

    def inv_fact(m: int) -> Fraction:
        return Fraction(1, _math.factorial(m)) if m >= 0 else Fraction(0)

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
    cases = [
        (n, j, seq) for seq in sequences for n in range(top + 1) for j in range(min(3, n) + 1)
    ]
    return [
        _check(
            "bell-closed-forms",
            "partition-coefficient-closed-forms",
            "as printed",
            cases,
            lambda n, j, seq: partial_bell(n, j, seq),
            lambda n, j, seq: _closed_form_bell(n, j, seq),
            note="displayed values for j = 0..3, generic coefficients",
        )
    ]


SUITES = {
    "bullets24": _suite_bullets24,
    "thm21": _suite_thm21,
    "threeterm": _suite_threeterm,
    "thm3": _suite_thm3,
    "s-gt-recursion": _suite_s_gt_recursion,
    "thm13": _suite_thm13,
    "thm20": _suite_thm20,
    "multinomial": _suite_multinomial,
    "derivative": _suite_derivative,
    "bell-closed-forms": _suite_bell_closed_forms,
}

SUITE_NAMES = tuple(SUITES) + ("all",)


def run_suite(name: str, nmax: int = 8) -> list:
    if nmax < 0:
        raise ValueError("nmax must be non-negative")
    if name == "all":
        return run_all(nmax)
    if name not in SUITES:
        raise ValueError("unknown suite %r (one of %s)" % (name, ", ".join(SUITE_NAMES)))
    return SUITES[name](nmax)


def run_all(nmax: int = 8) -> list:
    if nmax < 0:
        raise ValueError("nmax must be non-negative")
    findings = []
    for name in SUITES:
        findings.extend(SUITES[name](nmax))
    return findings


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
        "findings": [asdict(f) for f in findings],
    }
