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
runs one suite, or every suite in order for "all".  The suites module
names them, so the command line lists them without importing this one.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Iterable, Sequence

from . import oracle as _oracle, schemes as _schemes
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
from .suites import SUITE_NAMES, SUITES as _SUITE_ORDER

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


def _score(suite: str, identity: str, cases: list, reference: Callable, *forms: tuple) -> list:
    """Score every form of one identity against one reference on one case
    list.  Each form is a (form, function, note) entry; the findings keep
    the order of the entries, and a counterexample is the first failing
    case in the order of the list."""
    findings = []
    for form, function, note in forms:
        checked = failed = 0
        first = None
        for case in cases:
            left = function(*case)
            right = reference(*case)
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
            ("as printed",
             lambda n, k, a, b, g, c: gen_stirling(n, k, c * a, c * b, c * g),
             None),
        ),
        *_score(
            "bullets24",
            "block-weight-fold",
            _cells(INTEGER_TRIPLES, min(nmax, 7)),
            gen_stirling,
            ("literal",
             lambda n, k, a, b, g: _oracle.oracle_sum_blocksum(
                 n, k, _schemes.generalized_scheme(a, b, g)),
             "partition weight read as the sum of block weights"),
            ("corrected",
             lambda n, k, a, b, g: _oracle.oracle_sum(n, k, _schemes.generalized_scheme(a, b, g)),
             "partition weight is the product of block weights"),
        ),
    ]


def _suite_thm3(nmax: int) -> list:
    gammas = (Fraction(0), Fraction(1), Fraction(2), Fraction(1, 2), Fraction(-3, 2), Fraction(5))
    cases = [(n, k, g, ell) for ell in (1, 2, 3) for n, k in _cells([()], nmax) for g in gammas]
    return [
        *_score(
            "thm3",
            "alternating-special-set-removal",
            cases,
            lambda n, k, g, ell: Fraction(stirling2_associated(n, k, ell)),
            ("as printed", associated_from_free, "inclusion-exclusion over the special set"),
        ),
        *_score(
            "thm3",
            "gamma-independence",
            cases,
            lambda n, k, g, ell: associated_from_free(n, k, 0, ell),
            ("as printed", associated_from_free, "the alternating sum does not depend on gamma"),
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
    return [
        *_score(
            "thm13",
            "free-weighted-convolution",
            _mixed_cells(nmax),
            partial_deg,
            ("as printed", partial_deg_convolution, None),
        ),
        *_score(
            "thm13",
            "element-shift-recursion",
            _mixed_cells(nmax, first=1),
            partial_deg,
            ("as printed", partial_deg_recursion, None),
        ),
    ]


def _suite_thm20(nmax: int) -> list:
    cases = _mixed_cells(min(nmax, 8))
    order = 10
    series_cases = [
        (k, ell, a, b) for (a, b, _) in INTEGER_TRIPLES for ell in (0, 1, 2, 3) for k in range(6)
    ]

    def _parts(ell, a, b):
        # free blocks above ell and degenerate-weighted blocks up to ell
        big = _schemes.free_atleast_scheme(0, ell).block_series(order)
        smallp = _schemes.gen_restricted_scheme(a, b, 0, ell).block_series(order)
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

    return [
        *_score(
            "thm20",
            "mixed-cell-egf",
            cases,
            lambda n, k, ell, g, a, b: _oracle.oracle_sum(
                n, k, _schemes.partial_degenerate_scheme(g, a, b, ell)
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
                 n, k, _schemes.partial_degenerate_swapped_scheme(g, a, b, ell)),
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
        "findings": [asdict(f) for f in findings],
    }
