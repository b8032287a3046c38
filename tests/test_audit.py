import pytest

from stirlingkit import audit
from stirlingkit.audit import (
    AuditFinding,
    SUITE_NAMES,
    audit_ok,
    report_json,
    report_text,
    run_all,
    run_suite,
)

EXPECTED_LITERAL_FAILURES = {
    "classic-recursion",
    "size-capped-recursion-bounds",
    "free-cell-recursion",
    "multinomial-decomposition",
    "derivative-recursion",
    "three-term-recurrence",
    "block-weight-fold",
    "swapped-weight-orientation",
}


@pytest.fixture(scope="module")
def findings():
    return run_all(nmax=6)


def test_every_corrected_form_passes(findings):
    for f in findings:
        if f.form in ("corrected", "as printed"):
            assert f.verdict == "PASS", (f.identity, f.counterexample)
    assert audit_ok(findings)


def test_literal_failures_match_expectation(findings):
    failed = {f.identity for f in findings if f.form == "literal" and f.verdict == "FAIL"}
    assert failed == EXPECTED_LITERAL_FAILURES


def test_counterexamples_recorded(findings):
    for f in findings:
        if f.verdict == "FAIL":
            assert f.counterexample
        if f.verdict == "PASS":
            assert f.counterexample is None


def test_report_text(findings):
    text = report_text(findings)
    assert "classic-recursion" in text
    assert "audit OK" in text
    assert "FAIL" in text  # the literal rows


def test_report_json(findings):
    payload = report_json(findings, 6)
    assert payload["ok"] is True
    assert payload["nmax"] == 6
    assert {f["identity"] for f in payload["findings"]} >= EXPECTED_LITERAL_FAILURES


def test_individual_suites():
    for name in SUITE_NAMES:
        if name == "all":
            continue
        result = run_suite(name, nmax=4)
        assert result and all(isinstance(f, AuditFinding) for f in result)
        assert all(f.suite == name for f in result)


def test_score_evaluates_the_reference_once_per_case():
    calls = []

    def reference(n, k):
        calls.append((n, k))
        return n + k

    cases = [(1, 2), (3, 4), (2, 2)]
    findings = audit._score(
        "suite", "identity", cases, reference,
        ("literal", lambda n, k: n * k, None),
        ("corrected", lambda n, k: n + k, None),
    )
    assert calls == cases
    assert [(f.form, f.verdict, f.checked, f.failed) for f in findings] == [
        ("literal", "FAIL", 3, 2),
        ("corrected", "PASS", 3, 0),
    ]
    assert findings[0].counterexample == "at (1, 2): 2 != 3"


def test_unknown_suite():
    with pytest.raises(ValueError):
        run_suite("nonsense", 4)
    # the closed forms are displayed, so scored, only up to j = 3
    with pytest.raises(ValueError, match="j <= 3"):
        audit._closed_form_bell(6, 4, [1] * 7)


def test_the_free_cell_recursion_reads_no_core(monkeypatch):
    # the corrected free-cell rule sums size-floored counts; it takes them
    # from the associated scheme's recurrence, so the suite scores the same
    # verdicts with every function of core refused
    from stirlingkit import core, schemes

    def refuse(*args):
        raise AssertionError("the free-cell recursion read core")

    for name in core.__all__:
        for module in (core, audit):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    schemes.free_atleast_scheme.cache_clear()  # no column is filled yet
    found = run_suite("s-gt-recursion", 5)
    assert [(f.form, f.verdict) for f in found] == [("literal", "FAIL"), ("corrected", "PASS")]
    for ell in (1, 2, 3, 4):
        assert schemes.associated_scheme(ell)._rows, ell


def test_colored_singleton_report(findings):
    reports = [f for f in findings if f.form == "report"]
    assert len(reports) == 1
    assert "s in [1]" in reports[0].note
    assert reports[0].verdict == "REPORT"


def test_thm20_left_side_is_the_series_expression(monkeypatch):
    # one exact sum per coefficient gives the series that the chained
    # TruncatedSeries operations give, for every case the audit scores
    from stirlingkit.exact import binomial
    from stirlingkit.schemes import free_atleast_scheme, gen_restricted_scheme
    from stirlingkit.series import TruncatedSeries, block_series

    scored = {}
    real = audit._score

    def spy(suite, identity, cases, reference, *forms):
        scored[identity] = (cases, forms)
        return real(suite, identity, cases, reference, *forms)

    monkeypatch.setattr(audit, "_score", spy)
    run_suite("thm20", 8)
    cases, ((_, lhs, _),) = scored["binomial-rearrangement"]
    assert len(cases) == 120
    for k, ell, a, b in cases:
        left = lhs(k, ell, a, b)
        order = left.order
        big = block_series(free_atleast_scheme(0, ell), order)
        smallp = block_series(gen_restricted_scheme(a, b, 0, ell), order)
        expected = TruncatedSeries.zero(order)
        for j in range(k + 1):
            expected = expected + binomial(k, j) * big ** j * smallp ** (k - j)
        assert left == expected, (k, ell, a, b)


def test_a_wrong_binomial_fails_the_rearrangement(monkeypatch):
    from stirlingkit import exact

    monkeypatch.setattr(audit, "binomial", lambda n, k: exact.binomial(n, k) + (k == 1))
    findings = {f.identity: f for f in run_suite("thm20", 8)}
    rearrangement = findings["binomial-rearrangement"]
    assert rearrangement.verdict == "FAIL" and rearrangement.counterexample
    assert findings["mixed-cell-egf"].verdict == "PASS"


def test_a_finding_is_a_named_tuple():
    finding = AuditFinding("s", "i", "literal", "PASS", 3, 0)
    assert (finding.counterexample, finding.note) == (None, None)
    assert finding._asdict() == {
        "suite": "s", "identity": "i", "form": "literal", "verdict": "PASS",
        "checked": 3, "failed": 0, "counterexample": None, "note": None,
    }
    with pytest.raises(AttributeError):
        finding.verdict = "FAIL"
