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


def test_colored_singleton_report(findings):
    reports = [f for f in findings if f.form == "report"]
    assert len(reports) == 1
    assert "s in [1]" in reports[0].note
    assert reports[0].verdict == "REPORT"
