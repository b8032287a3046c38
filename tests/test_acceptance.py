"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict
lines.  Every check is exact rational equality unless the criterion
itself states a bound.
"""

import hashlib
import json
import math
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

from stirlingkit import oracle as orc
from stirlingkit import schemes
from stirlingkit.asymptotics import asymptotic_partial, hsu_expansion
from stirlingkit.audit import audit_ok, run_all, run_suite
from stirlingkit.families import FAMILIES, FamilySpec, family_value


@contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print("ACCEPTANCE %d FAIL - %s" % (num, description))
        raise
    print("ACCEPTANCE %d PASS - %s" % (num, description))


# (alpha, beta, gamma) with beta != 0, alpha | beta, alpha | gamma
TRIPLES = [(0, 1, 0), (0, 1, 2), (1, 2, 0), (1, 3, 2), (2, 4, 2)]


def _oracle_specs():
    """Every family over the acceptance parameter grid, with its scheme."""
    pairs = []
    pairs.append((FamilySpec("classic"), schemes.classic_scheme()))
    for ell in (1, 2, 3):
        pairs.append((FamilySpec("restricted", ell=ell), schemes.restricted_scheme(ell)))
        pairs.append((FamilySpec("associated", ell=ell), schemes.associated_scheme(ell)))
    for lam in (0, 1, 2):
        pairs.append(
            (FamilySpec("degenerate", lam=lam), schemes.generalized_scheme(lam, 1, 0))
        )
    for a, b, g in TRIPLES:
        pairs.append(
            (
                FamilySpec("generalized", alpha=a, beta=b, gamma=g),
                schemes.generalized_scheme(a, b, g),
            )
        )
        for ell in (1, 2, 3):
            pairs.append(
                (
                    FamilySpec("gen_restricted", alpha=a, beta=b, gamma=g, ell=ell),
                    schemes.gen_restricted_scheme(a, b, g, ell),
                )
            )
        for ell in (0, 1, 2, 3):
            pairs.append(
                (
                    FamilySpec("partial_degenerate", gamma=g, alpha=a, beta=b, ell=ell),
                    schemes.partial_degenerate_scheme(g, a, b, ell),
                )
            )
    for g in (0, 1, 2):
        for ell in (0, 1, 2, 3):
            pairs.append(
                (FamilySpec("free_atleast", gamma=g, ell=ell), schemes.free_atleast_scheme(g, ell))
            )
    for r in (0, 1, 2):
        for s in (0, 1, 2, 3):
            pairs.append(
                (FamilySpec("colored_singleton", r=r, s=s), schemes.colored_singleton_scheme(r, s))
            )
    return pairs


def test_criterion_1_oracle_equivalence():
    with criterion(1, "canonical values equal brute-force enumeration, n <= 8"):
        for spec, scheme in _oracle_specs():
            for n in range(0, 9):
                for k in range(0, n + 1):
                    lhs = family_value(spec, n, k)
                    rhs = orc.oracle_sum(n, k, scheme)
                    assert lhs == rhs, (spec.describe(), n, k, lhs, rhs)


def test_criterion_2_cross_method_agreement():
    with criterion(2, "recursion, explicit sum and series paths agree, n <= 12"):
        specs = [FamilySpec("classic")]
        specs += [FamilySpec("restricted", ell=ell) for ell in (1, 2, 3)]
        specs += [FamilySpec("associated", ell=ell) for ell in (1, 2, 3)]
        specs += [FamilySpec("degenerate", lam=lam) for lam in (0, 1, 2, Fraction(1, 2))]
        specs += [
            FamilySpec("generalized", alpha=a, beta=b, gamma=g) for a, b, g in TRIPLES
        ]
        for spec in specs:
            has_explicit = FAMILIES[spec.tag].explicit is not None
            for n in range(0, 13):
                for k in range(0, n + 1):
                    canonical = family_value(spec, n, k)
                    assert family_value(spec, n, k, "recurrence") == canonical, (
                        spec.describe(),
                        n,
                        k,
                    )
                    if has_explicit:
                        assert family_value(spec, n, k, "explicit") == canonical, (
                            spec.describe(),
                            n,
                            k,
                        )


def test_criterion_3_special_value_identities():
    with criterion(3, "special-value identities hold exactly up to n = 15"):
        findings = run_suite("bullets24", nmax=15)
        wanted = {
            "boundary-values",
            "all-in-special-set",
            "single-block",
            "shift-to-special",
            "one-merged-pair",
            "parameter-scaling",
        }
        seen = set()
        for f in findings:
            if f.identity in wanted:
                assert f.verdict == "PASS", (f.identity, f.counterexample)
                seen.add(f.identity)
        assert seen == wanted


def test_criterion_4_inclusion_exclusion_as_printed():
    with criterion(4, "alternating special-set removal holds as printed, n <= 10"):
        findings = run_suite("thm3", nmax=10)
        assert findings and all(f.verdict == "PASS" for f in findings), [
            (f.identity, f.counterexample) for f in findings if f.verdict != "PASS"
        ]


EXPECTED_LITERAL_FAILURES = {
    "classic-recursion",
    "size-capped-recursion-bounds",
    "free-cell-recursion",
    "multinomial-decomposition",
    "derivative-recursion",
}


def test_criterion_5_identity_audit_pattern():
    with criterion(5, "audit verdict table matches the expected pattern, exit 0"):
        findings = run_all(nmax=8)
        literal_failed = {
            f.identity for f in findings if f.form == "literal" and f.verdict == "FAIL"
        }
        assert EXPECTED_LITERAL_FAILURES <= literal_failed, literal_failed
        for f in findings:
            if f.form in ("corrected", "as printed"):
                assert f.verdict == "PASS", (f.identity, f.counterexample)
        assert audit_ok(findings)
        proc = subprocess.run(
            [sys.executable, "-m", "stirlingkit.cli", "verify", "--suite", "all", "--nmax", "8"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        # the report bytes, pinned: every verdict, count and counterexample
        digest = hashlib.sha256(proc.stdout.encode()).hexdigest()
        assert digest == "e5ade9b8243bad924bef1b5f51c279efb400358ccd6f5224822919040cead907"
        proc = subprocess.run(
            [sys.executable, "-m", "stirlingkit.cli", "verify", "--suite", "all", "--nmax", "8",
             "--format", "json"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        digest = hashlib.sha256(proc.stdout.encode()).hexdigest()
        assert digest == "b7ba3a43d1932ee913404070f69a65c535170362867417cc35fb6efc61c04a69"


def test_criterion_6_bell_closed_forms():
    with criterion(6, "partition-coefficient closed forms match, n <= 12"):
        findings = run_suite("bell-closed-forms", nmax=12)
        assert findings and all(f.verdict == "PASS" for f in findings), [
            f.counterexample for f in findings if f.verdict != "PASS"
        ]


def test_criterion_7_expansion_exactness():
    with criterion(7, "expansion of (1+t)^lam at full depth is exactly 1/n!"):
        coeffs = [Fraction(1), Fraction(1)] + [Fraction(0)] * 7
        for lam in (Fraction(10), Fraction(17, 2), Fraction(-3)):
            for n in range(0, 9):
                value = hsu_expansion(coeffs[: n + 1], n, lam, n)
                assert value == Fraction(1, math.factorial(n)), (lam, n, value)


def test_criterion_8_asymptotic_convergence():
    with criterion(8, "relative error non-increasing in k and < 1/100 at k = 160"):
        start = time.monotonic()
        errors = []
        for k in (20, 40, 80, 160):
            row = asymptotic_partial(4, k, 1, 1, 2, 2, 3)
            assert row.rel_error is not None, row.note
            errors.append(row.rel_error)
        for previous, current in zip(errors, errors[1:]):
            assert current <= previous, errors
        assert errors[-1] < Fraction(1, 100), errors[-1]
        elapsed = time.monotonic() - start
        assert elapsed < 30, "k-sweep took %.1fs" % elapsed


def test_criterion_9_cli_contract():
    with criterion(9, "CLI prints exact values, JSON round-trips, exit codes 0/1/2"):
        base = [sys.executable, "-m", "stirlingkit.cli"]
        checks = [
            ("value --family classic --n 4 --k 2", "7"),
            ("value --family partial --n 2 --k 1 --ell 1 --gamma 0 --alpha 1 --beta 2", "1"),
            ("value --family generalized --n 3 --k 0 --alpha 1 --beta 2 --gamma 3", "6"),
        ]
        for args, expected in checks:
            proc = subprocess.run(base + args.split(), capture_output=True, text=True)
            assert proc.returncode == 0 and proc.stdout == expected + "\n", (
                args,
                proc.stdout,
                proc.stderr,
            )
        # lossless JSON round-trip
        proc = subprocess.run(
            base
            + "table --family partial --gamma 2 --alpha 1 --beta 3 --ell 2 --nmax 6 --format json".split(),
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        spec = FamilySpec("partial_degenerate", gamma=2, alpha=1, beta=3, ell=2)
        for row in json.loads(proc.stdout):
            assert Fraction(row["value"]) == family_value(spec, row["n"], row["k"])
        # exit 2 on usage errors
        proc = subprocess.run(
            base + "value --family classic --n 4".split(), capture_output=True
        )
        assert proc.returncode == 2
        proc = subprocess.run(base + ["value", "--family", "wrong"], capture_output=True)
        assert proc.returncode == 2
        # exit 1 on verification failure (rigged method disagreement)
        rig = (
            "import stirlingkit.cli as cli\n"
            "real = cli.family_value\n"
            "def rigged(spec, n, k, method='egf'):\n"
            "    v = real(spec, n, k, method)\n"
            "    return v + 1 if method == 'oracle' else v\n"
            "cli.family_value = rigged\n"
            "import sys\n"
            "sys.exit(cli.main(['value', '--family', 'classic', '--n', '5', '--k', '2', '--check']))\n"
        )
        proc = subprocess.run([sys.executable, "-c", rig], capture_output=True, text=True)
        assert proc.returncode == 1, proc.stderr
