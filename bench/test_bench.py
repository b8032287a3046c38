"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest bench
"""

from __future__ import annotations

import hashlib
import sys

import pytest

import run
import tracer
import workloads

sys.path.insert(0, str(run.SRC))

SMALL_OPS = [
    ("table", "--family", "gen_restricted", "--alpha=1/2", "--beta=-5/3", "--gamma=2/3",
     "--ell", "2", "--nmax", "6"),
    ("value", "--family", "partial_degenerate", "--alpha=1/2", "--beta=-5/3", "--gamma=2/3",
     "--ell", "2", "--n", "6", "--k", "2", "--check"),
    ("series", "--family", "generalized", "--alpha=1/2", "--beta=-5/3", "--gamma=2/3",
     "--k", "2", "--order", "8"),
    ("asympt", "--n", "6", "--k", "9", "--m", "6", "--alpha=1/2", "--beta=-5/3",
     "--gamma=2/3", "--ell", "2"),
    ("asympt", "--n", "8", "--k", "6,8,10", "--m", "3", "--alpha=1/2", "--beta=-5/3",
     "--gamma=2/3", "--ell", "2", "--mode", "literal"),
]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_operations(workload):
    assert workloads.operations(workload, 7) == workloads.operations(workload, 7)
    assert workloads.operations(workload, 7) != workloads.operations(workload, 8)


def test_perturbed_digest_counts_as_failure():
    digest = hashlib.sha256(workloads.SETUP_STDOUT).hexdigest()
    assert run.run_op(workloads.SETUP_ARGS, digest).ok
    perturbed = digest[:-1] + ("1" if digest[-1] == "0" else "0")
    outcome = run.run_op(workloads.SETUP_ARGS, perturbed)
    assert not outcome.ok
    assert outcome.reason == "stdout digest mismatch"


def test_reference_child_prints_its_in_process_result():
    digest = hashlib.sha256(run.reference_stdout()).hexdigest()
    outcome = run.run_op(run.REFERENCE_ARGS, digest, command=())
    assert outcome.ok, outcome.reason


def test_timings_scale_each_pass_by_its_own_factor():
    def sample(pass_no, wall):
        return pass_no, run.Outcome((), True, None, wall, 0, b"")

    setup = [sample(0, 0.2), sample(1, 0.1)]
    runs = {("a",): [sample(0, 2.0), sample(1, 1.0)], ("b",): [sample(0, 4.0), sample(1, 2.0)]}
    values, cost = run._timings(setup, runs, [0.5, 1.0])
    assert cost == [1.0, 2.0]
    assert values["setup_s"] == 0.1
    assert values["ops_per_s"] == 2 / 3


def test_timeout_counts_as_failure():
    outcome = run.run_op(workloads.SETUP_ARGS, "unused", timeout=0.001)
    assert not outcome.ok
    assert outcome.reason.startswith("timeout")


@pytest.mark.parametrize("args", SMALL_OPS, ids=lambda args: args[0])
def test_reference_route_matches_cli_and_trace(args):
    digest = workloads.expected_digest(args)
    plain = run.run_op(args, digest)
    traced = run.run_op(args, digest, traced=True)
    assert plain.ok, plain.reason
    assert traced.ok, traced.reason
    assert traced.stdout == plain.stdout
    assert traced.trace["calls"]["cli"] == 1


def _bindings(modules, classes, suites) -> dict:
    found = {(m.__name__, key): value for m in modules for key, value in vars(m).items()}
    found.update({(c.__qualname__, key): value for c in classes for key, value in vars(c).items()})
    found.update({("SUITES", key): value for key, value in suites.items()})
    return found


def test_wrappers_restore_the_original_functions():
    modules = tracer._stirlingkit_modules()
    from stirlingkit import audit, exact, families, series

    classes = [series.TruncatedSeries, families.ValueTable]
    before = _bindings(modules, classes, audit.SUITES)
    ffd = exact.falling_factorial_deg
    t = tracer.Tracer()
    t.install()
    try:
        during = _bindings(modules, classes, audit.SUITES)
        changed = {key for key, value in before.items() if during[key] is not value}
        bound_ffd = {key for key, value in before.items() if value is ffd}
        assert len(bound_ffd) >= 6
        assert bound_ffd <= changed
        assert ("TruncatedSeries", "__rmul__") in changed
        assert ("SUITES", "thm21") in changed
    finally:
        t.uninstall()
    after = _bindings(modules, classes, audit.SUITES)
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
