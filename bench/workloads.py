"""Operation lists for the benchmark workloads, and the reference outputs
that check them.

An operation is the argument list of one `stirlingkit` command-line call.
Sizes (nmax, n, k, order, d) are fixed per workload so that every seed
does the same amount of work.  The seed orders the operations within a pass
and draws the parameters whose value does not change the cost.

Every operation has an expected stdout, produced in-process by a route
other than the one the operation takes:

    table / value   the same command with --method recurrence
    series          coefficients rebuilt from the recurrence route
    asympt          exact side by partial_deg_rec, partial Bell sums by a
                    series power instead of the partition walk
    verify          a recorded digest of today's audit report
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import random
from fractions import Fraction
from unittest import mock

WORKLOADS = ("triangle", "crosscheck", "asymptotic")

# `verify --suite all --nmax 8` as of the first benchmarked commit: every
# corrected / as-printed form passes and eight literal forms FAIL.  The audit
# seeds its own cases, so the report does not depend on the benchmark seed.
VERIFY_ARGS = ("verify", "--suite", "all", "--nmax", "8")
VERIFY_SHA256 = "e5ade9b8243bad924bef1b5f51c279efb400358ccd6f5224822919040cead907"

# A trivial invocation: interpreter start, package import and argument parsing.
SETUP_ARGS = ("value", "--family", "classic", "--n", "1", "--k", "1")
SETUP_STDOUT = b"1\n"


def _rational(rng: random.Random, q: int) -> str:
    """1/q with a seeded sign: non-zero and non-integer, so every seed takes the
    same routes (beta != 0, lambda != 0) and does rational, not integer, work."""
    return "%s1/%d" % (rng.choice(("", "-")), q)


def _gen(rng: random.Random) -> tuple:
    return ("--alpha=" + _rational(rng, 2), "--beta=" + _rational(rng, 3),
            "--gamma=" + _rational(rng, 2))


# Where the series layer does the work, the cost depends on the parameters
# themselves (lambda = -1/3 costs 1.45x lambda = 1/3 at nmax 20; flipping the
# sign of alpha moves an order-200 series by 1.3x), so those workloads use one
# fixed set and the seed only orders the operations.
GEN = ("--alpha=1/2", "--beta=-1/3", "--gamma=1/2")
LAMBDA = "--lambda=1/3"


def _triangle(rng: random.Random) -> list:
    return [
        ("table", "--family", "generalized", *GEN, "--nmax", "20"),
        ("table", "--family", "gen_restricted", *GEN, "--ell", "2", "--nmax", "20"),
        ("table", "--family", "partial_degenerate", *GEN, "--ell", "2", "--nmax", "20"),
        ("table", "--family", "degenerate", LAMBDA, "--nmax", "20"),
        ("table", "--family", "classic", "--nmax", "22"),
        ("table", "--family", "colored_singleton", "--r", "2", "--s", "3", "--nmax", "20"),
        ("value", "--family", "classic", "--n", "200", "--k", "100"),
        ("series", "--family", "generalized", *GEN, "--k", "8", "--order", "200"),
    ]


def _crosscheck(rng: random.Random) -> list:
    def check(n: int, k: int, *family: str) -> tuple:
        return ("value", *family, "--n", str(n), "--k", str(k), "--check")

    ell = lambda: str(rng.choice((2, 3)))  # noqa: E731
    return [
        VERIFY_ARGS,
        check(9, 4, "--family", "classic"),
        check(9, 5, "--family", "restricted", "--ell", ell()),
        check(9, 3, "--family", "associated", "--ell", ell()),
        check(9, 4, "--family", "degenerate", "--lambda=" + _rational(rng, 3)),
        check(10, 4, "--family", "generalized", *_gen(rng)),
        check(9, 4, "--family", "gen_restricted", *_gen(rng), "--ell", ell()),
        check(9, 3, "--family", "free_atleast", "--gamma=" + _rational(rng, 2), "--ell", ell()),
        check(9, 3, "--family", "partial_degenerate", *_gen(rng), "--ell", ell()),
        check(9, 3, "--family", "colored_singleton",
              "--r", str(rng.choice((2, 3))), "--s", str(rng.choice((2, 3)))),
        ("table", "--family", "partial_degenerate", *_gen(rng),
         "--ell", ell(), "--nmax", "9", "--method", "oracle"),
    ]


def _asymptotic(rng: random.Random) -> list:
    def asympt(n: int, ks: str, m: int, *extra: str) -> tuple:
        return ("asympt", "--n", str(n), "--k", ks, "--m", str(m), *GEN, "--ell", "2", *extra)

    # the offset d and the number of expansion terms m barely change the cost
    normalized = [asympt(rng.choice((1, 2, 3)), str(k), rng.choice((2, 3, 4)))
                  for k in (40, 120, 200)]
    rows = [asympt(d, "50", d) for d in (30, 36)]
    literal = [asympt(n, "%d,%d,%d" % (n - 2, n, n + 2), 3, "--mode", "literal")
               for n in (30, 36)]
    return normalized + rows + literal


_PASSES = {"triangle": _triangle, "crosscheck": _crosscheck, "asymptotic": _asymptotic}


def operations(workload: str, seed: int) -> list:
    """One pass of the workload: a list of CLI argument tuples."""
    if workload not in _PASSES:
        raise ValueError("unknown workload %r (one of %s)" % (workload, ", ".join(WORKLOADS)))
    rng = random.Random("%s:%d" % (workload, seed))
    ops = _PASSES[workload](rng)
    rng.shuffle(ops)
    return ops


# -- reference outputs ---------------------------------------------------------


def _run_cli(args) -> bytes:
    from stirlingkit import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(args))
    if code != 0:
        raise RuntimeError("reference route exited %d: %s" % (code, " ".join(args)))
    return buf.getvalue().encode()


def _with_recurrence(args) -> tuple:
    out = [a for a in args if a != "--check"]
    if "--method" in out:
        i = out.index("--method")
        del out[i:i + 2]
    return (*out, "--method", "recurrence")


def _recurrence_egf(spec, k, order):
    from stirlingkit.families import family_value
    from stirlingkit.series import TruncatedSeries

    return TruncatedSeries(
        [family_value(spec, n, k, "recurrence") / math.factorial(n) for n in range(order + 1)],
        order,
    )


def _bell_by_power():
    """partial_bell as [t^n] A(t)^(n-j) / (n-j)!, A = sum_{i>=1} a_i t^i,
    keeping every power of A for the j-sweep of one expansion."""
    from stirlingkit.series import TruncatedSeries

    powers = {}

    def bell(n, j, a):
        if not 0 <= j <= n:
            raise ValueError("need 0 <= j <= n, got j=%r n=%r" % (j, n))
        key = (n, tuple(a[1:n + 1]))
        if key not in powers:
            base = TruncatedSeries([0, *key[1]], n)
            seq = [TruncatedSeries.one(n)]
            for _ in range(n):
                seq.append(seq[-1] * base)
            powers[key] = seq
        return powers[key][n - j].coefficient(n) / math.factorial(n - j)

    return bell


def expected_digest(args) -> str:
    """sha256 of the operation's expected stdout, by an independent route."""
    if tuple(args) == VERIFY_ARGS:
        return VERIFY_SHA256
    from stirlingkit import asymptotics, cli, partial

    command = args[0]
    if command in ("table", "value"):
        stdout = _run_cli(_with_recurrence(args))
    elif command == "series":
        with mock.patch.object(cli, "family_egf", _recurrence_egf):
            stdout = _run_cli(args)
    elif command == "asympt":
        with mock.patch.object(asymptotics, "partial_deg", partial.partial_deg_rec), \
                mock.patch.object(asymptotics, "partial_bell", _bell_by_power()):
            stdout = _run_cli(args)
    else:
        raise ValueError("no reference route for %r" % (args,))
    return hashlib.sha256(stdout).hexdigest()
