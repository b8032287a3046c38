"""stirlingkit benchmark: cold command-line operations in a closed loop.

    python3 bench/run.py --workload triangle --seed 1 --seconds 20 --trace 0

Each operation is one `stirlingkit` CLI call in a fresh interpreter, so it
pays interpreter start, import and cold caches, as a command-line user does.
One client runs the operations one after another (a closed loop, at most one
child at a time).  The seed draws the operations (see workloads.py); each
operation's stdout is checked against a digest computed beforehand by an
independent route, and a wrong digest, an unexpected exit code or a timeout
counts as a failure.

--trace 0 times whole passes over the operation list until --seconds have
passed and reports the end-to-end metrics, in seconds at a fixed machine
speed: a stdlib-only reference child runs before every operation, and each
pass's times are scaled by how fast that reference ran in the pass.
--trace 1 runs one pass untraced and one pass under bench/tracer.py and
reports the per-layer metrics.  The metric names and units are those of
BENCHMARK.json.  Human-readable lines come first; the last line of stdout is
the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TRACER = BENCH / "tracer.py"

MIN_PASSES = 3
SETUP_EVERY = 4
OP_TIMEOUT_S = 60.0
# Stop starting work after this long, so that a run ends well within 180 s
# even when operations time out.
RUN_DEADLINE_S = 150.0

# The speed of a shared machine drifts by up to 1.8x in phases of seconds to
# minutes, and CPU time drifts with it.  This child measures that speed: the
# interpreter starts and does exact Fraction arithmetic, the kind of work
# stirlingkit does, but it imports nothing from the repository, so no change
# to stirlingkit moves it.  Timings are reported at the speed at which it
# takes REFERENCE_S seconds (its usual time on a 2-vCPU cloud VM).
REFERENCE_ARGS = ("-c", "import fractions as f; print(sum(f.Fraction(1, i) * f.Fraction(i + 1, i + 2)"
                        " for i in range(1, 6000)).denominator % 1000003)")
REFERENCE_S = 0.14


@dataclass
class Outcome:
    args: tuple
    ok: bool
    reason: str | None
    wall_s: float
    maxrss_kb: int
    stdout: bytes
    trace: dict | None = None


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _wait(pid: int, timeout: float):
    """Wait for pid at most `timeout` seconds, killing it after that.
    Returns (exit code, the child's own rusage, timed out)."""
    pidfd = os.pidfd_open(pid)
    reaped = False
    try:
        ready, _, _ = select.select([pidfd], [], [], max(timeout, 0.0))
        if not ready:
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
        reaped = True
    finally:
        if not reaped:
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            os.wait4(pid, 0)
        os.close(pidfd)
    return os.waitstatus_to_exitcode(status), usage, not ready


def run_op(args, digest: str, timeout: float = OP_TIMEOUT_S, traced: bool = False,
           command: tuple = ("-m", "stirlingkit.cli")) -> Outcome:
    """Run one CLI call (or `command` with args) in a fresh interpreter and
    check its stdout digest."""
    argv = [sys.executable, *((str(TRACER),) if traced else command), *args]
    with tempfile.TemporaryFile(dir=ROOT) as out, tempfile.TemporaryFile(dir=ROOT) as err, \
            tempfile.TemporaryFile(dir=ROOT) as trace:
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
            (os.POSIX_SPAWN_DUP2, err.fileno(), 2),
        ]
        if traced:
            actions.append((os.POSIX_SPAWN_DUP2, trace.fileno(), 3))
        start = perf_counter()
        pid = os.posix_spawn(sys.executable, argv, _child_env(), file_actions=actions)
        code, usage, timed_out = _wait(pid, timeout)
        wall = perf_counter() - start
        out.seek(0)
        stdout = out.read()
        err.seek(0)
        stderr = err.read()
        trace.seek(0)
        report = json.loads(trace.read() or "null") if traced and not timed_out else None
    if timed_out:
        reason = "timeout after %.0f s" % timeout
    elif code != 0:
        reason = "exit code %d: %s" % (code, stderr.decode(errors="replace").strip()[-300:])
    elif hashlib.sha256(stdout).hexdigest() != digest:
        reason = "stdout digest mismatch"
    else:
        reason = None
    return Outcome(tuple(args), reason is None, reason, wall, usage.ru_maxrss, stdout, report)


def _report_failure(outcome: Outcome) -> None:
    print("FAILED %s: %s" % (" ".join(outcome.args), outcome.reason), file=sys.stderr)


def quantile(values, q: float) -> float:
    """The q-quantile by linear interpolation between order statistics."""
    data = sorted(values)
    if len(data) == 1:
        return data[0]
    return statistics.quantiles(data, n=100, method="inclusive")[round(q * 100) - 1]


# -- environment ---------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def environment(seed: int) -> dict:
    src_hash = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src_hash.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "commit": _commit(),
        "src_sha256": src_hash.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "loadavg": list(os.getloadavg()),
        "seed": seed,
    }


# -- the two kinds of run ------------------------------------------------------


def _timeout(deadline: float) -> float | None:
    """Timeout for the next operation, or None once the run's deadline passed."""
    left = deadline - perf_counter()
    return min(OP_TIMEOUT_S, left) if left > 0 else None


def _timings(setup, runs, scale):
    """The timing metrics from (pass, outcome) samples, each wall time
    multiplied by scale[pass].  Each operation's cost is its median over the
    passes; a failed operation costs a full timeout."""
    cost = [statistics.median(o.wall_s * scale[p] for p, o in samples)
            if samples and all(o.ok for _, o in samples) else OP_TIMEOUT_S
            for samples in runs.values()]
    return {
        "setup_s": statistics.median(o.wall_s * scale[p] for p, o in setup),
        "ops_per_s": sum(t < OP_TIMEOUT_S for t in cost) / sum(cost),
        "op_s.p50": statistics.median(cost),
        "op_s.p90": quantile(cost, 0.90),
    }, cost


def end_to_end(ops, digests, seconds: float, deadline: float):
    """At least MIN_PASSES passes over ops, more while they fit in `seconds`.
    The reference child runs before every operation, and a trivial invocation
    (a setup_s sample) before every SETUP_EVERY-th one, so that reference and
    setup samples are spread over the run."""
    setup_digest = hashlib.sha256(workloads.SETUP_STDOUT).hexdigest()
    reference_digest = hashlib.sha256(reference_stdout()).hexdigest()
    references, setup, runs = [], [], {args: [] for args in ops}
    start = perf_counter()
    passes = 0
    while True:
        pass_start = perf_counter()
        for i, args in enumerate(ops):
            calls = [(REFERENCE_ARGS, reference_digest, references, ()),
                     (args, digests[args], runs[args], ("-m", "stirlingkit.cli"))]
            if i % SETUP_EVERY == 0:
                calls.insert(1, (workloads.SETUP_ARGS, setup_digest, setup, ("-m", "stirlingkit.cli")))
            for call, digest, samples, command in calls:
                timeout = _timeout(deadline)
                if timeout is None:
                    break
                samples.append((passes, run_op(call, digest, timeout, command=command)))
        passes += 1
        now = perf_counter()
        last = now - pass_start
        if now + last > deadline or (passes >= MIN_PASSES and now - start + last > seconds):
            break
    elapsed = perf_counter() - start
    # Each pass's speed is the median time of its reference samples; a pass's
    # wall times are scaled to the speed at which the reference takes
    # REFERENCE_S.  An operation's median over the passes then no longer
    # depends on which phase of the machine the run fell into.
    speed = [statistics.median([o.wall_s for q, o in references if q == p and o.ok] or [REFERENCE_S])
             for p in range(passes)]
    values, cost = _timings(setup, runs, [REFERENCE_S / s for s in speed])
    raw, _ = _timings(setup, runs, [1.0] * passes)
    everything = [o for _, o in setup] + [o for samples in runs.values() for _, o in samples]
    values["peak_rss_mb"] = max(o.maxrss_kb for o in everything) / 1024
    for (args, samples), t in zip(runs.items(), cost):
        print("# op %7.3f s scaled, unscaled samples %-34s %s" % (
            t, " ".join("%.3f" % o.wall_s for _, o in samples), " ".join(args)))
    print("# reference median per pass (s): " + " ".join("%.3f" % s for s in speed))
    print("# unscaled wall times: " + ", ".join("%s %.4g" % item for item in raw.items()))
    notes = {"passes": passes, "measured_s": elapsed, "setup_samples": len(setup)}
    return values, everything + [o for _, o in references], notes


def reference_stdout() -> bytes:
    """The reference child's stdout, computed in this process."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        exec(REFERENCE_ARGS[1], {})
    return buf.getvalue().encode()


def per_layer(ops, digests, names, deadline: float):
    """One untraced and one traced pass over ops; per-layer metrics from the trace."""
    plain, traced = [], []
    for args in ops:
        for samples, is_traced in ((plain, False), (traced, True)):
            timeout = _timeout(deadline)
            if timeout is None:
                break
            samples.append(run_op(args, digests[args], timeout, traced=is_traced))
    for p, t in zip(plain, traced):
        if t.ok and t.stdout != p.stdout:
            t.ok, t.reason = False, "traced stdout differs from untraced stdout"
    reports = [o.trace for o in traced if o.trace]
    calls, self_s, total_s, counts = Counter(), Counter(), Counter(), Counter()
    hits = misses = entries = 0
    for r in reports:
        calls.update(r["calls"])
        self_s.update(r["self_s"])
        total_s.update(r["total_s"])
        counts.update(r["counts"])
        hits += r["cache"]["hits"]
        misses += r["cache"]["misses"]
        entries = max(entries, r["cache"]["entries"])
    values = {
        "series.mul.calls": calls["series.mul"],
        "series.mul.terms": counts["series.mul.terms"],
        "series.mul.self_s": self_s["series.mul"],
        "series.pow.calls": calls["series.pow"],
        "series.pow.self_s": self_s["series.pow"],
        "series.build.self_s": self_s["series.build"],
        "series.egf_coeff.calls": calls["series.egf_coeff"],
        "exact.ffd.calls": calls["exact.ffd"],
        "exact.ffd.self_s": self_s["exact.ffd"],
        "exact.format.self_s": self_s["exact.format"],
        "families.value.calls": calls["families.value"],
        "families.self_s": self_s["families.value"] + self_s["families.other"],
        "values.self_s": self_s["values"],
        "recursion.calls": calls["recursion"],
        "recursion.self_s": self_s["recursion"],
        "explicit.self_s": self_s["explicit"],
        "oracle.pairs": counts["oracle.pairs"],
        "oracle.enumerate.self_s": self_s["oracle.enumerate"],
        "oracle.sum.calls": calls["oracle.sum"],
        "oracle.sum.self_s": self_s["oracle.sum"],
        "asymptotics.partitions": counts["asymptotics.partitions"],
        "asymptotics.partial_bell.self_s": self_s["asymptotics.partial_bell"],
        "asymptotics.hsu.self_s": self_s["asymptotics.hsu"],
        "asymptotics.row.self_s": self_s["asymptotics.row"],
        "audit.cases": counts["audit.cases"],
        "cli.self_s": self_s["cli"],
        "cli.out_bytes": sum(len(o.stdout) for o in traced),
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "cache.entries": entries,
        "trace_overhead": sum(o.wall_s for o in traced) / sum(o.wall_s for o in plain),
    }
    for name in names:
        if name.startswith("audit.") and name.endswith(".s"):
            values[name] = total_s[name[:-2]]
    notes = {"ops": len(traced), "traced_s": sum(o.wall_s for o in traced),
             "untraced_s": sum(o.wall_s for o in plain)}
    return values, plain + traced, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = perf_counter() + RUN_DEADLINE_S
    # SystemExit on SIGTERM, so that _wait kills and reaps a running child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "stirlingkit" / "cli.py").is_file() or not spec_path.is_file():
        print("error: run from a stirlingkit checkout (no %s or %s)" % (SRC, spec_path),
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(SRC))
    if args.workload not in workloads.WORKLOADS:
        parser.error("unknown workload %r (one of %s)"
                     % (args.workload, ", ".join(workloads.WORKLOADS)))

    print("# env " + json.dumps(environment(args.seed)), flush=True)
    ops = workloads.operations(args.workload, args.seed)
    prep_start = perf_counter()
    digests = {}
    for op in ops:
        try:
            digests[op] = workloads.expected_digest(op)
        except Exception as exc:  # a broken reference route fails the op, not the run
            print("reference for %s failed: %r" % (" ".join(op), exc), file=sys.stderr)
            digests[op] = "no reference"
    prep_s = perf_counter() - prep_start

    if args.trace:
        declared = spec["per_layer"]
        values, outcomes, notes = per_layer(ops, digests, [m["name"] for m in declared], deadline)
    else:
        declared = spec["end_to_end"]
        values, outcomes, notes = end_to_end(ops, digests, args.seconds, deadline)
    failed = [o for o in outcomes if not o.ok]
    for outcome in failed:
        _report_failure(outcome)

    print("# workload %s seed %d trace %d: %d operations per pass, reference prep %.2f s, %s"
          % (args.workload, args.seed, args.trace, len(ops), prep_s,
             ", ".join("%s %s" % (k, round(v, 3) if isinstance(v, float) else v)
                       for k, v in notes.items())))
    metrics = {}
    for m in declared:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print("# %-32s %14.6g %s" % (m["name"], values[m["name"]], m["unit"]))
    print("# %-32s %14.6g %s (%d of %d calls)" % (
        "fail_frac", len(failed) / len(outcomes), "ratio", len(failed), len(outcomes)))
    print(json.dumps({
        "correct": not failed and len(outcomes) > 0,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
