"""Per-layer tracing of one stirlingkit command-line call.

Run as a script, this file takes the place of `python -m stirlingkit.cli`:

    python3 bench/tracer.py <cli arguments...>

It wraps the public functions of each layer, runs the CLI, and on exit writes
one JSON object with per-span calls, self time and total time, the work
counters, and the state of every functools cache to file descriptor 3.
Stdout and the exit code are the CLI's own.

A wrapped name is patched in every stirlingkit module that bound it (with
`from .x import f` a function is bound once per importing module), in the
class dictionary for methods, and in `audit.SUITES` for the audit suites.
Spans close into per-name totals in memory; nothing is written until exit.
A span's self time is its duration minus the time of the spans it encloses.
"""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import sys
from collections import Counter
from functools import partial
from time import perf_counter

# span name -> (module, attribute) pairs; "Class.method" patches the class.
SPANS = {
    "series.mul": [("series", "TruncatedSeries.__mul__")],
    "series.pow": [("series", "TruncatedSeries.__pow__")],
    "series.build": [("series", name) for name in (
        "exp_series", "degenerate_exp", "incomplete_exp", "incomplete_degenerate_exp")],
    "series.egf_coeff": [("series", "egf_coeff")],
    "exact.ffd": [("exact", "falling_factorial_deg")],
    "exact.format": [("exact", "format_rational")],
    "families.value": [("families", "family_value")],
    "families.other": [("families", "family_egf"), ("families", "ValueTable.value")],
    "values": [
        ("core", "stirling2"), ("core", "stirling2_restricted"), ("core", "stirling2_associated"),
        ("generalized", "gen_stirling"), ("generalized", "degenerate_stirling"),
        ("incomplete", "gen_restricted"), ("incomplete", "free_atleast"),
        ("partial", "partial_deg"), ("partial", "colored_singleton"),
    ],
    "recursion": [
        ("core", "stirling2_rec"), ("core", "stirling2_rec_literal"),
        ("core", "stirling2_restricted_rec"), ("core", "stirling2_associated_rec"),
        ("generalized", "gen_stirling_rec"), ("incomplete", "gen_restricted_rec"),
        ("incomplete", "free_atleast_rec"), ("partial", "partial_deg_rec"),
        ("partial", "colored_singleton_rec"),
    ],
    "explicit": [("generalized", "gen_stirling_explicit")],
    "oracle.sum": [("oracle", "oracle_sum"), ("oracle", "oracle_sum_blocksum")],
    "asymptotics.partial_bell": [("asymptotics", "partial_bell")],
    "asymptotics.hsu": [("asymptotics", "hsu_expansion")],
    "asymptotics.row": [("asymptotics", "asymptotic_partial")],
    "cli": [("cli", "main")],
}
GENERATOR_SPANS = {"oracle.enumerate": ("oracle", "enumerate_mixed")}
COUNTED = {"asymptotics.partitions": ("asymptotics", "integer_partitions")}


def _mul_terms(counts, args, result) -> None:
    """Coefficient products a series multiply may form, computed from its
    truncation order N: (N+1)(N+2)/2 for series times series, N+1 for a scalar."""
    left, right = args
    n = left.order
    counts["series.mul.terms"] += (n + 1) * (n + 2) // 2 if hasattr(right, "order") else n + 1


def _suite_cases(counts, args, result) -> None:
    counts["audit.cases"] += sum(finding.checked for finding in result)


class Tracer:
    """Span and counter totals for one process, plus the patches that feed them."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = Counter()
        self.total_s = Counter()
        self.counts = Counter()
        self._child_time = [0.0]
        self._patches = []
        self._caches = []

    # -- spans -----------------------------------------------------------------

    def _close(self, name: str, start: float) -> None:
        duration = perf_counter() - start
        inner = self._child_time.pop()
        self._child_time[-1] += duration
        self.self_s[name] += duration - inner
        self.total_s[name] += duration

    def span(self, name: str, fn, count=None):
        """fn timed as span `name`; count(counts, args, result) adds work counters."""

        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            self._child_time.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, start)
            if count is not None:
                count(self.counts, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def generator_span(self, name: str, count_name: str, fn):
        """Time each resumption of the generator fn returns and count its items."""

        def iterate(it):
            while True:
                self._child_time.append(0.0)
                start = perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(name, start)
                self.counts[count_name] += 1
                yield item

        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            return iterate(fn(*args, **kwargs))

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, count_name: str, fn):
        """fn untimed, adding the length of each result to `count_name`."""

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.counts[count_name] += len(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching --------------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function wherever stirlingkit bound it."""
        modules = _stirlingkit_modules()
        self._caches = _cached_callables(modules)
        for name, targets in SPANS.items():
            count = _mul_terms if name == "series.mul" else None
            for module, attr in targets:
                self._rebind(modules, module, attr, lambda fn: self.span(name, fn, count))
        for name, (module, attr) in GENERATOR_SPANS.items():
            self._rebind(modules, module, attr,
                         lambda fn: self.generator_span(name, "oracle.pairs", fn))
        for name, (module, attr) in COUNTED.items():
            self._rebind(modules, module, attr, lambda fn: self.counted(name, fn))
        suites = sys.modules["stirlingkit.audit"].SUITES
        for suite, original in list(suites.items()):
            self._patches.append((suites.__setitem__, suite, original))
            suites[suite] = self.span("audit." + suite, original, _suite_cases)

    def _rebind(self, modules, module: str, attr: str, wrap) -> None:
        """Replace the function at module.attr by wrap(function) under every
        name that holds it: in each module, or in the class for a method."""
        original = _resolve(module, attr)
        wrapper = wrap(original)
        owners = [_resolve(module, attr.split(".")[0])] if "." in attr else modules
        for owner in owners:
            for key, value in list(vars(owner).items()):
                if value is original:
                    self._patches.append((partial(setattr, owner), key, original))
                    setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        """Put back every original function, in reverse order of patching."""
        while self._patches:
            setter, key, original = self._patches.pop()
            setter(key, original)

    # -- report ----------------------------------------------------------------

    def report(self) -> dict:
        infos = [fn.cache_info() for fn in self._caches]
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "counts": dict(self.counts),
            "cache": {
                "hits": sum(i.hits for i in infos),
                "misses": sum(i.misses for i in infos),
                "entries": sum(i.currsize for i in infos),
            },
        }


def _resolve(module: str, attr: str):
    obj = sys.modules["stirlingkit." + module]
    for part in attr.split("."):
        obj = vars(obj)[part]
    return obj


def _stirlingkit_modules() -> list:
    import stirlingkit

    for info in pkgutil.iter_modules(stirlingkit.__path__, "stirlingkit."):
        importlib.import_module(info.name)
    return [m for name, m in sorted(sys.modules.items())
            if name == "stirlingkit" or name.startswith("stirlingkit.")]


def _cached_callables(modules) -> list:
    """Every distinct functools-cached callable bound in a stirlingkit module."""
    found = {}
    for module in modules:
        for value in vars(module).values():
            if callable(value) and hasattr(value, "cache_info"):
                found[id(value)] = value
    return list(found.values())


def main(argv) -> int:
    tracer = Tracer()
    tracer.install()
    from stirlingkit import cli

    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    sys.stdout.flush()
    with os.fdopen(3, "w") as out:
        json.dump(tracer.report(), out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
