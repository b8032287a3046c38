"""Command-line front end.

Subcommands:

    value    one exact value (any family, any method, cross-checked)
    table    the (n, k) triangle as text, CSV or JSON
    series   generating-function coefficients, one per line
    verify   the identity audit (literal vs corrected verdicts)
    asympt   large-parameter estimates vs exact values

Exit codes: 0 success, 1 verification failure, 2 refused input, 141 a
stdout closed early (128 + SIGPIPE, as for `yes | head -1`).  The library
refuses an input by raising ValueError, and so do the commands here; main
is the one place that turns a refusal into `error: ...` and exit 2.
Values print as exact rationals ('p' or 'p/q'); only `asympt` adds a
decimal column.  A command imports what it runs, and the parser adds only
its options: `value` and `table` by egf load exact, families, names and
schemes, and `series` adds series.  `asympt` loads exact, names, schemes,
asymptotics and partial; other methods, `verify` and JSON output load
their own layers, and only `value`, `table` and `series` load families.

`entry`, the console script and `python -m stirlingkit.cli`, freezes the
heap (`gc.freeze()`) on its way out, so the interpreter's shutdown does not
collect objects that die with the process.  `main`, which library callers
and the tests use, leaves the collector as it found it.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import os
import sys

from .exact import format_rational, parse_rational
from .names import ENUMERATION_CAP, METHODS, PARAMETERS, SUITE_NAMES

__all__ = ["main", "entry"]

_package = sys.modules[__package__]  # imports families on first access (PEP 562)

# --family accepts these short names too, listed just before their target
_ALIASES = {"partial": "partial_degenerate"}
# the option of a family parameter is --<name>, except for these
_FLAGS = {"lam": "lambda"}


# the commands call the family registry through these names, which a test or
# a reference route may patch; only value, table and series load families
def family_value(spec, n: int, k: int, method: str = "egf"):
    return _package.families.family_value(spec, n, k, method)


def family_egf(spec, k: int, order: int):
    return _package.families.family_egf(spec, k, order)


def _add_family_options(p: argparse.ArgumentParser) -> None:
    choices = [
        name
        for tag in _package.families.FAMILY_TAGS
        for name in [a for a, target in _ALIASES.items() if target == tag] + [tag]
    ]
    p.add_argument("--family", choices=choices, required=True)
    for name, kind in PARAMETERS.items():
        # rationals stay text here: _family_spec parses them
        p.add_argument("--" + _FLAGS.get(name, name), dest=name,
                       type=str if kind == "rational" else int)


def _family_spec(args):
    params = {}
    for name, kind in PARAMETERS.items():
        value = getattr(args, name)
        if value is not None:
            params[name] = parse_rational(value) if kind == "rational" else value
    return _package.families.FamilySpec(_ALIASES.get(args.family, args.family), **params)


def _write_out(text: str, out: str | None) -> None:
    if out:
        try:
            with open(out, "w") as handle:
                handle.write(text if text.endswith("\n") else text + "\n")
        except OSError as exc:
            raise ValueError("cannot write %s: %s" % (out, exc.strerror or exc)) from None
    else:
        print(text)


def _write_json(payload, out: str | None) -> None:
    import json  # only the JSON formats load it

    _write_out(json.dumps(payload, indent=2), out)


def _cmd_value(args) -> int:
    spec = _family_spec(args)
    if args.n is None or args.k is None:
        raise ValueError("value needs --n and --k")
    n, k = args.n, args.k
    canonical = family_value(spec, n, k, args.method)
    if args.check:
        results = {args.method: canonical}
        for method in METHODS:
            if method in results:
                continue
            if method == "oracle" and n > ENUMERATION_CAP:
                continue
            try:
                results[method] = family_value(spec, n, k, method)
            except ValueError:
                # the family has no explicit sum, or none at beta = 0
                if method != "explicit":
                    raise
        values = set(results.values())
        if len(values) > 1:
            print("method disagreement at n=%d k=%d:" % (n, k), file=sys.stderr)
            for name, value in sorted(results.items()):
                print("  %-10s %s" % (name, format_rational(value)), file=sys.stderr)
            return 1
    print(format_rational(canonical))
    return 0


def _cmd_table(args) -> int:
    spec = _family_spec(args)
    if args.nmax is None or args.nmax < 0:
        raise ValueError("table needs --nmax >= 0")
    # refused before any row: the oracle itself refuses only once rows 0..cap are done
    if args.method == "oracle" and args.nmax > ENUMERATION_CAP:
        raise ValueError("method=oracle is capped at n=%d (asked for nmax=%d)"
                         % (ENUMERATION_CAP, args.nmax))
    table = _package.families.ValueTable(spec, args.method)
    rows = [(n, k, format_rational(v)) for n, k, v in table.rows(args.nmax)]
    if args.format == "json":
        _write_json([{"n": n, "k": k, "value": v} for n, k, v in rows], args.out)
    elif args.format == "text":
        width = max(len(v) for _, _, v in rows)
        lines = ["%4d %4d  %*s" % (n, k, width, v) for n, k, v in rows]
        _write_out("\n".join(lines), args.out)
    else:
        # no field holds a comma, quote or line break, so CSV needs no quoting
        lines = ["n,k,value"] + ["%d,%d,%s" % row for row in rows]
        _write_out("\n".join(lines), args.out)
    return 0


def _cmd_series(args) -> int:
    spec = _family_spec(args)
    if args.k is None or args.order is None:
        raise ValueError("series needs --k and --order")
    from .series import egf_coeff  # only this command loads the series module

    series = family_egf(spec, args.k, args.order)
    lines = []
    for n in range(args.order + 1):
        c = series.coefficient(n)
        lines.append(
            "%d %s %s" % (n, format_rational(c), format_rational(egf_coeff(series, n)))
        )
    _write_out("\n".join(lines), args.out)
    return 0


def _cmd_verify(args) -> int:
    from .audit import audit_ok, report_json, report_text, run_suite

    findings = run_suite(args.suite, args.nmax)
    if args.format == "json":
        _write_json(report_json(findings, args.nmax), args.out)
    else:
        _write_out(report_text(findings), args.out)
    return 0 if audit_ok(findings) else 1


# asympt text: one column per field, '-' where it is null, then the note
_ASYMPT_LINE = "%6s %8s %-26s %-26s %-20s %-12s %s"
_ASYMPT_COLUMNS = ("k", "n_total", "estimate", "exact", "rel_error", "rel_error_decimal")


def _asympt_fields(row) -> dict:
    """One asympt row (an AsymptoticRow) as its printed fields, None where a
    field is undefined: the JSON object, and the cells of the text line."""
    from .asymptotics import decimal_str

    fields = {"k": row.k, "n_total": row.n_total, "mode": row.mode}
    for name in ("estimate", "exact", "rel_error"):
        value = getattr(row, name)
        fields[name] = None if value is None else format_rational(value)
    fields["rel_error_decimal"] = None if row.rel_error is None else decimal_str(row.rel_error, 8)
    fields["note"] = row.note
    return fields


def _cmd_asympt(args) -> int:
    from .asymptotics import asymptotic_partial

    if None in (args.gamma, args.alpha, args.beta):
        raise ValueError("asympt needs --gamma, --alpha, --beta and --ell")
    if None in (args.ell, args.n, args.k):
        raise ValueError("asympt needs --n, --k and --ell")
    gamma, alpha, beta = (parse_rational(text) for text in (args.gamma, args.alpha, args.beta))
    k_list = [int(part) for part in args.k.split(",") if part.strip() != ""]
    if not k_list:
        raise ValueError("empty --k list")
    rows = [
        _asympt_fields(
            asymptotic_partial(args.n, k, gamma, alpha, beta, args.ell, args.m, args.mode)
        )
        for k in k_list
    ]
    if args.format == "json":
        _write_json(rows, args.out)
        return 0
    lines = [_ASYMPT_LINE % ("k", "n_total", "estimate", "exact", "rel_error", "(decimal)", "note")]
    for fields in rows:
        cells = ["-" if fields[name] is None else fields[name] for name in _ASYMPT_COLUMNS]
        lines.append(_ASYMPT_LINE % (*cells, fields["note"] or ""))
    _write_out("\n".join(lines), args.out)
    return 0


def _build_parser(command: str | None) -> argparse.ArgumentParser:
    """Every command with its help, and the options of `command` only."""
    parser = argparse.ArgumentParser(
        prog="stirlingkit",
        description="Exact values, tables, series, identity audit and asymptotics "
        "for the generalized/degenerate/incomplete partition-number hierarchy.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_value = sub.add_parser("value", help="one exact value")
    if command == "value":
        _add_family_options(p_value)
        p_value.add_argument("--n", type=int)
        p_value.add_argument("--k", type=int)
        p_value.add_argument("--method", choices=METHODS, default="egf")
        p_value.add_argument("--check", action="store_true",
                             help="compute via every applicable method; exit 1 on disagreement")
        p_value.set_defaults(func=_cmd_value)

    p_table = sub.add_parser("table", help="triangle of values up to --nmax")
    if command == "table":
        _add_family_options(p_table)
        p_table.add_argument("--nmax", type=int)
        p_table.add_argument("--method", choices=METHODS, default="egf")
        p_table.add_argument("--format", choices=("csv", "json", "text"), default="csv")
        p_table.add_argument("--out")
        p_table.set_defaults(func=_cmd_table)

    p_series = sub.add_parser("series", help="generating-function coefficients")
    if command == "series":
        _add_family_options(p_series)
        p_series.add_argument("--k", type=int)
        p_series.add_argument("--order", type=int)
        p_series.add_argument("--out")
        p_series.set_defaults(func=_cmd_series)

    p_verify = sub.add_parser("verify", help="identity audit")
    if command == "verify":
        p_verify.add_argument("--suite", choices=SUITE_NAMES, required=True)
        p_verify.add_argument("--nmax", type=int, default=8)
        p_verify.add_argument("--format", choices=("text", "json"), default="text")
        p_verify.add_argument("--out")
        p_verify.set_defaults(func=_cmd_verify)

    p_asympt = sub.add_parser("asympt", help="estimate vs exact comparison")
    if command == "asympt":
        p_asympt.add_argument("--n", type=int)
        p_asympt.add_argument("--k", type=str, help="comma-separated list of k values")
        p_asympt.add_argument("--m", type=int, default=3)
        p_asympt.add_argument("--mode", choices=("normalized", "literal"), default="normalized")
        p_asympt.add_argument("--gamma", type=str)
        p_asympt.add_argument("--alpha", type=str)
        p_asympt.add_argument("--beta", type=str)
        p_asympt.add_argument("--ell", type=int)
        p_asympt.add_argument("--format", choices=("text", "json"), default="text")
        p_asympt.add_argument("--out")
        p_asympt.set_defaults(func=_cmd_asympt)

    return parser


@contextlib.contextmanager
def _int_digits_unlimited():
    """Lift Python's 4300-digit cap on int <-> str conversion, then restore
    it: exact values have no size limit.  Older 3.10 releases have no cap."""
    set_digits = getattr(sys, "set_int_max_str_digits", None)
    if set_digits is None:
        yield
        return
    previous = sys.get_int_max_str_digits()
    set_digits(0)
    try:
        yield
    finally:
        set_digits(previous)


def main(argv=None) -> int:
    words = sys.argv[1:] if argv is None else list(argv)
    # argparse reads a word like -1/3 or -3,5 as an option flag, so a word of
    # a minus and a digit joins the option before it (no option starts with a
    # digit): --bet -1/3 reads --bet=-1/3, whatever prefix argparse resolves
    for i in range(len(words) - 1, 0, -1):
        option = words[i - 1]
        if (option[:2] == "--" and "=" not in option
                and words[i][:1] == "-" and words[i][1:2].isdigit()):
            words[i - 1 : i + 1] = [option + "=" + words[i]]
    # the top-level parser has only -h, so the first non-option word is the command
    command = next((word for word in words if word[:1] != "-"), None)
    args = _build_parser(command).parse_args(words)
    with _int_digits_unlimited():
        try:
            return args.func(args)
        except ValueError as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 2


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()  # a closed pipe raises here, not at exit
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # exit flushes to devnull
        code = 141  # 128 + SIGPIPE; importing signal would cost every call its enums
    finally:
        # every way out, argparse's exits too: the collections of finalization
        # skip a frozen heap, which dies with the process; atexit handlers,
        # stdio flushing and module teardown still run
        gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
