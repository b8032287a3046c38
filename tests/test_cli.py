import json
import math
import re
import sys
from fractions import Fraction

import pytest

import stirlingkit.cli as cli
from stirlingkit.exact import format_rational
from stirlingkit.families import (FAMILIES, FAMILY_TAGS, METHODS, PARAMETERS, FamilySpec,
                                  family_value)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_value_examples(capsys):
    code, out, _ = run(capsys, "value", "--family", "classic", "--n", "4", "--k", "2")
    assert code == 0 and out == "7\n"
    code, out, _ = run(
        capsys,
        *"value --family partial --n 2 --k 1 --ell 1 --gamma 0 --alpha 1 --beta 2".split(),
    )
    assert code == 0 and out == "1\n"
    code, out, _ = run(
        capsys,
        *"value --family generalized --n 3 --k 0 --alpha 1 --beta 2 --gamma 3".split(),
    )
    assert code == 0 and out == "6\n"


def test_value_methods(capsys):
    args = "value --family degenerate --lambda 1/2 --n 5 --k 3".split()
    expected = None
    for method in METHODS:
        code, out, _ = run(capsys, *args, "--method", method)
        assert code == 0
        expected = expected or out
        assert out == expected


# n = 12 is past the oracle's cap: --check skips the oracle and still compares the rest
CHECKED = (("6", "90"), ("12", "86526"))


def test_value_check_agreement(capsys):
    for n, expected in CHECKED:
        code, out, _ = run(
            capsys, *("value --family classic --n %s --k 3 --check" % n).split()
        )
        assert code == 0 and out == expected + "\n"


def test_value_check_disagreement(capsys, monkeypatch):
    real = cli.family_value

    def rigged(spec, n, k, method="egf"):
        value = real(spec, n, k, method)
        return value + 1 if method == "recurrence" else value

    monkeypatch.setattr(cli, "family_value", rigged)
    for n, _ in CHECKED:
        code, _, err = run(capsys, *("value --family classic --n %s --k 3 --check" % n).split())
        assert code == 1
        assert "disagreement" in err


def test_usage_errors(capsys):
    # every refused input, whichever layer refuses it, exits 2 with one
    # error line and nothing on stdout
    refused = [
        "value --family classic --n 4",
        "value --family classic --n 4 --k 2 --ell 3",  # classic takes no ell
        "value --family generalized --n 1 --k 1 --alpha x --beta 1 --gamma 0",
        "value --family generalized --n 1 --k 1 --alpha 1/0 --beta 1 --gamma 0",
        "value --family restricted --n 1 --k 1 --ell -1",
        "value --family classic --n -1 --k 2",
        "value --family classic --n -1 --k 2 --check",
        "value --family colored_singleton --r 1 --s 2 --n 3 --k -1 --method recurrence",
        "table --family classic --nmax -1",
        "table --family classic --nmax 12 --method oracle",
        "series --family classic --k -1 --order 3",
        "series --family degenerate --lambda 1/0 --k 1 --order 3",
        "series --family classic --k 2",
        "verify --suite all --nmax -1",
        "asympt --n 4 --k 1,x --gamma 1 --alpha 1 --beta 2 --ell 2",
        "asympt --n 4 --k , --gamma 1 --alpha 1 --beta 2 --ell 2",
        "asympt --n 4 --k 5 --gamma 1/0 --alpha 1 --beta 2 --ell 2",
        "asympt --n 141 --k 1 --mode literal --gamma 1 --alpha 1 --beta 2 --ell 2",
        "asympt --n 4 --k -3,5 --gamma 1 --alpha 1 --beta 2 --ell 2",
        "asympt --k 3 --gamma 1 --alpha 1 --beta 2 --ell 2",
        "value --family restricted --ell 2 --n 5 --k 2 --method explicit",
    ]
    for argv in refused:
        code, out, err = run(capsys, *argv.split())
        assert code == 2 and out == "", argv
        assert err.startswith("error: ") and "Traceback" not in err, argv
    with pytest.raises(SystemExit) as exc:
        cli.main(["value", "--family", "not-a-family", "--n", "1", "--k", "1"])
    assert exc.value.code == 2


def test_series_names_its_order_in_a_refusal(capsys):
    for options, message in (("--k 1 --order -1", "got order=-1 k=1"),
                             ("--k -1 --order 3", "got order=3 k=-1")):
        code, out, err = run(capsys, "series", "--family", "classic", *options.split())
        assert (code, out, err) == (2, "", "error: indices must be non-negative, %s\n" % message)


def test_family_options_follow_the_parameter_table(capsys):
    fields = list(FamilySpec._fields)
    assert fields[0] == "tag" and list(PARAMETERS) == fields[1:]
    with pytest.raises(SystemExit) as exc:
        cli.main(["value", "--help"])
    assert exc.value.code == 0
    flags = set(re.findall(r"--[a-z]+", capsys.readouterr().out))
    own = {"--help", "--family", "--n", "--k", "--method", "--check"}
    expected = {"--lambda" if name == "lam" else "--" + name for name in PARAMETERS}
    assert flags - own == expected


def test_negative_rational_as_a_separate_word(capsys):
    # argparse reads -1/3 as an option flag unless the CLI joins it to its option
    code, out, _ = run(
        capsys,
        *"value --family generalized --alpha 1/2 --beta -1/3 --gamma 1/2 --n 7 --k 3".split(),
    )
    assert code == 0 and out == "147385/1296\n"
    for command, option in (
        ("value --family generalized --alpha 1/2 --gamma 1/2 --n 7 --k 3", "--beta"),
        ("table --family degenerate --nmax 4", "--lambda"),
        ("series --family free_atleast --ell 1 --k 1 --order 4", "--gamma"),
        ("asympt --n 4 --k 10,20 --m 3 --gamma 1 --beta 2 --ell 2", "--alpha"),
    ):
        separate = run(capsys, *command.split(), option, "-1/3")
        joined = run(capsys, *command.split(), option + "=-1/3")
        assert separate == joined and separate[0] == 0, command


def test_negative_rational_after_an_abbreviated_option(capsys):
    # argparse takes an option by any unambiguous prefix; the separate negative
    # word must be joined to the prefix as it is to the option written in full
    code, out, _ = run(
        capsys,
        *"value --family generalized --alpha 1/2 --bet -1/3 --gamma 1/2 --n 7 --k 3".split(),
    )
    assert code == 0 and out == "147385/1296\n"
    for command, option in (
        ("value --family generalized --alpha 1/2 --gamma 1/2 --n 7 --k 3", "--beta"),
        ("table --family degenerate --nmax 4", "--lambda"),
        ("series --family free_atleast --ell 1 --k 1 --order 4", "--gamma"),
        ("asympt --n 4 --k 10,20 --m 3 --gamma 1 --beta 2 --ell 2", "--alpha"),
    ):
        with pytest.raises(SystemExit):
            cli.main([command.split()[0], "--help"])
        flags = set(re.findall(r"--[a-z]+", capsys.readouterr().out))
        full = run(capsys, *command.split(), option + "=-1/3")
        assert full[0] == 0, command
        for end in range(3, len(option)):
            prefix = option[:end]
            # no other option of the command begins like this one
            assert [flag for flag in flags if flag.startswith(prefix)] == [option]
            assert run(capsys, *command.split(), prefix, "-1/3") == full, (command, prefix)


def test_generalized_zero_triple_is_the_identity_triangle(capsys):
    # (0, 0, 0) leaves singleton blocks and an empty special set: S(n, k) = [n = k]
    family = "--family generalized --alpha 0 --beta 0 --gamma 0".split()
    identity = "n,k,value\n" + "".join(
        "%d,%d,%d\n" % (n, k, n == k) for n in range(7) for k in range(n + 1))
    for method in ("egf", "recurrence", "oracle"):
        for n, k in ((3, 3), (3, 1)):
            code, out, _ = run(capsys, "value", *family, "--n", str(n), "--k", str(k),
                               "--method", method)
            assert code == 0 and out == "%d\n" % (n == k), method
        assert run(capsys, "table", *family, "--nmax", "6", "--method", method) == (0, identity, "")
    for n, k in ((5, 5), (5, 4)):
        code, out, _ = run(capsys, "value", *family, "--n", str(n), "--k", str(k), "--check")
        assert code == 0 and out == "%d\n" % (n == k)
    code, out, _ = run(capsys, "series", *family, "--k", "1", "--order", "4")
    assert code == 0 and out == "0 0 0\n1 1 1\n2 0 0\n3 0 0\n4 0 0\n"
    # the explicit sum divides by beta^k: the one route undefined here
    code, out, err = run(capsys, "value", *family, "--n", "3", "--k", "1", "--method", "explicit")
    assert code == 2 and out == "" and "beta = 0" in err


def test_recurrence_has_no_depth_limit(capsys):
    # 520 rows nest too deep for Python's default recursion limit unless
    # the routes fill bottom-up; gamma = r = 0 keeps the values cheap
    values = dict(alpha=-1, beta=1, gamma=0, lam=-1, ell=2, r=0, s=3)
    for tag in FAMILY_TAGS:
        params = {name: values[name] for name in FAMILIES[tag].params}
        options = ["--%s=%s" % ("lambda" if name == "lam" else name, value)
                   for name, value in params.items()]
        code, out, _ = run(capsys, "value", "--family", tag, *options,
                           "--n", "520", "--k", "1", "--method", "recurrence")
        assert code == 0
        assert out == format_rational(family_value(FamilySpec(tag, **params), 520, 1)) + "\n"


def test_restricted_recurrence_has_no_block_depth_limit(capsys):
    # 340 blocks, one column each, filled iteratively rather than nested;
    # 600 elements in blocks of at most 2: 260 pairs and 80 singletons
    code, out, _ = run(
        capsys, *"value --family restricted --ell 2 --n 600 --k 340 --method recurrence".split()
    )
    pairs = math.factorial(600) // (math.factorial(260) * 2 ** 260 * math.factorial(80))
    assert code == 0 and out == "%d\n" % pairs


def test_associated_recurrence_has_no_block_depth_limit(capsys):
    # 341 elements in 340 non-empty blocks: one pair, C(341, 2) ways
    code, out, _ = run(
        capsys, *"value --family associated --ell 1 --n 341 --k 340 --method recurrence".split()
    )
    assert code == 0 and out == "%d\n" % math.comb(341, 2)


def test_recurrence_with_more_blocks_than_elements_builds_nothing(capsys):
    # k > n is zero: no column is built, however large k is
    from stirlingkit import schemes

    schemes.generalized_scheme.cache_clear()  # classic is generalized (0, 1, 0)
    code, out, _ = run(
        capsys, *"value --family classic --n 3 --k 1000000 --method recurrence".split()
    )
    assert code == 0 and out == "0\n"
    assert schemes.classic_scheme()._rows == []


def test_oracle_cap_usage_error(capsys):
    code, _, err = run(
        capsys, *"value --family classic --n 20 --k 2 --method oracle".split()
    )
    assert code == 2 and "capped" in err
    # refused before any row is computed
    code, out, err = run(capsys, *"table --family classic --nmax 12 --method oracle".split())
    assert code == 2 and "capped" in err and out == ""


def test_table_csv(capsys):
    code, out, _ = run(capsys, *"table --family classic --nmax 3".split())
    assert code == 0
    assert "\r" not in out  # plain LF rows
    lines = out.strip().splitlines()
    assert lines[0] == "n,k,value"
    assert "3,2,3" in lines and "3,3,1" in lines
    assert lines[1] == "0,0,1"


def test_table_restricted_diagonal(capsys):
    code, out, _ = run(capsys, *"table --family restricted --ell 1 --nmax 3".split())
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    for n, k, value in rows:
        expected = "1" if n == k else "0"
        assert value == expected


def test_table_json_round_trip(capsys):
    code, out, _ = run(
        capsys,
        *"table --family gen_restricted --alpha 1 --beta 3 --gamma 2 --ell 2 --nmax 6 --format json".split(),
    )
    assert code == 0
    spec = FamilySpec("gen_restricted", alpha=1, beta=3, gamma=2, ell=2)
    payload = json.loads(out)
    assert len(payload) == 7 * 8 // 2
    for row in payload:
        assert Fraction(row["value"]) == family_value(spec, row["n"], row["k"])


def test_values_past_the_int_digit_limit(capsys):
    # gamma has 4401 digits, past Python's default 4300-digit cap on
    # int <-> str conversion; (n, k) = (1, 0) is the special set {1}, weight gamma
    gamma = "1" + "0" * 4400
    family = ["--family", "generalized", "--alpha", "0", "--beta", "1", "--gamma", gamma]
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: None)
    limit = digit_limit()
    code, text, _ = run(capsys, "value", *family, "--n", "1", "--k", "0")
    assert code == 0 and text == gamma + "\n"
    code, payload, _ = run(capsys, "table", *family, "--nmax", "1", "--format", "json")
    assert code == 0
    assert digit_limit() == limit  # the command restores the cap
    with cli._int_digits_unlimited():
        assert Fraction(text) == 10 ** 4400
        cells = {(row["n"], row["k"]): Fraction(row["value"]) for row in json.loads(payload)}
    assert cells == {(0, 0): 1, (1, 0): 10 ** 4400, (1, 1): 1}


def test_table_columns_match_per_cell_values(capsys):
    # the egf table reads each column k from one series; every cell must
    # equal the per-cell value, whatever the output format
    values = dict(alpha=Fraction(1, 2), beta=Fraction(-1, 3), gamma=Fraction(3, 2),
                  lam=Fraction(-2, 3), ell=2, r=2, s=3)
    for tag in FAMILY_TAGS:
        params = {name: values[name] for name in FAMILIES[tag].params}
        spec = FamilySpec(tag, **params)
        options = ["--%s=%s" % ("lambda" if name == "lam" else name, value)
                   for name, value in params.items()]
        cells = [(n, k, format_rational(family_value(spec, n, k)))
                 for n in range(11) for k in range(n + 1)]
        width = max(len(v) for _, _, v in cells)
        expected = {
            "csv": "n,k,value\n" + "".join("%d,%d,%s\n" % cell for cell in cells),
            "json": json.dumps([{"n": n, "k": k, "value": v} for n, k, v in cells], indent=2)
            + "\n",
            "text": "".join("%4d %4d  %*s\n" % (n, k, width, v) for n, k, v in cells),
        }
        for fmt, text in expected.items():
            code, out, _ = run(capsys, "table", "--family", tag, *options,
                               "--nmax", "10", "--format", fmt)
            assert code == 0 and out == text, (tag, fmt)
    code, out, _ = run(capsys, *"table --family generalized --alpha 0 --beta 0 --gamma 0 "
                       "--nmax 3 --format text".split())
    assert code == 0 and out == "".join(
        "%4d %4d  %d\n" % (n, k, n == k) for n in range(4) for k in range(n + 1))


def test_table_out_file(capsys, tmp_path):
    target = tmp_path / "triangle.csv"
    code, out, _ = run(
        capsys, *("table --family classic --nmax 2 --out " + str(target)).split()
    )
    assert code == 0 and out == ""
    assert target.read_text().startswith("n,k,value")


def test_unwritable_out_is_usage_error(capsys, tmp_path):
    target = str(tmp_path / "missing" / "x.csv")
    for argv in (
        "table --family classic --nmax 3",
        "series --family classic --k 1 --order 3",
        "verify --suite thm3 --nmax 2",
        "asympt --n 3 --k 10 --gamma 1 --alpha 1 --beta 2 --ell 2",
    ):
        code, out, err = run(capsys, *argv.split(), "--out", target)
        assert code == 2 and out == "", argv
        assert err.startswith("error: cannot write") and "Traceback" not in err, argv


def test_series_output(capsys):
    code, out, _ = run(capsys, *"series --family classic --k 2 --order 4".split())
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "0 0 0"
    assert lines[2] == "2 1/2 1"
    assert lines[4] == "4 7/24 7"


def test_series_beta_zero_matches_recurrence_and_oracle(capsys):
    for spec in (
        FamilySpec("generalized", alpha=1, beta=0, gamma=2),
        FamilySpec("gen_restricted", alpha=Fraction(-1, 2), beta=0, gamma=3, ell=2),
        FamilySpec("partial_degenerate", gamma=2, alpha=1, beta=0, ell=2),
    ):
        family = ["--family", spec.tag]
        for name in ("alpha", "beta", "gamma", "ell"):
            if getattr(spec, name) is not None:
                family.append("--%s=%s" % (name, getattr(spec, name)))
        code, out, _ = run(capsys, "series", *family, "--k", "2", "--order", "7")
        assert code == 0
        for n, line in enumerate(out.strip().splitlines()):
            value = Fraction(line.split()[2])
            assert value == family_value(spec, n, 2, "recurrence")
            assert value == family_value(spec, n, 2, "oracle")


def test_verify_thm3(capsys):
    code, out, _ = run(capsys, *"verify --suite thm3 --nmax 6".split())
    assert code == 0
    assert "alternating-special-set-removal" in out


def test_verify_all_small(capsys):
    code, out, _ = run(capsys, *"verify --suite all --nmax 5".split())
    assert code == 0
    assert "audit OK" in out


def test_verify_json(capsys):
    code, out, _ = run(capsys, *"verify --suite derivative --nmax 5 --format json".split())
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    forms = {(f["form"], f["verdict"]) for f in payload["findings"]}
    assert ("literal", "FAIL") in forms and ("corrected", "PASS") in forms


def test_verify_unknown_suite_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--suite", "nope"])
    assert exc.value.code == 2


def test_asympt_table(capsys):
    code, out, _ = run(
        capsys,
        *"asympt --n 4 --k 10,20,40 --m 3 --gamma 1 --alpha 1 --beta 2 --ell 2".split(),
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    assert lines[1].split()[0] == "10"


def test_asympt_zero_offset(capsys):
    code, out, _ = run(
        capsys, *"asympt --n 15 --k 15 --m 0 --gamma 1 --alpha 1 --beta 2 --ell 2".split()
    )
    assert code == 0
    row = out.strip().splitlines()[1].split()
    assert row[2] == "1" and row[3] == "1" and row[4] == "0"


def test_asympt_literal_flags(capsys):
    code, out, _ = run(
        capsys,
        *"asympt --n 4 --k 20 --m 3 --mode literal --gamma 1 --alpha 1 --beta 2 --ell 2".split(),
    )
    assert code == 0
    assert "exact value is zero" in out


def test_asympt_json(capsys):
    code, out, _ = run(
        capsys,
        *"asympt --n 4 --k 20,40 --m 3 --gamma 1 --alpha 1 --beta 2 --ell 2 --format json".split(),
    )
    assert code == 0
    payload = json.loads(out)
    assert [row["k"] for row in payload] == [20, 40]
    assert all(row["rel_error"] == "0" for row in payload)


def test_asympt_text_columns_equal_json_fields(capsys):
    names = ("k", "n_total", "estimate", "exact", "rel_error", "rel_error_decimal", "note")
    notes = set()
    for argv in (
        "--n 10 --k 3,10,20 --m 5",
        "--n 10 --k 3,20 --m 5 --mode literal",
        "--n 6 --k 4,6,30 --m 2 --mode literal",
    ):
        args = ["asympt", *argv.split(), *"--gamma 1 --alpha 1 --beta 2 --ell 2".split()]
        code, text, _ = run(capsys, *args)
        assert code == 0
        code, out, _ = run(capsys, *args, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        lines = text.rstrip("\n").split("\n")
        assert len(lines) == 1 + len(payload)
        for line, fields in zip(lines[1:], payload):
            # values hold no spaces; the note, the last column, may
            cells = line.split(None, len(names) - 1)
            cells += [""] * (len(names) - len(cells))
            for name, cell in zip(names, cells):
                value = fields[name]
                if name == "note":
                    assert cell == (value or "")
                else:
                    assert cell == ("-" if value is None else str(value))
            notes.add(re.sub(r" at j=.*", "", fields["note"] or "plain"))
    assert notes == {
        "plain",
        "(lam-n+j)_j vanishes",
        "(k)_n vanishes; left side undefined",
        "exact value is zero",
    }


def test_asympt_usage(capsys):
    code, _, err = run(capsys, *"asympt --n 4 --m 3".split())
    assert code == 2
    code, _, err = run(
        capsys, *"asympt --n 4 --k 1x --m 3 --gamma 1 --alpha 1 --beta 2 --ell 2".split()
    )
    assert code == 2
    # offset d = 300 is past the cap: refused before any work
    code, out, err = run(
        capsys, *"asympt --n 300 --k 600 --m 300 --gamma 1 --alpha 1 --beta 2 --ell 2".split()
    )
    assert code == 2 and out == "" and "capped at d=140" in err


@pytest.mark.parametrize(
    "script",
    [
        "triangles_and_families.py",
        "generating_functions.py",
        "weighted_partition_oracle.py",
        "identity_audit_report.py",
        "asymptotic_sweep.py",
    ],
)
def test_demo_scripts_run(script):
    import pathlib
    import subprocess
    import sys

    path = pathlib.Path(__file__).resolve().parent.parent / "demos" / script
    proc = subprocess.run(
        [sys.executable, str(path)], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


# The console script's way out.  `python -m stirlingkit.cli` runs under a probe:
# an atexit handler, which runs after entry() has returned and before
# finalization collects, prints the collector's freeze count as the last
# line of stderr.  The rest of the call must match cli.main in-process.
_PROBE = (
    "import atexit, gc, runpy, sys\n"
    "atexit.register(lambda: print('frozen=%d' % gc.get_freeze_count(), file=sys.stderr))\n"
    "runpy.run_module('stirlingkit.cli', run_name='__main__', alter_sys=True)\n"
)


def _cli_env():
    import os
    import pathlib

    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": src}


def _split_probe(err: bytes):
    """stderr without the probe's line, and the freeze count it reports."""
    lines = err.decode().splitlines(keepends=True)
    assert lines and lines[-1].startswith("frozen="), err
    return "".join(lines[:-1]), int(lines[-1][len("frozen="):])


def _in_process(capsys, argv):
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse's own exits
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


EXITS = [
    "value --family classic --n 4 --k 2",  # 0
    "value --family classic --n -1 --k 2",  # 2, refused by the library
    "value --family classic --n 4 --k 2 --nosuch 1",  # 2, refused by argparse
    "--help",  # 0, from argparse
    "value --help",
]


@pytest.mark.parametrize("words", EXITS)
def test_the_console_script_freezes_the_heap_on_every_way_out(capsys, words):
    import subprocess

    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, *words.split()],
        capture_output=True, env=_cli_env(), timeout=60,
    )
    err, frozen = _split_probe(proc.stderr)
    assert frozen > 0
    assert (proc.returncode, proc.stdout.decode(), err) == _in_process(capsys, words.split())


def test_a_closed_stdout_exits_141_silently():
    # the 282 KB table outgrows a pipe's buffer, so the reader's close
    # reaches the writer mid-output, as with `stirlingkit table ... | head -1`
    import subprocess

    proc = subprocess.Popen(
        [sys.executable, "-c", _PROBE, "table", "--family", "classic", "--nmax", "100"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_cli_env(),
    )
    assert proc.stdout.readline() == b"n,k,value\n"
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 141
    err, frozen = _split_probe(err)
    assert err == "" and frozen > 0


@pytest.mark.parametrize(
    "words",
    ["table --family classic --nmax 30", "verify --suite thm3 --nmax 4 --format json"],
)
def test_out_through_the_console_script_writes_its_stdout(tmp_path, words):
    import subprocess

    command = [sys.executable, "-m", "stirlingkit.cli", *words.split()]
    shown = subprocess.run(command, capture_output=True, env=_cli_env(), timeout=60)
    out = tmp_path / "out.txt"
    written = subprocess.run(
        command + ["--out", str(out)], capture_output=True, env=_cli_env(), timeout=60
    )
    assert shown.returncode == written.returncode == 0
    assert written.stdout == written.stderr == shown.stderr == b""
    assert out.read_bytes() == shown.stdout


def test_main_leaves_the_collector_as_it_found_it(capsys):
    import gc

    before = gc.get_freeze_count(), gc.isenabled()
    for words in EXITS:
        _in_process(capsys, words.split())
    assert (gc.get_freeze_count(), gc.isenabled()) == before
