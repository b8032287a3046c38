"""What `import stirlingkit` and each CLI call load: the package resolves
its public names on first use, and a command imports only the layers it
runs.  Each import check runs in a fresh interpreter."""

import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import stirlingkit

_SRC = str(Path(stirlingkit.__file__).resolve().parents[1])

# prints, on its last stderr line, the modules loaded after its first line
_CHILD = """\
import sys
before = set(sys.modules)
{body}
print(*sorted(set(sys.modules) - before), file=sys.stderr)
"""

_CLI = """\
from stirlingkit import cli
code = cli.main(sys.argv[1:])
"""

_GEN = ["--gamma", "1", "--alpha", "1", "--beta", "2", "--ell", "2"]
_ALPHA = ["--alpha", "1/2", "--beta", "-1/3", "--gamma", "1/2"]
_VALUE_PATH = {"stirlingkit.audit", "stirlingkit.asymptotics", "stirlingkit.oracle",
               "dataclasses", "json", "csv"}
# the independent routes' modules, which the egf path never runs
_ROUTES = {"stirlingkit." + name
           for name in ("core", "generalized", "incomplete", "partial", "recurrence")}
_RECURRENCE = "stirlingkit.recurrence"
_EGF_PATH = {"stirlingkit", "stirlingkit.cli", "stirlingkit.exact", "stirlingkit.families",
             "stirlingkit.names", "stirlingkit.schemes"}
# a row reads psi as a list and runs Miller's recurrence from exact: no series module
_ASYMPT_PATH = {"stirlingkit", "stirlingkit.cli", "stirlingkit.exact", "stirlingkit.names",
                "stirlingkit.schemes", "stirlingkit.asymptotics", "stirlingkit.partial"}

# command -> (argv, modules it loads, modules it must not load)
_COMMANDS = {
    "value": (["value", "--family", "classic", "--n", "6", "--k", "3"],
              {"stirlingkit.families"}, _VALUE_PATH | _ROUTES | {"stirlingkit.series"}),
    "table-csv": (["table", "--family", "classic", "--nmax", "4", "--format", "csv"],
                  {"stirlingkit.families"}, _VALUE_PATH | _ROUTES | {"stirlingkit.series"}),
    "series": (["series", "--family", "classic", "--k", "2", "--order", "5"],
               {"stirlingkit.families", "stirlingkit.series"}, _VALUE_PATH | _ROUTES),
    # an alpha != 0 family reads the ordinary column, in the same modules
    "value-alpha": (["value", "--family", "generalized", *_ALPHA, "--n", "12", "--k", "5"],
                    {"stirlingkit.families"}, _VALUE_PATH | _ROUTES | {"stirlingkit.series"}),
    "table-alpha": (["table", "--family", "gen_restricted", *_ALPHA, "--ell", "3", "--nmax", "6"],
                    {"stirlingkit.families"}, _VALUE_PATH | _ROUTES | {"stirlingkit.series"}),
    "series-alpha": (["series", "--family", "generalized", *_ALPHA, "--k", "2", "--order", "9"],
                     {"stirlingkit.families", "stirlingkit.series"}, _VALUE_PATH | _ROUTES),
    # the recurrence has a route module, as the oracle has, and loads no other
    "value-recurrence": (["value", "--family", "classic", "--n", "6", "--k", "3",
                          "--method", "recurrence"],
                         {"stirlingkit.schemes", _RECURRENCE},
                         _VALUE_PATH | (_ROUTES - {_RECURRENCE}) | {"stirlingkit.series"}),
    "asympt-text": (["asympt", "--n", "4", "--k", "3,5", *_GEN],
                    {"stirlingkit.asymptotics"},
                    {"stirlingkit.audit", "dataclasses", "stirlingkit.families",
                     "stirlingkit.oracle", "stirlingkit.core", "stirlingkit.generalized",
                     "stirlingkit.incomplete", "stirlingkit.series", _RECURRENCE}),
    "verify": (["verify", "--suite", "thm3", "--nmax", "3"],
               {"stirlingkit.audit", _RECURRENCE},
               {"stirlingkit.families", "dataclasses", "inspect"}),
    "value-oracle": (["value", "--family", "classic", "--n", "6", "--k", "3", "--method", "oracle"],
                     {"stirlingkit.oracle"}, {"stirlingkit.audit", _RECURRENCE}),
    "value-check": (["value", "--family", "classic", "--n", "6", "--k", "3", "--check"],
                    {"stirlingkit.oracle", _RECURRENCE}, {"stirlingkit.audit"}),
}


def _loaded(body: str, *argv: str, flags: tuple = ()) -> set:
    done = subprocess.run(
        [sys.executable, *flags, "-c", _CHILD.format(body=body), *argv],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": _SRC},
    )
    assert done.returncode == 0, done.stderr
    return set(done.stderr.splitlines()[-1].split())


def test_import_loads_no_submodule():
    loaded = _loaded("import stirlingkit")
    assert "stirlingkit" in loaded
    assert not {name for name in loaded if name.startswith("stirlingkit.")}


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_a_command_loads_only_what_it_runs(command):
    argv, present, absent = _COMMANDS[command]
    loaded = _loaded(_CLI, *argv)
    assert present <= loaded
    assert not loaded & absent


@pytest.mark.parametrize("command", ["value", "table-csv", "value-alpha", "table-alpha",
                                     "series-alpha"])
def test_the_egf_path_loads_exactly_its_layers(command):
    loaded = _loaded(_CLI, *_COMMANDS[command][0])
    extra = {"stirlingkit.series"} if command.startswith("series") else set()
    assert {name for name in loaded if name.startswith("stirlingkit")} == _EGF_PATH | extra


_FAMILY_ARGS = {"classic": [], "restricted": ["--ell", "2"], "associated": ["--ell", "2"],
                "degenerate": ["--lambda", "1/2"], "generalized": _GEN[:6],
                "gen_restricted": _GEN, "free_atleast": ["--gamma", "2", "--ell", "1"],
                "partial_degenerate": _GEN, "colored_singleton": ["--r", "2", "--s", "3"]}


@pytest.mark.parametrize("family", list(_FAMILY_ARGS))
def test_the_recurrence_loads_the_egf_path_for_every_family(family):
    # the scheme declares its equation, and the recurrence module reads it:
    # the egf path's layers and that one route module, for every family
    argv = ["value", "--family", family, *_FAMILY_ARGS[family], "--n", "6", "--k", "3",
            "--method", "recurrence"]
    loaded = _loaded(_CLI, *argv)
    assert {name for name in loaded if name.startswith("stirlingkit")} == _EGF_PATH | {_RECURRENCE}


def test_asympt_loads_exactly_its_layers():
    loaded = _loaded(_CLI, *_COMMANDS["asympt-text"][0])
    assert {name for name in loaded if name.startswith("stirlingkit")} == _ASYMPT_PATH


_PRINTED_ROUTES = ("partial_deg_convolution", "partial_deg_recursion", "partial_deg_multinomial",
                   "partial_deg_derivative_recursion", "_splits", "_composition_table",
                   "_iter_heads")


def test_asympt_compiles_none_of_the_printed_routes():
    # asympt loads partial for partial_deg; the printed routes, which only the
    # audit scores, live in the audit
    body = """\
from stirlingkit import cli, partial
assert cli.main(%r) == 0
assert not set(vars(partial)) & set(%r), sorted(vars(partial))
""" % (_COMMANDS["asympt-text"][0], _PRINTED_ROUTES)
    assert "stirlingkit.partial" in _loaded(body)
    audit = importlib.import_module("stirlingkit.audit")
    assert all(hasattr(audit, name) for name in _PRINTED_ROUTES)


def test_only_the_scheme_reads_its_columns():
    # the scheme keeps its declaration and its store, and value is the one
    # reader of a column; the series views and the recurrence are functions
    # of the modules that hold them, and series.egf reads values only
    from stirlingkit import schemes, series

    assert not {"_series", "_over", "sys"} & set(vars(schemes))
    assert not {"egf", "block_series", "special_series", "recurrence"} & set(
        vars(schemes.WeightScheme))
    assert not {"_column", "_lock", "_by_k", "scaling"} & set(series.egf.__code__.co_names)


def test_the_patch_points_stay_live():
    # the benchmark's reference routes patch these names before a fresh
    # interpreter's first call; the commands must read them when they run
    body = """\
import contextlib, io, json
from stirlingkit import asymptotics, cli
from stirlingkit.series import TruncatedSeries

def run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(argv)) == 0
    return out.getvalue()

cli.family_egf = lambda spec, k, order: TruncatedSeries([7] * (order + 1), order)
lines = run("series", "--family", "classic", "--k", "2", "--order", "3").splitlines()
assert [line.split()[1] for line in lines] == ["7"] * 4, lines
asympt = ["asympt", "--n", "4", "--k", "3,5", "--gamma", "1", "--alpha", "1", "--beta", "2",
          "--ell", "2", "--format", "json"]
real = asymptotics.partial_deg
# k >= 2: only the exact side of a row reads these (psi reads k = 1)
asymptotics.partial_deg = lambda n, k, *rest: real(n, k, *rest) + (k >= 2)
patched = json.loads(run(*asympt))
asymptotics.partial_deg = real
plain = json.loads(run(*asympt))
assert [row["estimate"] for row in patched] == [row["estimate"] for row in plain]
assert all(p["exact"] != q["exact"] for p, q in zip(patched, plain)), (patched, plain)
bell = asymptotics.partial_bell
# j >= 1: every row's expansion has such a term, and no exact side reads these
asymptotics.partial_bell = lambda n, j, a: bell(n, j, a) + (j >= 1)
patched = json.loads(run(*asympt))
asymptotics.partial_bell = bell
assert [row["exact"] for row in patched] == [row["exact"] for row in plain]
assert all(p["estimate"] != q["estimate"] for p, q in zip(patched, plain)), (patched, plain)
"""
    _loaded(body)


def test_every_route_runs_from_a_cold_start():
    # a route imports its module when first called, which happens in a
    # fresh interpreter only: pytest's own process has loaded every module
    body = """\
from fractions import Fraction
import stirlingkit.families as f
params = dict(alpha=Fraction(1, 2), beta=Fraction(-1, 3), gamma=Fraction(2, 5),
              lam=Fraction(-3, 7), ell=2, r=3, s=2)
for tag, family in f.FAMILIES.items():
    spec = f.FamilySpec(tag, **{name: params[name] for name in family.params})
    a1, p, b, degree, q = family.scheme(spec).ode
    methods = ["recurrence"] + ["explicit"] * (degree == 0 and (b != 0 or q(0) == 0))
    for n in range(7):
        for k in range(n + 1):
            for method in methods:
                assert f.family_value(spec, n, k, method) == f.family_value(spec, n, k), (tag, n, k)
"""
    loaded = _loaded(body)
    # the recurrence and the explicit sums have a module each, and no other
    # route module loads
    assert loaded & _ROUTES == {"stirlingkit.generalized", _RECURRENCE}


@pytest.mark.parametrize(
    "command", ["value", "table-csv", "series", "asympt-text", "value-oracle", "value-check"]
)
def test_the_value_path_imports_no_typing(command):
    # -S: a site-packages .pth file may import typing before the package does
    loaded = _loaded(_CLI, *_COMMANDS[command][0], flags=("-S",))
    assert _COMMANDS[command][1] <= loaded
    assert "typing" not in loaded


def test_the_oracle_and_the_schemes_import_apart():
    # the enumeration checks the schemes, so neither is built on the other
    oracle = _loaded("import stirlingkit.oracle")
    assert "stirlingkit.oracle" in oracle
    assert not oracle & {"stirlingkit.schemes", "stirlingkit.series"}
    schemes = _loaded("import stirlingkit.schemes")
    assert "stirlingkit.schemes" in schemes
    assert "stirlingkit.oracle" not in schemes


def test_every_module_level_cache_is_bounded():
    # a long-lived caller asking for ever new arguments must not grow any
    # cache without limit; an unbounded one reports maxsize None
    for info in pkgutil.iter_modules(stirlingkit.__path__):
        module = importlib.import_module("stirlingkit." + info.name)
        for name, value in vars(module).items():
            if hasattr(value, "cache_parameters"):
                assert value.cache_parameters()["maxsize"] is not None, (info.name, name)


def test_every_export_names_the_module_that_defines_it():
    # the lazy map must name the defining module, not one that re-exports
    # the name, so a move cannot leave it resolving through an import
    for module, names in stirlingkit._EXPORTS.items():
        loaded = importlib.import_module("stirlingkit." + module)
        for name in names:
            value = getattr(loaded, name)
            if inspect.isfunction(value) or inspect.isclass(value):
                assert value.__module__ == loaded.__name__, (module, name)


def test_every_public_name_resolves_to_its_submodule_object():
    names = dir(stirlingkit)
    for name in stirlingkit.__all__:
        value = getattr(stirlingkit, name)
        assert value is getattr(sys.modules[value.__module__], name), name
        assert name in names


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        stirlingkit.no_such_name


def test_star_and_submodule_imports():
    namespace: dict = {}
    exec("from stirlingkit import *", namespace)
    for name in stirlingkit.__all__:
        assert namespace[name] is getattr(stirlingkit, name)
    exec("from stirlingkit import asymptotics", namespace)
    assert namespace["asymptotics"].partial_bell is stirlingkit.partial_bell
    assert "audit" in dir(stirlingkit)


def test_a_submodule_is_an_attribute_after_import_stirlingkit():
    loaded = _loaded("import stirlingkit\nstirlingkit.audit.run_suite")
    assert "stirlingkit.audit" in loaded
    assert "stirlingkit.cli" not in loaded
