"""What `import stirlingkit` and each CLI call load: the package resolves
its public names on first use, and a command imports only the layers it
runs.  Each import check runs in a fresh interpreter."""

import os
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
_VALUE_PATH = {"stirlingkit.audit", "stirlingkit.asymptotics", "dataclasses", "json", "csv"}

# command -> (argv, modules it loads, modules it must not load)
_COMMANDS = {
    "value": (["value", "--family", "classic", "--n", "6", "--k", "3"],
              {"stirlingkit.families"}, _VALUE_PATH),
    "table-csv": (["table", "--family", "classic", "--nmax", "4", "--format", "csv"],
                  {"stirlingkit.families"}, _VALUE_PATH),
    "series": (["series", "--family", "classic", "--k", "2", "--order", "5"],
               {"stirlingkit.families"}, _VALUE_PATH),
    "asympt-text": (["asympt", "--n", "4", "--k", "3,5", *_GEN],
                    {"stirlingkit.asymptotics"}, {"stirlingkit.audit", "dataclasses"}),
}


def _loaded(body: str, *argv: str) -> set:
    done = subprocess.run(
        [sys.executable, "-c", _CHILD.format(body=body), *argv],
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
