"""The package loads only the layers a command runs.

`import bentkit` is lazy, and the commands that build nothing (verify,
walsh, anf, dual, field) never load bentkit.constructions.  Only the
commands that read or draw a spec (construct and sweep) load bentkit.specs,
so the demos compile the constructors and no spec layer.  No command
loads dataclasses or the inspect it imports: the records are named
tuples.  Each import check runs in a fresh interpreter without site
(python -S), since this one has loaded everything and a site hook may
load modules of its own.  The CLI, and only the CLI, freezes every object
at exit, so that CPython's last collections skip them.
"""

import importlib
import json
import os
import random
import subprocess
import sys
import types
from pathlib import Path

import pytest

import bentkit
from bentkit import boolfun as bf
from bentkit import specs as sp

SRC = str(Path(__file__).resolve().parent.parent / "src")

# runs bentkit.cli.main(argv) and prints its exit code, the modules
# loaded and those of them that define FAMILIES or spec_from_json
RUN_CLI = """\
import contextlib, io, json, sys
from bentkit.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
spec_layer = [name for name, module in sys.modules.items()
              if {"FAMILIES", "spec_from_json"} & set(vars(module))]
print(json.dumps([code, sorted(sys.modules), sorted(spec_layer)]))
"""

# registers an exit hook before anything of bentkit is imported, so that
# it runs after every hook bentkit registers, then runs the code in argv[1];
# the hook prints the number of objects frozen at exit
FROZEN_AT_EXIT = """\
import atexit, gc, json, sys
atexit.register(lambda: print(json.dumps(gc.get_freeze_count())))
exec(sys.argv[1])
"""

# each command, and whether it loads bentkit.constructions
COMMANDS = [
    (["verify", "f.tt"], False),
    (["walsh", "f.tt"], False),
    (["anf", "f.tt"], False),
    (["dual", "f.tt", "-o", "dual.tt"], False),
    (["field", "--n", "8"], False),
    (["construct", "spec.json"], True),
    (["sweep", "--family", "QuadIdem", "--m", "2", "--trials", "1"], True),
    (["demo", "carlet", "--m", "2"], True),
    (["demo", "mesnager", "--m", "3"], True),
]


def fresh_python(code, *argv, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = subprocess.run([sys.executable, "-S", "-c", code, *argv], env=env,
                         cwd=cwd, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A directory with a bent table f.tt and the spec.json it came from."""
    path = tmp_path_factory.mktemp("imports")
    spec = sp.FAMILIES["KasamiIdempotent"].sample(6, random.Random(0))
    (path / "spec.json").write_text(sp.spec_to_json(spec))
    bf.save_tt(sp.build(spec).f, path / "f.tt")
    return path


@pytest.fixture(scope="module")
def run(workdir):
    """argv -> (the modules loaded once cli.main(argv) returned 0, those
    of them that define FAMILIES or spec_from_json), each command run once
    in a fresh interpreter."""
    runs = {}

    def ran(argv):
        if tuple(argv) not in runs:
            code, *loaded = fresh_python(RUN_CLI, *argv, cwd=workdir)
            assert code == 0
            runs[tuple(argv)] = loaded
        return runs[tuple(argv)]
    return ran


@pytest.fixture(scope="module")
def loaded_by(run):
    """argv -> the modules loaded once cli.main(argv) returned 0."""
    return lambda argv: run(argv)[0]


@pytest.mark.parametrize("argv, loads_constructions", COMMANDS)
def test_only_the_commands_that_build_load_constructions(
        loaded_by, argv, loads_constructions):
    assert ("bentkit.constructions" in loaded_by(argv)) == loads_constructions


@pytest.mark.parametrize("argv", [argv for argv, _ in COMMANDS])
def test_only_construct_and_sweep_load_specs(loaded_by, argv):
    assert ("bentkit.specs" in loaded_by(argv)) == (
        argv[0] in ("construct", "sweep"))


@pytest.mark.parametrize("argv", [argv for argv, _ in COMMANDS
                                  if argv[0] == "demo"])
def test_the_demos_compile_no_spec_layer(run, argv):
    assert run(argv)[1] == []


@pytest.mark.parametrize("argv", [argv for argv, _ in COMMANDS])
def test_no_command_loads_dataclasses_or_inspect(loaded_by, argv):
    loaded = set(loaded_by(argv))
    assert "bentkit.cli" in loaded
    assert not loaded & {"dataclasses", "inspect"}


def test_the_cli_freezes_every_object_at_exit():
    frozen = fresh_python(FROZEN_AT_EXIT, "from bentkit.cli import main\n"
                          "assert main(['field', '--n', '8']) == 0")
    assert frozen > 0


def test_library_use_keeps_the_exit_collection():
    frozen = fresh_python(FROZEN_AT_EXIT,
                          "import bentkit.specs, bentkit.verify")
    assert frozen == 0


def test_import_bentkit_loads_no_submodule():
    loaded = fresh_python(
        "import json, sys, bentkit; print(json.dumps(sorted("
        "m for m in sys.modules if m.startswith('bentkit.'))))")
    assert loaded == []


def test_every_export_is_its_submodules_object():
    for module, names in bentkit._EXPORTS.items():
        owner = importlib.import_module(f"bentkit.{module}")
        for name in names:
            assert getattr(bentkit, name) is getattr(owner, name), name
    star = {}
    exec("from bentkit import *", star)
    assert set(bentkit.__all__) <= set(star)


def test_dir_lists_the_exports_and_verify_is_the_submodule():
    listed = dir(bentkit)
    assert set(bentkit.__all__) <= set(listed)
    assert set(bentkit._EXPORTS) <= set(listed)
    assert isinstance(bentkit.verify, types.ModuleType)
    assert bentkit.verify is sys.modules["bentkit.verify"]
    assert bentkit.verify.verify is not bentkit.verify


def test_an_unknown_attribute_is_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        bentkit.no_such_name
    assert not hasattr(bentkit, "walsh_naive")
