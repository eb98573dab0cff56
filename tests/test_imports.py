"""The package loads only the layers a command runs.

`import bentkit` is lazy, and the commands that build nothing (verify,
walsh, anf, dual, field) never load bentkit.constructions.  Each import
check runs in a fresh interpreter, since this one has loaded everything.
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
from bentkit import constructions as cx

SRC = str(Path(__file__).resolve().parent.parent / "src")

# runs bentkit.cli.main(argv) and prints its exit code and the bentkit
# modules it loaded
RUN_CLI = """\
import contextlib, io, json, sys
from bentkit.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules
                               if m.startswith("bentkit"))]))
"""


def fresh_python(code, *argv, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                         cwd=cwd, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A directory with a bent table f.tt and the spec.json it came from."""
    path = tmp_path_factory.mktemp("imports")
    spec = cx.FAMILIES["KasamiIdempotent"].sample(6, random.Random(0))
    (path / "spec.json").write_text(cx.spec_to_json(spec))
    bf.save_tt(cx.build(spec).f, path / "f.tt")
    return path


@pytest.mark.parametrize("argv, loads_constructions", [
    (["verify", "f.tt"], False),
    (["walsh", "f.tt"], False),
    (["anf", "f.tt"], False),
    (["dual", "f.tt", "-o", "dual.tt"], False),
    (["field", "--n", "8"], False),
    (["construct", "spec.json"], True),
    (["sweep", "--family", "QuadIdem", "--m", "2", "--trials", "1"], True),
    (["demo", "carlet", "--m", "2"], True),
])
def test_only_the_commands_that_build_load_constructions(
        workdir, argv, loads_constructions):
    code, loaded = fresh_python(RUN_CLI, *argv, cwd=workdir)
    assert code == 0
    assert ("bentkit.constructions" in loaded) == loads_constructions


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
