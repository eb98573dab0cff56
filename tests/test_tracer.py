"""The benchmark's tracer still sees every layer.

perfbench/shim.py wraps bentkit's entry points by module and name, and
rebinds every module-level alias of each.  The checker and ReducedPoly
live in bentkit.boolfun, and bentkit.verify re-exports them, so each op
is run under the shim in a fresh interpreter: the shim must find every
entry point but the three it already reports as gone, and the spans of
the checker, the transforms, the sweep and the sampler must all appear.
The shim is only run here, never changed.
"""

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from bentkit import boolfun as bf
from bentkit import specs as sp

ROOT = Path(__file__).resolve().parent.parent
SHIM = ROOT / "perfbench" / "shim.py"

# entry points the shim still lists that no longer exist
STALE = ("gf2n.Field.squaring_perm", "gf2n.BivariateDomain.squaring_perm",
         "gf2n.Field.pow")

# each op, and the spans it must show
OPS = [
    (["verify", "f.tt", "--dual", "f.dual.tt", "--expect",
      "bent,idempotent"],
     {"verify.verify", "boolfun.anf", "boolfun.walsh", "boolfun.parse_tt"}),
    (["sweep", "--family", "KasamiIdempotent", "--m", "3", "--trials", "2"],
     {"verify.verify", "boolfun.anf", "boolfun.walsh", "verify.sweep",
      "constructions.sample"}),
]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A directory with a bent n = 6 table f.tt and its dual f.dual.tt."""
    path = tmp_path_factory.mktemp("tracer")
    pair = sp.build(sp.FAMILIES["KasamiIdempotent"].sample(6,
                                                           random.Random(0)))
    bf.save_tt(pair.f, path / "f.tt")
    bf.save_tt(pair.predicted_dual, path / "f.dual.tt")
    return path


def traced(argv, cwd):
    """(the shim's stderr lines, its trace) of one op run under it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = subprocess.run([sys.executable, str(SHIM), "trace.json", "0",
                          repr(time.perf_counter()), *argv],
                         env=env, cwd=cwd, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return (out.stderr.splitlines(),
            json.loads((cwd / "trace.json").read_text()))


@pytest.mark.parametrize("argv, names", OPS, ids=["verify", "sweep"])
def test_the_shim_finds_every_live_entry_point(workdir, argv, names):
    err, trace = traced(argv, workdir)
    missing = [line for line in err if "not found" in line]
    assert missing and all(
        any(f"shim: {stale} not found" in line for stale in STALE)
        for line in missing), missing
    spans = trace["spans"]
    assert names <= {span[0] for span in spans}
    # degree still calls anf, inside the checker
    assert all(spans[span[3]][0] == "verify.verify"
               for span in spans if span[0] == "boolfun.anf")
