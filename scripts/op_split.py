"""Split the CPU time of one bentkit op into its parts, in fresh processes.

Run from anywhere:

    python scripts/op_split.py [ROOT ...] [--runs 21] [--cpu N]

Each ROOT is a checkout (default: the one holding this script); give two,
say a parent commit unpacked with `git archive` and the change, to compare
them.  Each run starts one op of every benchmark workload for every ROOT,
the ROOTs in turn and their order reversed from one run to the next, each
in a fresh interpreter started as the benchmark starts it (`python -c`,
PYTHONDONTWRITEBYTECODE=1).  bentkit is imported from a copy of ROOT/src
without `__pycache__`, so it is compiled afresh, as in the benchmark's new
checkout.  The ops are the benchmark's at its default seed, 0, read from
perfbench/inputs.py (which this script only imports):

- carlet-n14: `demo carlet --m 7 --json`;
- sweep-small: its KasamiGeneral sweep, one of its ten ops (60 instances);
- verify-n16: `verify --dual --expect ... --json` of the kasami_idem table
  (n = 16), built once per ROOT by `construct` before the runs.

The child reads time.process_time at each boundary, and the whole op is
the child's user + system CPU from wait4:

- interpreter and site: the CPU spent before the child's first statement;
- bentkit's import and compile: `from bentkit import cli`;
- argument parsing: `cli.parse(argv)`, which every ROOT's CLI must have;
- the checks: the command itself, `args.func(args)`;
- exit and the rest: the whole op minus the parts above.

It prints one table per workload: the median of each part over the runs
in ms, and its share of the median whole op.  --cpu N pins this process,
and so every child, to CPU N.  Standard library only.
"""

from __future__ import annotations

import argparse
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "perfbench"))

import inputs  # noqa: E402

SEED = 0                # the benchmark's default seed, with golden records
WORKLOADS = ("carlet-n14", "sweep-small", "verify-n16")

PARTS = ("interpreter and `site`", "bentkit's import and compile",
         "argument parsing",
         "the checks (construction, transforms, claims)",
         "exit and the rest")

# argv: the file for the times, then the op's arguments
CHILD = """\
import sys, time
t = [time.process_time()]
from bentkit import cli
t.append(time.process_time())
args = cli.parse(sys.argv[2:])
t.append(time.process_time())
code = args.func(args)
t.append(time.process_time())
with open(sys.argv[1], "w") as out:
    out.write(" ".join(map(repr, t)))
sys.exit(code)
"""


def workload_ops(work: Path) -> dict[str, list[str]]:
    """workload -> the argv of its op; writes the verify op's spec."""
    name, spec, claims = inputs.verify_specs(SEED)[0]
    (work / f"{name}.json").write_text(inputs.spec_text(spec))
    return {
        "carlet-n14": ["demo", "carlet", "--m", str(inputs.CARLET_M),
                       "--seed", str(inputs.carlet_seed(SEED)), "--json"],
        "sweep-small": inputs.sweep_argv("KasamiGeneral",
                                         inputs.sweep_seed(SEED)),
        "verify-n16": ["verify", f"{name}.tt", "--dual", f"{name}.dual.tt",
                       "--expect", claims, "--json"],
        "construct": ["construct", f"{name}.json", "--json"],
    }


class Tree:
    """One checkout's fresh copy of src and its working directory."""

    def __init__(self, root: Path, scratch: Path):
        self.label = str(root)
        shutil.copytree(root / "src", scratch / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
        self.work = scratch / "work"
        self.work.mkdir()
        self.env = dict(os.environ, PYTHONPATH=str(scratch / "src"),
                        PYTHONDONTWRITEBYTECODE="1")
        self.ops = workload_ops(self.work)
        self.run("construct")
        self.samples = {w: [] for w in WORKLOADS}

    def run(self, workload: str) -> list[float]:
        """Run one op; returns its parts' CPU seconds, in PARTS order."""
        times = self.work / "times.txt"
        with open(self.work / "stdout.txt", "wb") as out:
            proc = subprocess.Popen(
                [sys.executable, "-c", CHILD, str(times), *self.ops[workload]],
                cwd=self.work, env=self.env, stdout=out,
                stderr=subprocess.PIPE)
            err = proc.stderr.read()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode:
            sys.exit(f"{self.label}: {workload} exited {proc.returncode}: "
                     f"{err.decode(errors='replace')[-300:]}")
        site, imported, parsed, checked = map(float,
                                              times.read_text().split())
        whole = usage.ru_utime + usage.ru_stime
        return [site, imported - site, parsed - imported, checked - parsed,
                whole - checked]


def report(workload: str, trees: list[Tree]) -> None:
    print(f"\n{workload}\n")
    print("| part | " + " | ".join(t.label for t in trees) + " |")
    print("|---" * (len(trees) + 1) + "|")
    wholes = [statistics.median(map(sum, t.samples[workload]))
              for t in trees]
    for i, part in enumerate(PARTS):
        cells = []
        for t, whole in zip(trees, wholes):
            ms = statistics.median(s[i] for s in t.samples[workload])
            cells.append(f"{1e3 * ms:.1f} ms ({100 * ms / whole:.0f}%)")
        print(f"| {part} | " + " | ".join(cells) + " |")
    print("| whole op | " + " | ".join(f"{1e3 * w:.1f} ms" for w in wholes)
          + " |")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("roots", nargs="*", type=Path, default=[HERE.parent])
    ap.add_argument("--runs", type=int, default=21)
    ap.add_argument("--cpu", type=int, help="pin every process to this CPU")
    args = ap.parse_args(argv)
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    with tempfile.TemporaryDirectory(prefix="op_split-") as tmp:
        trees = []
        for i, root in enumerate(args.roots):
            (Path(tmp) / str(i)).mkdir()
            trees.append(Tree(root.resolve(), Path(tmp) / str(i)))
        for r in range(args.runs):
            for w in WORKLOADS:
                for t in (trees if r % 2 == 0 else trees[::-1]):
                    t.samples[w].append(t.run(w))
    print(f"medians of {args.runs} interleaved runs, seed {SEED}, "
          f"{sys.implementation.name} {sys.version.split()[0]}")
    for w in WORKLOADS:
        report(w, trees)
    return 0


if __name__ == "__main__":
    sys.exit(main())
