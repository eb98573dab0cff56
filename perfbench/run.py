"""bentkit benchmark: fresh-process CLI ops, checked, timed and traced.

    python3 perfbench/run.py --workload carlet-n14 --seed 0 --seconds 30 --trace 0

Run from any directory; the checkout root is the parent of this file's
directory and must hold the source tree (src/bentkit).  Each op runs the
bentkit CLI as a child process, one at a time (a closed loop with one
client), so every op pays the interpreter start and the cold caches a user
pays.  Every op's output is checked; with the default seed it must also
match the committed golden record.  Set-up (making the inputs plus one
warm-up op) runs SETUP_REPS times and setup_s is the median.

Times are calibrated CPU seconds.  An op's CPU time (user + system, from
wait4) is divided by the CPU time of a fixed pure-Python reference loop
run in this process just before and just after the op, and multiplied by
REF_S, that loop's time on a quiet machine.  A shared host slows every
process by up to 2x, in spells of seconds to minutes; the reference slows
with the op, so the ratio holds still.  Raw CPU and wall
times are kept in the --out record, and the wall figures are printed.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones:
rounds of plain ops alternate with the same rounds run through shim.py.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  --write-golden (default seed only) runs
every distinct op once and rewrites this workload's golden record.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import analysis
import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden.json"
SHIM = HERE / "shim.py"
CLI = "import sys; from bentkit.cli import main; sys.exit(main())"

DEFAULT_SEED = 0
SETUP_REPS = 3
REF_N = 11              # a reference sample: a Walsh transform on 2^11
REF_MULS = 600          # points and 600 products in GF(2^14)
REF_SAMPLES = 4         # samples before and again after every op
REF_S = 0.0025          # CPU seconds of one sample on a quiet core
RUN_LIMIT_S = 170.0     # every run must end within 180 s
OP_TIMEOUT_S = 120.0
DUAL_FAMILIES = {"KasamiIdempotent", "KasamiAntiSelfDual", "MMLinear"}


@dataclass
class Op:
    argv: list[str]                         # arguments after `bentkit`
    instances: int                          # VerificationReports it yields
    check: Callable[[object], list[str]]    # problems in the --json output
    cwd: Path

    @property
    def key(self) -> str:
        return " ".join(self.argv)


@dataclass
class Result:
    op: Op
    wall: float
    cpu: float          # user + system seconds of the op's process
    rss_mb: float
    problems: list[str]
    doc: object
    trace: dict | None
    timed: bool
    refs: list[float]   # reference samples taken around the op

    @property
    def calibrated(self) -> float:
        """The op's CPU seconds at the reference's quiet-machine speed."""
        return self.cpu * REF_S / statistics.median(self.refs)


@dataclass
class Plan:
    warmup: Op
    round: list[Op]     # a run repeats this round of ops, whole


class Runner:
    """Starts, times, checks and records ops for one workload run."""

    def __init__(self, workload: str, seed: int, work: Path, record: bool):
        self.workload = workload
        golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
        self.golden = (golden.get(workload, {})
                       if seed == DEFAULT_SEED and not record else None)
        self.recorded: dict | None = {} if record else None
        self.work = work
        self.results: list[Result] = []
        self.ref_cpu = 0.0      # this process's CPU spent in reference()
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        src = str(ROOT / "src")
        old = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ,
                        PYTHONPATH=src + (os.pathsep + old if old else ""))

    def time_left(self) -> float:
        return self.deadline - time.perf_counter()

    def run(self, op: Op, timed: bool = True, traced: bool = False) -> Result:
        trace_path = self.work / f"trace-{len(self.results)}.json"
        out_path = self.work / "stdout.txt"
        err_path = self.work / "stderr.txt"
        refs = self.reference()
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            argv = ([sys.executable, str(SHIM), str(trace_path),
                     str(len(self.results)), repr(t0)] if traced
                    else [sys.executable, "-c", CLI])
            status, usage, timed_out = _run_child(
                argv + op.argv, op.cwd, self.env, out, err,
                max(0.0, min(OP_TIMEOUT_S, self.time_left())))
            wall = time.perf_counter() - t0
        refs += self.reference()
        problems, doc = [], None
        code = os.waitstatus_to_exitcode(status)
        if timed_out:
            problems.append("timed out")
        elif code != 0:
            problems.append(f"exit code {code}: "
                            f"{err_path.read_text(errors='replace')[-300:]}")
        else:
            try:
                doc = json.loads(out_path.read_text())
            except ValueError as exc:
                problems.append(f"output is not JSON: {exc}")
        trace = None
        if doc is not None:
            problems += op.check(doc)
            problems += self._golden(op, doc)
            if traced and trace_path.exists():
                trace = json.loads(trace_path.read_text())
            elif traced:
                problems.append("the shim wrote no trace")
        res = Result(op, wall, usage.ru_utime + usage.ru_stime,
                     usage.ru_maxrss / 1024.0, problems, doc, trace, timed,
                     refs)
        self.results.append(res)
        for problem in problems:
            print(f"FAIL {self.workload}: bentkit {op.key}: {problem}",
                  file=sys.stderr)
        return res

    def reference(self) -> list[float]:
        samples = [reference_loop() for _ in range(REF_SAMPLES)]
        self.ref_cpu += sum(samples)
        return samples

    def _golden(self, op: Op, doc) -> list[str]:
        entry = {"output": analysis.normalize(doc)}
        if isinstance(doc, dict) and "files" in doc:
            entry["sha256"] = {
                name: hashlib.sha256(path.read_bytes()).hexdigest()
                if (path := op.cwd / name).is_file() else None
                for name in doc["files"]}
        if self.recorded is not None:
            self.recorded[op.key] = entry
            return []
        if self.golden is None:
            return []
        return analysis.golden_problems(self.golden.get(op.key), entry)


def reference_loop() -> float:
    """CPU seconds of one fixed sample of the CLI's kind of work.

    A fast Walsh-Hadamard transform of a +-1 table on 2^REF_N points and
    REF_MULS shift-and-xor products modulo x^14 + x + 1, written here so
    that no change to bentkit changes it.  It runs in the interpreter the
    ops run in, so a slow spell of the machine slows it about as much as
    it slows an op."""
    t0 = time.process_time()
    size = 1 << REF_N
    a = [1 - 2 * ((i * 2654435761 >> 7) & 1) for i in range(size)]
    h = 1
    while h < size:
        for i in range(0, size, 2 * h):
            for j in range(i, i + h):
                x, y = a[j], a[j + h]
                a[j], a[j + h] = x + y, x - y
        h *= 2
    for k in range(1, REF_MULS + 1):
        x, y, prod = k, 7 * k + 3, 0
        while y:
            if y & 1:
                prod ^= x
            y >>= 1
            x <<= 1
            if x >> 14:
                x ^= 0x4003
    return time.process_time() - t0


def _run_child(argv, cwd, env, out, err, timeout: float):
    """Run one child to the end; returns (wait status, rusage, timed out).

    wait4 gives this child's own peak RSS.  A pidfd lets the wait have a
    timeout without a polling loop or a race with pid reuse.
    """
    proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
    fd = os.pidfd_open(proc.pid)
    timed_out = reaped = False
    try:
        if not select.select([fd], [], [], timeout)[0]:
            signal.pidfd_send_signal(fd, signal.SIGKILL)
            timed_out = True
        _, status, usage = os.wait4(proc.pid, 0)
        reaped = True
    finally:
        if not reaped:
            signal.pidfd_send_signal(fd, signal.SIGKILL)
            os.wait4(proc.pid, 0)
        os.close(fd)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return status, usage, timed_out


# ---------------------------------------------------------------------------
# output checks that hold for every seed
# ---------------------------------------------------------------------------

def _check_carlet(m: int):
    def check(doc) -> list[str]:
        if not isinstance(doc, list) or [e.get("d") for e in doc] != \
                list(range(2, m + 1)):
            return [f"expected one report per degree 2..{m}"]
        return [f"d={e['d']}: claims not met" for e in doc
                if not (e["all_claims_met"] and e["dual_idempotent"]
                        and e["is_bent"] and e["idempotent"]
                        and e["degree"] == e["d"] and e["dual_match"])]
    return check


def _check_sweep(family: str):
    want = inputs.sweep_instances(family)

    def check(doc) -> list[str]:
        if (doc.get("family") != family or doc.get("trials") != want
                or doc.get("claims_met") != want
                or doc.get("dual_matched") != doc.get("dual_checked")):
            return [f"expected {want}/{want} {family} claims met"]
        return []
    return check


def _check_construct(files: list[str]):
    def check(doc) -> list[str]:
        if not isinstance(doc, dict) or not doc.get("all_claims_met"):
            return ["construct report has unmet claims"]
        if doc.get("files") != files:
            return [f"wrote {doc.get('files')}, expected {files}"]
        return []
    return check


def _check_verify(construct_doc: dict):
    want = {k: v for k, v in analysis.normalize(construct_doc).items()
            if k != "files"}

    def check(doc) -> list[str]:
        if not isinstance(doc, dict) or not doc.get("all_claims_met"):
            return ["verify report has unmet claims"]
        if analysis.normalize(doc) != want:
            return ["verify report differs from the construct report"]
        return []
    return check


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def plan_carlet(seed: int, work: Path, runner: Runner) -> Plan:
    def op(m):
        return Op(["demo", "carlet", "--m", str(m), "--seed",
                   str(inputs.carlet_seed(seed)), "--json"],
                  m - 1, _check_carlet(m), work)
    return Plan(op(inputs.CARLET_WARMUP_M), [op(inputs.CARLET_M)])


def plan_sweep(seed: int, work: Path, runner: Runner) -> Plan:
    ops = [Op(inputs.sweep_argv(f, inputs.sweep_seed(seed)),
              inputs.sweep_instances(f), _check_sweep(f), work)
           for f in inputs.FAMILIES]
    return Plan(ops[0], ops)


def plan_verify(seed: int, work: Path, runner: Runner) -> Plan:
    ops = []
    for name, spec, claims in inputs.verify_specs(seed):
        (work / f"{name}.json").write_text(inputs.spec_text(spec))
        files = [f"{name}.tt"]
        if spec["family"] in DUAL_FAMILIES:
            files.append(f"{name}.dual.tt")
        res = runner.run(Op(["construct", f"{name}.json", "--json"], 1,
                            _check_construct(files), work), timed=False)
        argv = ["verify", files[0]]
        if len(files) == 2:
            argv += ["--dual", files[1]]
        ops.append(Op(argv + ["--expect", claims, "--json"], 1,
                      _check_verify(res.doc or {}), work))
    return Plan(ops[0], ops)


WORKLOADS = {"carlet-n14": plan_carlet, "sweep-small": plan_sweep,
             "verify-n16": plan_verify}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _per_op(results, clock: str = "calibrated") -> dict[str, tuple]:
    """Per distinct op: (median time over its repetitions, instances).

    `clock` is "calibrated" or "wall".  A failed repetition voids the op's
    instances."""
    times: dict[str, list[float]] = {}
    done: dict[str, int] = {}
    for r in results:
        times.setdefault(r.op.key, []).append(getattr(r, clock))
        done[r.op.key] = (0 if r.problems
                          else done.get(r.op.key, r.op.instances))
    return {k: (statistics.median(v), done[k]) for k, v in times.items()}


def _throughput(results, clock: str = "calibrated") -> float:
    """Instances of every distinct op over the sum of their median times."""
    per_op = _per_op(results, clock).values()
    return sum(n for _, n in per_op) / sum(t for t, _ in per_op)


def _p50(results, clock: str = "calibrated") -> float:
    return statistics.median(t for t, _ in _per_op(results, clock).values())


def end_to_end(timed: list[Result], setup_times: list[float]) -> dict:
    return {
        "instances_per_cpu_s": _throughput(timed),
        "op_cpu_p50_s": _p50(timed),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": max(r.rss_mb for r in timed),
    }


def per_layer(plain: list[Result], traced: list[Result]) -> dict:
    """Per traced op means of the trace totals, plus the derived ratios."""
    totals: dict[str, float] = {}
    rejects = 0
    for res in traced:
        doc = res.trace or {"spans": [], "counts": {},
                            "t_imported": 0.0, "t_spawn": 0.0}
        parts = dict(analysis.span_totals(doc["spans"]), **doc["counts"])
        parts["cli.process_start_s"] = doc["t_imported"] - doc["t_spawn"]
        for name, value in parts.items():
            totals[name] = totals.get(name, 0.0) + value
        rejects += sum(1 for s in doc["spans"]
                       if s[0] == "constructions.sample" and s[5])
    out = {name: value / len(traced) for name, value in totals.items()}
    calls = totals.get("constructions.sample_calls", 0)
    out["constructions.sample_rejects"] = rejects / len(traced)
    out["constructions.sample_accept_ratio"] = (
        (calls - rejects) / calls if calls else 0.0)
    out["trace_overhead_ratio"] = _throughput(traced) / _throughput(plain)
    return out


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version()}


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="also write the result with machine "
                                  "facts to this JSON file")
    ap.add_argument("--write-golden", action="store_true")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "bentkit" / "cli.py").is_file():
        print(f"error: no bentkit source tree under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.write_golden and args.seed != DEFAULT_SEED:
        print("error: the golden record is for the default seed only",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    group = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in group}

    # the reference loop and the ops it calibrates share one core
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    work = ROOT / ".bench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    runner = Runner(args.workload, args.seed, work, args.write_golden)
    setup_times, plan = [], None
    for rep in range(SETUP_REPS):
        rep_dir = work / f"setup{rep}"
        rep_dir.mkdir(parents=True)
        first = len(runner.results)
        cpu0 = time.process_time() - runner.ref_cpu
        rep_plan = WORKLOADS[args.workload](args.seed, rep_dir, runner)
        runner.run(rep_plan.warmup, timed=False)
        ops = runner.results[first:]
        cpu = (time.process_time() - runner.ref_cpu - cpu0
               + sum(r.cpu for r in ops))
        refs = [t for r in ops for t in r.refs]
        setup_times.append(cpu * REF_S / statistics.median(refs))
        plan = plan or rep_plan

    if args.write_golden:
        for op in plan.round:
            runner.run(op, timed=False)
        if any(r.problems for r in runner.results):
            return 1
        golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
        golden[args.workload] = dict(sorted(runner.recorded.items()))
        GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(runner.recorded)} golden entries for "
              f"{args.workload}")
        return 0

    plain, traced = [], []
    start = now = time.perf_counter()
    round_s = 0.0
    # a round starts only if it ends within --seconds, going by the last one
    while not plain or (now - start + round_s <= args.seconds
                        and runner.time_left() > 0):
        plain += [runner.run(op) for op in plan.round]
        if args.trace:
            traced += [runner.run(op, traced=True) for op in plan.round]
        round_s, now = time.perf_counter() - now, time.perf_counter()

    failed = sum(1 for r in runner.results if r.problems)
    attempted = len(runner.results)
    if args.trace:
        values = per_layer(plain, traced)
    else:
        values = end_to_end(plain, setup_times)
    metrics = {name: {"value": values.get(name, 0.0), "unit": unit}
               for name, unit in units.items()}
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(plain)} timed ops, {len(traced)} traced ops, "
          f"{attempted} checked in all")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print(f"  {'fail_ratio':40s} {failed / attempted:.6g} "
          f"({failed}/{attempted} ops)")
    print(f"  {'(wall) instances_per_s':40s} "
          f"{_throughput(plain, 'wall'):.6g} 1/s")
    print(f"  {'(wall) op_p50_s':40s} {_p50(plain, 'wall'):.6g} s")
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"workload": args.workload, "seed": args.seed,
             "trace": args.trace, "seconds": args.seconds,
             "machine": machine(), "result": result,
             "ops": [[r.op.key, r.wall, r.cpu, r.refs, r.rss_mb,
                      not r.problems, r.trace is not None]
                     for r in runner.results if r.timed]},
            indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
