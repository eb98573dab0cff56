"""Compare two sets of benchmark results, metric by metric.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are result files written by `run.py --out`, or directories of
them: typically ten seeds of every workload on the parent commit and the
same seeds on the change.  For each workload and each end-to-end metric of
BENCHMARK.json it prints each side's median and quartiles, the change of
the median, and the verdict of analysis.verdict under the metric's bound:
better, same, worse (beyond the bound) or unresolved (spread wider than
the bound).  Runs are paired by seed for the nine-in-ten wins rule.  The
spread of setup_s is not held to its bound, as in the acceptance rule for
the benchmark itself.  A last row per workload compares failed ops over
attempted ops; any rise is worse.  Exits 1 when anything is worse, else 0.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import analysis

HERE = Path(__file__).resolve().parent


def load(paths) -> dict[str, dict[int, dict]]:
    """workload -> seed -> end-to-end metric values and op counts, from
    the --out records of plain runs."""
    files = []
    for p in map(Path, paths):
        files += sorted(p.glob("*.json")) if p.is_dir() else [p]
    out: dict[str, dict[int, dict]] = {}
    for f in files:
        rec = json.loads(f.read_text())
        if rec.get("trace") == 0:
            res = rec["result"]
            row = {k: v["value"] for k, v in res["metrics"].items()}
            row["failed"], row["attempted"] = res["failed"], res["attempted"]
            out.setdefault(rec["workload"], {})[rec["seed"]] = row
    return out


def compare(base, new, metrics) -> tuple[list[list[str]], int]:
    rows, worse = [], 0
    for workload in sorted(set(base) & set(new)):
        b, n = base[workload], new[workload]
        for m in metrics:
            name = m["name"]
            bv = [r[name] for r in b.values()]
            nv = [r[name] for r in n.values()]
            pairs = [(b[s][name], n[s][name]) for s in sorted(set(b) & set(n))]
            v = analysis.verdict(bv, nv, m["better"], m["bound"], pairs,
                                 check_spread=name != "setup_s")
            worse += v == "worse"
            bq, nq = analysis.quartiles(bv), analysis.quartiles(nv)
            rows.append([
                workload, f"{name} [{m['unit']}]",
                f"{bq[1]:.5g} [{bq[0]:.5g}, {bq[2]:.5g}] n={len(bv)}",
                f"{nq[1]:.5g} [{nq[0]:.5g}, {nq[2]:.5g}] n={len(nv)}",
                f"{(nq[1] - bq[1]) / bq[1]:+.1%}", f"{v} (bound {m['bound']})"])
        # more failed ops than the parent is a regression whatever the times
        bf, ba, nf, na = (sum(r[k] for r in side.values())
                          for side in (b, n) for k in ("failed", "attempted"))
        fail_worse = nf / na > bf / ba
        worse += fail_worse
        rows.append([workload, "fail_ratio", f"{bf}/{ba}", f"{nf}/{na}", "",
                     "worse" if fail_worse else "same"])
    return rows, worse


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    rows, worse = compare(load([argv[0]]), load([argv[1]]),
                          spec["end_to_end"])
    header = ["workload", "metric", "base median [q1, q3]",
              "new median [q1, q3]", "change", "verdict"]
    widths = [max(len(r[i]) for r in rows + [header]) for i in range(6)]
    for row in [header] + rows:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
