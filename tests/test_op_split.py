"""scripts/op_split.py runs each workload's op and splits its CPU time."""

import runpy
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "op_split.py"


def test_op_split_reports_every_part_of_every_workload(capsys):
    op_split = runpy.run_path(str(SCRIPT))
    assert op_split["main"](["--runs", "1"]) == 0
    out = capsys.readouterr().out
    for workload in op_split["WORKLOADS"]:
        assert f"\n{workload}\n" in out
    for part in op_split["PARTS"] + ("whole op",):
        assert out.count(f"| {part} | ") == len(op_split["WORKLOADS"])
