"""Print one sha256 over bentkit's seeded outputs, to show a refactor
changed no behaviour.

Run from the root of a checkout:

    python scripts/fingerprint.py

It hashes, in a fixed order:

- the sweep report of every family at m = 3..5 (GoldLike at k = 2) with
  20 trials, seeds 0 and 1, minus its elapsed times: the totals, and
  each entry's notes and verification report;
- the f, predicted dual and computed dual tables of `demo carlet --m 7`;
- f, base, predicted dual, notes and shifts of seeded instances drawn by
  the families' samplers at m = 2..6 (GoldLike k = 1..2).

Equal digests before and after a change mean these outputs are equal bit
for bit.
"""

from __future__ import annotations

import hashlib
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bentkit import constructions, verify  # noqa: E402
from bentkit.constructions import ConstructedPair  # noqa: E402
from bentkit.errors import NoSolution  # noqa: E402

SAMPLES_PER_SIZE = 3


def _sizes(family: str, small: range, gold: range) -> range:
    return gold if family == "GoldLike" else small


def _table(t) -> str:
    return "-" if t is None else f"{t.domain.describe()}:{t.bits:x}"


def _report(rep) -> str:
    """A report's to_dict() without its elapsed time."""
    doc = rep.to_dict()
    del doc["elapsed"]
    return repr(sorted(doc.items()))


def sweeps():
    for seed in (0, 1):
        for family in sorted(constructions.FAMILIES):
            sizes = _sizes(family, range(3, 6), range(2, 3))
            rep = verify.sweep(family, sizes, 20, seed)
            yield _report(rep)
            for entry in rep.entries:
                yield entry.notes + _report(entry.report)


def carlet():
    for entry in verify.demo_carlet(7):
        yield (f"{entry.d} {_table(entry.pair.f)} "
               f"{_table(entry.pair.predicted_dual)} "
               f"{_table(entry.report.computed_dual)} {entry.ok}")


def samples():
    for family in sorted(constructions.FAMILIES):
        rng = random.Random(family)
        for m in _sizes(family, range(2, 7), range(1, 3)):
            for _ in range(SAMPLES_PER_SIZE):
                for _attempt in range(64):
                    try:
                        built, _exp = verify._sample(family, m, rng)
                        break
                    except NoSolution:
                        continue
                else:
                    yield f"{family} m={m} no sample"
                    continue
                if isinstance(built, ConstructedPair):
                    yield (f"{built.notes} {_table(built.f)} "
                           f"{_table(built.base)} "
                           f"{_table(built.predicted_dual)} "
                           f"{[hex(u) for u in built.shifts]}")
                else:
                    yield f"{family} m={m} {_table(built)}"


def main() -> int:
    digest = hashlib.sha256()
    for part in (sweeps, carlet, samples):
        for line in part():
            digest.update(line.encode() + b"\n")
    print(digest.hexdigest())
    return 0

if __name__ == "__main__":
    sys.exit(main())
