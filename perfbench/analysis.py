"""Pure helpers shared by the benchmark driver and the compare command.

Nothing here starts a process or touches a file: quartiles, span self
times, golden-record normalisation and the regression verdict rule.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

# Keys whose values are wall-clock measurements inside the program; they
# differ on every run and are dropped before outputs are compared.
TIMING_KEYS = frozenset({"elapsed"})


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    values = list(values)
    if not values:
        raise ValueError("no values")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus what its children cover.

    spans is a sequence of (name, start, end, parent) tuples, parent being
    the index of the enclosing span or None; extra fields are ignored.
    """
    children = defaultdict(list)
    for span in spans:
        parent = span[3]
        if parent is not None:
            children[parent].append((span[1], span[2]))
    out = []
    for i, span in enumerate(spans):
        start, end = span[1], span[2]
        out.append((end - start) - _covered(children[i], start, end))
    return out


def span_totals(spans) -> dict[str, float]:
    """Per span name: summed self time (`<name>_s`) and calls (`<name>_calls`)."""
    totals: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        totals[f"{span[0]}_s"] += own
        totals[f"{span[0]}_calls"] += 1
    return dict(totals)


def normalize(doc):
    """A CLI --json document with timing fields removed, for golden compares."""
    if isinstance(doc, dict):
        return {k: normalize(v) for k, v in doc.items() if k not in TIMING_KEYS}
    if isinstance(doc, list):
        return [normalize(v) for v in doc]
    return doc


def golden_problems(expected, actual) -> list[str]:
    """Differences between a golden record entry and a normalised output."""
    if expected is None:
        return ["no golden record for this op"]
    if expected == actual:
        return []
    return [f"output differs from the golden record: {actual!r} != {expected!r}"]


def verdict(base, new, better: str, bound: float, pairs=(),
            check_spread: bool = True) -> str:
    """Judge one metric from runs of the parent (base) and the change (new).

    'worse': the change's median is worse than the parent's by more than
    the bound.  'better': the medians differ, in the right direction, by
    more than the parent's own quartile spread, the change wins at least
    nine tenths of the seed-matched pairs, and either both spreads are
    within the bound or every run of the change beats every run of the
    parent.  'unresolved': a spread is wider than the bound and the runs
    overlap.  'same': none of these.
    """
    def beats(a, b):
        return a > b if better == "higher" else a < b

    b1, bmed, b3 = quartiles(base)
    nmed = quartiles(new)[1]
    gain = (nmed - bmed) if better == "higher" else (bmed - nmed)
    if gain < -bound * abs(bmed):
        return "worse"
    spread_ok = not check_spread or (relative_spread(base) <= bound
                                     and relative_spread(new) <= bound)
    all_beat = all(beats(n, b) for n in new for b in base)
    wins = sum(beats(n, b) for b, n in pairs)
    if (gain > b3 - b1 and wins >= 0.9 * len(pairs)
            and (spread_ok or all_beat)):
        return "better"
    return "same" if spread_ok or all_beat else "unresolved"
