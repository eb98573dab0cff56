"""Tests for the benchmark's own logic: statistics, spans, golden, verdicts."""

import statistics

import pytest

import analysis
import compare
import inputs
import run


def span(name, start, end, parent=None):
    return [name, start, end, parent, 7, None]


# -- quartiles ---------------------------------------------------------------

def test_quartiles_match_statistics_quantiles():
    values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.6, 5.3, 5.8, 9.7]
    q1, med, q3 = analysis.quartiles(values)
    assert [q1, med, q3] == statistics.quantiles(values, n=4)
    assert med == statistics.median(values)


def test_quartiles_of_one_value_and_spread():
    assert analysis.quartiles([2.5]) == (2.5, 2.5, 2.5)
    assert analysis.relative_spread([2.0, 2.0, 2.0]) == 0.0
    q1, med, q3 = analysis.quartiles([1.0, 2.0, 3.0, 4.0])
    assert analysis.relative_spread([1.0, 2.0, 3.0, 4.0]) == (q3 - q1) / med
    with pytest.raises(ValueError):
        analysis.quartiles([])


# -- self time -----------------------------------------------------------------

def test_self_time_of_nested_spans():
    spans = [span("main", 0.0, 10.0),
             span("verify", 1.0, 8.0, 0),
             span("walsh", 2.0, 5.0, 1)]
    assert analysis.self_times(spans) == pytest.approx([3.0, 4.0, 3.0])


def test_self_time_of_sibling_spans():
    spans = [span("main", 0.0, 10.0),
             span("walsh", 1.0, 3.0, 0),
             span("anf", 3.0, 4.0, 0),
             span("walsh", 6.0, 9.0, 0)]
    assert analysis.self_times(spans) == pytest.approx([4.0, 2.0, 1.0, 3.0])


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [span("main", 0.0, 10.0),
             span("a", 1.0, 5.0, 0),
             span("b", 4.0, 6.0, 0),
             span("c", 9.0, 12.0, 0)]
    # children cover [1, 6] and [9, 10] of the parent
    assert analysis.self_times(spans)[0] == pytest.approx(4.0)


def test_span_totals_sum_self_time_and_calls_per_name():
    spans = [span("main", 0.0, 10.0),
             span("walsh", 1.0, 3.0, 0),
             span("walsh", 5.0, 6.0, 0)]
    totals = analysis.span_totals(spans)
    assert totals["walsh_s"] == pytest.approx(3.0)
    assert totals["walsh_calls"] == 2
    assert totals["main_s"] == pytest.approx(7.0)
    assert totals["main_calls"] == 1


# -- golden comparison ---------------------------------------------------------

def test_normalize_drops_timing_fields_at_any_depth():
    doc = [{"d": 2, "elapsed": 0.7, "inner": {"elapsed": 1, "x": [1]}}]
    assert analysis.normalize(doc) == [{"d": 2, "inner": {"x": [1]}}]


def test_golden_problems():
    entry = {"output": {"is_bent": True}, "sha256": {"a.tt": "00"}}
    assert analysis.golden_problems(entry, dict(entry)) == []
    assert analysis.golden_problems(None, entry) == [
        "no golden record for this op"]
    changed = {"output": {"is_bent": True}, "sha256": {"a.tt": "01"}}
    assert len(analysis.golden_problems(entry, changed)) == 1


def test_runner_checks_golden_only_for_the_default_seed(tmp_path):
    op = run.Op(["verify", "x.tt", "--json"], 1, lambda doc: [], tmp_path)
    doc = {"is_bent": True, "elapsed": 0.5}
    recorder = run.Runner("verify-n16", run.DEFAULT_SEED, tmp_path, True)
    assert recorder._golden(op, doc) == []
    assert recorder.recorded[op.key] == {"output": {"is_bent": True}}
    checker = run.Runner("verify-n16", run.DEFAULT_SEED, tmp_path, False)
    assert checker._golden(op, doc) == ["no golden record for this op"]
    other = run.Runner("verify-n16", run.DEFAULT_SEED + 1, tmp_path, False)
    assert other._golden(op, doc) == []


# -- verdicts --------------------------------------------------------------------

BASE = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]


def test_verdict_same_within_bound():
    new = [v * 0.97 for v in BASE]
    assert analysis.verdict(BASE, new, "higher", 0.1) == "same"


def test_verdict_worse_beyond_bound():
    new = [v * 0.85 for v in BASE]
    assert analysis.verdict(BASE, new, "higher", 0.1) == "worse"
    assert analysis.verdict(BASE, [v * 1.15 for v in BASE],
                            "lower", 0.1) == "worse"


def test_verdict_better_needs_the_gain_beyond_the_parent_spread():
    assert analysis.verdict(BASE, [v * 1.2 for v in BASE],
                            "higher", 0.1) == "better"
    assert analysis.verdict(BASE, [v * 0.8 for v in BASE],
                            "lower", 0.1) == "better"
    # a gain smaller than the parent's own quartile spread is no gain
    assert analysis.verdict(BASE, [v + 0.1 for v in BASE],
                            "higher", 0.1) == "same"


def test_verdict_better_needs_nine_in_ten_paired_wins():
    new = [v * 1.2 for v in BASE]
    pairs = list(zip(BASE, new))
    assert analysis.verdict(BASE, new, "higher", 0.1, pairs) == "better"
    lost = pairs[:8] + [(200.0, new[8]), (200.0, new[9])]
    assert analysis.verdict(BASE, new, "higher", 0.1, lost) == "same"


def test_verdict_unresolved_when_spread_exceeds_bound():
    wide = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
    assert analysis.verdict(BASE, wide, "higher", 0.1) == "unresolved"
    assert analysis.verdict(BASE, wide, "higher", 0.1,
                            check_spread=False) == "same"
    # every run of the change beating every run of the parent resolves it
    high = [v + 100.0 for v in wide]
    assert analysis.verdict(BASE, high, "higher", 0.1) == "better"


def test_compare_rows_and_worse_count():
    metrics = [{"name": "instances_per_s", "unit": "1/s",
                "better": "higher", "bound": 0.1},
               {"name": "setup_s", "unit": "s", "better": "lower",
                "bound": 0.25}]
    counts = {"failed": 0, "attempted": 10}
    base = {"w": {s: {"instances_per_s": v, "setup_s": 1.0, **counts}
                  for s, v in enumerate(BASE)}}
    new = {"w": {s: {"instances_per_s": v * 0.8, "setup_s": 1.0, **counts}
                 for s, v in enumerate(BASE)}}
    rows, worse = compare.compare(base, new, metrics)
    assert worse == 1
    assert [r[5].split()[0] for r in rows] == ["worse", "same", "same"]
    new["w"][3]["failed"] = 1
    rows, worse = compare.compare(base, new, metrics)
    assert worse == 2
    assert rows[-1][1:4] == ["fail_ratio", "0/100", "1/100"]


# -- throughput and inputs ---------------------------------------------------------

def _result(key, cpu, instances, ok=True, slow=1.0):
    """A result whose reference samples ran `slow` times slower than quiet."""
    op = run.Op([key], instances, lambda doc: [], None)
    refs = [run.REF_S * slow * f for f in (0.9, 1.0, 1.0, 1.2)]
    return run.Result(op, 2 * cpu, cpu, 1.0, [] if ok else ["bad"],
                      None, None, True, refs)


def test_calibration_divides_out_the_machines_slowdown():
    assert _result("a", 3.0, 1).calibrated == pytest.approx(3.0)
    assert _result("a", 6.0, 1, slow=2.0).calibrated == pytest.approx(3.0)


def test_throughput_and_p50_use_each_ops_median_time():
    results = [_result("a", 1.2, 6), _result("a", 9.0, 6, slow=9.0),
               _result("a", 1.4, 6), _result("b", 2.0, 4),
               _result("b", 2.0, 4), _result("c", 3.0, 5)]
    # medians: a 1.2 (9.0 calibrates to 1.0), b 2.0, c 3.0; walls are 2x
    assert run._throughput(results) == pytest.approx(15 / 6.2)
    assert run._throughput(results, "wall") == pytest.approx(15 / 12.8)
    assert run.end_to_end(results, [0.5])["op_cpu_p50_s"] == 2.0
    results.append(_result("c", 3.0, 5, ok=False))
    assert run._throughput(results) == pytest.approx(10 / 6.2)


def test_reference_loop_takes_cpu_time():
    assert 0.0 < run.reference_loop() < 1.0


def test_inputs_are_seeded_and_valid():
    assert inputs.verify_specs(3) == inputs.verify_specs(3)
    assert inputs.verify_specs(3) != inputs.verify_specs(4)
    assert inputs.carlet_seed(5) == inputs.carlet_seed(5)
    sub = inputs.subfield16()
    assert len(sub) == 255
    assert all(inputs.gf_frob(y, 8, inputs.MOD16) == y for y in sub)
    names = [name for name, _, _ in inputs.verify_specs(0)]
    assert len(names) == len(set(names))
    quad = next(s for n, s, _ in inputs.verify_specs(0) if n == "quad_nonbent")
    assert quad["c"][-1] == 0


def test_format_poly_matches_the_cli_text_format():
    assert inputs.format_poly(set()) == "0"
    assert inputs.format_poly({0b101, 0, 0b10}) == "1+X2+X1*X3"
    assert inputs._rotation_closure(0b001, 3) == {0b001, 0b010, 0b100}
