"""Verdict rules of ``bench/compare.py``."""

import compare

PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]


def test_nine_wins_beyond_the_spread_is_an_improvement():
    change = [p * 0.9 for p in PARENT]
    assert compare.verdict(PARENT, change, "lower", 0.1) == ("improved", 10)


def test_median_worse_than_the_bound_regresses():
    change = [p * 1.2 for p in PARENT]
    assert compare.verdict(PARENT, change, "lower", 0.1)[0] == "regressed"
    assert compare.verdict(PARENT, change, "higher", 0.1)[0] == "improved"


def test_spread_wider_than_the_bound_is_unresolved_unless_every_run_is_better():
    noisy = [80.0, 120.0, 90.0, 110.0, 100.0, 85.0, 115.0, 95.0, 105.0, 100.0]
    slightly_better = [n - 1.0 for n in noisy]
    assert compare.verdict(noisy, slightly_better, "lower", 0.05)[0] == "unresolved"
    assert compare.verdict(noisy, [50.0] * 10, "lower", 0.05)[0] == "improved"


def test_unbounded_metrics_are_never_regressions():
    change = [p * 1.2 for p in PARENT]
    assert compare.verdict(PARENT, change, "lower", None)[0] == "worse"
    assert compare.verdict(PARENT, PARENT, "lower", None)[0] == "within noise"


def test_fewer_than_ten_pairs_never_claim_a_gain():
    assert compare.verdict([100.0], [50.0], "lower", 0.1)[0] == "no worse"
    assert compare.verdict([100.0], [200.0], "lower", 0.1)[0] == "regressed"


def _report(seed, scale="full", seconds=20.0, solves=258, batches=1000):
    metrics = {"milp.solves": solves, "loadgen.batches": batches}
    return {"args": {"seed": seed, "scale": scale, "trace": 1, "seconds": seconds},
            "workloads": {"waterwise-batch": {"answers": {"k": {"digest": 1}},
                                              "metrics": metrics}}}


SPEC = {"workloads": [{"name": "waterwise-batch"}], "end_to_end": [], "per_layer": [
    {"name": "milp.solves", "unit": "count", "better": "lower"},
    {"name": "loadgen.batches", "unit": "count", "better": "higher"},
]}


def test_counts_with_a_direction_are_judged_by_it_and_never_fail_the_comparison():
    assert compare.count_verdict([5, 7], [5, 7], "lower") == "same"
    assert compare.count_verdict([5, 7], [4, 7], "lower") == "improved"
    assert compare.count_verdict([5, 7], [6, 7], "lower") == "worse"
    assert compare.count_verdict([5, 7], [4, 8], "lower") == "mixed"

    lines, ok = compare.compare([_report(1)], [_report(1, solves=200)], SPEC)
    assert ok and any("milp.solves" in line and line.endswith("improved") for line in lines)
    lines, ok = compare.compare([_report(1)], [_report(1, solves=300)], SPEC)
    assert ok and any("milp.solves" in line and line.endswith("worse") for line in lines)


def test_counts_fixed_by_the_inputs_must_be_equal():
    lines, ok = compare.compare([_report(1)], [_report(1, batches=999)], SPEC)
    assert not ok and any("loadgen.batches" in line and "DIFFERS" in line for line in lines)


def test_reports_made_with_different_settings_are_refused():
    assert compare.settings_mismatch([_report(1), _report(2)], [_report(1), _report(2)]) == []
    assert compare.settings_mismatch([_report(1)], [_report(1, seconds=10.0)])
    assert compare.settings_mismatch([_report(1)], [_report(1, scale="smoke")])
    assert compare.settings_mismatch([_report(1)], [_report(2)]) == ["pair 0: --seed 1 vs 2"]
