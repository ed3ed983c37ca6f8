"""tools/bench_pairs.py's summary, on synthetic perfbench result lines."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _line(pass_s, kappa, correct=True, failed=0):
    metrics = {"setup_s": 0.02, "pass_s": pass_s, "kappa_vs_equal": kappa}
    return {"correct": correct, "attempted": 40, "failed": failed,
            "metrics": {k: {"value": v, "unit": "s"} for k, v in metrics.items()}}


def test_summary_of_alternating_pairs():
    parent = [1.0, 1.2, 1.1, 1.3]
    change = [0.9, 1.0, 1.2, 1.0]
    runs = []
    for pair, (p, c) in enumerate(zip(parent, change), start=1):
        for side, value, kappa in (("parent", p, 0.5), ("change", c, 0.5 * (1 + pair * 1e-3))):
            runs.append({"workload": "certify-2x2", "seed": 3, "pair": pair, "side": side,
                         "record_line": {}, "result_line": _line(value, kappa, failed=pair == 4)})
    runs.append({"workload": "certify-nd", "seed": 3, "pair": 1, "side": "parent",
                 "record_line": {}, "result_line": _line(2.0, 1.0, correct=False)})
    summary = bench_pairs.summarize(runs)

    s = summary["certify-2x2 seed 3"]
    assert s["pass_s"]["pairs"] == 4
    assert s["pass_s"]["change_better"] == 3 and s["pass_s"]["ties"] == 0
    # linear quartiles of [1.0, 1.1, 1.2, 1.3] and of [0.9, 1.0, 1.0, 1.2]
    assert s["pass_s"]["parent"] == pytest.approx({"median": 1.15, "q1": 1.075, "q3": 1.225})
    assert s["pass_s"]["change"] == pytest.approx({"median": 1.0, "q1": 0.975, "q3": 1.05})
    assert s["pass_s"]["median_gain"] == pytest.approx(1.0 - 1.0 / 1.15)
    assert s["pass_s"]["parent_iqr_over_median"] == pytest.approx(0.15 / 1.15)
    assert s["setup_s"]["ties"] == 4 and "median_gain" not in s["setup_s"]
    # every end-to-end metric reports its spread; within its bound it is resolved
    for name in ("setup_s", "pass_s", "kappa_vs_equal"):
        assert s[name]["resolved"], name
    assert s["setup_s"]["parent_iqr_over_median"] == 0.0
    assert s["kappa_vs_equal"]["max_relative_change"] == pytest.approx(4e-3)
    assert s["all_correct"] and s["failed"] == 2

    # a pair with one side only counts towards correctness, not the pairs
    nd = summary["certify-nd seed 3"]
    assert not nd["all_correct"] and nd["failed"] == 0 and "pass_s" not in nd


def _pairs(parent, change):
    return [{"workload": "w", "seed": 1, "pair": pair, "side": side, "record_line": {},
             "result_line": _line(value, 1.0)}
            for pair, values in enumerate(zip(parent, change), start=1)
            for side, value in zip(("parent", "change"), values)]


def test_spread_wider_than_the_bound_is_unresolved():
    # parent quartiles 1.075-1.225 around 1.15: a spread of 0.13 of the median
    parent = [1.0, 1.2, 1.1, 1.3]
    bounds = {"pass_s": 0.1, "setup_s": 0.25, "kappa_vs_equal": 0.06}
    s = bench_pairs.summarize(_pairs(parent, [0.9, 1.0, 1.2, 1.0]), bounds)["w seed 1"]
    assert s["pass_s"]["parent_iqr_over_median"] == pytest.approx(0.15 / 1.15)
    assert not s["pass_s"]["resolved"]
    assert s["setup_s"]["resolved"] and s["kappa_vs_equal"]["resolved"]
    # ... unless every run of the change reads below every run of the parent
    s = bench_pairs.summarize(_pairs(parent, [0.7, 0.8, 0.9, 0.95]), bounds)["w seed 1"]
    assert s["pass_s"]["resolved"]
    # a metric with no bound gets neither field
    s = bench_pairs.summarize(_pairs(parent, parent), {})["w seed 1"]
    assert "resolved" not in s["pass_s"] and "parent_iqr_over_median" not in s["setup_s"]


def test_bench_42_setup_s_is_unresolved():
    # BENCH_42.json's certify-2x2 setup_s: parent quartiles 0.0307-0.0443
    # around 0.0392, 0.35 of the median against BENCHMARK.json's bound 0.25
    assert bench_pairs.end_to_end_bounds() == {"setup_s": 0.25, "pass_s": 0.25,
                                               "kappa_vs_equal": 0.06}
    bench = json.loads((bench_pairs.ROOT / "BENCH_42.json").read_text())
    s = bench_pairs.summarize(bench["runs"])["certify-2x2 seed 3"]
    assert s["setup_s"]["parent_iqr_over_median"] == pytest.approx(0.346, abs=1e-3)
    assert not s["setup_s"]["resolved"]
    assert s["pass_s"]["resolved"] and s["kappa_vs_equal"]["resolved"]
