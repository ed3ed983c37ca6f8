"""tools/bench_pairs.py's summary, on synthetic perfbench result lines."""

import importlib.util
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
    assert s["kappa_vs_equal"]["max_relative_change"] == pytest.approx(4e-3)
    assert s["all_correct"] and s["failed"] == 2

    # a pair with one side only counts towards correctness, not the pairs
    nd = summary["certify-nd seed 3"]
    assert not nd["all_correct"] and nd["failed"] == 0 and "pass_s" not in nd
