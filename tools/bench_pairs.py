"""Benchmark two checkouts in alternating pairs and write a BENCH file.

    python tools/bench_pairs.py PARENT CHANGE --out BENCH_<n>.json --seconds 20 \\
        --run certify-2x2:3:10 --run certify-nd:3:5 --trace cli-session:3 \\
        --claim "..." [--parent-sha SHA] [--description "..."]

Each --run W:S:K runs perfbench/run.py --workload W --seed S in both
checkouts K times, one run at a time; the parent goes first in odd pairs and
the change in even ones. Each --trace W:S adds one --trace 1 run per side.
Before every run the checkout's src/**/__pycache__ directories are removed
and the run gets PYTHONDONTWRITEBYTECODE=1 (PYTHONUNBUFFERED unset), so both
sides compile the sources they import, whatever the checkout held before.
The summary marks a metric unresolved where the parent's spread is wider
than the metric's bound in BENCHMARK.json (read only). Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
ROOT = Path(__file__).resolve().parents[1]


def quartiles(xs: list[float]) -> dict[str, float]:
    """Median and quartiles, linear between order statistics (numpy's default)."""
    s = sorted(xs)

    def at(q: float) -> float:
        pos = (len(s) - 1) * q
        i = int(pos)
        return s[i] + (s[min(i + 1, len(s) - 1)] - s[i]) * (pos - i)

    return {"median": at(0.5), "q1": at(0.25), "q3": at(0.75)}


def end_to_end_bounds() -> dict[str, float]:
    """{name: bound} of the end-to-end metrics that BENCHMARK.json declares."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["bound"] for m in doc["end_to_end"]}


def summarize(runs: list[dict], bounds: dict[str, float] | None = None) -> dict[str, dict]:
    """Per "W seed S": each metric's pairs, the pairs where the change reads
    lower (every end-to-end metric is better lower) and ties, each side's
    quartiles; pass_s adds median_gain (1 - change median / parent median),
    kappa_vs_equal the largest |change / parent - 1| over the pairs.

    Each metric with a bound (default: end_to_end_bounds()) adds
    parent_iqr_over_median, the parent's run-to-run spread, and resolved:
    false when that spread exceeds the bound, so the runs cannot tell a
    change of the bound's size from noise, unless every run of the change
    reads lower than every run of the parent. all_correct and failed cover
    every run."""
    if bounds is None:
        bounds = end_to_end_bounds()
    groups: dict[str, dict[int, dict[str, dict]]] = {}
    for run in runs:
        key = f"{run['workload']} seed {run['seed']}"
        groups.setdefault(key, {}).setdefault(run["pair"], {})[run["side"]] = run["result_line"]
    summary = {}
    for key, pairs in groups.items():
        lines = [line for p in pairs.values() for line in p.values()]
        whole = [p for p in pairs.values() if all(side in p for side in SIDES)]
        out = {}
        for name in whole[0]["parent"]["metrics"] if whole else ():
            parent, change = ([p[side]["metrics"][name]["value"] for p in whole] for side in SIDES)
            m = {"pairs": len(whole),
                 "change_better": sum(c < p for p, c in zip(parent, change)),
                 "ties": sum(c == p for p, c in zip(parent, change)),
                 "parent": quartiles(parent), "change": quartiles(change)}
            mid = m["parent"]["median"]
            if name == "pass_s":
                m["median_gain"] = 1.0 - m["change"]["median"] / mid
            if name in bounds:
                m["parent_iqr_over_median"] = (m["parent"]["q3"] - m["parent"]["q1"]) / mid
                m["resolved"] = (m["parent_iqr_over_median"] <= bounds[name]
                                 or max(change) < min(parent))
            if name == "kappa_vs_equal":
                m["max_relative_change"] = max(abs(c / p - 1.0) for p, c in zip(parent, change))
            out[name] = m
        out["all_correct"] = all(line["correct"] for line in lines)
        out["failed"] = sum(line["failed"] for line in lines)
        summary[key] = out
    return summary


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run in checkout, from a clean bytecode cache; its record
    line and result line, parsed."""
    for cache in (checkout / "src").rglob("__pycache__"):
        shutil.rmtree(cache)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True, check=True)
    record, result = proc.stdout.strip().splitlines()[-2:]
    return {"record_line": json.loads(record), "result_line": json.loads(result)}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--run", action="append", default=[], metavar="W:S:K")
    parser.add_argument("--trace", action="append", default=[], metavar="W:S")
    parser.add_argument("--claim", required=True)
    parser.add_argument("--parent-sha", default=None)
    parser.add_argument("--description", default="")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    roots = dict(zip(SIDES, (args.parent.resolve(), args.change.resolve())))
    runs, traced = [], []
    for spec in args.run:
        workload, seed, count = spec.split(":")
        for pair in range(1, int(count) + 1):
            for side in SIDES if pair % 2 else SIDES[::-1]:
                out = run_once(roots[side], workload, int(seed), args.seconds, 0)
                runs.append({"workload": workload, "seed": int(seed), "pair": pair,
                             "side": side, **out})
                print(workload, seed, pair, side, out["result_line"]["metrics"]["pass_s"],
                      file=sys.stderr)
    for spec in args.trace:
        workload, seed = spec.split(":")
        for side in SIDES:
            out = run_once(roots[side], workload, int(seed), args.seconds, 1)
            traced.append({"workload": workload, "seed": int(seed), "side": side, **out})
    host = (f"{len(os.sched_getaffinity(0))} cores, {platform.platform()}, Python "
            f"{platform.python_version()}, PYTHONDONTWRITEBYTECODE=1")
    bench = {"description": args.description,
             "command": f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds:g}",
             "parent_git_sha": args.parent_sha, "host": host, "claim": args.claim,
             "summary": summarize(runs), "runs": runs, "traced": traced}
    args.out.write_text(json.dumps(bench, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
