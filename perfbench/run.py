"""hypodecay benchmark: one workload, one seed, one timed run.

    python3 perfbench/run.py --workload certify-2x2 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; hypodecay is imported from its src/
directory (the package need not be installed). The last line of standard
output is the result: {"correct", "attempted", "failed", "metrics"}. The line
before it is the run record (versions, nproc, BLAS threads, git SHA and the
per-command breakdown). --trace 1 makes a separate traced run that reports
per-layer metrics instead of the end-to-end ones. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

#: one caller in one process: BLAS stays single-threaded, at most nproc
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: fresh interpreters timed for setup_s, after one untimed warm-up launch
SETUP_LAUNCHES = 5
IMPORT_PROBE = "import time; import hypodecay; print(repr(time.perf_counter()))"

END_TO_END = {"setup_s": "s", "pass_s": "s", "kappa_vs_equal": "ratio"}

_SELF_TIMED = (
    "spectral.eigendecompose", "spectral.canonical_2d_form", "spectral.classify_stability",
    "sharp2d.classify_and_sharp_constant", "sharp2d.sup_m_plus", "sharp2d.envelope_curves",
    "sharp2d.trajectory_envelope_oracle", "rate_family.family_envelope",
    "condopt.minimize_kappa_weights", "condopt.minimize_kappa_admissible",
    "lyapunov.build_weighted_p", "lyapunov.certificate_from_p",
    "propagator.rk4_oracle", "propagator.exact_solution",
    "goldstein_taylor.verify_gt_bound", "goldstein_taylor.evolve",
    "goldstein_taylor.deviation_norm", "cli.main",
)
_CALL_COUNTED = ("spectral.eigendecompose", "sharp2d.sup_m_plus", "lyapunov.lyapunov_residual",
                 "goldstein_taylor.evolve")
PER_LAYER = {
    **{f"{name}.self_s": "s" for name in _SELF_TIMED},
    **{f"{name}.calls": "count" for name in _CALL_COUNTED},
    "rate_family.bound_constant.calls": "count",
    "rate_family.bound_constant.self_s": "s",
    "condopt.eigvalsh.calls": "count",
    "propagator.rk4_oracle.steps": "count",
    "import.hypodecay_s": "s",
    "import.scipy_optimize_s": "s",
    "trace.overhead_s": "s",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("certify-2x2", "certify-nd", "cli-session"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_seconds(src: Path, env: dict) -> float:
    """Time from launching a fresh interpreter until ``import hypodecay``
    returns; both ends read the system-wide monotonic clock."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=src, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout) - start


def git_sha(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() or None


def tally(passes) -> tuple[bool, int, int]:
    """correct, attempted, failed over every operation of every pass.

    An operation that raised, or that exposes a named program fault and
    fails its check, counts as failed. A wrong output anywhere else makes the
    run incorrect. Each distinct message goes to stderr once, with a count.
    """
    correct, attempted, failed = True, 0, 0
    notes: Counter = Counter()
    for p in passes:
        for op in p.ops:
            attempted += 1
            label = f"{op.name} [{op.fault} fault]" if op.fault else op.name
            if op.error is not None:
                failed += 1
                notes[f"FAILED {label}: {op.error}"] += 1
            elif op.problems and op.fault:
                failed += 1
                notes[f"FAILED {label}: {'; '.join(op.problems)}"] += 1
            elif op.problems:
                correct = False
                notes[f"WRONG {label}: {'; '.join(op.problems)}"] += 1
            elif op.fault:
                notes[f"NOTE {label}: passed every check, the fault looks mended"] += 1
    for message, count in notes.items():
        print(f"{message} (x{count})", file=sys.stderr)
    return correct, attempted, failed


def end_to_end(setup_s: float, passes, slowdown) -> dict[str, float]:
    """pass_s is each pass's time divided by the machine slowdown the probe
    measured during it, then the median over passes."""
    ratios = [op.kappa_ratio for p in passes for op in p.ops
              if op.kappa_ratio is not None and not op.problems]
    return {
        "setup_s": setup_s,
        "pass_s": statistics.median(p.seconds / slowdown(p.probes) for p in passes),
        "kappa_vs_equal": math.exp(statistics.fmean(math.log(r) for r in ratios)),
    }


def per_layer(tracer, traced, plain, imports: dict[str, float]) -> dict[str, float]:
    k = len(traced)
    out = {f"{name}.self_s": tracer.self_s[name] / k for name in _SELF_TIMED}
    out.update({f"{name}.calls": tracer.calls[name] / k for name in _CALL_COUNTED})
    bounds = ("rate_family.upper_bound_constant", "rate_family.lower_bound_constant")
    out["rate_family.bound_constant.calls"] = sum(tracer.calls[b] for b in bounds) / k
    out["rate_family.bound_constant.self_s"] = sum(tracer.self_s[b] for b in bounds) / k
    out["condopt.eigvalsh.calls"] = tracer.counts["condopt.eigvalsh.calls"] / k
    out["propagator.rk4_oracle.steps"] = tracer.counts["propagator.rk4_oracle.steps"] / k
    out.update(imports)
    out["trace.overhead_s"] = (statistics.median(p.seconds for p in traced)
                               - statistics.median(p.seconds for p in plain))
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path(__file__).resolve().parents[1]
    src = root / "src"
    if not (src / "hypodecay" / "__init__.py").is_file():
        print(f"error: no hypodecay sources under {src}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    env = dict(os.environ)
    sys.path.insert(0, str(src))

    import numpy as np
    import scipy

    import hypodecay
    from probe import Probe, slowdown
    from tracing import Tracer, import_times
    from workloads import WORKLOADS

    if Path(hypodecay.__file__).resolve().parent != (src / "hypodecay").resolve():
        print(f"error: hypodecay was imported from {hypodecay.__file__}", file=sys.stderr)
        return 2
    out_dir = root / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)

    if not args.trace:
        import_seconds(src, env)
        setup_s = statistics.median(import_seconds(src, env) for _ in range(SETUP_LAUNCHES))
    probe = Probe()
    workload = WORKLOADS[args.workload](args.seed, root, out_dir, env)

    plain, traced, tracer, rounds = [], [], Tracer(), []
    start = time.perf_counter()
    # whole rounds only: start another when it should still end within --seconds
    while not rounds or (time.perf_counter() - start + statistics.median(rounds)
                         <= args.seconds):
        round_start = time.perf_counter()
        p = workload.run_pass(probe, in_process=bool(args.trace))
        workload.check(p)
        plain.append(p)
        if args.trace:
            tracer.install()
            try:
                p = workload.run_pass(probe, in_process=True)
            finally:
                tracer.uninstall()
            workload.check(p)
            traced.append(p)
        rounds.append(time.perf_counter() - round_start)

    correct, attempted, failed = tally(plain + traced)
    if args.trace:
        tracer.write(out_dir / "spans.jsonl")
        values = per_layer(tracer, traced, plain, import_times(sys.executable, env, src))
        units = PER_LAYER
    else:
        values, units = end_to_end(setup_s, plain, slowdown), END_TO_END
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": len(plain), "traced_passes": len(traced),
        "git_sha": git_sha(root), "python": sys.version.split()[0],
        "numpy": np.__version__, "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)), "blas_threads": BLAS_THREADS,
        "detail": workload.detail(plain),
        "unscaled_pass_s": statistics.median(p.seconds for p in plain),
        "probe_s": statistics.median(x for p in plain for x in p.probes),
    }
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
