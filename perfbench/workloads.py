"""The three closed-loop workloads: one caller, one call at a time.

A workload is built from a seed, generates its inputs and references once,
and then runs passes: each pass makes the same operations in the same order
and times each one. Checks run after a pass, outside the timed region.
"""

from __future__ import annotations

import contextlib
import io
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import hypodecay as hd
import hypodecay.cli
import numpy as np

import inputs
import reference as ref


@dataclass
class Op:
    """One timed operation and what it returned."""

    name: str
    kind: str
    seconds: float
    output: object = None
    error: str | None = None
    fault: str | None = None
    problems: list[str] = field(default_factory=list)
    kappa_ratio: float | None = None


@dataclass
class Pass:
    """Operations of one pass, their summed time, and the probe times taken
    around them (see probe.py)."""

    seconds: float
    ops: list[Op]
    probes: list[float]


def _timed(name: str, kind: str, fault: str | None, fn, *args) -> Op:
    start = time.perf_counter()
    try:
        output = fn(*args)
    except Exception as exc:  # a failed operation is counted, not fatal
        return Op(name, kind, time.perf_counter() - start, error=repr(exc), fault=fault)
    return Op(name, kind, time.perf_counter() - start, output=output, fault=fault)


def _run_pass(calls, probe, every_op: bool) -> Pass:
    """Time each (name, kind, fault, fn, *args) call in order. The probe runs
    before the pass and, with every_op, after each call; its time is not
    part of the pass."""
    probes, ops = [probe()], []
    for call in calls:
        ops.append(_timed(*call))
        if every_op:
            probes.append(probe())
    return Pass(sum(op.seconds for op in ops), ops, probes)


# ---------------------------------------------------------------------------
# certify-2x2
# ---------------------------------------------------------------------------

def certify_2x2(c: np.ndarray, times: np.ndarray) -> dict:
    """The closed-form library path for one 2x2 system."""
    data = hd.eigendecompose(c)
    report = hd.classify_stability(data)
    form = hd.canonical_2d_form(data)
    sharp = hd.classify_and_sharp_constant(form)
    opt = hd.minimize_kappa_2d(form)
    cert = hd.certificate_from_p(c, hd.build_weighted_p(data, opt.weights), report.mu)
    env = hd.envelope_curves(form, times)
    fam = hd.family_envelope(form, times)
    return {
        "case": sharp.case.value, "alpha": sharp.alpha, "c_sharp": sharp.c_sharp,
        "kappa": cert.kappa, "h_plus": env.h_plus, "h_minus": env.h_minus,
        "family_upper": fam.upper, "family_lower": fam.lower,
        "c_upper_mu": hd.upper_bound_constant(form, report.mu).constant,
        "c_lower_nu": hd.lower_bound_constant(form, report.nu).constant,
    }


class Certify2x2:
    name = "certify-2x2"

    def __init__(self, seed: int, root: Path, out_dir: Path, env: dict):
        self.systems = inputs.batch_2x2(seed)
        self.times = [np.linspace(0.0, 10.0 / s.mu, 400) for s in self.systems]
        self.refs = [ref.Reference2x2(s, t) for s, t in zip(self.systems, self.times)]

    def run_pass(self, probe, in_process: bool = False) -> Pass:
        return _run_pass([(s.name, "2x2", s.fault, certify_2x2, s.matrix, t)
                          for s, t in zip(self.systems, self.times)], probe, False)

    def check(self, p: Pass) -> None:
        for op, r in zip(p.ops, self.refs):
            if op.error is None:
                op.problems = r.check(op.output)
                op.kappa_ratio = op.output["kappa"] / r.system.kappa_equal

    @staticmethod
    def detail(passes: list[Pass]) -> dict:
        return {"systems_per_s": float(np.median([len(p.ops) / p.seconds for p in passes]))}


# ---------------------------------------------------------------------------
# certify-nd
# ---------------------------------------------------------------------------

def weight_search(c: np.ndarray) -> dict:
    data = hd.eigendecompose(c)
    opt = hd.minimize_kappa_weights(data.left_vectors)
    cert = hd.certificate_from_p(c, hd.build_weighted_p(data, opt.weights), data.spectral_gap)
    return {"kappa": cert.kappa, "kappa_equal": opt.kappa_equal, "residual": cert.residual}


def admissible_search(c: np.ndarray, seed_p: np.ndarray) -> dict:
    found = hd.minimize_kappa_admissible(c, 1.0, hd.LyapunovMatrix(seed_p))
    return {"kappa": found.kappa, "residual": found.residual, "P": found.P.matrix}


class CertifyND:
    name = "certify-nd"

    def __init__(self, seed: int, root: Path, out_dir: Path, env: dict):
        self.systems = inputs.batch_nd(seed)
        self.sups = [ref.sampled_sup_nd(s) for s in self.systems]
        self.tri = self.systems[-1]
        self.seed_p = inputs.admissible_seed()

    def run_pass(self, probe, in_process: bool = False) -> Pass:
        calls = [(s.name, "weights", None, weight_search, s.matrix) for s in self.systems]
        calls.append(("admissible-3", "admissible", None, admissible_search,
                      self.tri.matrix, self.seed_p))
        return _run_pass(calls, probe, True)

    def check(self, p: Pass) -> None:
        for op, s, sup in zip(p.ops, self.systems, self.sups):
            if op.error is None:
                out = op.output
                op.problems = ref.check_weight_search(s, out["kappa"], out["kappa_equal"],
                                                      out["residual"], sup)
                if s is self.tri and ref.rel(out["kappa"], inputs.KAPPA_TRIANGULAR) > 1e-9:
                    op.problems.append(f"kappa {out['kappa']!r}, expected 7 + 4 sqrt(3)")
                op.kappa_ratio = out["kappa"] / s.kappa_equal
        op = p.ops[-1]
        if op.error is None:
            out, c = op.output, self.tri.matrix
            ev = np.linalg.eigvalsh(out["P"])
            own = ref.residual(c, out["P"], 1.0)
            if out["kappa"] > ref.ADMISSIBLE_KAPPA_CAP:
                op.problems.append(f"kappa {out['kappa']!r} above {ref.ADMISSIBLE_KAPPA_CAP}")
            if min(out["residual"], own) < ref.RESIDUAL_FLOOR:
                op.problems.append(f"residual {out['residual']!r} (recomputed {own!r}) "
                                   f"below {ref.RESIDUAL_FLOOR}")
            if ref.rel(out["kappa"], ev[-1] / ev[0]) > 1e-9:
                op.problems.append(f"kappa {out['kappa']!r} is not cond(P) = {ev[-1] / ev[0]!r}")
            if out["kappa"] < self.sups[-1] * (1.0 - ref.SUP_RTOL):
                op.problems.append(f"kappa {out['kappa']!r} below the sampled sup")

    @staticmethod
    def detail(passes: list[Pass]) -> dict:
        return {f"{kind}_search_s": float(np.median(
                    [sum(op.seconds for op in p.ops if op.kind == kind) for p in passes]))
                for kind in ("weights", "admissible")}


# ---------------------------------------------------------------------------
# cli-session
# ---------------------------------------------------------------------------

class CliSession:
    """One ``python -m hypodecay.cli`` process per call, run from src/.

    In-process passes (the traced run) call hypodecay.cli.main with the same
    argv and capture stdout and stderr instead.
    """

    name = "cli-session"

    def __init__(self, seed: int, root: Path, out_dir: Path, env: dict):
        self.env = env
        self.src = root / "src"
        pair, tri, big = inputs.complex_pair(), inputs.triangular(), inputs.cli_16(seed)
        files = {s.name: str(inputs.write_matrix(out_dir / f"{s.name}.json", s).resolve())
                 for s in (pair, tri, big)}
        sup = {pair.name: ref.sampled_sup_2x2(pair), tri.name: ref.sampled_sup_nd(tri),
               big.name: ref.sampled_sup_nd(big)}
        f2 = files[pair.name]

        # every checker returns (problems, kappa ratio or None)
        def analyze(s, **kw):
            return lambda out, err: ref.check_analyze(out, s, sup[s.name], **kw)

        def envelope(trajectories):
            return lambda out, err: (ref.check_envelope(out, pair, trajectories), None)

        def gt(sharp):
            return lambda out, err: (ref.check_gt(out, err, sharp), None)

        self.calls = [
            ("analyze-2x2", "analyze", ["analyze", f2], analyze(pair, c_sharp=ref.SQRT3)),
            ("analyze-3x3", "analyze", ["analyze", files[tri.name]],
             analyze(tri, kappa_opt=inputs.KAPPA_TRIANGULAR)),
            ("analyze-16x16", "analyze", ["analyze", files[big.name]], analyze(big)),
            ("envelope-2x2", "envelope", ["envelope", f2, "--trajectories", "5"], envelope(5)),
            ("gt-sharp", "gt", ["gt", "sharp"], gt(True)),
            ("gt-random-7", "gt", ["gt", "random:7", "--modes", "127", "--points", "2000"],
             gt(False)),
            ("oracle-analyze-2x2", "oracle", ["analyze", f2, "--oracle"],
             analyze(pair, c_sharp=ref.SQRT3, oracle=True)),
            ("oracle-envelope-2x2", "oracle", ["envelope", f2, "--oracle"], envelope(0)),
            ("oracle-gt-harmonic-3", "oracle", ["gt", "harmonic:3", "--oracle"], gt(False)),
        ]

    def _process(self, argv):
        proc = subprocess.run([sys.executable, "-m", "hypodecay.cli", *argv], cwd=self.src,
                              env=self.env, capture_output=True, text=True, timeout=170)
        return proc.returncode, proc.stdout, proc.stderr

    @staticmethod
    def _in_process(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = hypodecay.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def run_pass(self, probe, in_process: bool = False) -> Pass:
        call = self._in_process if in_process else self._process
        return _run_pass([(name, kind, None, call, argv) for name, kind, argv, _ in self.calls],
                         probe, True)

    def check(self, p: Pass) -> None:
        for op, (_, kind, _, checker) in zip(p.ops, self.calls):
            if op.error is not None:
                continue
            code, out, err = op.output
            op.problems = ref.check_exit(code, err)
            if op.problems:
                continue
            try:
                op.problems, ratio = checker(out, err)
            except (ValueError, KeyError, IndexError) as exc:
                op.problems = [f"unreadable output: {exc!r}"]
                continue
            if kind == "analyze":
                op.kappa_ratio = ratio

    @staticmethod
    def detail(passes: list[Pass]) -> dict:
        return {f"{kind}_s": float(np.median(
                    [sum(op.seconds for op in p.ops if op.kind == kind) for p in passes]))
                for kind in ("analyze", "envelope", "gt", "oracle")}


WORKLOADS = {w.name: w for w in (Certify2x2, CertifyND, CliSession)}
