"""Command-line interface.

Three subcommands cover the workflow end to end:

    hypodecay analyze MATRIX.json        certificate summary as JSON
    hypodecay envelope MATRIX.json       decay envelopes as CSV (2x2 only)
    hypodecay gt INIT_SPEC               transport-model decay check as CSV

Exit codes: 0 success, 1 malformed input, 2 unsupported matrix (defective,
not positive stable, or larger than 16x16), 3 verification failure.
All output is deterministic for fixed inputs and seed.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .condopt import minimize_kappa_2d, minimize_kappa_weights
from .errors import (
    CutoffTooLarge,
    DefectiveInput,
    HypodecayError,
    MatrixFormatError,
    NotNormalized,
    NotPositiveStable,
    RateOutOfRange,
    SearchFailure,
)
from .goldstein_taylor import (
    GT_CONSTANT,
    GT_RATE,
    TorusField,
    _propagate,
    mode_matrix,
    verify_gt_bound,
)
from .lyapunov import build_weighted_p, lyapunov_residual
from .propagator import exact_solution, rk4_oracle
from .rate_family import family_envelope, upper_bound_constant
from .sharp2d import classify_and_sharp_constant, envelope_curves, trajectory_envelope_oracle
from .spectral import canonical_2d_form, classify_stability, eigendecompose

__all__ = ["main"]

SCHEMA = "hypodecay/1"

#: largest matrix size the file formats accept
MAX_SIZE = 16

#: relative mismatch that fails the --oracle cross-checks against RK4
ORACLE_RTOL = 1e-8

#: relative mismatch that fails the --oracle envelope sweep
ENVELOPE_ORACLE_RTOL = 1e-5


class UnsupportedMatrix(HypodecayError):
    """Valid file, but outside what the certificates cover (exit code 2)."""


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _err(msg: str) -> None:
    print(f"error: {msg}", file=sys.stderr)


def _entries(rows, n: int, key: str) -> np.ndarray:
    """An n x n list of JSON numbers as a float array. The parsed values are
    checked, not the array dtype: numpy turns "2" and true into numbers."""
    if not (isinstance(rows, list) and len(rows) == n
            and all(isinstance(row, list) and len(row) == n for row in rows)):
        raise MatrixFormatError(f'"{key}" must be {n} rows of {n} entries')
    if not all(type(x) in (int, float) for row in rows for x in row):
        raise MatrixFormatError(f'"{key}" entries must be JSON numbers')
    try:
        return np.array(rows, dtype=float)
    except OverflowError as exc:
        raise MatrixFormatError("matrix entries must be finite") from exc


def read_matrix_file(path: str) -> np.ndarray:
    """Load {"n": int, "re": [[...]], "im": [[...]]} into a complex matrix.

    "im" defaults to zero. Malformed structure raises MatrixFormatError;
    a well-formed matrix beyond MAX_SIZE raises UnsupportedMatrix.
    """
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise MatrixFormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise MatrixFormatError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict) or "n" not in raw or "re" not in raw:
        raise MatrixFormatError('matrix file must be {"n": ..., "re": ...}')
    n = raw["n"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise MatrixFormatError(f'"n" must be a positive integer, got {n!r}')
    re = _entries(raw["re"], n, "re")
    im = _entries(raw["im"], n, "im") if "im" in raw else np.zeros((n, n))
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise MatrixFormatError("matrix entries must be finite")
    if n > MAX_SIZE:
        raise UnsupportedMatrix(f"matrices larger than {MAX_SIZE}x{MAX_SIZE} "
                                "are not supported")
    return re + 1j * im


def _rk4_gap(C: np.ndarray, f0s, closed, times: np.ndarray, dt: float) -> float:
    """Worst relative gap between closed-form solutions and RK4; closed[i]
    is the closed-form solution from f0s[i] at the times."""
    return float(np.max([np.linalg.norm(a - rk4_oracle(C, f0, times, dt=dt), axis=1)
                         / np.maximum(np.linalg.norm(a, axis=1), 1e-300)
                         for f0, a in zip(f0s, closed)]))


def cmd_analyze(args) -> int:
    C = read_matrix_file(args.matrix_file)
    data = eigendecompose(C)
    if data.defective:
        raise DefectiveInput("matrix is defective; certificates need a full eigenbasis")
    report = classify_stability(data)
    if not report.positive_stable:
        raise NotPositiveStable(f"spectral gap is {report.mu}; no decay to certify")

    out: dict = {
        "schema": SCHEMA,
        "n": data.n,
        "mu": report.mu,
        "mu_s": report.mu_s,
        "nu": report.nu,
        "nu_s": report.nu_s,
    }
    if data.n == 2:
        form = canonical_2d_form(data)
        sharp = classify_and_sharp_constant(form)
        opt = minimize_kappa_2d(form)
        p = build_weighted_p(data, opt.weights)
        out.update({
            "alpha": sharp.alpha,
            "case": sharp.case.value,
            "c_sharp": sharp.c_sharp,
            "bracket": [sharp.bracket[0], sharp.bracket[1]],
            "kappa": opt.kappa,
            "weights": [float(w) for w in opt.weights],
            "residual": lyapunov_residual(C, p, report.mu),
            "attained": {"kind": sharp.attained,
                         "time": sharp.attained_time},
            "c1_at_mu": upper_bound_constant(form, report.mu).constant,
        })
    elif data.n == 1:
        out.update({
            "kappa": 1.0,
            "weights": [1.0],
            "residual": 0.0,
            "constant": 1.0,
            "rate": report.mu,
        })
    else:
        opt = minimize_kappa_weights(data.left_vectors)
        p = build_weighted_p(data, opt.weights)
        out.update({
            "kappa_equal": opt.kappa_equal,
            "kappa_opt": opt.kappa,
            "weights": [float(w) for w in opt.weights],
            "residual": lyapunov_residual(C, p, report.mu),
            "constant": float(np.sqrt(opt.kappa)),
            "rate": report.mu,
        })

    if args.oracle:
        rng = np.random.default_rng(args.seed)
        f0s = [rng.normal(size=data.n) + 1j * rng.normal(size=data.n) for _ in range(3)]
        f0s = [f0 / np.linalg.norm(f0) for f0 in f0s]
        scale = max(1.0, float(np.linalg.norm(C, 2)) / 5.0)
        times = np.linspace(0.0, 5.0 / scale, 11)
        gap = _rk4_gap(C, f0s, [exact_solution(data, f0, times) for f0 in f0s],
                       times, 1e-3 / scale)
        out["oracle_gap"] = gap
        if gap > ORACLE_RTOL:
            print(json.dumps(out, indent=2, sort_keys=True))
            _err(f"oracle cross-check failed: relative gap {gap:.3e}")
            return 3
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


def cmd_envelope(args) -> int:
    C = read_matrix_file(args.matrix_file)
    if C.shape[0] != 2:
        raise UnsupportedMatrix("envelopes are defined for 2x2 matrices only")
    data = eigendecompose(C)
    if data.defective:
        raise DefectiveInput("matrix is defective")
    report = classify_stability(data)
    if not report.positive_stable:
        raise NotPositiveStable(f"spectral gap is {report.mu}; no decay to certify")
    form = canonical_2d_form(data)

    times = np.linspace(0.0, args.t_max, args.points)
    env = envelope_curves(form, times)
    fam = family_envelope(form, times, n_rates=args.rates)

    header = ["t", "h_minus", "h_plus", "family_upper", "family_lower"]
    columns = [times, env.h_minus, env.h_plus, fam.upper ** 2, fam.lower ** 2]
    if args.trajectories > 0:
        rng = np.random.default_rng(args.seed)
        for i in range(args.trajectories):
            f0 = rng.normal(size=2) + 1j * rng.normal(size=2)
            f0 /= np.linalg.norm(f0)
            sol = exact_solution(data, f0, times)
            header.append(f"traj_{i + 1}")
            columns.append(np.linalg.norm(sol, axis=1) ** 2)

    print(",".join(header))
    for row in zip(*columns):
        print(",".join(_fmt(v) for v in row))

    if args.oracle:
        phi = np.linspace(0.0, np.pi, 180)
        theta = np.linspace(0.0, 2.0 * np.pi, 180, endpoint=False)
        vmax, vmin = trajectory_envelope_oracle(C, phi, theta, times)
        gap_hi = float(np.max(np.abs(vmax - env.h_plus)
                              / np.maximum(env.h_plus, 1e-300)))
        gap_lo = float(np.max(np.abs(vmin - env.h_minus)
                              / np.maximum(env.h_minus, 1e-300)))
        if max(gap_hi, gap_lo) > ENVELOPE_ORACLE_RTOL:
            _err(f"oracle sweep disagrees with the envelopes: "
                 f"upper {gap_hi:.3e}, lower {gap_lo:.3e}")
            return 3
    return 0


def _parse_init_spec(spec: str, n_grid: int, default_seed: int) -> TorusField:
    name, _, arg = spec.partition(":")
    if name == "steady" and not arg:
        return TorusField.steady(n_grid)
    if name == "sharp" and not arg:
        return TorusField.sharp(n_grid)
    if name == "harmonic":
        try:
            k = int(arg)
        except ValueError:
            raise MatrixFormatError(f"harmonic index must be an integer, got {arg!r}")
        return TorusField.harmonic(k, n_grid)
    if name == "random":
        if arg:
            try:
                seed = int(arg)
            except ValueError:
                raise MatrixFormatError(f"random seed must be an integer, got {arg!r}")
        else:
            seed = default_seed
        return TorusField.random_field(seed, n_grid)
    raise MatrixFormatError(
        f"unknown init spec {spec!r}; expected steady, harmonic:k, random:seed or sharp")


def cmd_gt(args) -> int:
    try:
        field = _parse_init_spec(args.init_spec, args.grid, args.seed)
    except ValueError as exc:
        raise MatrixFormatError(str(exc)) from exc
    times = np.linspace(0.0, args.t_max, args.points)
    report = verify_gt_bound(field, times, args.modes, tol=args.tol)

    bound = GT_CONSTANT * np.exp(-GT_RATE * times) * report.initial_deviation
    print("t,deviation,bound")
    for row in zip(times, report.deviations, bound):
        print(",".join(_fmt(v) for v in row))

    if args.oracle:
        check_ts = np.linspace(0.0, min(args.t_max, 5.0), 11)
        u0 = np.array([1.0 + 0.5j, -0.75j])
        for k in sorted({1, 2, max(1, args.modes)}):
            closed = _propagate(np.array([k]), u0[None, :], check_ts)[:, 0]
            gap = _rk4_gap(mode_matrix(k), [u0], [closed], check_ts, 1e-4)
            if gap > ORACLE_RTOL:
                _err(f"oracle cross-check failed on mode {k}: gap {gap:.3e}")
                return 3

    if report.passed:
        print(f"PASS max ratio {report.max_ratio:.12f} <= sqrt(3) "
              f"at t = {report.t_at_max:.6f}", file=sys.stderr)
        return 0
    print(f"FAIL max ratio {report.max_ratio:.12f} > sqrt(3) "
          f"at t = {report.t_at_max:.6f}", file=sys.stderr)
    return 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypodecay",
        description="decay certificates for linear ODE systems and the "
                    "two-velocity transport model")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0,
                        help="seed for all randomized steps (default 0)")
    common.add_argument("--oracle", action="store_true",
                        help="cross-check results against a Runge-Kutta integrator")

    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", parents=[common],
                        help="certificate summary for a matrix file (JSON)")
    pa.add_argument("matrix_file")
    pa.set_defaults(func=cmd_analyze)

    pe = sub.add_parser("envelope", parents=[common],
                        help="decay envelopes for a 2x2 matrix file (CSV)")
    pe.add_argument("matrix_file")
    pe.add_argument("--t-max", type=float, default=10.0)
    pe.add_argument("--points", type=int, default=400)
    pe.add_argument("--trajectories", type=int, default=0, metavar="M",
                    help="append M random trajectory columns")
    pe.add_argument("--rates", type=int, default=64, metavar="N",
                    help="rate-family resolution (default 64)")
    pe.set_defaults(func=cmd_envelope)

    pg = sub.add_parser("gt", parents=[common],
                        help="transport-model decay check (CSV + verdict)")
    pg.add_argument("init_spec",
                    help="steady | harmonic:k | random:seed | sharp")
    pg.add_argument("--t-max", type=float, default=20.0)
    pg.add_argument("--points", type=int, default=400)
    pg.add_argument("--modes", type=int, default=64, metavar="K",
                    help="Fourier cutoff (default 64)")
    pg.add_argument("--grid", type=int, default=256, metavar="N",
                    help="spatial grid size (default 256)")
    pg.add_argument("--tol", type=float, default=1e-10,
                    help="relative slack on the sqrt(3) verdict (default 1e-10)")
    pg.set_defaults(func=cmd_gt)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (MatrixFormatError, CutoffTooLarge) as exc:
        _err(str(exc))
        return 1
    except (UnsupportedMatrix, DefectiveInput, NotPositiveStable) as exc:
        _err(str(exc))
        return 2
    except (NotNormalized, RateOutOfRange, SearchFailure) as exc:
        _err(str(exc))
        return 3
    except ValueError as exc:
        _err(str(exc))
        return 1


if __name__ == "__main__":
    sys.exit(main())
