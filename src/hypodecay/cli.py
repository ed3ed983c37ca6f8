"""Command-line interface.

Three subcommands cover the workflow end to end:

    hypodecay analyze MATRIX.json        certificate summary as JSON
    hypodecay envelope MATRIX.json       decay envelopes as CSV (2x2 only)
    hypodecay gt INIT_SPEC               transport-model decay check as CSV

Exit codes follow the layer that stops a command. 1: the command line or
the input file is malformed (argparse, MatrixFormatError, CutoffTooLarge),
or the reader closed stdout before the output was written, as `| head` does
(the process then ends with no traceback).
3: a command returned a failed verdict (an --oracle gap, or gt's FAIL).
2: the library raised any other HypodecayError or ValueError (numpy's
LinAlgError included) while certifying, as for a defective matrix (within
rounding of a Jordan block, for every n), one not positive stable or larger
than 16x16, a weighted P not admissible at the spectral gap, a certificate
outside the float range, a gt field with energy above --modes, or a gt time
at which a kept mode's phase 2 t omega_k leaves the float range; and also a
MemoryError, as for a --points, --rates or --grid too large to allocate.
0: success.
All output is deterministic for fixed inputs and seed.

Each command imports the library modules it uses when it runs, so a process
loads only those. A process also runs with no cyclic garbage collection. The
collector would walk the ~10^5 long-lived objects of numpy and the standard
library while they are imported, yet a command leaves only about 200
unreachable objects, a number that does not grow with the input. So
`python -m hypodecay.cli` disables the collector before it imports numpy, and
run(), the entry of both that route and the installed `hypodecay` script,
disables it for the command. run() then flushes stdout and stderr and ends the
process with os._exit, so no interpreter teardown runs: no module is torn
down and no object is collected or freed at exit. Importing this module or
calling main() leaves the collector as it was.
"""

from __future__ import annotations

import gc

if __name__ == "__main__":
    gc.disable()

import argparse
import json
import os
import sys
from typing import TYPE_CHECKING

import numpy as np

from .errors import CutoffTooLarge, HypodecayError, MatrixFormatError

if TYPE_CHECKING:
    from .goldstein_taylor import TorusField

__all__ = ["main"]

SCHEMA = "hypodecay/1"

#: largest matrix size the file formats accept
MAX_SIZE = 16

#: relative mismatch that fails the --oracle cross-checks against RK4
ORACLE_RTOL = 1e-8


class UnsupportedMatrix(HypodecayError):
    """Valid file, but outside what the certificates cover (exit code 2)."""


def _print_csv(header, columns) -> None:
    """The header line and one line per row of columns, every number as %.17g."""
    print(",".join(header))
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    sys.stdout.writelines(row % tuple(r) for r in np.column_stack(columns).tolist())


def _err(msg: str) -> None:
    print(f"error: {msg}", file=sys.stderr)


def _nonnegative_float(text: str) -> float:
    """argparse type: a finite float of at least 0."""
    try:
        value = float(text)
    except ValueError:
        value = np.nan
    if not (np.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return value


def _int_at_least(low: int):
    """argparse type: an integer of at least low."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {text!r}")
        return value
    return parse


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
    except (ValueError, RecursionError) as exc:  # bad JSON, bad UTF-8, too deep
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


def _time_scale(C: np.ndarray) -> float:
    """|C|_2 / 5, at least 1: the RK4 step and analyze's oracle horizon are
    multiples of 1/scale, which bounds h|C| whatever the size of C."""
    return max(1.0, float(np.linalg.norm(C, 2)) / 5.0)


def _rk4_propagator(C: np.ndarray, times: np.ndarray) -> np.ndarray:
    """RK4 propagator at the one step every --oracle uses. Its phase error grows
    with |C| t: twice this step fails [[1, -40], [40, 2]] at t = 800."""
    from .propagator import rk4_oracle

    return rk4_oracle(C, np.eye(len(C)), times, dt=5e-4 / _time_scale(C))


def _gap(closed: np.ndarray, reference: np.ndarray) -> float:
    """Worst relative gap between closed[i] and reference[i] (the propagators,
    or the values, at time i), in the 2-norm along axis 1."""
    gap = np.linalg.norm(closed - reference, axis=1)
    return float(np.max(gap / np.maximum(np.linalg.norm(closed, axis=1), 1e-300)))


def cmd_analyze(args) -> int:
    from .lyapunov import build_weighted_p, certificate_from_p
    from .spectral import (_require_positive_stable, canonical_2d_form, classify_stability,
                           eigendecompose)

    C = read_matrix_file(args.matrix_file)
    data = _require_positive_stable(eigendecompose(C))
    report = classify_stability(data)

    out: dict = {
        "schema": SCHEMA,
        "n": data.n,
        "mu": report.mu,
        "mu_s": report.mu_s,
        "nu": report.nu,
        "nu_s": report.nu_s,
    }
    if data.n == 1:  # P = 1 is exact: residual 0 at rate mu, where 2 Re c is a float
        certificate_from_p(C, np.eye(1), report.mu)  # refuses it beyond the float range
        out.update({"kappa": 1.0, "weights": [1.0], "residual": 0.0, "constant": 1.0,
                    "rate": report.mu})
    else:
        if data.n == 2:
            from .rate_family import upper_bound_constant
            from .sharp2d import classify_and_sharp_constant

            form = canonical_2d_form(data)
            sharp = classify_and_sharp_constant(form)
            weights = [1.0, 1.0]  # equal weights attain kappa_min, the least kappa of P
            out.update({
                "alpha": sharp.alpha,
                "case": sharp.case.value,
                "c_sharp": sharp.c_sharp,
                "bracket": [sharp.bracket[0], sharp.bracket[1]],
                "kappa": form.kappa_min,
                "attained": {"kind": sharp.attained, "time": sharp.attained_time},
                "c1_at_mu": upper_bound_constant(form, report.mu).constant,
            })
        else:
            from .condopt import minimize_kappa_weights

            opt = minimize_kappa_weights(data.left_vectors)
            weights = opt.weights
            out.update({"kappa_equal": opt.kappa_equal, "kappa_opt": opt.kappa,
                        "constant": float(np.sqrt(opt.kappa)), "rate": report.mu})
        p = build_weighted_p(data, weights)
        out["weights"] = [float(w) for w in weights]
        out["residual"] = certificate_from_p(C, p, report.mu).residual

    if args.oracle:
        from .propagator import exact_solution

        times = np.linspace(0.0, 5.0 / _time_scale(C), 11)
        out["oracle_gap"] = _gap(exact_solution(data, np.eye(data.n), times),
                                 _rk4_propagator(C, times))
    try:
        text = json.dumps(out, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:  # a number beyond the float range, as at subnormal scale
        raise UnsupportedMatrix("the certificate of this matrix holds a number "
                                "outside the float range") from exc
    print(text)
    if out.get("oracle_gap", 0.0) > ORACLE_RTOL:
        _err(f"oracle cross-check failed: relative gap {out['oracle_gap']:.3e}")
        return 3
    return 0


def cmd_envelope(args) -> int:
    from .rate_family import family_envelope
    from .sharp2d import envelope_curves
    from .spectral import canonical_2d_form, eigendecompose

    C = read_matrix_file(args.matrix_file)
    if C.shape[0] != 2:
        raise UnsupportedMatrix("envelopes are defined for 2x2 matrices only")
    data = eigendecompose(C)
    form = canonical_2d_form(data)  # refuses a C that does not decay, as analyze does

    times = np.linspace(0.0, args.t_max, args.points)
    env = envelope_curves(form, times)
    fam = family_envelope(form, times, n_rates=args.rates)

    header = ["t", "h_minus", "h_plus", "family_upper", "family_lower"]
    with np.errstate(over="ignore"):  # a family member above the float range is inf
        columns = [times, env.h_minus, env.h_plus, fam.upper ** 2, fam.lower ** 2]
    if args.trajectories > 0:
        from .propagator import exact_solution

        rng = np.random.default_rng(args.seed)
        for i in range(args.trajectories):
            f0 = rng.normal(size=2) + 1j * rng.normal(size=2)
            f0 /= np.linalg.norm(f0)
            sol = exact_solution(data, f0, times)
            header.append(f"traj_{i + 1}")
            columns.append(np.linalg.norm(sol, axis=1) ** 2)

    _print_csv(header, columns)

    if args.oracle:
        # h_+ = sigma_max(P)^2 for the RK4 propagator P(t). By Liouville
        # sigma_max sigma_min = |det P| = e^{-Re(tr C) t}, so h_- needs no
        # sigma_min of its own, which loses the digits h_- keeps.
        P = _rk4_propagator(C, times)
        top = np.linalg.norm(P, 2, axis=(1, 2))
        bottom = np.divide(np.exp(-np.trace(C).real * times), top,
                           out=np.zeros_like(top), where=top > 0.0)
        gap_hi, gap_lo = (float(np.max(np.abs(s * s - h) / np.maximum(h, 1e-300)))
                          for s, h in ((top, env.h_plus), (bottom, env.h_minus)))
        if max(gap_hi, gap_lo) > ORACLE_RTOL:
            _err(f"oracle cross-check failed: RK4 disagrees with the envelopes, "
                 f"upper {gap_hi:.3e}, lower {gap_lo:.3e}")
            return 3
    return 0


def _parse_init_spec(spec: str, n_grid: int) -> TorusField:
    from .goldstein_taylor import TorusField

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
        try:
            seed = int(arg or 0)
        except ValueError:
            raise MatrixFormatError(f"random seed must be an integer, got {arg!r}")
        return TorusField.random_field(seed, n_grid)
    raise MatrixFormatError(
        f"unknown init spec {spec!r}; expected steady, harmonic:k, random:seed or sharp")


def cmd_gt(args) -> int:
    from .goldstein_taylor import GT_CONSTANT, GT_RATE, verify_gt_bound

    try:
        field = _parse_init_spec(args.init_spec, args.grid)
    except ValueError as exc:
        raise MatrixFormatError(str(exc)) from exc
    times = np.linspace(0.0, args.t_max, args.points)
    report = verify_gt_bound(field, times, args.modes)

    bound = GT_CONSTANT * np.exp(-GT_RATE * times) * report.initial_deviation
    _print_csv(["t", "deviation", "bound"], [times, report.deviations, bound])

    if args.oracle:
        # the closed-form propagator of evolve, and the deviation form of the
        # verdict on each identity column, against the RK4 propagator
        from .goldstein_taylor import _propagate, _propagated_norm_sq, mode_matrix

        check_ts = np.linspace(0.0, min(args.t_max, 5.0), 11)
        for k in sorted({1, 2, args.modes}):
            rk4 = _rk4_propagator(mode_matrix(k), check_ts)
            closed = _propagate(np.array([k, k]), np.eye(2), check_ts).swapaxes(1, 2)
            squares = np.stack([_propagated_norm_sq(np.array([k]), e[None], check_ts)
                                for e in np.eye(2)], axis=1)
            gaps = (_gap(closed, rk4), _gap(squares, np.linalg.norm(rk4, axis=1) ** 2))
            if max(gaps) > ORACLE_RTOL:
                _err(f"oracle cross-check failed on mode {k}: propagator gap "
                     f"{gaps[0]:.3e}, deviation form gap {gaps[1]:.3e}")
                return 3

    verdict, relation, code = ("PASS", "<=", 0) if report.passed else ("FAIL", ">", 3)
    print(f"{verdict} max ratio {report.max_ratio:.12f} {relation} sqrt(3) "
          f"at t = {report.t_at_max:.6f}", file=sys.stderr)
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypodecay",
        description="decay certificates for linear ODE systems and the "
                    "two-velocity transport model")
    common = argparse.ArgumentParser(add_help=False)
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
    pe.add_argument("--t-max", type=_nonnegative_float, default=10.0)
    pe.add_argument("--points", type=_int_at_least(1), default=400)
    pe.add_argument("--trajectories", type=_int_at_least(0), default=0, metavar="M",
                    help="append M random trajectory columns")
    pe.add_argument("--rates", type=_int_at_least(1), default=64, metavar="N",
                    help="rate-family resolution (default 64)")
    pe.add_argument("--seed", type=_int_at_least(0), default=0,
                    help="seed of the trajectory draws (default 0)")
    pe.set_defaults(func=cmd_envelope)

    pg = sub.add_parser("gt", parents=[common],
                        help="transport-model decay check (CSV + verdict)")
    pg.add_argument("init_spec",
                    help="steady | harmonic:k | random[:seed] | sharp")
    pg.add_argument("--t-max", type=_nonnegative_float, default=20.0)
    pg.add_argument("--points", type=_int_at_least(1), default=400)
    pg.add_argument("--modes", type=_int_at_least(1), default=64, metavar="K",
                    help="Fourier cutoff (default 64); a field with energy "
                         "above it is refused with exit code 2")
    pg.add_argument("--grid", type=int, default=256, metavar="N",
                    help="spatial grid size (default 256)")
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
    except (HypodecayError, ValueError, MemoryError) as exc:
        _err(str(exc))
        return 2


def run() -> None:
    """Process entry point of ``hypodecay`` and ``python -m hypodecay.cli``:
    main() with the collector off, then stdout and stderr flushed and the
    process ended by os._exit with main's code, skipping interpreter teardown.

    A reader that closes stdout early ends the process with exit code 1 and
    no traceback.
    """
    gc.disable()
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        code = 1
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
