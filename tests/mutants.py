"""Mutation gate: every threshold and closed form in src/ is pinned by a test.

Run from anywhere as ``python tests/mutants.py`` (pytest does not collect
this file). For each entry of MUTANTS it copies the repository, without
.git, to a temporary directory, replaces the entry's old text by its new
text in one file of src/hypodecay, and runs ``python -m pytest -x -q`` on
the tests the entry names there. A mutant is killed when that run fails;
only a mutant that survives them runs the whole suite (without
tests/test_mutants.py, which checks the unmutated texts), whose verdict is
then the mutant's, so naming tests changes no verdict, only its cost.

EQUIVALENT holds mutants that no input the suite runs can tell apart from
the code, each with its measured reason; they run the whole suite, and must
survive, as must the unmutated copy, which runs it first. The script exits
1 if the unmutated copy fails, if a mutant of MUTANTS survives or one of
EQUIVALENT is killed, or if a run errors or outlasts RUN_TIMEOUT_S.

Each entry is (file, old, new, why, tests): old occurs exactly once in its
file and tests are pytest ids, "tests/FILE.py::Class::test", that kill it
(empty for EQUIVALENT); tests/test_mutants.py checks both. A change that
adds a threshold or a closed form adds its mutant here.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src") / "hypodecay"

#: longest run of one pytest process; the whole suite takes well under a minute
RUN_TIMEOUT_S = 300

_ENVELOPES = "        h_minus, h_plus = pre * m_lo, pre * m_hi\n"

MUTANTS = [
    ("spectral.py", "DEFECT_SIGMA = 1e-6", "DEFECT_SIGMA = 1e-8",
     "rotated Jordan draws have cluster sigma_min up to 1.6e-7: some are certified",
     ("tests/test_spectral.py::TestJordanClusters::test_jordan_draws_are_flagged",
      "tests/test_cli.py::TestAnalyzeErrors::test_jordan_family_is_refused")),
    ("spectral.py", "ROUNDING_RTOL = 32 * np.finfo(float).eps",
     "ROUNDING_RTOL = 4 * np.finfo(float).eps",
     "rounding splits of Jordan blocks are no longer linked",
     ("tests/test_cli.py::TestAnalyzeErrors::test_nd_jordan_block_is_refused_as_defective",
      "tests/test_spectral.py::TestJordanClusters::test_jordan_draws_are_flagged")),
    ("spectral.py", "ROUNDING_RTOL = 32 * np.finfo(float).eps",
     "ROUNDING_RTOL = 256 * np.finfo(float).eps",
     "well-conditioned pairs split by 400 eps are linked and refused as Jordan blocks",
     ("tests/test_spectral.py::TestJordanClusters::test_2x2_scalar_tie_is_not",)),
    ("spectral.py", "COINCIDENCE_RTOL = 1e-10", "COINCIDENCE_RTOL = 1e-7",
     "real parts 1e-7 of the radius apart count as equal",
     ("tests/test_cli.py::TestAnalyze::test_near_tie_of_real_parts",
      "tests/test_spectral.py::TestClassifyStability::test_positive_stable_margin_is_coincidence_tol")),
    ("spectral.py", "self.spectral_gap > COINCIDENCE_RTOL * self._radius",
     "self.spectral_gap > 0.0",
     "an eigenvalue on the imaginary axis is positive stable by the sign of rounding",
     ("tests/test_spectral.py::TestClassifyStability::test_eigenvalue_on_the_imaginary_axis_is_not_positive_stable",)),
    ("spectral.py", "    _require_positive_stable(data)\n", "",
     "a 2x2 form exists for a C that does not decay",
     ("tests/test_sharp2d.py::TestClassification::test_unstable_rejected",)),
    ("spectral.py", "    if _jordan_cluster(C, lam, kappa, unit_V):", "    if False:",
     "the eig route returns a record for a Jordan block",
     ("tests/test_cli.py::TestAnalyzeErrors::test_defective_matrix",)),
    ("lyapunov.py", "RESIDUAL_RTOL = 1e-10", "RESIDUAL_RTOL = 1e-6",
     "a P whose residual is 1e-6 below zero is admitted",
     ("tests/test_lyapunov.py::TestResidualSlack::test_slack_edge",
      "tests/test_lyapunov.py::TestResidualSlack::test_verdict_is_scale_free")),
    ("cli.py", "ORACLE_RTOL = 1e-8", "ORACLE_RTOL = 1e-4",
     "--oracle passes a propagator 1e-4 off",
     ("tests/test_cli.py::TestAnalyze::test_oracle_catches_a_planted_disagreement",)),
    ("cli.py", '"c_sharp": sharp.c_sharp,', '"c_sharp": sharp.c_sharp * (1.0 - 8 * 2.0 ** -52),',
     "analyze prints c_sharp 8 eps below the 50-digit sup",
     ("tests/test_cli.py::TestAnalyze::test_c_sharp_meets_a_50_digit_sup",)),
    ("cli.py", '"c_sharp": sharp.c_sharp,', '"c_sharp": sharp.c_sharp * (1.0 + 2 * 2.0 ** -52),',
     "analyze prints c_sharp 2 eps above the 50-digit sup",
     ("tests/test_cli.py::TestAnalyze::test_c_sharp_meets_a_50_digit_sup",)),
    ("cli.py", 'pe.add_argument("--seed", type=_int_at_least(0)',
     'pe.add_argument("--seed", type=int', "envelope accepts a negative --seed",
     ("tests/test_cli.py::TestFlags::test_out_of_range_values_are_malformed",)),
    ("goldstein_taylor.py", "GT_TOL = 1e-10", "GT_TOL = 1e-6",
     "gt passes a ratio 1e-8 above sqrt(3)",
     ("tests/test_goldstein_taylor.py::TestVerifyGTBound::test_verdict_slack_is_gt_tol",)),
    ("goldstein_taylor.py", "GT_TOL = 1e-10", "GT_TOL = 1e-12",
     "gt fails a ratio 1e-11 above sqrt(3)",
     ("tests/test_goldstein_taylor.py::TestVerifyGTBound::test_verdict_slack_is_gt_tol",)),
    ("goldstein_taylor.py", "> GT_TOL * dev0 ** 2", "> 1e-3 * dev0 ** 2",
     "gt checks random:7 at cutoff 63, which leaves 1.2e-4 of its energy unchecked",
     ("tests/test_goldstein_taylor.py::TestVerifyGTBound::test_refuses_energy_above_the_cutoff",)),
    ("sharp2d.py", "ALPHA_FLOOR = 2.0 ** -54", "ALPHA_FLOOR = 1e-8",
     "c_sharp and h_+ of an overlap of 5e-9 round to the orthogonal constant 1",
     ("tests/test_sharp2d.py::TestClassification::test_small_overlap_keeps_its_transient",)),
    ("sharp2d.py", "ALPHA_FLOOR = 2.0 ** -54", "ALPHA_FLOOR = 1e-14",
     "c_sharp of an overlap of 5e-15 rounds to 1, 23 ulp below sqrt(kappa_min)",
     ("tests/test_sharp2d.py::TestClassification::test_small_overlap_keeps_its_transient",)),
    ("sharp2d.py", "* (sn * sn)) / (beta * beta)", "* (sn * sn)) / (1.0 - alpha * alpha)",
     "h+- of a triangular C near a Jordan block drift from their 50-digit values",
     ("tests/test_sharp2d.py::TestEnvelopes::test_no_cancellation_near_a_jordan_block",)),
    ("sharp2d.py", "            slope = cs * (g * sh + 2.0 * a2 * e * sn) - g * f\n",
     "            slope = cs * (g * sh + 2.0 * a2 * e * sn)\n",
     "the slope of the root-find without its -g Fh term: the Newton steps lose their quadratic pace",
     ("tests/test_sharp2d.py::TestSupReference::test_search_cost",)),
    ("sharp2d.py", "if moved <= 2.0 ** -51 * s:", "if moved <= 1e-8 * s:",
     "the root-find stops at a step of 1e-8 relative, not 2 eps: attained.time drifts off the argmax",
     ("tests/test_sharp2d.py::TestSupReference::test_time_meets_a_50_digit_argmax",)),
    ("sharp2d.py", "    s = math.pi - min(0.25 * math.pi, 2.0 * g / alpha)\n", "    s = math.pi\n",
     "the root-find starts at pi, beside the near-double root that small g leaves there",
     ("tests/test_sharp2d.py::TestSupReference::test_search_cost",)),
    ("sharp2d.py", "(a2 * sn * sn - 2.0 * q) * e", "(a2 * sn * sn - q) * e",
     "the root-find's Fh with q for 2q: the root and the sup move off the maximum",
     ("tests/test_sharp2d.py::TestSupReference::test_matches_mpmath",
      "tests/test_sharp2d.py::TestSupReference::test_time_meets_a_50_digit_argmax")),
    ("sharp2d.py", "1.0 / form.beta", "1.0 / math.sqrt(1.0 - form.alpha ** 2)",
     "c_sharp of [[1, 1e6], [0, 2]] is 4.4e-5 below sqrt(1 + 1e12)",
     ("tests/test_sharp2d.py::TestTriangularNearJordan::test_constants_and_envelopes_meet_50_digits",)),
    ("spectral.py", "        return q * q",
     "        return (1.0 + self.alpha) / (1.0 - self.alpha)",
     "kappa_min and c1 at mu of a triangular C near a Jordan block drift from 50 digits",
     ("tests/test_sharp2d.py::TestTriangularNearJordan::test_constants_and_envelopes_meet_50_digits",)),
    ("sharp2d.py", _ENVELOPES, "        h_minus, h_plus = pre * m_lo, pre * m_hi * (1.0 + 1e-6)\n",
     "h_+ 1e-6 above sigma_max^2 of the propagator",
     ("tests/test_cli.py::TestEnvelope::test_oracle_agrees_with_rk4_singular_values",)),
    ("sharp2d.py", _ENVELOPES, "        h_minus, h_plus = pre * m_lo * (1.0 + 1e-6), pre * m_hi\n",
     "h_- 1e-6 above sigma_min^2 of the propagator",
     ("tests/test_cli.py::TestEnvelope::test_oracle_agrees_with_rk4_singular_values",)),
    ("rate_family.py", "    if n_rates < 1:\n", "    if not 1 <= n_rates <= 65536:\n",
     "family_envelope refuses more than 65536 rates",
     ("tests/test_rate_family.py::TestFamilyEnvelope::test_memory_linear_in_rates_plus_times",)),
    ("condopt.py", "STAGE_MAXITER = 1000", "STAGE_MAXITER = 100",
     "the kappa searches stop short of the weighted minimum",
     ("tests/test_condopt.py::TestShortLadder::test_admissible_searches_lose_nothing",)),
    ("rate_family.py", "        if np.count_nonzero(convex) == len(convex):\n", "        if True:\n",
     "the one-row exit without its convexity clause: a non-convex chain is taken as its hull",
     ("tests/test_rate_family.py::TestLowerEnvelope::test_one_slope_row_serves_both_families",)),
    ("rate_family.py", "        rates[n - 1], rates[-1] = form.mu, form.nu_s\n", "",
     "a family's last rate is lo + (n - 1) step, not the end of its range that linspace sets",
     ("tests/test_rate_family.py::TestFamilyEnvelope::test_bits_of_two_rows_on_batch_2x2",)),
    ("rate_family.py", "-logc[back], slopes[back], ts)", "-logc[back], slopes[n:], ts)",
     "the lower family's part of the one slope row is read forwards",
     ("tests/test_rate_family.py::TestFamilyEnvelope::test_bits_of_two_rows_on_batch_2x2",)),
    ("lyapunov.py", "*_hermitian_extremes(x, y, h + h), b)", "*_hermitian_extremes(x, y, h), b)",
     "the extremes of the 2x2 P are those of [[x, h/2], [conj(h)/2, y]]",
     ("tests/test_lyapunov.py::TestTwoByTwoWeightedP::test_bits_and_refusals_of_lyapunov_matrix",)),
    ("lyapunov.py", "        if not (math.isfinite(x) and math.isfinite(y) and cmath.isfinite(h)):\n",
     "        if False:\n",
     "weights that overflow the 2x2 P give a ValueError, not LyapunovMatrix's MatrixFormatError",
     ("tests/test_lyapunov.py::TestTwoByTwoWeightedP::test_bits_and_refusals_of_lyapunov_matrix",)),
    ("lyapunov.py", "-0.5 * RESIDUAL_RTOL * np.abs(C).max()", "-2.0 * RESIDUAL_RTOL * np.abs(C).max()",
     "a residual below the slack is admitted without |C| where twice the largest |C_ij| exceeds |C|",
     ("tests/test_lyapunov.py::TestResidualSlack::test_slack_edge",)),
    ("lyapunov.py", "-0.5 * RESIDUAL_RTOL * np.abs(C).max()", "-0.0 * RESIDUAL_RTOL * np.abs(C).max()",
     "every residual below zero reads |C|, as when only a residual >= 0 skipped it",
     ("tests/test_lyapunov.py::TestResidualSlack::test_residual_of_rounding_size_reads_no_norm",)),
    ("cli.py", "        certificate_from_p(C, np.eye(1), report.mu)", "        pass",
     "analyze certifies the 1x1 [[1.7976931348623157e308]], whose 2 Re c overflows",
     ("tests/test_cli.py::TestAnalyzeErrors::test_certificate_beyond_the_float_range",)),
    ("cli.py", "weights = [1.0, 1.0]", "weights = [1.0, 2.0]",
     "analyze certifies a 2x2 with weights 1 and 2, not the equal weights that attain kappa_min",
     ("tests/test_cli.py::TestAnalyze::test_two_dim_certificate",)),
    ("cli.py", '"kappa": form.kappa_min,', '"kappa": 1.0 / (form.beta * form.beta),',
     "analyze prints 1/(1 - alpha^2) as the 2x2 kappa, not (1 + alpha)/(1 - alpha)",
     ("tests/test_cli.py::TestAnalyze::test_two_dim_certificate",)),
    ("condopt.py", "certificate_from_p(C, seed_P, mu).matrix", "LyapunovMatrix(matrix=seed_P).matrix",
     "the admissible search starts from a seed it never checks at mu",
     ("tests/test_condopt.py::TestMinimizeKappaAdmissible::test_rejects_inadmissible_seed",)),
    ("lyapunov.py", "    C = as_complex_matrix(C)\n    res = _residual_of",
     "    C = np.asarray(C, dtype=complex)\n    res = _residual_of",
     "certificate_from_p takes a non-finite or non-square C unchecked",
     ("tests/test_lyapunov.py::TestCertificateInput::test_refuses_a_malformed_c",)),
    ("goldstein_taylor.py",
     "    if k_max > 0.0 and not math.isfinite(2.0 * t_end * math.sqrt(k_max * k_max - 0.25)):",
     "    if False:",
     "gt prints a verdict on NaN ratios once a kept mode's phase 2 t omega_k overflows",
     ("tests/test_goldstein_taylor.py::TestVerifyGTBound::test_phase_beyond_the_float_range_is_refused",
      "tests/test_cli.py::TestExitCodes::test_exit_code[gt-phase-overflow-steady]")),
    ("cli.py", "    except (HypodecayError, ValueError, MemoryError) as exc:",
     "    except (HypodecayError, ValueError) as exc:",
     "a size option beyond memory ends main in a MemoryError traceback, not exit 2",
     ("tests/test_cli.py::TestExitCodes::test_exit_code[gt-points-beyond-memory]",)),
]

EQUIVALENT = [
    ("spectral.py", "DEFECT_SIGMA = 1e-6", "DEFECT_SIGMA = 1e-3",
     "inside the measured margin: under every scale, unitary and permutation of "
     "TestJordanClusters the semisimple clusters of tests/families.py have sigma_min "
     "0.137-0.98 and the Jordan clusters 1.8e-12-1.6e-7, so any cut between keeps "
     "every verdict", ()),
]


def _copy(mutant: tuple | None, workdir: Path) -> Path:
    """A copy of the repository under workdir with mutant applied."""
    copy = workdir / "repo"
    if copy.exists():
        shutil.rmtree(copy)
    shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".benchmarks"))
    if mutant is not None:
        path = copy / PACKAGE / mutant[0]
        text = path.read_text()
        if text.count(mutant[1]) != 1:
            raise SystemExit(f"{mutant[0]}: the old text {mutant[1]!r} does not occur once")
        path.write_text(text.replace(mutant[1], mutant[2]))
    return copy


def _pytest(copy: Path, tests: tuple) -> int | None:
    """The exit code of pytest -x -q in copy on tests, or on the whole suite
    without tests/test_mutants.py when tests is empty; None past RUN_TIMEOUT_S."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    args = tests or ("--ignore", str(Path("tests") / "test_mutants.py"))
    try:
        return subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                               *args], cwd=copy, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        return None


def main() -> int:
    mutants = MUTANTS + EQUIVALENT
    with tempfile.TemporaryDirectory(prefix="hypodecay-mutants-") as tmp:
        if _pytest(_copy(None, Path(tmp)), ()) != 0:
            print("the unmutated copy fails its tests: no mutant can be judged")
            return 1
        bad = 0
        for mutant in mutants:
            start = time.perf_counter()
            copy = _copy(mutant, Path(tmp))
            code, by = _pytest(copy, mutant[4]), "named tests"
            if code == 0 or not mutant[4]:  # survived the named tests, or names none
                code, by = _pytest(copy, ()), "whole suite"
            expected = mutant in EQUIVALENT
            verdict = {0: "survived", 1: "killed", None: "error (timeout)"}.get(
                code, f"error (pytest exit {code})")
            wrong = code not in (0, 1) or (code == 0) != expected
            bad += wrong
            seconds = time.perf_counter() - start
            print(f"{'FAIL' if wrong else 'ok  '} {verdict:9s} {seconds:6.1f} s  {by:11s}  "
                  f"{mutant[0]}: {mutant[1].strip()!r} -> {mutant[2].strip()!r}  ({mutant[3]})",
                  flush=True)
    print(f"{len(mutants)} mutants, {bad} not as expected")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
