"""Mutation gate: every threshold and closed form in src/ is pinned by a test.

Run from anywhere as ``python tests/mutants.py`` (pytest does not collect
this file). For each entry of MUTANTS it copies the repository, without
.git, to a temporary directory, replaces the entry's old text by its new
text in one file of src/hypodecay, and runs ``python -m pytest -x -q``
there, without tests/test_mutants.py, which checks the unmutated texts. A
mutant is killed when that run fails.

EQUIVALENT holds mutants that no input the suite runs can tell apart from
the code, each with its measured reason; they run too, and must survive.
The script exits 1 if the unmutated copy fails, if a mutant of MUTANTS
survives or one of EQUIVALENT is killed, or if a run errors.

Each entry is (file, old, new, why); old occurs exactly once in its file
(tests/test_mutants.py checks that). A change that adds a threshold or a
closed form adds its mutant here.
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

_ENVELOPES = "        h_minus, h_plus = pre * m_lo, pre * m_hi\n"

MUTANTS = [
    ("spectral.py", "DEFECT_SIGMA = 1e-6", "DEFECT_SIGMA = 1e-8",
     "rotated Jordan draws have cluster sigma_min up to 1.6e-7: some are certified"),
    ("spectral.py", "ROUNDING_RTOL = 32 * np.finfo(float).eps",
     "ROUNDING_RTOL = 4 * np.finfo(float).eps",
     "rounding splits of Jordan blocks are no longer linked"),
    ("spectral.py", "ROUNDING_RTOL = 32 * np.finfo(float).eps",
     "ROUNDING_RTOL = 256 * np.finfo(float).eps",
     "well-conditioned pairs split by 400 eps are linked and refused as Jordan blocks"),
    ("spectral.py", "COINCIDENCE_RTOL = 1e-10", "COINCIDENCE_RTOL = 1e-7",
     "real parts 1e-7 of the radius apart count as equal"),
    ("spectral.py", "self.spectral_gap > COINCIDENCE_RTOL * self._radius",
     "self.spectral_gap > 0.0",
     "an eigenvalue on the imaginary axis is positive stable by the sign of rounding"),
    ("spectral.py", "    _require_positive_stable(data)\n", "",
     "a 2x2 form exists for a C that does not decay"),
    ("spectral.py", "    if _jordan_cluster(C, lam, kappa, unit_V):", "    if False:",
     "the eig route returns a record for a Jordan block"),
    ("lyapunov.py", "RESIDUAL_RTOL = 1e-10", "RESIDUAL_RTOL = 1e-6",
     "a P whose residual is 1e-6 below zero is admitted"),
    ("cli.py", "ORACLE_RTOL = 1e-8", "ORACLE_RTOL = 1e-4",
     "--oracle passes a propagator 1e-4 off"),
    ("cli.py", '"c_sharp": sharp.c_sharp,', '"c_sharp": sharp.c_sharp * (1.0 - 8 * 2.0 ** -52),',
     "analyze prints c_sharp 8 eps below the 50-digit sup"),
    ("cli.py", '"c_sharp": sharp.c_sharp,', '"c_sharp": sharp.c_sharp * (1.0 + 2 * 2.0 ** -52),',
     "analyze prints c_sharp 2 eps above the 50-digit sup"),
    ("cli.py", 'pe.add_argument("--seed", type=_int_at_least(0)',
     'pe.add_argument("--seed", type=int', "envelope accepts a negative --seed"),
    ("goldstein_taylor.py", "GT_TOL = 1e-10", "GT_TOL = 1e-6",
     "gt passes a ratio 1e-8 above sqrt(3)"),
    ("goldstein_taylor.py", "GT_TOL = 1e-10", "GT_TOL = 1e-12",
     "gt fails a ratio 1e-11 above sqrt(3)"),
    ("goldstein_taylor.py", "> GT_TOL * dev0 ** 2", "> 1e-3 * dev0 ** 2",
     "gt checks random:7 at cutoff 63, which leaves 1.2e-4 of its energy unchecked"),
    ("sharp2d.py", "ALPHA_FLOOR = 2.0 ** -54", "ALPHA_FLOOR = 1e-8",
     "c_sharp and h_+ of an overlap of 5e-9 round to the orthogonal constant 1"),
    ("sharp2d.py", "ALPHA_FLOOR = 2.0 ** -54", "ALPHA_FLOOR = 1e-14",
     "c_sharp of an overlap of 5e-15 rounds to 1, 23 ulp below sqrt(kappa_min)"),
    ("sharp2d.py", "* (sn * sn)) / (beta * beta)", "* (sn * sn)) / (1.0 - alpha * alpha)",
     "h+- of a triangular C near a Jordan block drift from their 50-digit values"),
    ("sharp2d.py", "1.0 / form.beta", "1.0 / math.sqrt(1.0 - form.alpha ** 2)",
     "c_sharp of [[1, 1e6], [0, 2]] is 4.4e-5 below sqrt(1 + 1e12)"),
    ("spectral.py", "        return q * q",
     "        return (1.0 + self.alpha) / (1.0 - self.alpha)",
     "kappa_min and c1 at mu of a triangular C near a Jordan block drift from 50 digits"),
    ("sharp2d.py", _ENVELOPES, "        h_minus, h_plus = pre * m_lo, pre * m_hi * (1.0 + 1e-6)\n",
     "h_+ 1e-6 above sigma_max^2 of the propagator"),
    ("sharp2d.py", _ENVELOPES, "        h_minus, h_plus = pre * m_lo * (1.0 + 1e-6), pre * m_hi\n",
     "h_- 1e-6 above sigma_min^2 of the propagator"),
    ("rate_family.py", "    if n_rates < 1:\n", "    if not 1 <= n_rates <= 65536:\n",
     "family_envelope refuses more than 65536 rates"),
    ("condopt.py", "STAGE_MAXITER = 1000", "STAGE_MAXITER = 100",
     "the kappa searches stop short of the weighted minimum"),
]

EQUIVALENT = [
    ("spectral.py", "DEFECT_SIGMA = 1e-6", "DEFECT_SIGMA = 1e-3",
     "inside the measured margin: under every scale, unitary and permutation of "
     "TestJordanClusters the semisimple clusters of tests/families.py have sigma_min "
     "0.137-0.98 and the Jordan clusters 1.8e-12-1.6e-7, so any cut between keeps "
     "every verdict"),
]


def _run(mutant: tuple | None, workdir: Path) -> int:
    """The exit code of pytest -x -q on a copy of the repository with mutant applied."""
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
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                           "--ignore", str(Path("tests") / "test_mutants.py")],
                          cwd=copy, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL, timeout=1800).returncode


def main() -> int:
    mutants = MUTANTS + EQUIVALENT
    with tempfile.TemporaryDirectory(prefix="hypodecay-mutants-") as tmp:
        if _run(None, Path(tmp)) != 0:
            print("the unmutated copy fails its tests: no mutant can be judged")
            return 1
        bad = 0
        for mutant in mutants:
            start = time.perf_counter()
            code = _run(mutant, Path(tmp))
            expected = mutant in EQUIVALENT
            verdict = {0: "survived", 1: "killed"}.get(code, f"error (pytest exit {code})")
            wrong = code not in (0, 1) or (code == 0) != expected
            bad += wrong
            seconds = time.perf_counter() - start
            print(f"{'FAIL' if wrong else 'ok  '} {verdict:9s} {seconds:6.1f} s  {mutant[0]}: "
                  f"{mutant[1].strip()!r} -> {mutant[2].strip()!r}  ({mutant[3]})", flush=True)
    print(f"{len(mutants)} mutants, {bad} not as expected")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
