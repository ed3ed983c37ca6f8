"""References computed apart from hypodecay, and the checks that use them.

Matrix exponentials come from the Cayley-Hamilton closed form (2x2) or from
scipy.linalg.expm (n x n), never from hypodecay's eigendecomposition. Every
check returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import io
import json

import numpy as np
from scipy.linalg import expm

from inputs import EQUAL_EIGENVALUES, EQUAL_IMAGINARY_PARTS, EQUAL_REAL_PARTS, System

SQRT3 = float(np.sqrt(3.0))

#: relative slack on a sampled lower bound: a sup that is lower than a
#: sample by more than this is an optimistic certificate
SUP_RTOL = 1e-10

#: agreement of closed-form constants and of the sharp envelopes
CLOSED_RTOL = 1e-9
ENVELOPE_RTOL = 1e-8

#: admissibility floor for the Lyapunov residual and the admissible-search cap
RESIDUAL_FLOOR = -1e-10
ADMISSIBLE_KAPPA_CAP = 5.8285


def rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _finite(x) -> float:
    if not np.isfinite(x):
        raise FloatingPointError(f"reference value {x!r} is not finite")
    return float(x)


def expm_2x2(c: np.ndarray, times: np.ndarray) -> np.ndarray:
    """e^{-Ct} for a 2x2 C at each time, shape (len(times), 2, 2).

    With tau = tr(C)/2 and D = C - tau I, D^2 = q^2 I, q^2 = -det D, so
    e^{-Ct} = e^{-tau t} (cosh(q t) I - sinh(q t)/q D).
    """
    tau = np.trace(c) / 2.0
    d = c - tau * np.eye(2)
    q = np.sqrt(-np.linalg.det(d) + 0j)
    t = np.asarray(times, dtype=float)[:, None, None]
    ep = np.exp((q - tau) * t)
    em = np.exp((-q - tau) * t)
    sinhc = (ep - em) / (2.0 * q) if q != 0 else t * np.exp(-tau * t)
    return 0.5 * (ep + em) * np.eye(2) - sinhc * d


def sigma_max2_2x2(c: np.ndarray, times) -> np.ndarray:
    """sigma_max(e^{-Ct})^2 at each time."""
    return np.linalg.svd(expm_2x2(c, times), compute_uv=False)[:, 0] ** 2


def envelope_2x2(c: np.ndarray, times) -> tuple[np.ndarray, np.ndarray]:
    """(sigma_max^2, sigma_min^2) of e^{-Ct}: the exact h_+ and h_-.

    sigma_min comes from |det e^{-Ct}| = e^{-Re tr(C) t}, which keeps its
    relative accuracy when sigma_min << sigma_max.
    """
    times = np.asarray(times, dtype=float)
    smax2 = sigma_max2_2x2(c, times)
    return smax2, np.exp(-2.0 * np.trace(c).real * times) / smax2


def sup_grid_2x2(system: System) -> np.ndarray:
    """Times that resolve every period 2 pi / |delta| of a 2x2 system.

    Dense (64 points a period) over the first 64 periods or up to 20/gamma,
    whichever ends first, then log-spaced out to 20/gamma.
    """
    lam = system.eigenvalues
    gamma = abs(lam[1].real - lam[0].real)
    delta = abs(lam[1].imag - lam[0].imag)
    far = 20.0 / gamma if gamma > 0 else np.inf
    window = min(far, 128.0 * np.pi / delta if delta > 0 else np.inf)
    if not np.isfinite(window):
        window = 10.0 / system.mu
    times = np.linspace(0.0, window, 4097)
    if np.isfinite(far) and far > window:
        times = np.concatenate([times, np.geomspace(window, far, 256)])
    return times


def sampled_sup_2x2(system: System) -> float:
    """max over the grid of e^{2 mu t} sigma_max(e^{-Ct})^2 <= c_sharp^2,
    evaluated as sigma_max(e^{-(C - mu I) t})^2 so nothing overflows."""
    shifted = system.matrix - system.mu * np.eye(2)
    return _finite(np.max(sigma_max2_2x2(shifted, sup_grid_2x2(system))))


def sampled_sup_nd(system: System, max_points: int = 20000) -> float:
    """max of e^{2 mu t} sigma_max(e^{-Ct})^2 on a uniform grid, a lower
    bound for every certified kappa at the spectral gap mu.

    The step resolves the shortest period 2 pi / max|Im(l_i - l_j)| sixteen
    times over; the grid runs to 20 / (nu - mu). The exponential is one
    scipy expm of the step, raised by repeated products.
    """
    lam = system.eigenvalues
    spread = lam.real.max() - lam.real.min()
    t_end = 20.0 / spread if spread > 0 else 20.0 / system.mu
    step = t_end / 2000
    swing = lam.imag.max() - lam.imag.min()
    if swing > 0:
        step = min(step, 2.0 * np.pi / swing / 16.0)
    count = min(int(np.ceil(t_end / step)), max_points)
    e_step = expm(-(system.matrix - system.mu * np.eye(system.n)) * step)
    mats = np.empty((count + 1, system.n, system.n), dtype=complex)
    mats[0] = np.eye(system.n)
    for k in range(count):
        mats[k + 1] = mats[k] @ e_step
    return _finite(np.max(np.linalg.svd(mats, compute_uv=False)[:, 0] ** 2))


def residual(c: np.ndarray, p: np.ndarray, rate: float) -> float:
    """Smallest eigenvalue of C*P + PC - 2 rate P, recomputed with numpy."""
    s = c.conj().T @ p + p @ c - 2.0 * rate * p
    return float(np.linalg.eigvalsh((s + s.conj().T) / 2.0)[0])


class Reference2x2:
    """Everything a certify-2x2 output is compared with, for one system."""

    def __init__(self, system: System, times: np.ndarray):
        self.system = system
        self.sup = sampled_sup_2x2(system)
        self.h_plus, self.h_minus = envelope_2x2(system.matrix, times)
        a = system.alpha
        self.kappa_equal = (1.0 + a) / (1.0 - a)
        self.c_expected = {EQUAL_EIGENVALUES: 1.0,
                           EQUAL_REAL_PARTS: float(np.sqrt(self.kappa_equal)),
                           EQUAL_IMAGINARY_PARTS: float(1.0 / np.sqrt(1.0 - a * a)),
                           }.get(system.case)

    def check(self, out: dict) -> list[str]:
        s, problems = self.system, []
        if out["case"] != s.case:
            problems.append(f"case {out['case']}, expected {s.case}")
        if not abs(out["alpha"] - s.alpha) <= 1e-9:
            problems.append(f"alpha {out['alpha']!r}, expected {s.alpha!r}")
        c = out["c_sharp"]
        if self.c_expected is not None:
            if not rel(c, self.c_expected) <= CLOSED_RTOL:
                problems.append(f"c_sharp {c!r}, closed form {self.c_expected!r}")
        else:
            lo = 1.0 / (1.0 - s.alpha ** 2)
            if not lo * (1 - CLOSED_RTOL) <= c * c <= self.kappa_equal * (1 + CLOSED_RTOL):
                problems.append(f"c_sharp^2 {c * c!r} outside [{lo!r}, {self.kappa_equal!r}]")
        if not c * c >= self.sup * (1.0 - SUP_RTOL):
            problems.append(f"c_sharp^2 {c * c!r} below the sampled sup {self.sup!r} "
                            f"(short by {1.0 - c * c / self.sup:.2e} relative)")
        if not rel(out["kappa"], self.kappa_equal) <= CLOSED_RTOL:
            problems.append(f"kappa {out['kappa']!r}, closed form {self.kappa_equal!r}")
        if not rel(out["c_upper_mu"] ** 2, self.kappa_equal) <= CLOSED_RTOL:
            problems.append(f"c1(mu)^2 {out['c_upper_mu'] ** 2!r}, expected {self.kappa_equal!r}")
        if not rel(out["c_lower_nu"] ** -2, self.kappa_equal) <= CLOSED_RTOL:
            problems.append(f"c2(nu)^-2 {out['c_lower_nu'] ** -2!r}, expected {self.kappa_equal!r}")
        return problems + envelope_problems(
            out["h_plus"], out["h_minus"], out["family_upper"] ** 2, out["family_lower"] ** 2,
            self.h_plus, self.h_minus)


def envelope_problems(h_plus, h_minus, upper2, lower2, ref_plus, ref_minus) -> list[str]:
    """Sharp envelopes equal to sigma(e^-Ct)^2; squared rate-family bounds
    outside them."""
    problems = []
    for name, got, want in (("h_plus", h_plus, ref_plus), ("h_minus", h_minus, ref_minus)):
        gap = float(np.max(np.abs(got - want) / want))
        if not gap <= ENVELOPE_RTOL:
            problems.append(f"{name} differs from sigma(e^-Ct)^2 by {gap:.2e} relative")
    if np.any(upper2 < h_plus * (1.0 - CLOSED_RTOL)) or \
            np.any(lower2 > h_minus * (1.0 + CLOSED_RTOL)):
        problems.append("rate-family bounds do not enclose h_+-")
    return problems


def check_weight_search(system: System, kappa: float, kappa_equal: float,
                        res: float, sup: float) -> list[str]:
    """A weighted-P certificate: never worse than equal weights, never below
    the sampled transient, admissible at mu."""
    problems = []
    if not rel(kappa_equal, system.kappa_equal) <= 1e-8:
        problems.append(f"kappa_equal {kappa_equal!r}, construction {system.kappa_equal!r}")
    if not kappa <= system.kappa_equal * (1.0 + 1e-12):
        problems.append(f"kappa {kappa!r} above the equal-weight {system.kappa_equal!r}")
    if not kappa >= sup * (1.0 - SUP_RTOL):
        problems.append(f"kappa {kappa!r} below the sampled sup {sup!r}")
    if not res >= RESIDUAL_FLOOR:
        problems.append(f"residual {res!r} below {RESIDUAL_FLOOR}")
    return problems


# ---------------------------------------------------------------------------
# CLI outputs
# ---------------------------------------------------------------------------

def check_exit(code: int, err: str) -> list[str]:
    return [] if code == 0 else [f"exit code {code}: {err.strip()[-300:]}"]


def check_analyze(text: str, system: System, sup: float, *, kappa_opt: float | None = None,
                  c_sharp: float | None = None, oracle: bool = False) -> tuple[list[str], float]:
    """analyze JSON against the construction; returns (problems, kappa ratio)."""
    out = json.loads(text)
    problems = []
    if system.n == 2:
        kappa, kappa_equal = out["kappa"], out["kappa"]
        if c_sharp is not None and not rel(out["c_sharp"], c_sharp) <= CLOSED_RTOL:
            problems.append(f"c_sharp {out['c_sharp']!r}, expected {c_sharp!r}")
        if out["case"] != system.case:
            problems.append(f"case {out['case']}, expected {system.case}")
        if not out["c_sharp"] ** 2 >= sup * (1.0 - SUP_RTOL):
            problems.append(f"c_sharp^2 below the sampled sup {sup!r}")
    else:
        kappa, kappa_equal = out["kappa_opt"], out["kappa_equal"]
        if kappa_opt is not None and not rel(kappa, kappa_opt) <= CLOSED_RTOL:
            problems.append(f"kappa_opt {kappa!r}, expected {kappa_opt!r}")
    problems += check_weight_search(system, kappa, kappa_equal, out["residual"], sup)
    if oracle and not out.get("oracle_gap", np.inf) <= 1e-8:
        problems.append(f"oracle_gap {out.get('oracle_gap')!r} above 1e-8")
    return problems, kappa / system.kappa_equal


def _columns(text: str) -> dict[str, np.ndarray]:
    rows = list(csv.reader(io.StringIO(text)))
    cols = np.array(rows[1:], dtype=float).T
    return dict(zip(rows[0], cols))


def check_envelope(text: str, system: System, trajectories: int) -> list[str]:
    """envelope CSV: sharp h_+- against sigma(e^-Ct)^2, trajectories between
    them, rate-family bounds outside them."""
    col = _columns(text)
    problems = envelope_problems(col["h_plus"], col["h_minus"], col["family_upper"],
                                 col["family_lower"], *envelope_2x2(system.matrix, col["t"]))
    trajs = [k for k in col if k.startswith("traj_")]
    if len(trajs) != trajectories:
        problems.append(f"{len(trajs)} trajectory columns, expected {trajectories}")
    for k in trajs:
        if np.any(col[k] > col["h_plus"] * (1 + CLOSED_RTOL)) or \
                np.any(col[k] < col["h_minus"] * (1 - CLOSED_RTOL)):
            problems.append(f"{k} leaves [h_minus, h_plus]")
    return problems


def check_gt(text: str, err: str, sharp: bool) -> list[str]:
    """gt CSV: deviation ratio to e^{-t/2} |f0 - f_inf| stays below sqrt(3)
    on every row, and comes within 1e-3 of it for the sharp datum."""
    col = _columns(text)
    problems = []
    ratio = col["deviation"] * np.exp(col["t"] / 2.0) / col["deviation"][0]
    if not ratio.max() <= SQRT3 * (1.0 + 1e-9):
        problems.append(f"ratio {ratio.max()!r} above sqrt(3)")
    if sharp and not ratio.max() >= SQRT3 * (1.0 - 1e-3):
        problems.append(f"sharp datum reaches only {ratio.max()!r}")
    bound = SQRT3 * np.exp(-col["t"] / 2.0) * col["deviation"][0]
    if not np.max(np.abs(col["bound"] - bound) / bound) <= 1e-12:
        problems.append("bound column is not sqrt(3) e^{-t/2} |f0 - f_inf|")
    if not err.startswith("PASS"):
        problems.append(f"verdict {err.strip()!r}")
    return problems
