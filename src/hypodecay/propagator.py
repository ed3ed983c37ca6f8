"""Exact and numerical propagation for x' = -Cx, plus bound verification.

The exact route goes through the eigendecomposition, f(t) = V e^{-Dt} W* f0;
the independent route is a fixed-step classical Runge-Kutta integrator used as
an oracle to cross-check both the exact solver and any claimed decay bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DefectiveInput
from .spectral import SpectralData, as_complex_matrix

__all__ = [
    "exact_solution",
    "propagator_matrix",
    "rk4_oracle",
    "verify_bounds",
    "time_grid",
    "BoundCheck",
]


def _require_basis(data: SpectralData):
    if data.defective:
        raise DefectiveInput("propagation via eigenbasis needs a non-defective matrix")


def exact_solution(data: SpectralData, f0, times) -> np.ndarray:
    """Solution of x' = -Cx at the requested times, shape (len(times), n).

    Expands f0 in the eigenbasis, decays each coefficient with its own
    e^{-lambda_j t}, and recombines. Exact up to the accuracy of the
    eigendecomposition.
    """
    _require_basis(data)
    f0 = np.asarray(f0, dtype=complex).ravel()
    times = np.atleast_1d(np.asarray(times, dtype=float))
    coeff = data.left_vectors.conj().T @ f0
    decay = np.exp(-np.outer(times, data.eigenvalues))
    return (decay * coeff) @ data.right_vectors.T


def propagator_matrix(data: SpectralData, t: float) -> np.ndarray:
    """e^{-Ct} assembled from the eigendecomposition."""
    _require_basis(data)
    E = np.exp(-data.eigenvalues * t)
    return (data.right_vectors * E) @ data.left_vectors.conj().T


def rk4_oracle(C, f0, times, dt: float = 1e-3) -> np.ndarray:
    """Classical fixed-step RK4 integration of x' = -Cx, sampled at `times`.

    Deliberately independent of the spectral machinery. For this linear
    system one RK4 step of size h is multiplication by the stability
    polynomial R(-hC) = I - hC + (hC)^2/2 - (hC)^3/6 + (hC)^4/24, so each
    interval between requested times is a matrix power of the full step
    followed by one shortened step that lands exactly on the time.
    `times` must be non-decreasing and start at >= 0, and dt must be positive.
    """
    C = as_complex_matrix(C)
    f0 = np.asarray(f0, dtype=complex).ravel()
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if times.size == 0:
        raise ValueError("need at least one non-negative time")
    if np.any(np.diff(times) < 0) or times[0] < 0:
        raise ValueError("times must be non-decreasing and non-negative")
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt!r}")

    eye = np.eye(len(f0), dtype=complex)

    def step(h):
        z = -h * C
        return eye + z @ (eye + z @ (eye + z @ (eye + z / 4.0) / 3.0) / 2.0)

    full = step(dt)
    out = np.empty((len(times), len(f0)), dtype=complex)
    x = f0
    for i, gap in enumerate(np.diff(times, prepend=0.0)):
        m, rem = divmod(float(gap), dt)
        x = np.linalg.matrix_power(full, int(m)) @ x
        if rem > 1e-15:
            x = step(rem) @ x
        out[i] = x
    return out


@dataclass
class BoundCheck:
    """Outcome of checking trajectory norms against exponential bounds.

    violations[i] is the worst signed relative overshoot of bound i over all
    sampled times: positive means the bound was broken by that fraction.
    """

    violations: np.ndarray
    passed: bool
    tol: float

    @property
    def worst(self) -> float:
        return float(self.violations.max()) if len(self.violations) else 0.0


def verify_bounds(times, norms, bounds, norm0: float | None = None,
                  tol: float = 1e-9) -> BoundCheck:
    """Check sampled solution norms against (rate, constant, direction) bounds.

    Each bound must expose .rate, .constant and .direction ("upper"/"lower").
    An upper bound claims |f(t)| <= c e^{-rate t} |f0|, a lower bound the
    reverse inequality; the reference |f0| defaults to norms[0].
    """
    times = np.asarray(times, dtype=float)
    norms = np.asarray(norms, dtype=float)
    ref = float(norms[0]) if norm0 is None else float(norm0)
    violations = np.empty(len(bounds))
    for i, b in enumerate(bounds):
        env = b.constant * np.exp(-b.rate * times) * ref
        if b.direction == "upper":
            rel = (norms - env) / np.maximum(env, 1e-300)
        elif b.direction == "lower":
            rel = (env - norms) / np.maximum(norms, 1e-300)
        else:
            raise ValueError(f"unknown bound direction {b.direction!r}")
        violations[i] = rel.max()
    passed = bool(np.all(violations <= tol))
    return BoundCheck(violations=violations, passed=passed, tol=tol)


def time_grid(t_max: float, n: int = 400, insert=()) -> np.ndarray:
    """Hybrid sampling grid on [0, t_max]: linear plus a log-dense head.

    Early times carry the transient growth that sharp constants are about, so
    half the budget goes to a geometric refinement near zero. Any times in
    `insert` (for instance a known extremum) are added exactly.
    """
    if t_max <= 0:
        raise ValueError("t_max must be positive")
    n_lin = max(n // 2, 2)
    n_geo = max(n - n_lin, 2)
    lin = np.linspace(0.0, t_max, n_lin)
    geo = np.geomspace(t_max * 1e-6, t_max, n_geo)
    pts = np.concatenate([lin, geo, np.asarray(list(insert), dtype=float)])
    pts = pts[(pts >= 0.0) & (pts <= t_max)]
    return np.unique(pts)
