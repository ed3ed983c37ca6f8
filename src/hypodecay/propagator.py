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
    "rk4_oracle",
    "verify_bounds",
    "time_grid",
    "BoundCheck",
]


def _initial_data(f0, n: int) -> np.ndarray:
    f0 = np.asarray(f0, dtype=complex)
    if f0.ndim not in (1, 2) or f0.shape[0] != n:
        raise ValueError(f"f0 must have shape ({n},) or ({n}, k), got {f0.shape}")
    return f0


def exact_solution(data: SpectralData, f0, times) -> np.ndarray:
    """Solution of x' = -Cx at the requested times.

    Expands f0 in the eigenbasis, decays each coefficient with its own
    e^{-lambda_j t}, and recombines. Exact up to the accuracy of the
    eigendecomposition. f0 is one initial vector, shape (n,), or k of them
    as columns, shape (n, k); the result has shape (len(times),) + f0.shape,
    so f0 = I gives the propagator e^{-Ct} itself.
    """
    if data.defective:
        raise DefectiveInput("propagation via eigenbasis needs a non-defective matrix")
    f0 = _initial_data(f0, data.n)
    times = np.atleast_1d(np.asarray(times, dtype=float))
    coeff = data.left_vectors.conj().T @ f0.reshape(data.n, -1)
    terms = np.exp(-np.outer(times, data.eigenvalues))[:, None, :] * coeff.T
    rows = (terms.reshape(-1, data.n) @ data.right_vectors.T).reshape(terms.shape)
    return rows.swapaxes(1, 2).reshape((len(times),) + f0.shape)


def rk4_oracle(C, f0, times, dt: float = 1e-3) -> np.ndarray:
    """Classical fixed-step RK4 integration of x' = -Cx, sampled at `times`.

    Deliberately independent of the spectral machinery. For this linear
    system one RK4 step of size h is multiplication by the stability
    polynomial R(-hC) = I - hC + (hC)^2/2 - (hC)^3/6 + (hC)^4/24, so each
    interval between requested times is a matrix power of the full step
    followed by one shortened step that lands exactly on the time; each
    distinct number of full steps is powered once per call. f0 and the result
    have the shapes of exact_solution's, so f0 = I gives the RK4 propagator
    itself. `times` must be finite, non-decreasing and >= 0, and dt must be
    positive.
    """
    C = as_complex_matrix(C)
    f0 = _initial_data(f0, len(C))
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if times.size == 0:
        raise ValueError("need at least one non-negative time")
    if not (np.all(np.isfinite(times)) and np.all(np.diff(times) >= 0) and times[0] >= 0):
        raise ValueError("times must be finite, non-decreasing and non-negative")
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt!r}")

    eye = np.eye(len(f0), dtype=complex)

    def increment(h):
        """R(-hC) - I; stored as I + D, a small step loses D's trailing digits."""
        z = -h * C
        return z @ (eye + z @ (eye + z @ (eye + z / 4.0) / 3.0) / 2.0)

    def power(D, m):
        """(I + D)^m - I, squared in the same form: (I + A)(I + B) - I = A + B + AB."""
        P = D * (m & 1)
        while m > 1:
            m >>= 1
            D = 2.0 * D + D @ D
            if m & 1:
                P = P + D + P @ D
        return P

    full = increment(dt)
    steps = [divmod(float(gap), dt) for gap in np.diff(times, prepend=0.0)]
    # a grid has few distinct full-step counts: power each once
    powers = {m: power(full, int(m)) for m in {m for m, _ in steps}}
    out = np.empty((len(times),) + f0.shape, dtype=complex)
    x = f0
    for i, (m, rem) in enumerate(steps):
        x = x + powers[m] @ x
        if rem > 0.0:
            x = x + increment(rem) @ x
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
    reverse inequality; the reference |f0| defaults to norms[0]. A sampled
    norm of 0 has underflowed (e^{-Ct} is invertible, so no f0 != 0 reaches
    0): it refutes no lower bound and adds a gap of 0.
    """
    times = np.asarray(times, dtype=float)
    norms = np.asarray(norms, dtype=float)
    if norms.size == 0:
        raise ValueError("need at least one sampled norm")
    ref = float(norms[0]) if norm0 is None else float(norm0)
    violations = np.empty(len(bounds))
    for i, b in enumerate(bounds):
        env = b.constant * np.exp(-b.rate * times) * ref
        if b.direction == "upper":
            rel = (norms - env) / np.maximum(env, 1e-300)
        elif b.direction == "lower":
            rel = np.divide(env - norms, np.maximum(norms, 1e-300),
                            out=np.zeros_like(norms), where=norms > 0.0)
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
    if not 0 < t_max < np.inf:
        raise ValueError(f"t_max must be positive and finite, got {t_max!r}")
    n_lin = max(n // 2, 2)
    n_geo = max(n - n_lin, 2)
    lin = np.linspace(0.0, t_max, n_lin)
    geo = np.geomspace(t_max * 1e-6, t_max, n_geo)
    pts = np.concatenate([lin, geo, np.asarray(list(insert), dtype=float)])
    pts = pts[(pts >= 0.0) & (pts <= t_max)]
    return np.unique(pts)
