"""Exact and numerical propagation for x' = -Cx.

The exact route goes through the eigendecomposition, f(t) = V e^{-Dt} W* f0;
the independent route is a fixed-step classical Runge-Kutta integrator used as
an oracle to cross-check the exact solver and the 2x2 envelopes.
"""

from __future__ import annotations

import numpy as np

from . import _HOMES
from .errors import DefectiveInput
from .spectral import SpectralData, as_complex_matrix

__all__ = _HOMES["propagator"]


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
