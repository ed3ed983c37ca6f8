"""Brute-force sweep over the unit sphere of initial data for 2x2 systems,
and the sector-restricted constant.

The per-time max and min of |f(t)|^2 over unit f0, and the sup over time of
e^{2 mu t} |f(t)|^2, from a (phi, theta) grid on the sphere refined by a
compass search. It is the reference the acceptance criteria and the sharp2d
tests compare the closed-form envelopes and constants against; the package
itself checks envelopes against the RK4 propagator (`envelope --oracle`).
sector_constant, the best constant over initial data confined to one
spectral sector, is an independent check of the 2x2 sharp constant: its
inf-sup over sectors is 1/(1 - alpha^2) (acceptance criterion 07).
"""

from __future__ import annotations

import numpy as np

from hypodecay import NotPositiveStable, as_complex_matrix, eigendecompose
from hypodecay.sharp2d import ALPHA_FLOOR
from hypodecay.spectral import SpectralData


def _gram_coefficients(data: SpectralData, times: np.ndarray):
    """Per-time Gram matrix M(t) = e^{-Ct}* e^{-Ct} as (a, d, off) with
    a = M_00, d = M_11 real and off = M_01 complex. |f(t)|^2 for unit initial
    data (cos phi, sin phi e^{i theta}) is then
    a cos^2 + d sin^2 + 2 sin cos Re(off e^{i theta})."""
    E = np.exp(-np.outer(times, data.eigenvalues))
    G = np.einsum("ij,tj,kj->tik", data.right_vectors, E,
                  data.left_vectors.conj())
    M = np.einsum("tji,tjk->tik", G.conj(), G)
    return M[:, 0, 0].real, M[:, 1, 1].real, M[:, 0, 1]


def _is_even_uniform_circle(grid: np.ndarray) -> bool:
    """Uniform circular grid with an even point count. Evenness matters: the
    half-turn then maps the grid onto itself, so one nearest-point distance
    serves the maximizing and the minimizing phase alike."""
    n = len(grid)
    if n < 2 or n % 2:
        return False
    ref = np.arange(n) * (2.0 * np.pi / n) + grid[0]
    return bool(np.allclose(grid, ref, rtol=0.0, atol=1e-12))


def _theta_gain(off, theta_grid):
    """max over the grid of Re(off e^{i theta}), exactly, per time."""
    step = 2.0 * np.pi / len(theta_grid)
    target = -np.angle(off) - theta_grid[0]
    dist = np.abs((target + step / 2.0) % step - step / 2.0)
    return np.abs(off) * np.cos(dist)


def _nearest_theta(target, theta_grid):
    n = len(theta_grid)
    step = 2.0 * np.pi / n
    idx = np.rint((target - theta_grid[0]) / step).astype(int) % n
    return theta_grid[idx]


def _grid_extrema(a, d, off, phi_grid, theta_grid):
    """Exact per-time extrema of the quadratic form over the product grid,
    with their grid arguments (phi, theta), shape (len(a), 2) each, which
    seed the refinement.

    For an even uniform theta grid the inner theta maximum collapses to a
    nearest-phase cosine, which reproduces the literal double loop exactly at
    a fraction of the cost; other grids take the literal per-time route.
    """
    nt = len(a)
    c = np.cos(phi_grid)
    s = np.sin(phi_grid)
    cross = s * c
    core = np.outer(a, c * c) + np.outer(d, s * s)
    arg_max = np.empty((nt, 2))
    arg_min = np.empty((nt, 2))
    if _is_even_uniform_circle(theta_grid):
        mix = 2.0 * np.abs(cross)[None, :] * _theta_gain(off, theta_grid)[:, None]
        hi = core + mix
        lo = core - mix
        imax = np.argmax(hi, axis=1)
        imin = np.argmin(lo, axis=1)
        rows = np.arange(nt)
        psi = np.angle(off)
        # the best theta sits nearest -psi when the phi cross-term is
        # positive and gets a half-turn otherwise; flipped for the minimum
        flip_max = cross[imax] < 0.0
        flip_min = cross[imin] >= 0.0
        arg_max[:, 0] = phi_grid[imax]
        arg_max[:, 1] = _nearest_theta(-psi + np.where(flip_max, np.pi, 0.0),
                                       theta_grid)
        arg_min[:, 0] = phi_grid[imin]
        arg_min[:, 1] = _nearest_theta(-psi + np.where(flip_min, np.pi, 0.0),
                                       theta_grid)
        return hi[rows, imax], lo[rows, imin], arg_max, arg_min
    vmax = np.empty(nt)
    vmin = np.empty(nt)
    phase = np.exp(1j * theta_grid)
    for i in range(nt):
        vals = core[i][:, None] + 2.0 * np.outer(cross, (off[i] * phase).real)
        kmax = np.unravel_index(np.argmax(vals), vals.shape)
        kmin = np.unravel_index(np.argmin(vals), vals.shape)
        vmax[i] = vals[kmax]
        vmin[i] = vals[kmin]
        arg_max[i] = phi_grid[kmax[0]], theta_grid[kmax[1]]
        arg_min[i] = phi_grid[kmin[0]], theta_grid[kmin[1]]
    return vmax, vmin, arg_max, arg_min


def _compass_refine(a, d, off, phi0, theta0, sign: float, step0: float,
                    n_iter: int = 80):
    """Per-time local search in (phi, theta), all times advanced in lockstep.

    Pure function evaluations of the trajectory norm; no eigenvalue shortcut,
    so this stays an independent check of the closed-form envelopes.
    """
    def value(phi, th):
        c = np.cos(phi)
        s = np.sin(phi)
        return a * c * c + d * s * s + 2.0 * s * c * (off * np.exp(1j * th)).real

    phi = phi0.astype(float).copy()
    th = theta0.astype(float).copy()
    f = value(phi, th)
    step = np.full_like(phi, step0)
    for _ in range(n_iter):
        improved = np.zeros(phi.shape, dtype=bool)
        for dphi, dth in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            cand_phi = phi + dphi * step
            cand_th = th + dth * step
            fc = value(cand_phi, cand_th)
            better = sign * (fc - f) > 0.0
            phi = np.where(better, cand_phi, phi)
            th = np.where(better, cand_th, th)
            f = np.where(better, fc, f)
            improved |= better
        step = np.where(improved, step, 0.5 * step)
        if np.all(step < 1e-12):
            break
    return f


def trajectory_envelope_oracle(C, phi_grid, theta_grid, times,
                               refine: bool = True):
    """Per-time max and min of |f(t)|^2 over unit initial data.

    Sweeps the (phi, theta) parameterization (cos phi, sin phi e^{i theta}) of
    the unit sphere on the given grids; with refine=True the grid extrema seed
    a compass search that removes the grid discretization error, which
    otherwise dominates any comparison tighter than about 1e-4.
    """
    data = eigendecompose(as_complex_matrix(C))
    if data.n != 2:
        raise ValueError("the trajectory oracle is for 2x2 systems")
    phi_grid = np.asarray(phi_grid, dtype=float)
    theta_grid = np.asarray(theta_grid, dtype=float)
    times = np.atleast_1d(np.asarray(times, dtype=float))
    a, d, off = _gram_coefficients(data, times)
    vmax, vmin, arg_max, arg_min = _grid_extrema(a, d, off, phi_grid, theta_grid)
    if not refine:
        return vmax, vmin
    step0 = max(float(np.pi / len(phi_grid)), float(np.pi / len(theta_grid)))
    fmax = _compass_refine(a, d, off, arg_max[:, 0], arg_max[:, 1], +1.0, step0)
    fmin = _compass_refine(a, d, off, arg_min[:, 0], arg_min[:, 1], -1.0, step0)
    return np.maximum(vmax, fmax), np.minimum(vmin, fmin)


def trajectory_sup_oracle(C, phi_grid, theta_grid, times,
                          mu_tilde: float | None = None,
                          refine: bool = True) -> float:
    """sup over (phi, theta, t) of e^{2 mu t} |f(t)|^2 for unit initial data.

    Brute-force dual route to the sharp constant: with mu_tilde at the
    spectral gap (the default) the result converges to c_sharp^2.
    """
    C = as_complex_matrix(C)
    if mu_tilde is None:
        data = eigendecompose(C)
        if not data.positive_stable:
            raise NotPositiveStable("oracle default rate needs a positive stable matrix")
        mu_tilde = data.spectral_gap
    times = np.atleast_1d(np.asarray(times, dtype=float))
    vmax, _ = trajectory_envelope_oracle(C, phi_grid, theta_grid, times, refine=refine)
    return float(np.max(np.exp(2.0 * mu_tilde * times) * vmax))


# ---------------------------------------------------------------------------
# sector-restricted constants
# ---------------------------------------------------------------------------

def _g_rayleigh(alpha: float, b: float, z) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    return (1.0 / b + b * z * z) / (1.0 - 2.0 * alpha * z + z * z)


def sector_constant(alpha: float, b, gamma_sector):
    """Best constant over initial data confined to one spectral sector.

    Equals g(gamma) / inf {g(z) : z between 0 and gamma} for the rational
    function g(z) = (1/b + b z^2) / (1 - 2 alpha z + z^2); the infimum is
    taken over the closed interval and located through the stationary
    points of g, which are available in closed form. b and gamma_sector
    broadcast against each other; scalars give a float.
    """
    if not 0.0 <= alpha < 1.0:
        raise ValueError("alpha must lie in [0, 1)")
    b, g = np.broadcast_arrays(np.asarray(b, dtype=float), np.asarray(gamma_sector, dtype=float))
    if np.any(b <= 0.0):
        raise ValueError("b must be positive")
    if alpha < ALPHA_FLOOR:
        crit = np.zeros((1,) + b.shape)
    else:
        # z_+- = (b - 1/b +- sqrt((b - 1/b)^2 + 4 alpha^2)) / (2 alpha b)
        d = b - 1.0 / b
        root = np.sqrt(d * d + 4.0 * alpha * alpha)
        crit = np.stack([d - root, d + root]) / (2.0 * alpha * b)
    inside = (np.minimum(0.0, g) <= crit) & (crit <= np.maximum(0.0, g))
    g_end = _g_rayleigh(alpha, b, g)
    inf_g = np.minimum(np.minimum(_g_rayleigh(alpha, b, 0.0), g_end),
                       np.where(inside, _g_rayleigh(alpha, b, crit), np.inf).min(axis=0))
    out = g_end / inf_g
    return float(out) if out.ndim == 0 else out
