"""Sharp decay constants and two-sided envelopes for 2x2 systems.

For diagonalizable positive stable C, the squared solution norm is pinched
between explicit envelopes

    h_-(t) |f0|^2  <=  |f(t)|^2  <=  h_+(t) |f0|^2,

with h_+-(t) = e^{-2 Re(lambda_1) t} m_+-(t) and

    m_+-(t) = e^{-gamma t} ( sqrt(A(t)^2 - 1) +- A(t) ) * (+-1),
    A(t)    = (cosh(gamma t) - alpha^2 cos(delta t)) / (1 - alpha^2),

where gamma = Re(lambda_2 - lambda_1) >= 0, delta = Im(lambda_2 - lambda_1)
and alpha is the eigenvector overlap. The sharp multiplicative constant in
|f(t)| <= c e^{-mu t} |f0| is c = sqrt(sup_t m_+(t)); three eigenvalue
configurations admit it in closed form and the fourth is resolved numerically.

Lemma (0 < alpha < 1, gamma >= 0, delta != 0). With A_+ = (cosh(gamma t) +
alpha^2)/(1 - alpha^2) >= A, m_+ <= M(t) = e^{-gamma t}(A_+ + sqrt(A_+^2 - 1)),
with equality at t = (2j + 1) pi/|delta|. M is non-increasing, because
(1 - alpha^2)^2 (A_+^2 - 1) - sinh^2(gamma t) = 2 alpha^2 (1 + cosh(gamma t)) >= 0.
Hence sup_{t >= 0} m_+ = max of m_+ over [0, pi/|delta|], where m_+ rises and
then falls (checked numerically), so golden-section search brackets it. In
s = |delta| t, with g = gamma/|delta| and e = e^{-g pi}, the slope of m_+ at s = pi
is g e (e - (alpha^2 + e) m_+/(1 - alpha^2)), < 0 for gamma > 0 (m_+ > 1), 0 for gamma = 0.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import Defective2D, NotPositiveStable
from .spectral import (Canonical2DForm, SpectralData, as_complex_matrix, coincidence_tol,
                       eigendecompose)

__all__ = [
    "DecayCase",
    "SharpResult2D",
    "EnvelopeCurve",
    "SupOfEnvelope",
    "classify_and_sharp_constant",
    "envelope_curves",
    "sup_m_plus",
    "sector_constant",
    "trajectory_sup_oracle",
    "trajectory_envelope_oracle",
]

#: eigenvalue coincidence tolerance, relative to the spectral radius
TIE_RTOL = 1e-10

#: alpha below which the eigenbasis counts as orthogonal and every constant is 1
ALPHA_FLOOR = 1e-14


class DecayCase(str, enum.Enum):
    """Eigenvalue configuration of a diagonalizable 2x2 system."""

    EQUAL_EIGENVALUES = "EqualEigenvalues"
    EQUAL_REAL_PARTS = "EqualRealParts"
    EQUAL_IMAGINARY_PARTS = "EqualImaginaryParts"
    FULLY_DISTINCT = "FullyDistinct"


@dataclass
class SharpResult2D:
    """Sharp constant for |f(t)| <= c e^{-mu t} |f0| with attainment info.

    bracket = (lo, hi) encloses c_sharp; for the closed-form cases it
    degenerates to (c, c). attained_time is the finite time of equality when
    there is one, None when the constant is approached only asymptotically.
    """

    case: DecayCase
    alpha: float
    c_sharp: float
    kappa_min: float
    bracket: tuple[float, float]
    attained: str
    attained_time: float | None


@dataclass
class EnvelopeCurve:
    times: np.ndarray
    h_minus: np.ndarray
    h_plus: np.ndarray
    alpha: float
    gamma: float
    delta: float


@dataclass
class SupOfEnvelope:
    value: float
    t_at: float | None


def _m_plus_minus(alpha: float, gamma: float, delta: float, ts: np.ndarray):
    """Both envelope factors from A~ = e A, e = e^{-gamma t}, which never
    overflows: m_+ = A~ + sqrt((A~ - e)(A~ + e)) and m_- = e^2 / m_+, with
    A~ - e = (1/2 (1 - e)^2 + 2 alpha^2 e sin^2(delta t/2)) / (1 - alpha^2)
    formed without cancellation, so small alpha and small t keep their digits.
    """
    one = 1.0 - alpha * alpha
    e = np.exp(-gamma * ts)
    A = (0.5 * (1.0 + e * e) - alpha * alpha * e * np.cos(delta * ts)) / one
    gap = (0.5 * np.expm1(-gamma * ts) ** 2
           + 2.0 * alpha * alpha * e * np.sin(0.5 * delta * ts) ** 2) / one
    m_hi = A + np.sqrt(gap * (A + e))
    return e * e / m_hi, m_hi


def envelope_curves(form: Canonical2DForm, times) -> EnvelopeCurve:
    """Evaluate h_- and h_+ on a time grid.

    Degenerates to the single exact exponential when the eigenvalues
    coincide (the solution norm then has no transient at all).
    """
    ts = np.atleast_1d(np.asarray(times, dtype=float))
    lam = form.eigenvalues
    tie = abs(lam[1] - lam[0]) <= coincidence_tol(lam, TIE_RTOL)
    pre = np.exp(-2.0 * lam[0].real * ts)
    if tie or form.alpha < ALPHA_FLOOR:
        m_hi = np.ones_like(ts)
        m_lo = m_hi if tie else np.exp(-2.0 * form.gamma * ts)
    else:
        m_lo, m_hi = _m_plus_minus(form.alpha, form.gamma, form.delta, ts)
    return EnvelopeCurve(times=ts, h_minus=pre * m_lo, h_plus=pre * m_hi,
                         alpha=form.alpha, gamma=form.gamma, delta=form.delta)


def sup_m_plus(alpha: float, gamma: float, delta: float) -> SupOfEnvelope:
    """sup over t >= 0 of the upper envelope factor m_+.

    By the module's lemma, golden-section search over s = |delta| t in [0, pi]
    (invariant under C -> sC) finds it, down to a bracket sqrt(eps) times its
    right end; the slope of m_+ at s = pi is < 0 (0 for gamma = 0), so that end
    needs no evaluation of its own. t_at is None within 1e-12 of the asymptote
    1/(1 - alpha^2), which is the sup for delta = 0.
    """
    if not (0.0 <= alpha < 1.0 and 0.0 <= gamma < np.inf and abs(delta) < np.inf):
        raise ValueError("need alpha in [0, 1) and finite gamma >= 0 and delta")
    if alpha < ALPHA_FLOOR:
        return SupOfEnvelope(value=1.0, t_at=0.0)
    if gamma == 0.0 and delta == 0.0:
        raise ValueError("coincident eigenvalues have no envelope factor to maximize")
    asymptote = 1.0 / (1.0 - alpha * alpha)
    if delta == 0.0:
        return SupOfEnvelope(value=asymptote, t_at=None)
    g = gamma / abs(delta)
    m = lambda s: float(_m_plus_minus(alpha, g, 1.0, s)[1])  # noqa: E731
    inv = (5.0 ** 0.5 - 1.0) / 2.0
    lo, hi, s1, s2 = 0.0, np.pi, np.pi - inv * np.pi, inv * np.pi
    m1, m2 = m(s1), m(s2)
    while hi - lo >= np.finfo(float).eps ** 0.5 * hi:
        if m1 > m2:
            hi, s2, m2, s1 = s2, s1, m1, s2 - inv * (s2 - lo)
            m1 = m(s1)
        else:
            lo, s1, m1, s2 = s1, s2, m2, s1 + inv * (hi - s1)
            m2 = m(s2)
    s, best = (s1, m1) if m1 > m2 else (s2, m2)
    if best <= asymptote * (1.0 + 1e-12):
        return SupOfEnvelope(value=max(best, asymptote), t_at=None)
    return SupOfEnvelope(value=best, t_at=s / abs(delta))


def classify_and_sharp_constant(form: Canonical2DForm) -> SharpResult2D:
    """Eigenvalue-configuration case split with the sharp constant for each.

    Equal eigenvalues: the norm is a pure exponential, c = 1. Equal real
    parts: c = sqrt((1 + alpha)/(1 - alpha)), reached at the first half-turn
    of the phase difference. Equal imaginary parts: c = 1/sqrt(1 - alpha^2),
    approached as t -> inf. Otherwise c comes from the numerical sup of m_+,
    bracketed strictly between those two closed forms.
    """
    lam = form.eigenvalues
    if lam[0].real <= 0.0:
        raise NotPositiveStable(f"spectral gap is not positive: mu = {lam[0].real}")
    tol = coincidence_tol(lam, TIE_RTOL)
    a = form.alpha
    kmin = (1.0 + a) / (1.0 - a)

    if abs(lam[1] - lam[0]) <= tol:
        return SharpResult2D(case=DecayCase.EQUAL_EIGENVALUES, alpha=a, c_sharp=1.0,
                             kappa_min=kmin, bracket=(1.0, 1.0),
                             attained="finite", attained_time=0.0)
    if a < ALPHA_FLOOR:
        # orthogonal eigenbasis: pure exponentials in every configuration
        case = (DecayCase.EQUAL_REAL_PARTS if abs(form.gamma) <= tol
                else DecayCase.EQUAL_IMAGINARY_PARTS if abs(form.delta) <= tol
                else DecayCase.FULLY_DISTINCT)
        return SharpResult2D(case=case, alpha=a, c_sharp=1.0, kappa_min=kmin,
                             bracket=(1.0, 1.0), attained="finite", attained_time=0.0)
    if abs(form.gamma) <= tol:
        c = float(np.sqrt(kmin))
        return SharpResult2D(case=DecayCase.EQUAL_REAL_PARTS, alpha=a, c_sharp=c,
                             kappa_min=kmin, bracket=(c, c),
                             attained="finite", attained_time=float(np.pi / abs(form.delta)))
    if abs(form.delta) <= tol:
        c = float(1.0 / np.sqrt(1.0 - a * a))
        return SharpResult2D(case=DecayCase.EQUAL_IMAGINARY_PARTS, alpha=a, c_sharp=c,
                             kappa_min=kmin, bracket=(c, c),
                             attained="asymptotic", attained_time=None)

    sup = sup_m_plus(a, form.gamma, form.delta)
    return SharpResult2D(
        case=DecayCase.FULLY_DISTINCT, alpha=a, c_sharp=float(np.sqrt(sup.value)),
        kappa_min=kmin, bracket=(float(1.0 / np.sqrt(1.0 - a * a)), float(np.sqrt(kmin))),
        attained="asymptotic" if sup.t_at is None else "finite", attained_time=sup.t_at,
    )


# ---------------------------------------------------------------------------
# sector-restricted constants
# ---------------------------------------------------------------------------

def _g_rayleigh(alpha: float, b: float, z) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    return (1.0 - alpha * alpha) * (1.0 / b + b * z * z) / (1.0 - 2.0 * alpha * z + z * z)


def sector_constant(alpha: float, b, gamma_sector):
    """Best constant over initial data confined to one spectral sector.

    Equals g(gamma) / inf {g(z) : z between 0 and gamma} for the rational
    function g(z) = (1 - alpha^2)(1/b + b z^2) / (1 - 2 alpha z + z^2); the
    infimum is taken over the closed interval and located through the
    stationary points of g, which are available in closed form. b and
    gamma_sector broadcast against each other; scalars give a float.
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


# ---------------------------------------------------------------------------
# trajectory oracle
# ---------------------------------------------------------------------------

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
    if data.defective:
        raise Defective2D("defective matrix")
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
