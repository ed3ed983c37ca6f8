"""Two-velocity BGK transport-relaxation model on the torus.

Densities f_plus(x, t), f_minus(x, t) of right- and left-moving particles on
[0, 2 pi) obey

    df_plus/dt  = -df_plus/dx  + (f_minus - f_plus) / 2,
    df_minus/dt = +df_minus/dx + (f_plus - f_minus) / 2.

In the macro-micro variables p = f_plus + f_minus, q = f_plus - f_minus each
spatial Fourier mode u_k = (p_k, q_k) evolves independently under
du_k/dt = -C_k u_k with C_k = [[0, ik], [ik, 1]]. Total mass (the k = 0
component of p) is conserved; everything else relaxes to it at rate 1/2 with
the uniform certified constant sqrt(3), which is attained by the lowest mode
pair and by nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import _HOMES
from .errors import CutoffTooLarge, NotNormalized, ZeroMode

if TYPE_CHECKING:
    from .lyapunov import LyapunovCertificate

__all__ = _HOMES["goldstein_taylor"]

#: uniform decay rate of the deviation from equilibrium
GT_RATE = 0.5

#: uniform decay constant, sharp on the |k| = 1 modes
GT_CONSTANT = float(np.sqrt(3.0))

#: relative slack of the sqrt(3) verdict
GT_TOL = 1e-10

#: relative slack allowed on the mass normalization int (f_plus + f_minus) = 2 pi
MASS_RTOL = 1e-8


def _grid(n: int) -> np.ndarray:
    """Points x_j = 2 pi j / n, once n is checked to be even and at least 8."""
    if n < 8 or n % 2:
        raise ValueError(f"grid size must be even and at least 8, got {n}")
    return np.arange(n) * (2.0 * np.pi / n)


@dataclass
class TorusField:
    """Velocity-pair densities sampled on the uniform grid x_j = 2 pi j / N."""

    f_plus: np.ndarray
    f_minus: np.ndarray

    def __post_init__(self):
        self.f_plus = np.asarray(self.f_plus, dtype=float)
        self.f_minus = np.asarray(self.f_minus, dtype=float)
        if self.f_plus.ndim != 1 or self.f_plus.shape != self.f_minus.shape:
            raise ValueError("f_plus and f_minus must be 1-D arrays of equal length")
        _grid(len(self.f_plus))
        if not (np.isfinite(self.f_plus).all() and np.isfinite(self.f_minus).all()):
            raise ValueError("densities contain non-finite entries")

    @property
    def n(self) -> int:
        return len(self.f_plus)

    @property
    def mass(self) -> float:
        return float((2.0 * np.pi / self.n) * np.sum(self.f_plus + self.f_minus))

    @staticmethod
    def steady(n: int = 256) -> "TorusField":
        half = np.full_like(_grid(n), 0.5)
        return TorusField(half, half.copy())

    @staticmethod
    def harmonic(k: int, n: int = 256, amplitude: float = 0.2) -> "TorusField":
        """Single even perturbation 1/2 + amplitude cos(kx) in both velocities."""
        x = _grid(n)
        if not 1 <= k <= n // 2 - 1:
            raise ValueError(f"harmonic index must lie in [1, {n // 2 - 1}]")
        bump = 0.5 + amplitude * np.cos(k * x)
        return TorusField(bump, bump.copy())

    @staticmethod
    def random_field(seed: int, n: int = 256, n_modes: int = 64,
                     amplitude: float = 0.2) -> "TorusField":
        """Mass-normalized field with random smooth perturbations.

        Both p and q receive independent Fourier coefficients damped like
        1/k, plus a random constant component in q (which carries no mass);
        the perturbation is rescaled to the requested sup-norm amplitude.
        """
        x = _grid(n)
        rng = np.random.default_rng(seed)
        m = min(n_modes, n // 2 - 1)
        ks = np.arange(1, m + 1)
        damp = 1.0 / ks

        def noise():
            a = rng.normal(size=m) * damp
            b = rng.normal(size=m) * damp
            return a @ np.cos(np.outer(ks, x)) + b @ np.sin(np.outer(ks, x))

        dp = noise()
        dq = noise() + rng.normal()
        peak = max(np.abs(dp).max(), np.abs(dq).max(), 1e-300)
        dp *= amplitude / peak
        dq *= amplitude / peak
        return TorusField(0.5 * (1.0 + dp + dq), 0.5 * (1.0 + dp - dq))

    @staticmethod
    def sharp(n: int = 256, amplitude: float = 0.25) -> "TorusField":
        """Worst-case datum: the |k| = 1 mode combination whose deviation
        touches the sqrt(3) e^{-t/2} envelope (at t = pi / sqrt(3))."""
        x = _grid(n)
        return TorusField(0.5 + amplitude * (np.sin(x) + np.cos(x)),
                          0.5 + amplitude * (np.sin(x) - np.cos(x)))


@dataclass
class GTBoundReport:
    """Deviations |f(t) - f_inf| along times, by Parseval, and their ratios
    to e^{-t/2} |f0 - f_inf| (initial_deviation)."""

    deviations: np.ndarray
    initial_deviation: float
    ratios: np.ndarray
    max_ratio: float
    t_at_max: float
    passed: bool


def mode_matrix(k: int) -> np.ndarray:
    return np.array([[0.0, 1j * k], [1j * k, 1.0]], dtype=complex)


def mode_certificate(k: int) -> LyapunovCertificate:
    """Lyapunov certificate of mode k at the uniform rate 1/2.

    P_k = [[1, -i/(2k)], [i/(2k), 1]] satisfies the rate inequality with
    residual exactly zero and condition number (2|k| + 1)/(2|k| - 1), so the
    per-mode constant decreases toward 1 as |k| grows. P_k is written by
    hand, independently of the eigenvector route of the 2x2 machinery.
    """
    # imported here, its one use, so that verify_gt_bound and `hypodecay gt`
    # load neither lyapunov nor spectral
    from .lyapunov import certificate_from_p

    if k == 0:
        raise ZeroMode("the conserved mode admits no uniform-rate certificate")
    p = np.array([[1.0, -0.5j / k], [0.5j / k, 1.0]], dtype=complex)
    return certificate_from_p(mode_matrix(k), p, GT_RATE)


def decompose(field: TorusField, cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """Fourier modes k = -cutoff..cutoff and their coefficient pairs
    u_k = (p_k, q_k), as arrays of shapes (2 cutoff + 1,) and (2 cutoff + 1, 2)."""
    n = field.n
    if cutoff > n // 2 - 1:
        raise CutoffTooLarge(f"cutoff {cutoff} exceeds resolvable {n // 2 - 1}")
    if cutoff < 0:
        raise ValueError("cutoff must be non-negative")
    ks = np.arange(-cutoff, cutoff + 1)
    p_hat = np.fft.fft(field.f_plus + field.f_minus) / n
    q_hat = np.fft.fft(field.f_plus - field.f_minus) / n
    return ks, np.stack([p_hat[ks % n], q_hat[ks % n]], axis=1)


def reconstruct(ks: np.ndarray, u: np.ndarray, n: int) -> TorusField:
    """Grid samples of the trigonometric polynomial with modes ks and
    coefficient pairs u (rows (p_k, q_k)); repeated modes add up."""
    ks = np.asarray(ks, dtype=int)
    u = np.asarray(u, dtype=complex)
    if ks.size and np.abs(ks).max() > n // 2 - 1:
        raise CutoffTooLarge(f"mode {ks[np.argmax(np.abs(ks))]} does not fit "
                             f"on a grid of size {n}")
    spec = np.zeros((n, 2), dtype=complex)
    np.add.at(spec, ks % n, n * u)
    p = np.fft.ifft(spec[:, 0]).real
    q = np.fft.ifft(spec[:, 1]).real
    return TorusField(0.5 * (p + q), 0.5 * (p - q))


def _b_rows(k: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Rows B_k u_k for the modes k != 0, where C_k = I/2 + B_k and
    B_k^2 = -omega_k^2 I with omega_k = sqrt(k^2 - 1/4)."""
    return np.stack([-0.5 * u[:, 0] + 1j * k * u[:, 1],
                     1j * k * u[:, 0] + 0.5 * u[:, 1]], axis=1)


def _propagate(ks: np.ndarray, u: np.ndarray, times) -> np.ndarray:
    """Apply e^{-C_k t} to each row of u at every time, in closed form.

    Returns shape (len(times), len(ks), 2). The conserved mode k = 0 keeps
    p and damps q by e^{-t}. For |k| >= 1 write C_k = I/2 + B with
    B^2 = -omega^2 I, omega = sqrt(k^2 - 1/4); then
    e^{-C_k t} = e^{-t/2} (cos(omega t) I - sin(omega t)/omega B).
    """
    ts = np.atleast_1d(np.asarray(times, dtype=float))[:, None]
    out = np.empty((len(ts),) + u.shape, dtype=complex)
    zero = ks == 0
    out[:, zero, 0] = u[zero, 0]
    out[:, zero, 1] = np.exp(-ts) * u[zero, 1]
    nz = ~zero
    k = ks[nz].astype(float)
    om = np.sqrt(k * k - 0.25)
    ct = np.cos(ts * om)[..., None]
    st = (np.sin(ts * om) / om)[..., None]
    damp = np.exp(-0.5 * ts)[..., None]
    out[:, nz] = damp * (ct * u[nz] - st * _b_rows(k, u[nz]))
    return out


def _propagated_norm_sq(ks: np.ndarray, u: np.ndarray, times) -> np.ndarray:
    """sum_k |e^{-C_k t} u_k|^2 at every time, p0 + e^{-2t} q0 + e^{-t} s(t)."""
    ts = np.atleast_1d(np.asarray(times, dtype=float))
    p0, q0, s = _mode_sums(ks, u, ts)
    return p0 + np.exp(-2.0 * ts) * q0 + np.exp(-ts) * s


def _mode_sums(ks: np.ndarray, u: np.ndarray, ts: np.ndarray) -> tuple[float, float, np.ndarray]:
    """(p0, q0, s(t)), without the propagated rows: the squared k = 0
    components of u, and the undamped sum s of the k != 0 modes at times ts.

    By the closed form in _propagate, with a = |u|^2, c = |B u|^2 / omega^2
    and x = Re<u, B u> / omega, mode k != 0 contributes
    e^{-t} [(a + c)/2 + (a - c)/2 cos(2 omega t) - x sin(2 omega t)].
    The modes k and -k share omega, so their a, c and x add up first, and
    each time costs one cos and one sin per |k|. Each term is the
    squared norm of e^{-(C_k - 1/2) t} u, at least |u|^2/3 because
    sigma_max of that matrix is at most sqrt(3) and its determinant is 1:
    no term cancels.
    """
    zero = ks == 0
    p0, q0 = (np.abs(u[zero]) ** 2).sum(axis=0)
    nz = ~zero
    k = ks[nz].astype(float)
    kk, where = np.unique(np.abs(k), return_inverse=True)
    om = np.sqrt(kk * kk - 0.25)
    v = u[nz]
    bv = _b_rows(k, v)
    a = (np.abs(v) ** 2).sum(axis=1)
    c = (np.abs(bv) ** 2).sum(axis=1) / om[where] ** 2
    x = (v.conj() * bv).real.sum(axis=1) / om[where]
    cos_w, sin_w = (np.bincount(where, weights=w, minlength=len(kk))
                    for w in (0.5 * (a - c), x))
    phase = 2.0 * ts[:, None] * om
    osc = np.cos(phase) @ cos_w - np.sin(phase) @ sin_w
    return p0, q0, 0.5 * (a + c).sum() + osc


def evolve(field: TorusField, t: float, cutoff: int) -> TorusField:
    """Field at time t, propagated mode by mode below the cutoff.

    Modes above the cutoff are dropped, so this is exact precisely when the
    initial field is band-limited to the cutoff.
    """
    ks, u = decompose(field, cutoff)
    return reconstruct(ks, _propagate(ks, u, float(t))[0], field.n)


def deviation_norm(field: TorusField) -> float:
    """L2 distance (over space and both velocities) from the steady state
    carrying the same total mass, by grid quadrature."""
    mean = field.mass / (4.0 * np.pi)
    dp = field.f_plus - mean
    dm = field.f_minus - mean
    return float(np.sqrt((2.0 * np.pi / field.n)
                         * (np.sum(dp * dp) + np.sum(dm * dm))))


def verify_gt_bound(field: TorusField, times, cutoff: int) -> GTBoundReport:
    """Check |f(t) - f_inf| <= sqrt(3) e^{-t/2} |f0 - f_inf| along times.

    The squared deviation is summed by Parseval from the closed form of
    each mode (_mode_sums), so the reported ratios carry no time-stepping
    error; each ratio is formed with the common e^{-t} of the k != 0 modes
    divided out, so it does not underflow at long times. passed allows the
    ratio a relative GT_TOL above sqrt(3). Requires the mass normalization
    int (f_plus + f_minus) dx = 2 pi and finite, non-negative times.
    """
    two_pi = 2.0 * np.pi
    if abs(field.mass - two_pi) > MASS_RTOL * two_pi:
        raise NotNormalized(f"total mass {field.mass!r} is not 2 pi")
    ts = np.atleast_1d(np.asarray(times, dtype=float))
    if ts.size == 0 or not (np.isfinite(ts) & (ts >= 0)).all():
        raise ValueError("need at least one time, each finite and non-negative")

    ks, u = decompose(field, cutoff)
    # deviation coefficients: the conserved component is the k = 0 mean of p
    d = u.copy()
    d[ks == 0, 0] = 0.0
    _, q0, s = _mode_sums(ks, d, ts)  # p0 = 0
    dev = np.sqrt(np.pi * (np.exp(-2.0 * ts) * q0 + np.exp(-ts) * s))
    dev0 = float(np.sqrt(np.pi * (np.abs(d) ** 2).sum()))
    # dev^2 e^{2 GT_RATE t}, with GT_RATE = 1/2, over dev0^2
    ratios = (np.sqrt(np.pi * (np.exp(-ts) * q0 + s)) / dev0 if dev0 >= 1e-300
              else np.zeros_like(ts))
    i = int(np.argmax(ratios))
    return GTBoundReport(deviations=dev, initial_deviation=dev0,
                         ratios=ratios, max_ratio=float(ratios[i]), t_at_max=float(ts[i]),
                         passed=bool(ratios[i] <= GT_CONSTANT * (1.0 + GT_TOL)))
