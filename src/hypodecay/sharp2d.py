"""Sharp decay constants and two-sided envelopes for 2x2 systems.

For diagonalizable positive stable C, the squared solution norm is pinched
between explicit envelopes

    h_-(t) |f0|^2  <=  |f(t)|^2  <=  h_+(t) |f0|^2,

with h_+-(t) = e^{-2 Re(lambda_1) t} m_+-(t) and

    m_+-(t) = e^{-gamma t} ( sqrt(A(t)^2 - 1) +- A(t) ) * (+-1),
    A(t)    = (cosh(gamma t) - alpha^2 cos(delta t)) / (1 - alpha^2),

where gamma = Re(lambda_2 - lambda_1) >= 0, delta = Im(lambda_2 - lambda_1)
and alpha is the eigenvector overlap. h_+ and h_- are the squared extreme
singular values of e^{-Ct}; `envelope --oracle` checks them against those of
the RK4 propagator. The sharp multiplicative constant in |f(t)| <= c e^{-mu t} |f0|
is c = sqrt(sup_t m_+(t)): 1 for a scalar C, closed-form for equal real or
imaginary parts, numerical otherwise.

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

from .errors import NotPositiveStable
from .spectral import ROUNDING_RTOL, Canonical2DForm, coincidence_tol

__all__ = [
    "DecayCase",
    "SharpResult2D",
    "EnvelopeCurve",
    "SupOfEnvelope",
    "classify_and_sharp_constant",
    "envelope_curves",
    "sup_m_plus",
    "sector_constant",
]

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

    Degenerates to the single exact exponential when the eigenvalues agree up
    to rounding (C is then scalar and the solution norm has no transient).
    """
    ts = np.atleast_1d(np.asarray(times, dtype=float))
    lam = form.eigenvalues
    tie = abs(lam[1] - lam[0]) <= coincidence_tol(lam, ROUNDING_RTOL)
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

    Equal eigenvalues: c = 1 when they agree up to rounding, as C is then
    scalar; a larger split within the coincidence tolerance keeps the label
    but takes c from the sup of m_+, reached far out in time. Equal real
    parts: c = sqrt((1 + alpha)/(1 - alpha)), reached at the first half-turn
    of the phase difference. Equal imaginary parts: c = 1/sqrt(1 - alpha^2),
    approached as t -> inf. Otherwise c comes from the numerical sup of m_+,
    bracketed strictly between those two closed forms; so does c for
    imaginary parts that coincide with delta != 0 where that sup is attained.
    """
    lam = form.eigenvalues
    if form.mu <= 0.0:
        raise NotPositiveStable(f"spectral gap is not positive: mu = {form.mu}")
    tol = coincidence_tol(lam)
    a = form.alpha
    kmin = (1.0 + a) / (1.0 - a)

    gap = abs(lam[1] - lam[0])
    if gap <= tol:
        sup = (SupOfEnvelope(value=1.0, t_at=0.0) if gap <= coincidence_tol(lam, ROUNDING_RTOL)
               else sup_m_plus(a, abs(form.gamma), form.delta))
        c = float(np.sqrt(sup.value))
        return SharpResult2D(case=DecayCase.EQUAL_EIGENVALUES, alpha=a, c_sharp=c,
                             kappa_min=kmin, bracket=(c, c), attained_time=sup.t_at,
                             attained="asymptotic" if sup.t_at is None else "finite")
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
    lo = float(1.0 / np.sqrt(1.0 - a * a))
    sup = None if form.delta == 0.0 else sup_m_plus(a, form.gamma, form.delta)
    if abs(form.delta) <= tol and (sup is None or sup.t_at is None):
        # the sup is the delta = 0 limit, approached as t -> inf
        c = lo if sup is None else max(lo, float(np.sqrt(sup.value)))
        return SharpResult2D(case=DecayCase.EQUAL_IMAGINARY_PARTS, alpha=a, c_sharp=c,
                             kappa_min=kmin, bracket=(c, c),
                             attained="asymptotic", attained_time=None)
    return SharpResult2D(
        case=DecayCase.EQUAL_IMAGINARY_PARTS if abs(form.delta) <= tol
        else DecayCase.FULLY_DISTINCT, alpha=a, c_sharp=float(np.sqrt(sup.value)),
        kappa_min=kmin, bracket=(lo, float(np.sqrt(kmin))),
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
