"""Sharp decay constants and two-sided envelopes for 2x2 systems.

For diagonalizable positive stable C, the squared solution norm is pinched
between explicit envelopes

    h_-(t) |f0|^2  <=  |f(t)|^2  <=  h_+(t) |f0|^2,

with h_+-(t) = e^{-2 Re(lambda_1) t} m_+-(t) and

    m_+(t) = e + G + sqrt(G (G + 2e)),    m_-(t) = e^2 / m_+(t),
    G(t)   = (1/2 (1 - e)^2 + 2 alpha^2 e sin^2(delta t/2)) / beta^2,

where e = e^{-gamma t}, gamma = Re(lambda_2 - lambda_1) >= 0, delta =
Im(lambda_2 - lambda_1), alpha is the eigenvector overlap and beta = sqrt(1 - alpha^2)
is read off the form. This is the paper's m_+- = e (A +- sqrt(A^2 - 1)), with
A = (cosh(gamma t) - alpha^2 cos(delta t))/beta^2, through e A = e + G;
the G form sums only non-negative terms. h_+ and h_- are the squared extreme
singular values of e^{-Ct}; `envelope --oracle` checks them against those of
the RK4 propagator. The sharp multiplicative constant in |f(t)| <= c e^{-mu t} |f0|
is c = sqrt(sup_t m_+(t)): 1 for a scalar C, closed-form for equal real or
imaginary parts, numerical otherwise.

Lemma (0 < alpha < 1, gamma >= 0, delta != 0). With A_+ = (cosh(gamma t) +
alpha^2)/beta^2 >= A, m_+ <= M(t) = e^{-gamma t}(A_+ + sqrt(A_+^2 - 1)),
with equality at t = (2j + 1) pi/|delta|. M is non-increasing, because
beta^4 (A_+^2 - 1) - sinh^2(gamma t) = 2 alpha^2 (1 + cosh(gamma t)) >= 0.
Hence sup_{t >= 0} m_+ = max of m_+ over [0, pi/|delta|], where m_+ rises and
then falls (checked numerically), so golden-section search brackets it and
successive parabolic interpolation (Brent, Algorithms for Minimization without
Derivatives, 1973, ch. 5) then closes in on the smooth maximum. In
s = |delta| t, with g = gamma/|delta| and e = e^{-g pi}, the slope of m_+ at s = pi
is g e (e - (alpha^2 + e) m_+/beta^2), < 0 for gamma > 0 (m_+ > 1), 0 for gamma = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _HOMES
from .errors import RateOutOfRange
from .spectral import Canonical2DForm, DecayCase

__all__ = _HOMES["sharp2d"]

#: alpha below which kappa_min and its root round to 1, the constant of an orthogonal basis
ALPHA_FLOOR = 2.0 ** -54

#: bracket width, in s = |delta| t, at which sup_m_plus turns from golden
#: section to parabolic steps
_GOLDEN_WIDTH = 1e-3 * math.pi

#: relative step below which the parabolic steps of sup_m_plus stop
_SEARCH_RTOL = np.finfo(float).eps ** 0.5


@dataclass
class SharpResult2D:
    """Sharp constant for |f(t)| <= c e^{-mu t} |f0| with attainment info.

    bracket = (lo, hi) encloses c_sharp; for the closed-form cases it
    degenerates to (c, c). attained_time is the finite time of equality when
    there is one, None when the constant is approached only asymptotically;
    for a numerical sup, the best sample's, where m_+ is c_sharp^2 to
    rounding, good only to about 1e-6 relative as the flat maximum's place.
    """

    case: DecayCase
    alpha: float
    c_sharp: float
    bracket: tuple[float, float]
    attained: str
    attained_time: float | None


@dataclass
class EnvelopeCurve:
    h_minus: np.ndarray
    h_plus: np.ndarray


def _m_plus_minus(alpha: float, beta: float, gamma: float, delta: float, ts):
    """Both envelope factors from e = e^{-gamma t} and the gap
    G = e A - e = (1/2 (1 - e)^2 + 2 alpha^2 e sin^2(delta t/2)) / beta^2:
    m_+ = e + G + sqrt(G (G + 2e)) and m_- = e^2 / m_+. Every term is
    non-negative, so nothing cancels as alpha -> 1 or t -> 0, and no value
    overflows. A float time is evaluated in Python floats through math, an
    array of times through numpy.
    """
    xp = math if isinstance(ts, float) else np
    mgt = -gamma * ts
    e = xp.exp(mgt)
    em, sn = xp.expm1(mgt), xp.sin(0.5 * delta * ts)
    gap = (0.5 * (em * em) + 2.0 * alpha * alpha * e * (sn * sn)) / (beta * beta)
    m_hi = e + gap + xp.sqrt(gap * (gap + 2.0 * e))
    return e * e / m_hi, m_hi


def envelope_curves(form: Canonical2DForm, times) -> EnvelopeCurve:
    """Evaluate h_- and h_+ on a time grid.

    Degenerates to the exact exponential for a scalar C, which has no transient.
    Raises RateOutOfRange when a rate of h_+-, 2 Re(lambda_1) or 2 gamma, lies
    beyond the float range: at t = 0 its exponent would be inf * 0. An
    exponential beyond the float range is inf, without numpy's warning.
    """
    rate = 2.0 * max(abs(form.mu), form.gamma)
    if not math.isfinite(rate):
        raise RateOutOfRange(f"the envelopes decay at rate {rate}, outside the float range")
    ts = np.atleast_1d(np.asarray(times, dtype=float))
    with np.errstate(over="ignore"):
        pre = np.exp(-2.0 * form.eigenvalues[0].real * ts)
        if form.scalar or form.alpha < ALPHA_FLOOR:
            m_hi = np.ones_like(ts)
            m_lo = m_hi if form.scalar else np.exp(-2.0 * form.gamma * ts)
        else:
            m_lo, m_hi = _m_plus_minus(form.alpha, form.beta, form.gamma, form.delta, ts)
        h_minus, h_plus = pre * m_lo, pre * m_hi
    return EnvelopeCurve(h_minus=h_minus, h_plus=h_plus)


def sup_m_plus(alpha: float, beta: float, gamma: float, delta: float) -> tuple:
    """(sup over t >= 0 of the upper envelope factor m_+, a time t_at of it),
    with beta = sqrt(1 - alpha^2) as Canonical2DForm carries it.
    By the module's lemma the sup lies in s = |delta| t in [0, pi] (invariant
    under C -> sC). Golden-section search narrows that bracket to _GOLDEN_WIDTH;
    the slope of m_+ at s = pi is < 0 (0 for gamma = 0), so that end needs no
    evaluation of its own, and m_+(0) = 1. Then each step evaluates the vertex
    of the parabola through the three best samples, kept inside the bracket,
    until a step moves less than _SEARCH_RTOL relative, the samples no longer
    bend down (they agree to rounding) or the vertex is no better than all
    three. The value is the largest sampled m_+, a lower bound on the sup.
    The search runs in Python floats: each m_+ is a handful of math calls, not
    numpy calls on one-element values. t_at is None within 1e-12 of the
    asymptote 1/beta^2, which is the sup for delta = 0.
    """
    alpha, beta, gamma, delta = float(alpha), float(beta), float(gamma), float(delta)
    if not (0.0 <= alpha <= 1.0 and 0.0 < beta <= 1.0 and 0.0 <= gamma < math.inf
            and abs(delta) < math.inf):
        raise ValueError("need alpha in [0, 1], beta in (0, 1] and finite gamma >= 0 and delta")
    if alpha < ALPHA_FLOOR:
        return 1.0, 0.0
    if gamma == 0.0 and delta == 0.0:
        raise ValueError("coincident eigenvalues have no envelope factor to maximize")
    asymptote = 1.0 / (beta * beta)
    if delta == 0.0:
        return asymptote, None
    g = gamma / abs(delta)
    m = lambda s: _m_plus_minus(alpha, beta, g, 1.0, s)[1]  # noqa: E731
    inv = (5.0 ** 0.5 - 1.0) / 2.0
    lo, hi, s1, s2 = 0.0, math.pi, math.pi - inv * math.pi, inv * math.pi
    m_lo, m1, m2, m_hi = 1.0, m(s1), m(s2), -math.inf  # m_+(0) = 1; pi is not sampled
    while hi - lo >= _GOLDEN_WIDTH:
        if m1 > m2:
            hi, m_hi, s2, m2, s1 = s2, m2, s1, m1, s2 - inv * (s2 - lo)
            m1 = m(s1)
        else:
            lo, m_lo, s1, m1, s2 = s1, m1, s2, m2, s1 + inv * (hi - s1)
            m2 = m(s2)
    # m_+ falls away from its maximum, so the best samples lie in [lo, hi]
    (mb, b), (ma, a), (mc, c) = sorted([(m_lo, lo), (m1, s1), (m2, s2), (m_hi, hi)],
                                       reverse=True)[:3]
    while True:
        # the parabola mb + k (s - b) + curv (s - b)^2 through the three samples,
        # from the slopes of the chords from b to a and to c
        ka, kc = (ma - mb) / (a - b), (mc - mb) / (c - b)
        curv = (ka - kc) / (a - c)
        if not curv < 0.0:
            break
        u = min(max(b - (ka - curv * (a - b)) / (2.0 * curv), lo), hi)
        if abs(u - b) < _SEARCH_RTOL * b or u == a or u == c:
            break
        m_u = m(u)
        if m_u <= mc:
            break
        (mb, b), (ma, a), (mc, c) = sorted([(mb, b), (ma, a), (m_u, u)], reverse=True)
    if mb <= asymptote * (1.0 + 1e-12):
        return max(mb, asymptote), None
    return mb, b / abs(delta)


def classify_and_sharp_constant(form: Canonical2DForm) -> SharpResult2D:
    """The sharp constant c = sqrt(sup_t m_+) for the case the form carries.

    c = 1 for a scalar C or an orthogonal eigenbasis (alpha < ALPHA_FLOOR).
    Equal real parts: c = sqrt(kappa_min), reached at the first half-turn of the
    phase difference. Equal imaginary parts: c = 1/beta, approached
    as t -> inf. Equal eigenvalues that are not a rounding tie: the sup of m_+,
    reached far out in time. Otherwise c is the numerical sup of m_+, bracketed
    strictly between the two closed forms; so is c for coinciding imaginary
    parts with delta != 0 where that sup is attained.
    """
    a, b, kmin, lo = form.alpha, form.beta, form.kappa_min, 1.0 / form.beta
    sup, t_at, bracket = None, None, None  # a bracket other than (c, c) only around a numerical sup
    if form.scalar or a < ALPHA_FLOOR:
        sup, t_at = 1.0, 0.0
    elif form.case is DecayCase.EQUAL_REAL_PARTS:
        sup, t_at = kmin, math.pi / abs(form.delta)
    elif form.case is DecayCase.EQUAL_EIGENVALUES:
        sup, t_at = sup_m_plus(a, b, abs(form.gamma), form.delta)
    elif form.delta != 0.0:
        (sup, t_at), bracket = sup_m_plus(a, b, form.gamma, form.delta), (lo, math.sqrt(kmin))
    c = lo if sup is None else math.sqrt(sup)
    if form.case is DecayCase.EQUAL_IMAGINARY_PARTS and t_at is None:
        # the sup is the delta = 0 limit, approached as t -> inf
        c, bracket = max(lo, c), None
    return SharpResult2D(case=form.case, alpha=a, c_sharp=c,
                         bracket=bracket or (c, c), attained_time=t_at,
                         attained="asymptotic" if t_at is None else "finite")

