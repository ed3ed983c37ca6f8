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
Hence sup_{t >= 0} m_+ = max of m_+ over [0, pi/|delta|].

Lemma (one maximizer). In s = |delta| t, with g = gamma/|delta| > 0,
log m_+ = -g s + arccosh A and A' = (g sinh gs + alpha^2 sin s)/beta^2 > 0 on
(0, pi]. So m_+' has the sign of A'^2 - g^2 (A^2 - 1) = alpha^2 F/beta^4, with

    F(s) = 2g (sinh gs sin s + g cosh gs cos s) + alpha^2 (1 + g^2) sin^2 s - 2g^2.

F(0) = 0 and F'(s) = 2 (1 + g^2) cos s (g sinh gs + alpha^2 sin s), so F > 0
on (0, pi/2], F falls strictly on [pi/2, pi], and F(pi) = -2g^2 (1 + cosh g pi)
< 0. Hence m_+ has exactly one maximizer s* on [0, pi], and it lies in
(pi/2, pi); for g = 0, F = alpha^2 sin^2 s and s* = pi.
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

@dataclass
class SharpResult2D:
    """Sharp constant for |f(t)| <= c e^{-mu t} |f0| with attainment info.

    bracket = (lo, hi) encloses c_sharp; for the closed-form cases it
    degenerates to (c, c). attained_time is the finite time of equality when
    there is one, None when the constant is approached only asymptotically;
    for a numerical sup, the located maximizer of m_+, good to about 1e-13
    relative.
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
    """(sup over t >= 0 of the upper envelope factor m_+, the time t_at of it),
    with beta = sqrt(1 - alpha^2) as Canonical2DForm carries it.
    By the module's lemmas the sup is m_+ at the one root s* of F in
    s = |delta| t in [pi/2, pi] (invariant under C -> sC). Newton steps find s*
    as the root of Fh = F e^{-gs}/(1 + g^2) =
    w sh sin s + q (1 + e^2) cos s + (alpha^2 sin^2 s - 2q) e, with e = e^{-gs},
    sh = 1 - e^2, w = 1/(g + 1/g) and q = 1/(1 + g^-2), which overflow at no g,
    inf included; the slope of Fh is cos s (g sh + 2 alpha^2 e sin s) - g Fh.
    They start at pi - min(pi/4, 2g/alpha), the root for small g, where F has a
    near-double root at pi. A step that leaves the sign bracket of Fh bisects
    it instead; the steps stop when one moves s by at most 2 eps s, or after
    64, as many as bisection needs.
    m_+ is evaluated once, at the root, so t_at is the maximizer to about 1e-13
    relative. The search runs in Python floats: each step is a handful of math
    calls, not numpy calls on one-element values. t_at is None within 1e-12 of
    the asymptote 1/beta^2, which is the sup for delta = 0.
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
    s = math.pi - min(0.25 * math.pi, 2.0 * g / alpha)
    if g > 0.0:
        a2, inv = alpha * alpha, 1.0 / g
        w, q = 1.0 / (g + inv), 1.0 / (1.0 + inv * inv)
        lo, hi = 0.5 * math.pi, math.pi
        for _ in range(64):
            e, sh = math.exp(-g * s), -math.expm1(-2.0 * g * s)
            sn, cs = math.sin(s), math.cos(s)
            f = w * sh * sn + q * (1.0 + e * e) * cs + (a2 * sn * sn - 2.0 * q) * e
            lo, hi = (s, hi) if f > 0.0 else (lo, s)
            slope = cs * (g * sh + 2.0 * a2 * e * sn) - g * f
            step = s - f / slope if slope else math.nan  # no Newton step: bisect
            if not lo <= step <= hi:  # closed: a root, f = 0, steps onto itself
                step = 0.5 * (lo + hi)
            s, moved = step, abs(step - s)
            if moved <= 2.0 ** -51 * s:  # 2 eps
                break
    m = _m_plus_minus(alpha, beta, g, 1.0, s)[1]
    if m <= asymptote * (1.0 + 1e-12):
        return max(m, asymptote), None
    return m, s / abs(delta)


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

