"""Decay bounds at non-sharp rates for 2x2 systems.

Between the symmetric-part bound mu_s and the spectral gap mu there is a
one-parameter family of upper estimates |f(t)| <= c1(r) e^{-r t} |f0|: slower
rates buy smaller constants, down to c1(mu_s) = 1. Mirrored on the other
side, rates between the largest eigenvalue real part nu and the symmetric
bound nu_s give lower estimates |f(t)| >= c2(r) e^{-r t} |f0| with
c2(nu_s) = 1. Both constants come from the same minimal condition number

    kappa_min(beta) = (1 + s)/(1 - s),
    s = sqrt(1 - (1 - alpha^2)(1 - beta~^2)/(1 + alpha beta~)^2),

where beta~ = max(-alpha, -beta0) and beta0 is the admissibility threshold of
the off-diagonal weight at the requested rate. The radicand is a square,

    1 - (1 - alpha^2)(1 - beta~^2)/(1 + alpha beta~)^2 = s^2,
    s = (alpha + beta~)/(1 + alpha beta~)  in [0, alpha],

so kappa_min = (1 + alpha)(1 + beta~)/((1 - alpha)(1 - beta~)), finite since
s <= alpha < 1. Near mu_s and nu_s the ratio under the root is close to 1,
and forming 1 - ratio first left s with half the digits: constants came out
up to 1.8e-8 low, optimistic for an upper bound. kappa_min is evaluated from
the product instead, with 1 + beta~ = 1 - beta0 = (1 - beta0^2)/(1 + beta0)
when beta0 < alpha and

    1 - beta0^2 = |lambda_2 - lambda_1|^2 / |lambda_1 + conj(lambda_2) - 2r|^2,

so no factor cancels, not even as beta0 -> 1. At the gap (beta0 = 0)
kappa_min is (1 + alpha)/(1 - alpha) to the last bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import RateOutOfRange
from .spectral import Canonical2DForm

__all__ = [
    "FamilyBound",
    "FamilyEnvelope",
    "upper_bound_constant",
    "lower_bound_constant",
    "family_envelope",
]


@dataclass
class FamilyBound:
    """One member of the rate family.

    direction is "upper" for |f(t)| <= constant * e^{-rate t} |f0| and
    "lower" for the reversed inequality.
    """

    rate: float
    constant: float
    direction: str
    beta0: float
    beta_tilde: float
    kappa: float


@dataclass
class FamilyEnvelope:
    times: np.ndarray
    upper: np.ndarray
    lower: np.ndarray
    upper_rates: np.ndarray
    lower_rates: np.ndarray
    upper_constants: np.ndarray
    lower_constants: np.ndarray


#: sqrt, maximum, minimum, where on Python floats and on arrays: the same IEEE
#: operations, so a float rate gets the bits its entry of an array would
_FLOAT_OPS = (math.sqrt, max, min, lambda cond, x, y: x if cond else y)
_ARRAY_OPS = (np.sqrt, np.maximum, np.minimum, np.where)


def _family(form: Canonical2DForm, rates, direction: str):
    """(beta0, beta~, kappa, constant) of the direction's family at rates, a
    float or a float array: Python floats for a float, arrays for an array.
    RateOutOfRange unless every rate lies in the family's range widened by
    form.rounding_tol, by which mu_s and mu (nu and nu_s) of a normal C cross."""
    scalar = isinstance(rates, float)
    sqrt, maximum, minimum, where = _FLOAT_OPS if scalar else _ARRAY_OPS
    lo, hi = (form.mu_s, form.mu) if direction == "upper" else (form.nu, form.nu_s)
    tol = form.rounding_tol
    inside = (lo - tol <= rates) & (rates <= hi + tol)  # False for NaN
    if not (inside if scalar else inside.all()):
        bad = rates if scalar else rates[~inside][0]
        raise RateOutOfRange(f"rate {bad} outside [{lo}, {hi}] for the {direction} family")
    r = minimum(maximum(rates, lo), hi)
    a = form.alpha
    if form.scalar:  # beta0 = 1 and c = 1
        one = 1.0 if scalar else np.ones_like(r)
        return one, -a * one, one, one
    # beta0 and kappa have degree 0 in (lambda, r): a power of two takes both to
    # unit scale exactly, so no square below under- or overflows
    parts = form.eigenvalues.view(float).tolist()
    scale = 2.0 ** min(-math.frexp(max(map(abs, parts)))[1], 1000)
    (re0, im0, re1, im1), r = (x * scale for x in parts), r * scale
    dim2 = (im1 - im0) * (im1 - im0)
    gap2 = (re1 - re0) * (re1 - re0) + dim2
    d0, d1 = re0 - r, re1 - r
    # |lam_1 + conj(lam_2) - 2r|^2 >= gap2 > 0; on both ranges d0 and d1 share
    # a sign, so d0 + d1 does not cancel
    dist2 = (d0 + d1) * (d0 + d1) + dim2
    beta0 = minimum(sqrt(maximum(4.0 * d0 * d1, 0.0) / dist2), 1.0)
    bt = maximum(-a, -beta0)
    # where beta~ = -beta0: 1 + beta~ = (1 - beta0^2)/(1 - beta~), 1 - beta0^2 = gap2/dist2
    kappa = where(bt > -a, (1.0 + a) * (gap2 / dist2) / ((1.0 - a) * (1.0 - bt) * (1.0 - bt)),
                  1.0)
    root = sqrt(kappa)
    return beta0, bt, kappa, root if direction == "upper" else 1.0 / root


def _member(form: Canonical2DForm, rate: float, direction: str) -> FamilyBound:
    rate = float(rate)
    beta0, bt, kappa, c = _family(form, rate, direction)
    return FamilyBound(rate=rate, constant=c, direction=direction,
                       beta0=beta0, beta_tilde=bt, kappa=kappa)


def upper_bound_constant(form: Canonical2DForm, mu_tilde: float) -> FamilyBound:
    """Smallest certified constant for the rate mu_tilde in [mu_s, mu]."""
    return _member(form, mu_tilde, "upper")


def lower_bound_constant(form: Canonical2DForm, nu_tilde: float) -> FamilyBound:
    """Largest certified constant for the rate nu_tilde in [nu, nu_s]."""
    return _member(form, nu_tilde, "lower")


def _lower_envelope(rates: np.ndarray, logc: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """Index of the member minimizing logc_i - rates_i t, for each time in ts.

    The members on that envelope are the vertices of the lower convex hull of
    the points (rates_i, logc_i), built by one monotone-chain pass over them
    sorted by rate (of equal rates only the smaller logc is kept). The hull's
    edge slopes increase, and vertex k wins for t between the slopes of its
    two edges, so one searchsorted on the slopes finds each time's winner.
    """
    r, ell = rates.tolist(), logc.tolist()
    order = np.lexsort((logc, rates)).tolist()
    hull, slopes = [order[0]], []
    for i in order[1:]:
        if r[i] == r[hull[-1]]:
            continue
        while True:
            s = (ell[i] - ell[hull[-1]]) / (r[i] - r[hull[-1]])
            if not slopes or s > slopes[-1]:
                break
            hull.pop()
            slopes.pop()
        hull.append(i)
        slopes.append(s)
    return np.array(hull)[np.searchsorted(slopes, ts)]


def family_envelope(form: Canonical2DForm, times, n_rates: int = 64) -> FamilyEnvelope:
    """Pointwise-best bound over rate families sampled across both ranges.

    upper(t) = min_i c1(r_i) e^{-r_i t}, lower(t) = max_i c2(r_i) e^{-r_i t},
    both on the norm scale for unit initial data. With several rates the
    envelopes hug the trajectory tighter than any single member: the slower
    rates win early and the extreme ones win late.

    In logarithms the minimum is min_i (log c_i - r_i t), a discrete Legendre
    transform whose winners are the vertices of the lower convex hull of the
    points (r_i, log c_i). Each time looks up its winner on that hull and
    evaluates only that member, c_i e^{-r_i t}, so time and memory grow with
    rates plus times, not their product. Where two members tie within
    rounding the value may exceed the dense minimum by a few ulp. The lower
    envelope is the same construction on (-r_i, -log c_i).
    """
    if n_rates < 1:
        raise ValueError("n_rates must be at least 1")
    ts = np.atleast_1d(np.asarray(times, dtype=float))
    up_rates = np.linspace(form.mu_s, form.mu, n_rates)
    lo_rates = np.linspace(form.nu, form.nu_s, n_rates)
    up_c = _family(form, up_rates, "upper")[3]
    lo_c = _family(form, lo_rates, "lower")[3]
    up = _lower_envelope(up_rates, np.log(up_c), ts)
    lo = _lower_envelope(-lo_rates, -np.log(lo_c), ts)
    with np.errstate(over="ignore"):  # a negative rate may grow past the float range: inf
        upper = up_c[up] * np.exp(-up_rates[up] * ts)
        lower = lo_c[lo] * np.exp(-lo_rates[lo] * ts)
    return FamilyEnvelope(times=ts, upper=upper, lower=lower,
                          upper_rates=up_rates, lower_rates=lo_rates,
                          upper_constants=up_c, lower_constants=lo_c)
