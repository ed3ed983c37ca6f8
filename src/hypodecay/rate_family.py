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
the off-diagonal weight at the requested rate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RateOutOfRange
from .spectral import ROUNDING_RTOL, Canonical2DForm, coincidence_tol

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


def _family(form: Canonical2DForm, rates, direction: str):
    """(beta0, beta~, kappa, constant) of the direction's family, each an array
    over rates; RateOutOfRange unless every rate lies in the family's range."""
    lo, hi = (form.mu_s, form.mu) if direction == "upper" else (form.nu, form.nu_s)
    lam = form.eigenvalues
    rates = np.asarray(rates, dtype=float)
    tol = coincidence_tol(lam)
    inside = (lo - tol <= rates) & (rates <= hi + tol)
    if not inside.all():
        raise RateOutOfRange(
            f"rate {rates[~inside][0]} outside [{lo}, {hi}] for the {direction} family")
    r = np.clip(rates, lo, hi)
    num = 4.0 * (lam[0].real - r) * (lam[1].real - r)
    dist = np.abs(lam[0] + np.conj(lam[1]) - 2.0 * r)
    # on both ranges dist >= |lam_2 - lam_1|: the 0/0 guard fires only where the
    # eigenvalues agree up to rounding (scalar C, c_sharp = 1) and gives c = 1
    tie = dist <= coincidence_tol(lam, ROUNDING_RTOL)
    beta0 = np.where(tie, 1.0, np.clip(
        np.sqrt(np.maximum(num, 0.0) / np.where(tie, 1.0, dist) ** 2), 0.0, 1.0))
    a = form.alpha
    bt = np.maximum(-a, -beta0)
    q = (1.0 - a * a) * (1.0 - bt * bt) / (1.0 + a * bt) ** 2
    s = np.sqrt(np.maximum(1.0 - q, 0.0))
    if np.any(s >= 1.0):
        raise RateOutOfRange("condition number diverges at this rate")
    kappa = (1.0 + s) / (1.0 - s)
    return beta0, bt, kappa, np.sqrt(kappa) if direction == "upper" else 1.0 / np.sqrt(kappa)


def _member(form: Canonical2DForm, rate: float, direction: str) -> FamilyBound:
    beta0, bt, kappa, c = (float(x[0]) for x in _family(form, [rate], direction))
    return FamilyBound(rate=float(rate), constant=c, direction=direction,
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
