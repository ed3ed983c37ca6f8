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
from .sharp2d import TIE_RTOL
from .spectral import Canonical2DForm, coincidence_tol

__all__ = [
    "FamilyBound",
    "FamilyEnvelope",
    "upper_bound_constant",
    "lower_bound_constant",
    "family_envelope",
]

#: slack, relative to the spectral radius, accepted beyond the exact rate range
RANGE_RTOL = 1e-9


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
    slack = coincidence_tol(lam, RANGE_RTOL)
    inside = (lo - slack <= rates) & (rates <= hi + slack)
    if not inside.all():
        raise RateOutOfRange(
            f"rate {rates[~inside][0]} outside [{lo}, {hi}] for the {direction} family")
    r = np.clip(rates, lo, hi)
    num = 4.0 * (lam[0].real - r) * (lam[1].real - r)
    dist = np.abs(lam[0] + np.conj(lam[1]) - 2.0 * r)
    # on both ranges dist >= |lam_2 - lam_1|: the 0/0 guard fires only where the
    # sharp case split calls the eigenvalues equal (c_sharp = 1) and gives c = 1
    tie = dist <= coincidence_tol(lam, TIE_RTOL)
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


def family_envelope(form: Canonical2DForm, times, n_rates: int = 64) -> FamilyEnvelope:
    """Pointwise-best bound over rate families sampled across both ranges.

    upper(t) = min_i c1(r_i) e^{-r_i t}, lower(t) = max_i c2(r_i) e^{-r_i t},
    both on the norm scale for unit initial data. With several rates the
    envelopes hug the trajectory tighter than any single member: the slower
    rates win early and the extreme ones win late.
    """
    ts = np.atleast_1d(np.asarray(times, dtype=float))
    up_rates = np.linspace(form.mu_s, form.mu, n_rates)
    lo_rates = np.linspace(form.nu, form.nu_s, n_rates)
    up_c = _family(form, up_rates, "upper")[3]
    lo_c = _family(form, lo_rates, "lower")[3]
    # e^{-rt} overflows for rates far below 0; the r = mu member keeps the min finite
    with np.errstate(over="ignore"):
        upper = np.min(up_c[:, None] * np.exp(-np.outer(up_rates, ts)), axis=0)
    lower = np.max(lo_c[:, None] * np.exp(-np.outer(lo_rates, ts)), axis=0)
    return FamilyEnvelope(times=ts, upper=upper, lower=lower,
                          upper_rates=up_rates, lower_rates=lo_rates,
                          upper_constants=up_c, lower_constants=lo_c)
