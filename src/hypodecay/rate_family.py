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
from .spectral import Canonical2DForm

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


def _beta0(form: Canonical2DForm, rate: float) -> float:
    lam = form.eigenvalues
    num = 4.0 * (lam[0].real - rate) * (lam[1].real - rate)
    den = abs(lam[0] + np.conj(lam[1]) - 2.0 * rate) ** 2
    if den < 1e-30:
        return 1.0
    return float(np.clip(np.sqrt(max(num, 0.0) / den), 0.0, 1.0))


def _kappa_min(alpha: float, beta_tilde: float) -> float:
    q = (1.0 - alpha * alpha) * (1.0 - beta_tilde * beta_tilde) \
        / (1.0 + alpha * beta_tilde) ** 2
    s = np.sqrt(max(1.0 - q, 0.0))
    if s >= 1.0:
        raise RateOutOfRange("condition number diverges at this rate")
    return float((1.0 + s) / (1.0 - s))


def _bound(form: Canonical2DForm, rate: float, lo: float, hi: float,
           direction: str) -> FamilyBound:
    scale = max(1.0, float(np.abs(form.eigenvalues).max()))
    slack = RANGE_RTOL * scale
    if not lo - slack <= rate <= hi + slack:
        raise RateOutOfRange(
            f"rate {rate} outside [{lo}, {hi}] for the {direction} family")
    b0 = _beta0(form, float(np.clip(rate, lo, hi)))
    bt = max(-form.alpha, -b0)
    kappa = _kappa_min(form.alpha, bt)
    c = np.sqrt(kappa) if direction == "upper" else 1.0 / np.sqrt(kappa)
    return FamilyBound(rate=float(rate), constant=float(c), direction=direction,
                       beta0=b0, beta_tilde=bt, kappa=kappa)


def upper_bound_constant(form: Canonical2DForm, mu_tilde: float) -> FamilyBound:
    """Smallest certified constant for the rate mu_tilde in [mu_s, mu]."""
    return _bound(form, mu_tilde, form.mu_s, form.mu, "upper")


def lower_bound_constant(form: Canonical2DForm, nu_tilde: float) -> FamilyBound:
    """Largest certified constant for the rate nu_tilde in [nu, nu_s]."""
    return _bound(form, nu_tilde, form.nu, form.nu_s, "lower")


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
    up_c = np.array([upper_bound_constant(form, r).constant for r in up_rates])
    lo_c = np.array([lower_bound_constant(form, r).constant for r in lo_rates])
    # e^{-rt} overflows for rates far below 0; the r = mu member keeps the min finite
    with np.errstate(over="ignore"):
        upper = np.min(up_c[:, None] * np.exp(-np.outer(up_rates, ts)), axis=0)
    lower = np.max(lo_c[:, None] * np.exp(-np.outer(lo_rates, ts)), axis=0)
    return FamilyEnvelope(times=ts, upper=upper, lower=lower,
                          upper_rates=up_rates, lower_rates=lo_rates,
                          upper_constants=up_c, lower_constants=lo_c)
