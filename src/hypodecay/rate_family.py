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

family_envelope samples each family at np.linspace of its range and
evaluates both families in one array call, on the two rows of rates joined,
with the same IEEE operations that a single rate runs on Python floats, so a
member of the envelope and the single-rate call at its rate agree bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _HOMES
from .errors import RateOutOfRange
from .spectral import Canonical2DForm, _pow2_scale

__all__ = _HOMES["rate_family"]


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


def _clamp(form: Canonical2DForm, rate: float, upper: bool) -> float:
    """rate clipped to the upper family's range [mu_s, mu], or the lower one's
    [nu, nu_s]; RateOutOfRange beyond it by more than form.rounding_tol, by
    which mu_s and mu (nu and nu_s) of a normal C cross."""
    name, lo, hi = ("upper", form.mu_s, form.mu) if upper else ("lower", form.nu, form.nu_s)
    if not lo - form.rounding_tol <= rate <= hi + form.rounding_tol:  # False for NaN
        raise RateOutOfRange(f"rate {rate} outside [{lo}, {hi}] for the {name} family")
    return min(max(rate, lo), hi)


def _family(form: Canonical2DForm, rates):
    """(beta0, beta~, kappa) at rates already in their family's range: a
    Python float, evaluated on Python floats, or a 1-D row, on arrays."""
    scalar = isinstance(rates, float)
    sqrt, maximum, minimum, where = _FLOAT_OPS if scalar else _ARRAY_OPS
    a = form.alpha
    if form.scalar:  # beta0 = 1 and c = 1
        one = 1.0 if scalar else np.ones_like(rates)
        return one, -a * one, one
    # beta0 and kappa have degree 0 in (lambda, r): a power of two takes both to
    # unit scale exactly, so no square below under- or overflows
    parts = form.eigenvalues.view(float).tolist()
    scale = _pow2_scale(max(map(abs, parts)))[0]
    (re0, im0, re1, im1), r = (x * scale for x in parts), rates * scale
    dim2 = (im1 - im0) * (im1 - im0)
    gap2 = (re1 - re0) * (re1 - re0) + dim2
    d0, d1 = re0 - r, re1 - r
    # |lam_1 + conj(lam_2) - 2r|^2 >= gap2 > 0; on both ranges d0 and d1 share
    # a sign, so d0 + d1 does not cancel
    d01 = d0 + d1
    dist2 = d01 * d01 + dim2
    beta0 = minimum(sqrt(maximum(4.0 * d0 * d1, 0.0) / dist2), 1.0)
    bt = maximum(-a, -beta0)
    # where beta~ = -beta0: 1 + beta~ = (1 - beta0^2)/(1 - beta~), 1 - beta0^2 = gap2/dist2
    one_bt = 1.0 - bt
    kappa = where(bt > -a, (1.0 + a) * (gap2 / dist2) / ((1.0 - a) * one_bt * one_bt), 1.0)
    return beta0, bt, kappa


def _member(form: Canonical2DForm, rate: float, direction: str) -> FamilyBound:
    rate, upper = float(rate), direction == "upper"
    beta0, bt, kappa = _family(form, _clamp(form, rate, upper))
    root = math.sqrt(kappa)
    return FamilyBound(rate=rate, constant=root if upper else 1.0 / root, direction=direction,
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
    the points (rates_i, logc_i). Sorted by rate, with only the smallest logc
    of equal rates kept, the points form a chain; rates that already strictly
    increase are that chain as given, and are neither sorted nor
    deduplicated. Each round drops every vertex whose two edge slopes do not
    increase, that is every vertex on or above the chord of its neighbours,
    until the slopes strictly increase.
    A dropped vertex lies on or above a segment between two points of the
    set, so it is no vertex of the hull. A chain whose drops expose new
    non-convex vertices takes one round per exposure; on perfbench's batch_2x2
    seeds 1-40, all 2720 family rows whose rates increase took one round, and
    the other 160, each of one repeated rate, took the sort path. Vertex k
    wins for t between the slopes of its two edges, so one searchsorted on the
    slopes finds each time's winner. A slope beyond the float range is inf,
    with numpy's overflow warning unless the caller ignores it.
    """
    if np.count_nonzero(rates[1:] > rates[:-1]) == len(rates) - 1:
        hull, r, ell = np.arange(len(rates)), rates, logc
    else:
        order = np.lexsort((logc, rates))
        r = rates[order]
        first = np.empty(len(r), dtype=bool)
        first[0] = True
        np.not_equal(r[1:], r[:-1], out=first[1:])
        hull = order[first]
        r, ell = r[first], logc[hull]
    while True:
        slopes = (ell[1:] - ell[:-1]) / (r[1:] - r[:-1])
        convex = slopes[1:] > slopes[:-1]
        if np.count_nonzero(convex) == len(convex):
            return hull[np.searchsorted(slopes, ts)]
        keep = np.concatenate(([True], convex, [True]))
        hull, r, ell = hull[keep], r[keep], ell[keep]


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
    envelope is the same construction on (-r_i, -log c_i), read from the
    fastest rate down so that its abscissae increase. One call evaluates both
    families, on the upper family's rates followed by the lower family's.
    """
    if n_rates < 1:
        raise ValueError("n_rates must be at least 1")
    ts = np.atleast_1d(np.asarray(times, dtype=float))
    rates = np.concatenate((np.linspace(form.mu_s, form.mu, n_rates),
                            np.linspace(form.nu, form.nu_s, n_rates)))
    up, down = rates[:n_rates], rates[n_rates:]
    # each family's rates lie between its range's ends, where the clamp keeps
    # them; where rounding crossed a range, they lie above its upper end, to
    # which the clamp takes them all
    ends = rates[[0, n_rates - 1, n_rates, -1]].tolist()
    clamped = [_clamp(form, x, k < 2) for k, x in enumerate(ends)]
    at = rates if clamped == ends else np.minimum(rates, np.repeat(clamped[1::2], n_rates))
    c = np.sqrt(_family(form, at)[2])
    c[n_rates:] = 1.0 / c[n_rates:]
    logc = np.log(c)
    # a slope between rates of subnormal spacing, and e^{-r t} at a negative
    # rate, may grow past the float range: inf
    with np.errstate(over="ignore"):
        i = _lower_envelope(up, logc[:n_rates], ts)
        # the lower family's winners, counted back from the end of the row
        j = 2 * n_rates - 1 - _lower_envelope(-down[::-1], -logc[n_rates:][::-1], ts)
        k = np.array((i, j))
        upper, lower = c[k] * np.exp(-rates[k] * ts)
    return FamilyEnvelope(upper=upper, lower=lower,
                          upper_rates=up, lower_rates=down,
                          upper_constants=c[:n_rates], lower_constants=c[n_rates:])
