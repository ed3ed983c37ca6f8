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

#: the two families, in the row order of family_envelope's rates
_DIRECTIONS = ("upper", "lower")


def _ends(form: Canonical2DForm):
    """((mu_s, mu), (nu, nu_s)): the rate range of each family."""
    return (form.mu_s, form.mu), (form.nu, form.nu_s)


def _family(form: Canonical2DForm, rates, direction: str | None = None):
    """(beta0, beta~, kappa, constant) at rates: at a float for the named
    direction, on Python floats; or, with direction None, on the (2, n) array
    of _rate_grid, whose row 0 holds rates of the upper family and row 1 rates
    of the lower one. RateOutOfRange unless every rate lies in its family's
    range widened by form.rounding_tol, by which mu_s and mu (nu and nu_s) of
    a normal C cross. Each row of the grid runs from one end of its range to
    the other, so only the row's first and last rates are checked, on Python
    floats: a row with a rate outside, or a NaN, has its first rate outside."""
    scalar = direction is not None
    sqrt, maximum, minimum, where = _FLOAT_OPS if scalar else _ARRAY_OPS
    if scalar:
        upper = direction == "upper"
        lo, hi = (form.mu_s, form.mu) if upper else (form.nu, form.nu_s)
        checks = [(direction, rates, lo, hi)]
    else:
        upper = np.array([[True], [False]])
        ends = _ends(form)
        lo, hi = np.array(ends).T[:, :, None]  # (2, 1) columns
        checks = [(name, rate, *range_)
                  for name, range_, row in zip(_DIRECTIONS, ends, rates[:, [0, -1]].tolist())
                  for rate in row]
    tol = form.rounding_tol
    for name, rate, low, high in checks:
        if not low - tol <= rate <= high + tol:  # False for NaN
            raise RateOutOfRange(f"rate {rate} outside [{low}, {high}] for the {name} family")
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
    d01 = d0 + d1
    dist2 = d01 * d01 + dim2
    beta0 = minimum(sqrt(maximum(4.0 * d0 * d1, 0.0) / dist2), 1.0)
    bt = maximum(-a, -beta0)
    # where beta~ = -beta0: 1 + beta~ = (1 - beta0^2)/(1 - beta~), 1 - beta0^2 = gap2/dist2
    one_bt = 1.0 - bt
    kappa = where(bt > -a, (1.0 + a) * (gap2 / dist2) / ((1.0 - a) * one_bt * one_bt), 1.0)
    root = sqrt(kappa)
    return beta0, bt, kappa, where(upper, root, 1.0 / root)


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
    the points (rates_i, logc_i). Sorted by rate, with only the smallest logc
    of equal rates kept, the points form a chain; rates that already strictly
    increase, as a row of the rate grid does, are that chain as given, and
    are neither sorted nor deduplicated. Each round drops every
    vertex whose two edge slopes do not increase, that is every vertex on or
    above the chord of its neighbours, until the slopes strictly increase.
    A dropped vertex lies on or above a segment between two points of the
    set, so it is no vertex of the hull. A chain whose drops expose new
    non-convex vertices takes one round per exposure; the points of a rate
    family took at most three rounds on every form tried, normal, nearly
    normal and at scales 1e-300 to 1e300, up to 20000 rates. Vertex k wins for t
    between the slopes of its two edges, so one searchsorted on the slopes
    finds each time's winner. A slope beyond the float range is inf, with
    numpy's overflow warning unless the caller ignores it.
    """
    if (rates[1:] > rates[:-1]).all():
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
        if convex.all():
            return hull[np.searchsorted(slopes, ts)]
        keep = np.concatenate(([True], convex, [True]))
        hull, r, ell = hull[keep], r[keep], ell[keep]


def _rate_grid(form: Canonical2DForm, n_rates: int) -> np.ndarray:
    """Rates of shape (2, n_rates): row 0 spans the upper family's range and
    row 1 the lower family's, each bit for bit np.linspace of its ends.

    Each row follows np.linspace's own rule: i * step, or (i / div) * delta
    where the step underflows to zero. np.linspace over the stacked ends
    would take the second form on both rows once either step is zero; with
    both steps nonzero, the rows are formed in one expression.
    """
    i = np.arange(n_rates, dtype=float)
    div = max(n_rates - 1, 1)
    ends = _ends(form)
    lo, hi = np.array(ends).T
    steps = (hi - lo) / div
    if steps.all():
        grid = i * steps[:, None] + lo[:, None]
    else:
        grid = np.empty((2, n_rates))
        for row, (low, high), step in zip(grid, ends, steps.tolist()):
            if step == 0.0:
                np.multiply(i / div, high - low, out=row)
            else:
                np.multiply(i, step, out=row)
            row += low
    if n_rates > 1:
        grid[:, -1] = hi
    return grid


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
    fastest rate down so that its abscissae increase. Both families are
    evaluated in one call on their stacked rates.
    """
    if n_rates < 1:
        raise ValueError("n_rates must be at least 1")
    ts = np.atleast_1d(np.asarray(times, dtype=float))
    rates = _rate_grid(form, n_rates)
    consts = _family(form, rates)[3]
    logc = np.log(consts)
    # a slope between rates of subnormal spacing, and e^{-r t} at a negative
    # rate, may grow past the float range: inf
    with np.errstate(over="ignore"):
        # winners as indices into the flattened (2, n_rates) arrays, one row per
        # family; the lower family's are counted back from the end of its row
        wins = np.concatenate((_lower_envelope(rates[0], logc[0], ts),
                               2 * n_rates - 1 - _lower_envelope(-rates[1, ::-1], -logc[1, ::-1], ts))
                              ).reshape(2, -1)
        upper, lower = consts.take(wins) * np.exp(-rates.take(wins) * ts)
    return FamilyEnvelope(times=ts, upper=upper, lower=lower,
                          upper_rates=rates[0], lower_rates=rates[1],
                          upper_constants=consts[0], lower_constants=consts[1])
