"""Condition-number minimization over admissible Lyapunov matrices.

Three searches of increasing generality:

* 2x2 weighted family: closed form, the optimum is always at equal weights
  with kappa_min = (1 + alpha) / (1 - alpha).
* n-dimensional weighted family P(b) = W diag(b) W*, over all n log-weights.
* full Hermitian family at a fixed rate mu, over an unconstrained factor
  that spans exactly the admissible matrices (facial reduction in the
  eigenbasis of C; no penalty, barrier or feasibility slack).

Both numerical searches share one core, `_minimize_log_cond(P_of, gradient,
x0)`. A search passes two plain functions of its real unknowns x: P_of(x),
the Hermitian P at x, and gradient(x, lam, U, g), the gradient in x of a
function whose gradient in P is U diag(g) U*, where P = U diag(lam) U*. The
core owns the rest: one `eigh` per evaluated point; the smoothing of
log lambda_max(P) - log lambda_min(P) by log-sum-exp at a temperature tau
(`_smoothed`: the value and g, its gradient in the eigenvalues, since
d lambda_i = u_i* dP u_i; Lewis & Overton, Acta Numerica 1996); the
evaluation count; the best point and the converged flag. A small numpy BFGS
(`_bfgs`: dense inverse Hessian H, backtracking Armijo line search; Nocedal &
Wright, Numerical Optimization, ch. 3 and 6) runs once per temperature down
the continuation TAUS, each stage with the H the last one ended with; a line
search that fails along -H g drops H and retries once along -g. Where a
stage starts (the last end, or a secant predictor; Allgower & Georg,
Numerical Continuation Methods, 1990), and why the ladder may end before the
last tau, once the smoothing is exact, `_minimize_log_cond` tells. The point
with the smallest exact kappa wins. The weight search runs on the Gram form
diag(sqrt b) W*W diag(sqrt b), which has the spectrum of W diag(b) W* and
costs no complex matrix product per evaluation; kappa is invariant along the
all-ones direction of the log-weights, so no weight is pinned. For the 2 n^2
factor entries of the admissible search the O(d^2) update and step match
one evaluation at n = 12 and cost five at n = 16.

In the log-weights x of the weight search, log kappa and every smoothed
stage are convex: with P(x) = sum_j e^{x_j} w_j w_j*, log lambda_max(P(x))
and tau log sum_i lambda_i^(1/tau), the log of a Schatten norm, are suprema
of log-sum-exps of x, and -log lambda_min = log lambda_max(P(x)^-1), where
P(x)^-1 = sum_j e^{-x_j} v_j v_j*, V = W^-*, has the same form in -x. Over the
admissible family kappa is quasiconvex in P (lambda_max is convex,
lambda_min concave; Braatz & Morari 1994). So one start suffices and there
is no spurious local minimum for heavy smoothing to carry the search past.
The continuation therefore takes five stages, tau = 1e-3, 1e-5, 1e-7, 1e-9,
1e-10: at the first the smoothed objective is at most 2 tau log n <= 0.0056
above log kappa for n <= 16, close enough that the later stages only
polish. The module needs numpy only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _HOMES
from .errors import DefectiveInput
from .lyapunov import LyapunovMatrix, certificate_from_p
from .spectral import Canonical2DForm, as_complex_matrix, coincidence_tol, eigendecompose

__all__ = _HOMES["condopt"]

#: smoothing temperatures of the continuation; the smoothed objective exceeds
#: log kappa by at most 2 tau log n, 0.0056 at the first stage for n <= 16
TAUS = np.array([1e-3, 1e-5, 1e-7, 1e-9, 1e-10])

#: a stage converges once the gradient is below GTOL_SCALE sqrt(eps/tau):
#: with curvature up to 1/tau, a smaller gradient promises a decrease that the
#: rounding of log kappa hides from the line search
GTOL_SCALE = 0.5

#: BFGS iterations allowed per continuation stage; each iteration is one
#: backtracking line search, so a stage may spend more evaluations than this
STAGE_MAXITER = 1000

#: sufficient-decrease (Armijo) constant of the line search
ARMIJO_C1 = 1e-4

#: evaluations one line search may spend before it gives up
LINESEARCH_MAXEV = 20

_EPS = np.finfo(float).eps


@dataclass
class WeightOptimum:
    """Best weights; converged is False if any search stage ended with its
    gradient above tolerance (no acceptable line-search step along -g, after
    one along -H g failed, or STAGE_MAXITER reached), nfev sums the
    evaluations over the stages."""

    weights: np.ndarray
    kappa: float
    kappa_equal: float
    converged: bool
    nfev: int


@dataclass
class AdmissibleOptimum:
    P: LyapunovMatrix
    kappa: float
    residual: float
    converged: bool
    nfev: int


def minimize_kappa_2d(form: Canonical2DForm) -> WeightOptimum:
    """Optimal weights for the 2x2 projector family: equal, by symmetry.

    kappa(P(b)) depends on b only through trace(P) = b + 1/b while det(P) is
    fixed at 1 - alpha^2, so the minimum sits at b = 1 with kappa =
    (1 + alpha)/(1 - alpha). Only perfbench's certify-2x2 workload calls it;
    ROADMAP item 8 removes it with that benchmark change.
    """
    return WeightOptimum(
        weights=np.array([1.0, 1.0]),
        kappa=form.kappa_min,
        kappa_equal=form.kappa_min,
        converged=True,
        nfev=0,
    )


def _smoothed(lam: np.ndarray, tau: float):
    """The tau-smoothed log kappa of a positive definite P with eigenvalues
    lam, and g: its gradient in P is U diag(g) U*, U the eigenvectors.

    Log-sum-exp of the log-eigenvalues from above and from below; it exceeds
    log kappa by at most 2 tau log n.
    """
    z = np.log(lam) / tau
    hi = np.exp(z - z[-1])
    lo = np.exp(z[0] - z)
    hi_sum, lo_sum = hi.sum(), lo.sum()
    value = math.log(lam[-1] / lam[0]) + tau * math.log(hi_sum * lo_sum)
    hi /= hi_sum
    hi -= lo / lo_sum
    hi /= lam
    return value, hi


def _smoothing_is_exact(lam: np.ndarray, tau: float) -> bool:
    """True if every weight exp((ell_i - ell_n) / tau), i < n, and exp((ell_1 -
    ell_i) / tau), i > 1, ell = log lam, is 0.0: then _smoothed is exact."""
    z = np.log(lam) / tau
    return not (np.exp(z[:-1] - z[-1]).any() or np.exp(z[0] - z[1:]).any())


def _cubic_min(a, fa, da, b, fb, db):
    """Minimizer of the cubic through (a, fa) and (b, fb) with slopes da and
    db (Nocedal & Wright, eq. 3.59); nan if the cubic has none."""
    d1 = da + db - 3.0 * (fa - fb) / (a - b)
    disc = d1 * d1 - da * db
    if not disc >= 0.0:
        return math.nan
    d2 = math.copysign(math.sqrt(disc), b - a)
    return b - (b - a) * (db + d2 - d1) / (db - da + 2.0 * d2)


def _backtrack(fun, x, f0, g0, d, step):
    """A step along the descent direction d with sufficient decrease,
    f <= f0 + ARMIJO_C1 step g0.d: (x, f, g) at the step, or None once
    LINESEARCH_MAXEV trials fail or the step falls below the rounding of x.

    After a rejection the next step is the minimizer of the cubic through the
    values and slopes at 0 and at the trial, clipped to [0.1, 0.5] of the
    trial step, or half the step if the cubic has none or the value is
    infinite (Nocedal & Wright, section 3.5).
    """
    slope0 = float(g0 @ d)
    for _ in range(LINESEARCH_MAXEV):
        xt = x + step * d
        f, g = fun(xt)
        if f <= f0 + ARMIJO_C1 * step * slope0:
            return xt, f, g
        trial = _cubic_min(0.0, f0, slope0, step, f, float(g @ d)) if f < math.inf else math.nan
        step = min(max(trial, 0.1 * step), 0.5 * step) if math.isfinite(trial) else 0.5 * step
        if step <= _EPS * np.abs(x).max() / np.abs(d).max():
            return None
    return None


def _bfgs(fun, x, gtol: float, maxiter: int, H):
    """Minimize fun(x) -> (value, gradient) by BFGS with the dense inverse
    Hessian H (None: no curvature known yet), updated in place.

    Each iteration line-searches along -H g from step 1; H starts at
    (s.y / y.y) I on the first pair with s.y > 0 (Nocedal & Wright, eq. 6.20)
    and takes the rank-2 update [s, Hy] M [s, Hy]^T of eq. 6.17. The search
    does not enforce s.y > 0; a pair without it skips the update, so H stays
    positive definite. No step along -H g drops H and retries once along -g,
    from step min(1, 1/|g|). Returns (x, converged, H): converged means
    |g|_inf <= gtol, which no step along -g, or maxiter, leaves unmet.
    """
    f, g = fun(x)
    for _ in range(maxiter):
        if np.abs(g).max() <= gtol:
            return x, True, H
        found = None if H is None else _backtrack(fun, x, f, g, -(H @ g), 1.0)
        if found is None:
            H = None
            found = _backtrack(fun, x, f, g, -g, min(1.0, 1.0 / np.linalg.norm(g)))
            if found is None:
                return x, False, H
        x_new, f, g_new = found
        s, y = x_new - x, g_new - g
        sy = float(s @ y)
        if sy > 0.0:
            if H is None:
                H = (sy / float(y @ y)) * np.eye(len(x))
            Hy = H @ y
            rho = 1.0 / sy
            B = np.array([s, Hy])
            H += B.T @ (np.array([[rho + rho * rho * float(y @ Hy), -rho], [-rho, 0.0]]) @ B)
        x, g = x_new, g_new
    return x, bool(np.abs(g).max() <= gtol), H


def _minimize_log_cond(P_of, gradient, x0: np.ndarray):
    """Minimize kappa(P_of(x)) by BFGS on the smoothed log kappa, once per
    temperature in TAUS, each stage with the inverse Hessian the last one
    ended with (none at the first stage, or after a stage whose search along
    -H g failed and dropped it).

    P_of(x) is the Hermitian P at x, and gradient(x, lam, U, g) the gradient
    in x of a function whose gradient in P is U diag(g) U*, where P = U
    diag(lam) U*. Each evaluation is one eigh of P_of(x), counted in nfev.
    A stage starts on the point the last stage ended with, its last
    evaluation, whose eigh is re-smoothed at the new tau (and still counted).
    But from the third stage on, if the two stages before ended on different
    points x1 and x2, at tau1 and tau2, the stage starts on the secant
    prediction x2 + (x2 - x1) (tau - tau2) / (tau2 - tau1) instead, whose
    eigh is the stage's first evaluation; where P is not positive definite it
    is dropped, its eigh still counted, and the stage starts on x2. No stage
    runs after one that converged on its last evaluation, at a positive
    definite P, when the next stage would start there (the first stage, or one
    that did not move) and the smoothing there is exact: every later stage
    would evaluate that point once and stop, so only nfev changes. Returns
    (x, kappa, kappa_at_x0, nfev, converged): the evaluated point with the
    smallest exact kappa. A stage that ends without reaching its gradient
    tolerance clears converged, and so does a P that is not positive definite
    at a point a stage evaluates: the search met the edge of the domain,
    where the smoothed objective no longer describes kappa.
    """
    # the last evaluated point and its eigh; the first stage starts at x0
    last, (lam, U) = x0, np.linalg.eigh(P_of(x0))
    kappa_at_x0 = lam[-1].item() / lam[0].item() if lam[0] > 0.0 else math.inf
    best, kappa, nfev, converged = x0, kappa_at_x0, 0, True

    def fun(x, tau):
        nonlocal last, lam, U, best, kappa, nfev, converged
        nfev += 1
        # a stage returns the very array it evaluated, and no x is written in
        # place, so the same object is the same point
        if x is not last:
            last, (lam, U) = x, np.linalg.eigh(P_of(x))
        lam_min = lam[0].item()
        if not lam_min > 0.0:
            converged = False
            return math.inf, np.zeros_like(x)
        kappa_x = lam[-1].item() / lam_min
        if kappa_x < kappa:
            best, kappa = x.copy(), kappa_x
        value, g = _smoothed(lam, tau)
        return value, gradient(x, lam, U, g)

    x, H, ends = x0, None, []
    for k, tau in enumerate(TAUS):
        if k >= 2 and ends[-1] is not ends[-2]:
            x1, x2 = ends[-2:]
            guess = x2 + (x2 - x1) * ((tau - TAUS[k - 1]) / (TAUS[k - 1] - TAUS[k - 2]))
            lam_g, U_g = np.linalg.eigh(P_of(guess))
            if lam_g[0] > 0.0:
                # the stage's first evaluation reuses this eigh
                x, last, lam, U = guess, guess, lam_g, U_g
            else:
                nfev += 1
        x, stage_converged, H = _bfgs(lambda x: fun(x, tau), x,
                                      GTOL_SCALE * math.sqrt(_EPS / tau), STAGE_MAXITER, H)
        converged &= stage_converged
        ends.append(x)
        # every later stage would start on x, see the same value and gradient, and stop
        if stage_converged and x is last and lam[0] > 0.0 and (k == 0 or x is ends[-2]) \
                and _smoothing_is_exact(lam, tau):
            break
    return best, kappa, kappa_at_x0, nfev, converged


def minimize_kappa_weights(W) -> WeightOptimum:
    """Minimize kappa(W diag(b) W*) over positive weights b, with b[0] = 1.

    One search in all n log-weights x = log b from equal weights, reported as
    exp(x - x[0]): kappa is scale invariant, so no weight is pinned and a
    permutation of W's columns only permutes the coordinates; kappa_equal is
    the kappa of its first point. The search runs on the Gram form S Gamma S,
    Gamma = W* W formed once and S = diag(sqrt b): it is (W S)* (W S), so it
    has the spectrum of W diag(b) W* = (W S)(W S)*, and an evaluation needs
    no n x n complex product. Weights are rescaled afterwards to the
    smallest-denominator presentation when they sit within 1e-3 of one.
    Raises DefectiveInput if no evaluated P is positive definite.
    """
    W = as_complex_matrix(W)
    gram = W.conj().T @ W

    def P_of(x):
        s = np.exp(0.5 * x)
        return s[:, None] * s * gram

    def gradient(x, lam, U, g):
        # dP/dx_j = (E_j P + P E_j) / 2 with E_j = e_j e_j^T, so the derivative
        # of eigenvalue i is lam_i |U_ji|^2; the entries sum to zero
        return np.abs(U) ** 2 @ (lam * g)

    x, kappa, kappa_equal, nfev, converged = _minimize_log_cond(P_of, gradient, np.zeros(len(W)))
    if not np.isfinite(kappa):
        raise DefectiveInput("the adjoint eigenvectors are numerically dependent")
    return WeightOptimum(weights=_nice_rescale(np.exp(x - x[0])), kappa=kappa,
                         kappa_equal=kappa_equal, converged=converged, nfev=nfev)


def _nice_rescale(b: np.ndarray) -> np.ndarray:
    """Scale weights by the smallest integer q <= 12 that makes them all
    near-integers (within 1e-3 relative), all q tried in one (12, n) array."""
    with np.errstate(over="ignore", invalid="ignore"):
        cand = np.arange(1, 13)[:, None] * b
        near = np.all(np.abs(cand - np.round(cand)) <= 1e-3 * np.maximum(1.0, cand), axis=1)
    return cand[near.argmax()] if near.any() else b


def _slow(lam: np.ndarray, mu: float) -> np.ndarray:
    """Mask of the eigenvalues whose real part coincides with mu."""
    return np.abs(lam.real - mu) <= coincidence_tol(lam)


def _admissible_kernel(lam: np.ndarray, mu: float) -> np.ndarray:
    """Kinv with P = W ((G G*) o Kinv) W* spanning the admissible P at rate mu.

    With lam' = lam - mu and K_ij = conj(lam'_i) + lam'_j, P = W X W* has
    residual matrix C*P + PC - 2 mu P = W (X o K) W*. It is PSD iff X o K is,
    and X o K vanishes on every slow row and column (K_ii = 0 there). Kinv is
    1/K on pairs of fast eigenvalues, whose block 1/K is a Gram matrix of
    e^{-lam' t} and so positive definite; 1 on pairs of equal slow
    eigenvalues, where X is free; 0 elsewhere, where X must vanish.
    """
    shifted = lam - mu
    tol = coincidence_tol(lam)
    slow = _slow(lam, mu)
    fast_pair = ~slow[:, None] & ~slow[None, :]
    same_slow = slow[:, None] & slow[None, :] & (np.abs(lam[:, None] - lam[None, :]) <= tol)
    K = shifted.conj()[:, None] + shifted[None, :]
    return np.where(fast_pair, 1.0 / np.where(fast_pair, K, 1.0), same_slow.astype(float))


def minimize_kappa_admissible(C, mu: float, seed_P) -> AdmissibleOptimum:
    """Minimize kappa(P) over all Hermitian P admissible at rate mu.

    Facial reduction in the eigenbasis C = V diag(lam) W* of eigendecompose:
    every admissible P is P(G) = W ((G G*) o Kinv) W* for some complex n x n
    G, and every G gives an admissible P (see _admissible_kernel). At mu equal
    to the spectral gap this pins the residual to zero on the slow
    eigenvectors exactly, so the search runs over unconstrained G from the
    factor of seed_P. The returned P is trace-normalized to n. Raises
    DefectiveInput from eigendecompose for a defective C, or NotAdmissible
    unless seed_P is admissible at mu.
    """
    data = eigendecompose(C)
    C, n = data.matrix, data.n
    seed = certificate_from_p(C, seed_P, mu).matrix

    lam, V, W = data.eigenvalues, data.right_vectors, data.left_vectors
    Wh = W.conj().T
    kinv = _admissible_kernel(lam, mu)
    kinv_t = kinv.T
    # the seed's factor: seed = W (Z o Kinv) W*, Z = (V* seed V) / Kinv on the support
    Z = V.conj().T @ seed @ V
    Z = np.divide(Z, kinv, out=np.zeros_like(Z), where=kinv != 0.0)
    ez, uz = np.linalg.eigh((Z + Z.conj().T) / 2.0)
    G0 = uz * np.sqrt(np.maximum(ez, 0.0))

    def pack(G):
        return np.concatenate([G.real.ravel(), G.imag.ravel()])

    def unpack(x):
        return x[:n * n].reshape(n, n) + 1j * x[n * n:].reshape(n, n)

    def P_of(x):
        G = unpack(x)
        return W @ ((G @ G.conj().T) * kinv) @ Wh

    def gradient(x, lam, U, g):
        # d value = Re tr(B dX) with B = W* U diag(g) U* W and dX = (dG G* + G dG*) o Kinv
        return pack(2.0 * ((Wh @ ((U * g) @ U.conj().T) @ W) * kinv_t) @ unpack(x))

    x, _, _, nfev, converged = _minimize_log_cond(P_of, gradient, pack(G0))
    P = P_of(x)
    P = (P + P.conj().T) * (n / (2.0 * np.trace(P).real))
    best = LyapunovMatrix(matrix=P)
    return AdmissibleOptimum(P=best, kappa=best.kappa,
                             residual=certificate_from_p(C, best, mu).residual,
                             converged=converged, nfev=nfev)
