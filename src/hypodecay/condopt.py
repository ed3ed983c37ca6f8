"""Condition-number minimization over admissible Lyapunov matrices.

Three searches of increasing generality:

* 2x2 weighted family: closed form, the optimum is always at equal weights
  with kappa_min = (1 + alpha) / (1 - alpha).
* n-dimensional weighted family P(b) = W diag(b) W*, over log-weights.
* full Hermitian family at a fixed rate mu, over an unconstrained factor
  that spans exactly the admissible matrices (facial reduction in the
  eigenbasis of C; no penalty, barrier or feasibility slack).

Both numerical searches share one core, `_minimize_log_cond`. It minimizes
log lambda_max(P) - log lambda_min(P), smoothed by log-sum-exp at a
temperature tau, with analytic gradients d lambda_i = u_i* dP u_i from one
`eigh` per evaluated point (Lewis & Overton, Acta Numerica 1996). A small numpy
BFGS (`_bfgs`: dense inverse Hessian H, backtracking Armijo line search;
Nocedal & Wright, Numerical Optimization, ch. 3 and 6) runs once per
temperature down the continuation TAUS, each stage from the point and the H
the last one ended with; a line search that fails along -H g drops H and
retries once along -g. The point with the smallest exact kappa wins. The
O(d^2) update is cheap next to an evaluation for the n - 1 weights, and
outweighs one for the 2 n^2 factor entries of the admissible search above n
of about 12. kappa is quasiconvex on both families (lambda_max is convex,
lambda_min concave; Braatz & Morari 1994), so one start suffices. The
module needs numpy only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DefectiveInput
from .lyapunov import LyapunovMatrix, certificate_from_p
from .spectral import Canonical2DForm, as_complex_matrix, coincidence_tol, eigendecompose

__all__ = [
    "WeightOptimum",
    "AdmissibleOptimum",
    "minimize_kappa_2d",
    "minimize_kappa_weights",
    "minimize_kappa_admissible",
]

#: smoothing temperatures of the continuation; the smoothed objective exceeds
#: log kappa by at most 2 tau log n
TAUS = 10.0 ** -np.arange(1.0, 11.0)

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
    fixed at 1 - alpha^2, so the minimum sits at b = 1 with
    kappa = (1 + alpha) / (1 - alpha).
    """
    return WeightOptimum(
        weights=np.array([1.0, 1.0]),
        kappa=form.kappa_min,
        kappa_equal=form.kappa_min,
        converged=True,
        nfev=0,
    )


def _smoothed_log_cond(P: np.ndarray, x: np.ndarray, gradient):
    """tau -> (value, grad, kappa) at the point x, from one eigh of its
    Hermitian P: the tau-smoothed log kappa of P, its gradient in x and the
    exact kappa.

    Log-sum-exp of the log-eigenvalues from above and from below, whose
    gradient with respect to P is U diag(g) U*. gradient(U) returns the map
    from g to the gradient in x, so its part free of tau runs once for every
    temperature. The value is infinite and the gradient zero unless P is
    positive definite.
    """
    lam, U = np.linalg.eigh(P)
    if lam[0] <= 0.0:
        return lambda tau: (np.inf, np.zeros_like(x), np.inf)
    ell = np.log(lam)
    kappa = float(lam[-1] / lam[0])
    to_x = gradient(U)

    def at(tau):
        hi = np.exp((ell - ell[-1]) / tau)
        lo = np.exp((ell[0] - ell) / tau)
        hi_sum, lo_sum = hi.sum(), lo.sum()
        value = ell[-1] - ell[0] + tau * (math.log(hi_sum) + math.log(lo_sum))
        return value, to_x((hi / hi_sum - lo / lo_sum) / lam), kappa
    return at


@dataclass
class _Search:
    x: np.ndarray
    kappa: float
    kappa_start: float
    nfev: int
    converged: bool


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
    from step min(1, 1/|g|). Returns (x, evaluations, converged, H): converged
    means |g|_inf <= gtol, which no step along -g, or maxiter, leaves unmet.
    """
    nfev = 0

    def counted(x):
        nonlocal nfev
        nfev += 1
        return fun(x)

    f, g = counted(x)
    for _ in range(maxiter):
        if np.abs(g).max() <= gtol:
            return x, nfev, True, H
        found = None if H is None else _backtrack(counted, x, f, g, -(H @ g), 1.0)
        if found is None:
            H = None
            found = _backtrack(counted, x, f, g, -g, min(1.0, 1.0 / np.linalg.norm(g)))
            if found is None:
                return x, nfev, False, H
        x_new, f, g_new = found
        s, y = x_new - x, g_new - g
        sy = float(s @ y)
        if sy > 0.0:
            if H is None:
                H = (sy / float(y @ y)) * np.eye(len(x))
            Hy = H @ y
            rho = 1.0 / sy
            B = np.stack([s, Hy])
            H += B.T @ (np.array([[rho + rho * rho * float(y @ Hy), -rho], [-rho, 0.0]]) @ B)
        x, g = x_new, g_new
    return x, nfev, bool(np.abs(g).max() <= gtol), H


def _minimize_log_cond(evaluate, x0: np.ndarray) -> _Search:
    """Run BFGS once per temperature in TAUS, each stage from the point and
    the inverse Hessian the last one ended with (none at the first stage, or
    after a stage whose search along -H g failed and dropped it).

    evaluate(x) returns the point's objective as a function of tau, which
    returns (smoothed objective, gradient, exact kappa), the objective and
    kappa infinite outside the domain. Each stage starts where the last one
    ended, at a point evaluated already when that stage ended on its last
    evaluation; the function of the last evaluated point is kept, so such a
    start re-smooths it at the new tau and runs no second eigh. It still
    counts as an evaluation. The result is the evaluated point with the
    smallest exact kappa, and kappa_start is the exact kappa at x0. A stage
    that ends without reaching its gradient tolerance clears converged, and
    so does any infinite objective: the search met the edge of the domain,
    where the smoothed objective no longer describes kappa.
    """
    # (x, its objective) of the last evaluated point; the first stage starts at x0
    last = x0, evaluate(x0)
    kappa0 = last[1](TAUS[0])[2]
    best = _Search(x=x0, kappa=kappa0, kappa_start=kappa0, nfev=0, converged=True)

    def fun(x, tau):
        nonlocal last
        # a stage returns the very array it evaluated, and no x is written in
        # place, so the same object is the same point
        if x is not last[0]:
            last = x, evaluate(x)
        value, grad, kappa = last[1](tau)
        if kappa < best.kappa:
            best.x, best.kappa = x.copy(), kappa
        if not math.isfinite(value):
            best.converged = False
        return value, grad

    x, H = x0, None
    for tau in TAUS:
        x, nfev, converged, H = _bfgs(lambda x: fun(x, tau), x,
                                      GTOL_SCALE * math.sqrt(_EPS / tau), STAGE_MAXITER, H)
        best.nfev += nfev
        best.converged &= converged
    return best


def minimize_kappa_weights(W) -> WeightOptimum:
    """Minimize kappa(W diag(b) W*) over positive weights b, b[0] fixed at 1.

    One search in log-weights x = log b[1:] from equal weights (kappa is
    scale invariant, so one weight can be pinned); kappa_equal is the kappa
    of its first point. Weights are rescaled afterwards to the
    smallest-denominator presentation when they sit within 1e-3 of one.
    Raises DefectiveInput if no evaluated P is positive definite.
    """
    W = as_complex_matrix(W)
    n = W.shape[0]
    if n == 1:
        return WeightOptimum(weights=np.ones(1), kappa=1.0, kappa_equal=1.0,
                             converged=True, nfev=0)

    Wh = W.conj().T

    def evaluate(x):
        b = np.concatenate([[1.0], np.exp(x)])

        def gradient(U):
            # dP/dx_j = b_j w_j w_j*, so the derivative is b_j sum_i |w_j* u_i|^2 g_i
            overlaps = np.abs(Wh @ U) ** 2
            return lambda g: (b * (overlaps @ g))[1:]
        return _smoothed_log_cond((W * b) @ Wh, x, gradient)

    found = _minimize_log_cond(evaluate, np.zeros(n - 1))
    if not np.isfinite(found.kappa):
        raise DefectiveInput("the adjoint eigenvectors are numerically dependent")
    weights = np.concatenate([[1.0], np.exp(found.x)])
    return WeightOptimum(weights=_nice_rescale(weights), kappa=found.kappa,
                         kappa_equal=found.kappa_start, converged=found.converged,
                         nfev=found.nfev)


def _nice_rescale(b: np.ndarray, rtol: float = 1e-3, max_factor: int = 12) -> np.ndarray:
    """Scale weights by a small integer if that makes them all near-integers."""
    for q in range(1, max_factor + 1):
        cand = b * q
        if np.all(np.abs(cand - np.round(cand)) <= rtol * np.maximum(1.0, cand)):
            return cand
    return b


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
    DefectiveInput, or NotAdmissible unless seed_P is admissible at mu.
    """
    data = eigendecompose(C)
    if data.defective:
        raise DefectiveInput("the admissible search needs a full eigenbasis")
    C, n = data.matrix, data.n
    seed = seed_P if isinstance(seed_P, LyapunovMatrix) else LyapunovMatrix(matrix=seed_P)
    certificate_from_p(C, seed, mu)

    lam, V, W = data.eigenvalues, data.right_vectors, data.left_vectors
    Wh = W.conj().T
    kinv = _admissible_kernel(lam, mu)
    kinv_t = kinv.T
    # the seed's factor: seed = W (Z o Kinv) W*, Z = (V* seed V) / Kinv on the support
    Z = V.conj().T @ seed.matrix @ V
    Z = np.divide(Z, kinv, out=np.zeros_like(Z), where=kinv != 0.0)
    ez, uz = np.linalg.eigh((Z + Z.conj().T) / 2.0)
    G0 = uz * np.sqrt(np.maximum(ez, 0.0))

    def pack(G):
        return np.concatenate([G.real.ravel(), G.imag.ravel()])

    def unpack(x):
        return x[:n * n].reshape(n, n) + 1j * x[n * n:].reshape(n, n)

    def P_of(G):
        return W @ ((G @ G.conj().T) * kinv) @ Wh

    def evaluate(x):
        G = unpack(x)

        def gradient(U):
            Uh = U.conj().T
            # d value = Re tr(B dX) with B = W* U diag(g) U* W and dX = (dG G* + G dG*) o Kinv
            return lambda g: pack(2.0 * ((Wh @ ((U * g) @ Uh) @ W) * kinv_t) @ G)
        return _smoothed_log_cond(P_of(G), x, gradient)

    found = _minimize_log_cond(evaluate, pack(G0))
    P = P_of(unpack(found.x))
    P = (P + P.conj().T) * (n / (2.0 * np.trace(P).real))
    best = LyapunovMatrix(matrix=P)
    return AdmissibleOptimum(P=best, kappa=best.kappa,
                             residual=certificate_from_p(C, best, mu).residual,
                             converged=found.converged, nfev=found.nfev)
