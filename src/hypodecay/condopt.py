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
`eigh` per evaluation (Lewis & Overton, Acta Numerica 1996). A small numpy
L-BFGS (`_lbfgs`: two-loop recursion, strong-Wolfe line search) runs once
per temperature, warm-started down the continuation TAUS, and the point with
the smallest exact kappa wins. kappa is quasiconvex on both families
(lambda_max is convex, lambda_min concave; Braatz & Morari 1994), so one
start suffices. The module needs numpy only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DefectiveInput, SearchFailure
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

#: L-BFGS iterations allowed per continuation stage
STAGE_MAXITER = 1000

#: L-BFGS memory: curvature pairs kept for the inverse-Hessian estimate
LBFGS_MEMORY = 10

#: strong-Wolfe constants: sufficient decrease and curvature
WOLFE_C1 = 1e-4
WOLFE_C2 = 0.9

#: evaluations one line search may spend before it gives up
LINESEARCH_MAXEV = 20

_EPS = np.finfo(float).eps
#: mask of the upper triangle, for the matrix form of the two-loop recursion
_UPPER = np.triu(np.ones((LBFGS_MEMORY, LBFGS_MEMORY)))


@dataclass
class WeightOptimum:
    """Best weights; converged is False if any search stage ended with its
    gradient above tolerance (no acceptable line-search step, or
    STAGE_MAXITER reached), nfev sums the evaluations over the stages."""

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
    a = form.alpha
    return WeightOptimum(
        weights=np.array([1.0, 1.0]),
        kappa=(1.0 + a) / (1.0 - a),
        kappa_equal=(1.0 + a) / (1.0 - a),
        converged=True,
        nfev=0,
    )


def _kappa_of_weights(W: np.ndarray, b: np.ndarray) -> float:
    ev = np.linalg.eigvalsh((W * b) @ W.conj().T)
    if ev[0] <= 0.0:
        return np.inf
    return float(ev[-1] / ev[0])


def _smoothed_log_cond(P: np.ndarray, tau: float):
    """(value, U, g, kappa): the tau-smoothed log kappa of Hermitian P, its
    gradient U diag(g) U* with respect to P, and the exact kappa.

    Log-sum-exp of the log-eigenvalues from above and from below; value is
    infinite (and g None) unless P is positive definite.
    """
    lam, U = np.linalg.eigh(P)
    if lam[0] <= 0.0:
        return np.inf, None, None, np.inf
    ell = np.log(lam)
    hi = np.exp((ell - ell[-1]) / tau)
    lo = np.exp((ell[0] - ell) / tau)
    hi_sum, lo_sum = hi.sum(), lo.sum()
    value = ell[-1] - ell[0] + tau * (math.log(hi_sum) + math.log(lo_sum))
    g = (hi / hi_sum - lo / lo_sum) / lam
    return value, U, g, float(lam[-1] / lam[0])


@dataclass
class _Search:
    x: np.ndarray
    kappa: float
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


def _wolfe_step(fun, x, f0, g0, d, step):
    """A step along the descent direction d meeting the strong Wolfe
    conditions, or None if LINESEARCH_MAXEV evaluations find none.

    Bracketing then zooming (Nocedal & Wright, Algorithms 3.5 and 3.6) in one
    loop: lo is the best trial with sufficient decrease, hi the end of the
    bracket once one is known. Each trial is the minimizer of the cubic
    through the two ends, kept inside the bracket; bisection only when the
    cubic has no minimizer, hi is infinite, or the bracket failed to shrink
    to 2/3 over two trials (the safeguard of Moré & Thuente, ACM TOMS 1994).
    The search also fails once the bracket is narrower than the rounding of
    the largest entry of x. Returns (x, f, g) at the step.
    """
    slope0 = float(g0 @ d)
    lo = prev = (0.0, f0, slope0)
    hi = floor = None
    widths = [math.inf, math.inf]
    for _ in range(LINESEARCH_MAXEV):
        xt = x + step * d
        f, g = fun(xt)
        slope = float(g @ d)
        if not (f <= f0 + WOLFE_C1 * step * slope0 and f < lo[1]):
            hi = (step, f, slope)
        elif abs(slope) <= -WOLFE_C2 * slope0:
            return xt, f, g
        else:
            if slope * ((hi[0] if hi else math.inf) - step) >= 0.0:
                hi = lo
            prev, lo = lo, (step, f, slope)
        if hi is None:
            # still descending: extrapolate, 1.1 to 4 times the last advance
            grow = lo[0] - prev[0]
            trial = _cubic_min(*prev, *lo)
            step = lo[0] + 4.0 * grow if not math.isfinite(trial) \
                else min(max(trial, lo[0] + 1.1 * grow), lo[0] + 4.0 * grow)
            continue
        if floor is None:
            floor = _EPS * np.abs(x).max() / np.abs(d).max()
        width = abs(hi[0] - lo[0])
        if width <= floor:
            return None
        step = _cubic_min(*lo, *hi) if math.isfinite(hi[1]) else math.nan
        if not min(lo[0], hi[0]) < step < max(lo[0], hi[0]) or width > 0.66 * widths[0]:
            step = 0.5 * (lo[0] + hi[0])
        widths = [widths[1], width]
    return None


def _two_loop(S: list, Y: list, g: np.ndarray) -> np.ndarray:
    """-H g for the L-BFGS inverse Hessian H of the pairs (S[i], Y[i]),
    oldest first, with H0 = (s.y / y.y) I from the newest pair.

    The two-loop recursion (Nocedal & Wright, Algorithm 7.4) in matrix form:
    its first loop is the back substitution alpha = R^-1 S g, with R the upper
    triangle of S Y^T, and its second the forward substitution
    beta = R^-T (gamma Y q + (R^T - D) alpha), D = diag(S Y^T) (Byrd, Nocedal
    & Schnabel, Math. Program. 63, 1994). A dozen small array operations
    replace the 4k vector updates of the loops.
    """
    k = len(S)
    P = np.array(S + Y)
    G = P @ P.T
    pg = P @ g
    SY = G[:k, k:]
    R = SY * _UPPER[:k, :k]
    Rinv = np.linalg.inv(R)
    D = SY.diagonal()
    alpha = Rinv @ pg[:k]
    gamma = D[-1] / G[-1, -1]
    Yq = pg[k:] - G[k:, k:] @ alpha
    beta = Rinv.T @ (gamma * Yq + R.T @ alpha - D * alpha)
    r = np.concatenate([alpha - beta, -gamma * alpha]) @ P
    r += gamma * g
    return -r


def _lbfgs(fun, x, gtol: float, maxiter: int):
    """Minimize fun(x) -> (value, gradient) by L-BFGS: the two-loop
    recursion over the last LBFGS_MEMORY curvature pairs and a strong-Wolfe
    line search whose first trial is 1, or min(1, 1/|g|) on the
    steepest-descent start.

    Returns (x, evaluations, converged). converged means |g|_inf <= gtol;
    a line search that finds no step, or maxiter iterations, ends the run
    without it.
    """
    nfev = 0

    def counted(x):
        nonlocal nfev
        nfev += 1
        return fun(x)

    f, g = counted(x)
    S: list = []
    Y: list = []
    for _ in range(maxiter):
        if np.abs(g).max() <= gtol:
            return x, nfev, True
        if S:
            d, step = _two_loop(S, Y, g), 1.0
        else:
            d, step = -g, min(1.0, 1.0 / np.linalg.norm(g))
        found = _wolfe_step(counted, x, f, g, d, step)
        if found is None:
            return x, nfev, False
        x_new, f, g_new = found
        s, y = x_new - x, g_new - g
        if s @ y > 0.0:
            S.append(s)
            Y.append(y)
            del S[:-LBFGS_MEMORY], Y[:-LBFGS_MEMORY]
        x, g = x_new, g_new
    return x, nfev, bool(np.abs(g).max() <= gtol)


def _minimize_log_cond(evaluate, x0: np.ndarray) -> _Search:
    """Run L-BFGS once per temperature in TAUS, each from the last result.

    evaluate(x, tau) returns (smoothed objective, gradient, exact kappa), the
    objective and kappa infinite outside the domain. The result is the
    evaluated point with the smallest exact kappa. A stage that ends without
    reaching its gradient tolerance clears converged, and so does any
    infinite objective: the search met the edge of the domain, where the
    smoothed objective no longer describes kappa.
    """
    best = _Search(x=x0, kappa=np.inf, nfev=0, converged=True)

    def fun(x, tau):
        value, grad, kappa = evaluate(x, tau)
        if kappa < best.kappa:
            best.x, best.kappa = x.copy(), kappa
        if not math.isfinite(value):
            best.converged = False
        return value, grad

    x = x0
    for tau in TAUS:
        x, nfev, converged = _lbfgs(lambda x: fun(x, tau), x,
                                    GTOL_SCALE * math.sqrt(_EPS / tau), STAGE_MAXITER)
        best.nfev += nfev
        best.converged &= converged
    return best


def minimize_kappa_weights(W) -> WeightOptimum:
    """Minimize kappa(W diag(b) W*) over positive weights b, b[0] fixed at 1.

    One search in log-weights x = log b[1:] from equal weights (kappa is
    scale invariant, so one weight can be pinned). Weights are rescaled
    afterwards to the smallest-denominator presentation when they sit within
    1e-3 of one.
    """
    W = as_complex_matrix(W)
    n = W.shape[0]
    equal = _kappa_of_weights(W, np.ones(n))
    if n == 1:
        return WeightOptimum(weights=np.ones(1), kappa=equal, kappa_equal=equal,
                             converged=True, nfev=0)

    Wh = W.conj().T

    def evaluate(x, tau):
        b = np.concatenate([[1.0], np.exp(x)])
        value, U, g, kappa = _smoothed_log_cond((W * b) @ Wh, tau)
        if g is None:
            return value, np.zeros_like(x), kappa
        # dP/dx_j = b_j w_j w_j*, so the derivative is b_j sum_i |w_j* u_i|^2 g_i
        grad = b * (np.abs(Wh @ U) ** 2 @ g)
        return value, grad[1:], kappa

    found = _minimize_log_cond(evaluate, np.zeros(n - 1))
    if not np.isfinite(found.kappa) or found.kappa > equal * (1.0 + 1e-9):
        raise SearchFailure(f"weight search did not reach the equal-weight value {equal}")
    weights = np.concatenate([[1.0], np.exp(found.x)])
    return WeightOptimum(weights=_nice_rescale(weights), kappa=found.kappa,
                         kappa_equal=equal, converged=found.converged, nfev=found.nfev)


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

    def unpack(x):
        return x[:n * n].reshape(n, n) + 1j * x[n * n:].reshape(n, n)

    def P_of(G):
        return W @ ((G @ G.conj().T) * kinv) @ Wh

    def evaluate(x, tau):
        G = unpack(x)
        value, U, g, kappa = _smoothed_log_cond(P_of(G), tau)
        if g is None:
            return value, np.zeros_like(x), kappa
        # d value = Re tr(B dX) with B = W* U diag(g) U* W and dX = (dG G* + G dG*) o Kinv
        B = Wh @ ((U * g) @ U.conj().T) @ W
        D = 2.0 * (B * kinv_t) @ G
        return value, np.concatenate([D.real.ravel(), D.imag.ravel()]), kappa

    found = _minimize_log_cond(evaluate, np.concatenate([G0.real.ravel(), G0.imag.ravel()]))
    P = P_of(unpack(found.x))
    P = (P + P.conj().T) * (n / (2.0 * np.trace(P).real))
    best = LyapunovMatrix(matrix=P)
    return AdmissibleOptimum(P=best, kappa=best.kappa,
                             residual=certificate_from_p(C, best, mu).residual,
                             converged=found.converged, nfev=found.nfev)
