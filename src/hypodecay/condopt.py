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
`eigh` per evaluation (Lewis & Overton, Acta Numerica 1996). L-BFGS-B runs
once per temperature, warm-started down the continuation TAUS, and the point
with the smallest exact kappa wins. kappa is quasiconvex on both families
(lambda_max is convex, lambda_min concave; Braatz & Morari 1994), so one
start suffices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SearchFailure
from .lyapunov import LyapunovMatrix, certificate_from_p
from .spectral import Canonical2DForm, as_complex_matrix, coincidence_tol

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

#: a stage stops once the projected gradient is below GTOL_SCALE sqrt(eps/tau):
#: with curvature up to 1/tau, a smaller gradient promises a decrease that the
#: rounding of log kappa hides from the line search
GTOL_SCALE = 0.5

#: L-BFGS-B iterations allowed per continuation stage
STAGE_MAXITER = 1000

#: eigenvalues with |Re lam - mu| within SLOW_RTOL of the spectral radius are
#: slow: the admissibility residual vanishes on their eigenvectors
SLOW_RTOL = 1e-9


@dataclass
class WeightOptimum:
    """Best weights; converged is False if any search stage ended without
    L-BFGS-B success, nfev sums the evaluations over the stages."""

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
    value = ell[-1] - ell[0] + tau * (np.log(hi.sum()) + np.log(lo.sum()))
    g = (hi / hi.sum() - lo / lo.sum()) / lam
    return value, U, g, float(lam[-1] / lam[0])


@dataclass
class _Search:
    x: np.ndarray
    kappa: float
    nfev: int
    converged: bool


def _minimize_log_cond(evaluate, x0: np.ndarray) -> _Search:
    """Run L-BFGS-B once per temperature in TAUS, each from the last result.

    evaluate(x, tau) returns (smoothed objective, gradient, exact kappa), the
    objective and kappa infinite outside the domain. The result is the
    evaluated point with the smallest exact kappa. A stage that ends without
    L-BFGS-B success clears converged, and so does any infinite objective:
    L-BFGS-B cannot step back from one and may report success where it
    stopped.
    """
    # deferred: importing scipy.optimize costs more than most callers' work
    from scipy.optimize import minimize

    best = _Search(x=x0, kappa=np.inf, nfev=0, converged=True)

    def fun(x, tau):
        value, grad, kappa = evaluate(x, tau)
        if kappa < best.kappa:
            best.x, best.kappa = x.copy(), kappa
        if not np.isfinite(value):
            best.converged = False
        return value, grad

    x = x0
    for tau in TAUS:
        res = minimize(fun, x, args=(tau,), jac=True, method="L-BFGS-B",
                       options=dict(gtol=GTOL_SCALE * np.sqrt(np.finfo(float).eps / tau),
                                    ftol=0.0, maxiter=STAGE_MAXITER))
        best.nfev += int(res.nfev)
        best.converged &= bool(res.success)
        x = res.x
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

    def evaluate(x, tau):
        b = np.concatenate([[1.0], np.exp(x)])
        value, U, g, kappa = _smoothed_log_cond((W * b) @ W.conj().T, tau)
        if g is None:
            return value, np.zeros_like(x), kappa
        # dP/dx_j = b_j w_j w_j*, so the derivative is b_j sum_i g_i |u_i* w_j|^2
        grad = b * (g @ np.abs(U.conj().T @ W) ** 2)
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
    tol = coincidence_tol(lam, SLOW_RTOL)
    slow = np.abs(shifted.real) <= tol
    fast_pair = ~slow[:, None] & ~slow[None, :]
    same_slow = slow[:, None] & slow[None, :] & (np.abs(lam[:, None] - lam[None, :]) <= tol)
    K = shifted.conj()[:, None] + shifted[None, :]
    return np.where(fast_pair, 1.0 / np.where(fast_pair, K, 1.0), same_slow.astype(float))


def minimize_kappa_admissible(C, mu: float, seed_P) -> AdmissibleOptimum:
    """Minimize kappa(P) over all Hermitian P admissible at rate mu.

    Facial reduction in the eigenbasis C = V diag(lam) V^-1, W = V^-*: every
    admissible P is P(G) = W ((G G*) o Kinv) W* for some complex n x n G, and
    every G gives an admissible P (see _admissible_kernel). At mu equal to
    the spectral gap this pins the residual to zero on the slow eigenvectors
    exactly, so the search runs over unconstrained G from the factor of
    seed_P. The returned P is trace-normalized to n. Raises NotAdmissible
    unless seed_P is admissible at mu.
    """
    C = as_complex_matrix(C)
    n = C.shape[0]
    seed = seed_P if isinstance(seed_P, LyapunovMatrix) else LyapunovMatrix(matrix=seed_P)
    certificate_from_p(C, seed, mu)

    lam, V = np.linalg.eig(C)
    W = np.linalg.inv(V).conj().T
    kinv = _admissible_kernel(lam, mu)
    # the seed's factor: seed = W (Z o Kinv) W*, Z = (V* seed V) / Kinv on the support
    Z = V.conj().T @ seed.matrix @ V
    Z = np.divide(Z, kinv, out=np.zeros_like(Z), where=kinv != 0.0)
    ez, uz = np.linalg.eigh((Z + Z.conj().T) / 2.0)
    G0 = uz * np.sqrt(np.maximum(ez, 0.0))

    def unpack(x):
        return x[:n * n].reshape(n, n) + 1j * x[n * n:].reshape(n, n)

    def P_of(G):
        return W @ ((G @ G.conj().T) * kinv) @ W.conj().T

    def evaluate(x, tau):
        G = unpack(x)
        value, U, g, kappa = _smoothed_log_cond(P_of(G), tau)
        if g is None:
            return value, np.zeros_like(x), kappa
        # d value = Re tr(B dX) with B = W* U diag(g) U* W and dX = (dG G* + G dG*) o Kinv
        B = W.conj().T @ ((U * g) @ U.conj().T) @ W
        D = 2.0 * (B * kinv.T) @ G
        return value, np.concatenate([D.real.ravel(), D.imag.ravel()]), kappa

    found = _minimize_log_cond(evaluate, np.concatenate([G0.real.ravel(), G0.imag.ravel()]))
    P = P_of(unpack(found.x))
    P = (P + P.conj().T) * (n / (2.0 * np.trace(P).real))
    best = LyapunovMatrix(matrix=P)
    return AdmissibleOptimum(P=best, kappa=best.kappa,
                             residual=certificate_from_p(C, best, mu).residual,
                             converged=found.converged, nfev=found.nfev)
