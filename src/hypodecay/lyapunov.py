"""Weighted Lyapunov matrices and decay certificates.

For a non-defective positive stable C, every positive combination
P = sum_j b_j w_j w_j* of adjoint-eigenvector projectors satisfies the matrix
inequality C*P + PC >= 2 mu P at the spectral gap mu. Any admissible P turns
into an explicit decay estimate |f(t)| <= sqrt(kappa(P)) e^{-mu t} |f0|, so the
whole game is certifying admissibility and minimizing kappa(P).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DefectiveInput, NotAdmissible
from .spectral import SpectralData, as_complex_matrix

__all__ = [
    "LyapunovMatrix",
    "LyapunovCertificate",
    "build_weighted_p",
    "lyapunov_residual",
    "certificate_from_p",
]

#: admissibility slack, relative to |C| |P|
RESIDUAL_RTOL = 1e-10


@dataclass
class LyapunovMatrix:
    """Hermitian positive definite matrix with its conditioning attached."""

    matrix: np.ndarray
    weights: np.ndarray | None = None

    def __post_init__(self):
        P = as_complex_matrix(self.matrix)
        herm_defect = np.abs(P - P.conj().T).max()
        if herm_defect > 1e-12 * max(1.0, np.abs(P).max()):
            raise ValueError(f"matrix is not Hermitian (defect {herm_defect:.2e})")
        self.matrix = (P + P.conj().T) / 2.0
        ev = np.linalg.eigvalsh(self.matrix)
        if ev[0] <= 0.0:
            raise ValueError(f"matrix is not positive definite (min eig {ev[0]:.2e})")
        self._ev = ev

    @property
    def lambda_min(self) -> float:
        return float(self._ev[0])

    @property
    def lambda_max(self) -> float:
        return float(self._ev[-1])

    @property
    def kappa(self) -> float:
        """Spectral condition number lambda_max / lambda_min."""
        return float(self._ev[-1] / self._ev[0])


def build_weighted_p(data: SpectralData, weights) -> LyapunovMatrix:
    """P = sum_j b_j w_j w_j* from the unit adjoint eigenvectors of C.

    Positive weights only. The k-th projector damps the k-th spectral
    direction; relative weights trade conditioning between directions.
    """
    if data.defective:
        raise DefectiveInput("weighted P requires a full eigenbasis")
    b = np.asarray(weights, dtype=float).ravel()
    if len(b) != data.n:
        raise ValueError(f"expected {data.n} weights, got {len(b)}")
    if (b <= 0.0).any() or not np.isfinite(b).all():
        raise ValueError("weights must be positive and finite")
    W = data.left_vectors
    P = (W * b) @ W.conj().T
    return LyapunovMatrix(matrix=P, weights=b)


def lyapunov_residual(C, P, rate: float) -> float:
    """Smallest eigenvalue of C*P + PC - 2*rate*P.

    Non-negative means P certifies decay at `rate` in the P-weighted norm.
    When `rate` equals the spectral gap the best possible value is zero: the
    slowest spectral direction always saturates the inequality. NaN on overflow.
    """
    C = as_complex_matrix(C)
    Pm = P.matrix if isinstance(P, LyapunovMatrix) else as_complex_matrix(P)
    with np.errstate(over="ignore", invalid="ignore"):
        S = C.conj().T @ Pm + Pm @ C - 2.0 * rate * Pm
        S = (S + S.conj().T) / 2.0
    return float(np.linalg.eigvalsh(S)[0]) if np.isfinite(S).all() else float("nan")


@dataclass
class LyapunovCertificate:
    """Verified decay estimate |f(t)| <= constant * e^{-rate t} |f0|."""

    rate: float
    constant: float
    kappa: float
    residual: float
    matrix: np.ndarray
    weights: np.ndarray | None = None
    direction: str = "upper"


def certificate_from_p(C, P, rate: float) -> LyapunovCertificate:
    """Certify P at the requested rate and package the resulting estimate.

    The admissibility check allows a small negative residual proportional to
    |C| |P|, the rounding floor of eigvalsh, and rejects a NaN residual. |C|
    is needed only for a residual that is not already >= 0.
    """
    if not np.isfinite(rate):
        raise ValueError(f"rate must be finite, got {rate!r}")
    C = as_complex_matrix(C)
    if not isinstance(P, LyapunovMatrix):
        P = LyapunovMatrix(matrix=P)
    res = lyapunov_residual(C, P, rate)
    if not res >= 0.0:
        scale = float(np.linalg.svd(C, compute_uv=False)[0]) * P.lambda_max
        if not res >= -RESIDUAL_RTOL * max(scale, 1e-300):
            raise NotAdmissible(
                f"P is not admissible at rate {rate}: residual {res:.3e} "
                f"below -{RESIDUAL_RTOL:.1e} * |C| |P| = {-RESIDUAL_RTOL * scale:.3e}",
                residual=res,
            )
    return LyapunovCertificate(
        rate=float(rate),
        constant=float(np.sqrt(P.kappa)),
        kappa=P.kappa,
        residual=res,
        matrix=P.matrix,
        weights=P.weights,
    )
