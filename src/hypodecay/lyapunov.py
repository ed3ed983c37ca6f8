"""Weighted Lyapunov matrices and decay certificates.

For a non-defective positive stable C, every positive combination
P = sum_j b_j w_j w_j* of adjoint-eigenvector projectors satisfies the matrix
inequality C*P + PC >= 2 mu P at the spectral gap mu. Any admissible P turns
into an explicit decay estimate |f(t)| <= sqrt(kappa(P)) e^{-mu t} |f0|, so the
whole game is certifying admissibility and minimizing kappa(P).

Each step has two routes. A 2x2 is worked on Python scalars: P is formed
entry by entry, the extremes of P and of the residual matrix
S = C*P + PC - 2 mu P come from spectral._hermitian_extremes and |C|_2 from
spectral._norm_2x2, all closed forms, so a 2x2 certificate makes no LAPACK
call. Every larger matrix takes numpy's matmul, eigvalsh and svd, the
reference the 2x2 route is tested against. Either way the residual is
formed from C and P alone, never from the eigenbasis that built P, so it
checks that P independently.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import _HOMES
from .errors import DefectiveInput, NotAdmissible
from .spectral import SpectralData, _hermitian_extremes, _norm_2x2, as_complex_matrix

__all__ = _HOMES["lyapunov"]

#: admissibility slack, relative to |C| |P|
RESIDUAL_RTOL = 1e-10

#: largest |P - P*| accepted as Hermitian, relative to the largest entry of P,
#: with no absolute floor, so that the verdict does not depend on the scale of P
HERMITIAN_RTOL = 1e-12


@dataclass
class LyapunovMatrix:
    """Hermitian positive definite matrix with its conditioning attached."""

    matrix: np.ndarray
    weights: np.ndarray | None = None

    def __post_init__(self):
        P = as_complex_matrix(self.matrix)
        self.matrix, lo, hi = (_hermitian_part_2x2 if len(P) == 2 else _hermitian_part)(P)
        if not lo > 0.0:
            raise ValueError(f"matrix is not positive definite (min eig {lo:.2e})")
        self._ev = (lo, hi)

    @property
    def lambda_min(self) -> float:
        return self._ev[0]

    @property
    def lambda_max(self) -> float:
        return self._ev[1]

    @property
    def kappa(self) -> float:
        """Spectral condition number lambda_max / lambda_min."""
        return self._ev[1] / self._ev[0]


def _hermitian_part(P: np.ndarray) -> tuple[np.ndarray, float, float]:
    """(P + P*)/2 with its extreme eigenvalues, from eigvalsh. ValueError
    unless P is Hermitian to HERMITIAN_RTOL of its largest entry."""
    herm_defect = np.abs(P - P.conj().T).max()
    if herm_defect > HERMITIAN_RTOL * np.abs(P).max():
        raise ValueError(f"matrix is not Hermitian (defect {herm_defect:.2e})")
    H = (P + P.conj().T) / 2.0
    ev = np.linalg.eigvalsh(H).tolist()
    return H, ev[0], ev[-1]


def _hermitian_part_2x2(P: np.ndarray) -> tuple[np.ndarray, float, float]:
    """_hermitian_part of a 2x2 on Python scalars: the same matrix to the
    bit, the same Hermitian test, and the extremes from
    spectral._hermitian_extremes."""
    (p00, p01), (p10, p11) = P.tolist()
    skew = p01 - p10.conjugate()
    herm_defect = max(2.0 * abs(p00.imag), 2.0 * abs(p11.imag), math.hypot(skew.real, skew.imag))
    if herm_defect > HERMITIAN_RTOL * max(math.hypot(z.real, z.imag) for z in (p00, p01, p10, p11)):
        raise ValueError(f"matrix is not Hermitian (defect {herm_defect:.2e})")
    off = p01 + p10.conjugate()
    h, x, y = off / 2.0, p00.real, p11.real
    return (np.array([[x, h], [h.conjugate(), y]]),
            *_hermitian_extremes(x, y, off))


def build_weighted_p(data: SpectralData, weights) -> LyapunovMatrix:
    """P = sum_j b_j w_j w_j* from the unit adjoint eigenvectors of C.

    Positive weights only. The k-th projector damps the k-th spectral
    direction; relative weights trade conditioning between directions. A
    2x2 P is formed entry by entry on Python scalars.
    """
    if data.defective:
        raise DefectiveInput("weighted P requires a full eigenbasis")
    b = np.asarray(weights, dtype=float).ravel()
    if len(b) != data.n:
        raise ValueError(f"expected {data.n} weights, got {len(b)}")
    bl = b.tolist()
    if not all(0.0 < x < math.inf for x in bl):  # False for NaN
        raise ValueError("weights must be positive and finite")
    W = data.left_vectors
    if data.n == 2:
        b0, b1 = bl
        (w00, w01), (w10, w11) = W.tolist()
        x = b0 * (w00.real * w00.real + w00.imag * w00.imag) \
            + b1 * (w01.real * w01.real + w01.imag * w01.imag)
        y = b0 * (w10.real * w10.real + w10.imag * w10.imag) \
            + b1 * (w11.real * w11.real + w11.imag * w11.imag)
        h = b0 * w00 * w10.conjugate() + b1 * w01 * w11.conjugate()
        P = np.array([[x, h], [h.conjugate(), y]])
    else:
        P = (W * b) @ W.conj().T
    return LyapunovMatrix(matrix=P, weights=b)


def lyapunov_residual(C, P, rate: float) -> float:
    """Smallest eigenvalue of C*P + PC - 2*rate*P.

    Non-negative means P certifies decay at `rate` in the P-weighted norm.
    When `rate` equals the spectral gap the best possible value is zero: the
    slowest spectral direction always saturates the inequality. NaN on overflow.
    A 2x2 takes _residual_2x2, a larger matrix _residual.
    """
    C = as_complex_matrix(C)
    Pm = P.matrix if isinstance(P, LyapunovMatrix) else as_complex_matrix(P)
    return (_residual_2x2 if len(C) == len(Pm) == 2 else _residual)(C, Pm, rate)


def _residual(C: np.ndarray, P: np.ndarray, rate: float) -> float:
    """lyapunov_residual through numpy's matmul and eigvalsh."""
    with np.errstate(over="ignore", invalid="ignore"):
        S = C.conj().T @ P + P @ C - 2.0 * rate * P
        S = (S + S.conj().T) / 2.0
    return float(np.linalg.eigvalsh(S)[0]) if np.isfinite(S).all() else float("nan")


def _residual_2x2(C: np.ndarray, P: np.ndarray, rate: float) -> float:
    """_residual of 2x2 C and P on Python scalars.

    The Hermitian part of S = C*P + PC - 2 rate P, whose least eigenvalue
    both routes take, is S formed from the Hermitian part H of P: the real
    diagonal x, y of P and h, the mean of P_01 and conj(P_10). Then
    S_00 = 2 Re(HC)_00 - 2 rate x, S_11 likewise and
    S_01 = (C*H)_01 + (HC)_01 - 2 rate h. NaN where an entry of S
    overflows. The extremes are those of S/2, whose off-diagonal entry is
    S_01/2, doubled, so S_01 is never doubled itself.
    """
    (c00, c01), (c10, c11) = C.tolist()
    (p00, p01), (p10, p11) = P.tolist()
    x, y, h = p00.real, p11.real, 0.5 * p01 + 0.5 * p10.conjugate()
    two_rate = 2.0 * rate
    s00 = 2.0 * (x * c00.real + (h * c10).real) - two_rate * x
    s11 = 2.0 * ((h.conjugate() * c01).real + y * c11.real) - two_rate * y
    s01 = c00.conjugate() * h + c10.conjugate() * y + x * c01 + h * c11 - two_rate * h
    if not (math.isfinite(s00) and math.isfinite(s11) and cmath.isfinite(s01)):
        return math.nan
    return 2.0 * _hermitian_extremes(0.5 * s00, 0.5 * s11, s01)[0]


@dataclass
class LyapunovCertificate:
    """Verified decay estimate |f(t)| <= constant * e^{-rate t} |f0|."""

    rate: float
    constant: float
    kappa: float
    residual: float
    matrix: np.ndarray
    weights: np.ndarray | None = None


def certificate_from_p(C, P, rate: float) -> LyapunovCertificate:
    """Certify P at the requested rate and package the resulting estimate.

    The admissibility check allows a small negative residual proportional to
    |C| |P|, the rounding floor of eigvalsh, with no absolute floor, so that
    C -> sC at rate s r gives the verdict of C at rate r; it rejects a NaN
    residual. lyapunov_residual checks C. |C| is needed only for a residual
    that is not already >= 0; a 2x2 reads it from spectral._norm_2x2, a
    larger C from svd.
    """
    if not np.isfinite(rate):
        raise ValueError(f"rate must be finite, got {rate!r}")
    if not isinstance(P, LyapunovMatrix):
        P = LyapunovMatrix(matrix=P)
    res = lyapunov_residual(C, P, rate)
    if not res >= 0.0:
        C = as_complex_matrix(C)
        norm = _norm_2x2(C) if len(C) == 2 else float(np.linalg.svd(C, compute_uv=False)[0])
        scale = norm * P.lambda_max
        if not res >= -RESIDUAL_RTOL * scale:
            raise NotAdmissible(
                f"P is not admissible at rate {rate}: residual {res:.3e} "
                f"below -{RESIDUAL_RTOL:.1e} * |C| |P| = {-RESIDUAL_RTOL * scale:.3e}",
                residual=res,
            )
    return LyapunovCertificate(
        rate=float(rate),
        constant=math.sqrt(P.kappa),
        kappa=P.kappa,
        residual=res,
        matrix=P.matrix,
        weights=P.weights,
    )
