"""Spectral decomposition and stability classification for x' = -Cx.

Everything downstream (Lyapunov matrices, sharp constants, envelopes) is built
from one eigendecomposition of the system matrix C: the eigenvalues ordered by
increasing real part, the right eigenvectors v_j of C, and the right
eigenvectors w_j of the adjoint C*. The two families are kept biorthonormal,
<w_j, v_k> = delta_jk, with the w_j at unit Euclidean norm; under this scaling
the inverse of the right-eigenvector matrix is exactly W*.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import Defective2D, MatrixFormatError, NonConvergence, ZeroVector

__all__ = [
    "SpectralData",
    "StabilityReport",
    "Canonical2DForm",
    "DecayCase",
    "as_complex_matrix",
    "eigendecompose",
    "classify_stability",
    "alpha_overlap",
    "canonical_2d_form",
]

#: eigenvector-matrix condition number beyond which a clustered spectrum is
#: treated as defective
DEFECT_COND_LIMIT = 1e8

#: gap, relative to the spectral radius, below which eigenvalues form a cluster
CLUSTER_GAP = 1e-6

#: eigenvalues, or their real or imaginary parts, within COINCIDENCE_RTOL of the
#: spectral radius coincide; every such decision in the package asks this
COINCIDENCE_RTOL = 1e-10

#: eigenvalues within ROUNDING_RTOL of the spectral radius agree up to rounding:
#: lambda I rebuilt through a basis of overlap up to 0.999, or turned by a
#: unitary, splits by up to 21 ulps (measured). Only such a tie makes C scalar
ROUNDING_RTOL = 32 * np.finfo(float).eps


def coincidence_tol(lam, rtol: float = COINCIDENCE_RTOL) -> float:
    """rtol times the spectral radius of lam: the one scale on which eigenvalues
    or their parts count as equal, so that C -> sC changes no such decision."""
    return rtol * float(np.abs(lam).max())


def as_complex_matrix(obj) -> np.ndarray:
    """Coerce input to a square complex matrix with finite entries."""
    A = np.asarray(obj, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise MatrixFormatError(f"expected a square matrix, got shape {A.shape}")
    if A.shape[0] < 1:
        raise MatrixFormatError("matrix is empty")
    if not np.isfinite(A).all():
        raise MatrixFormatError("matrix has non-finite entries")
    return A


@dataclass
class SpectralData:
    """Eigendecomposition of C with biorthonormal left/right eigenvectors.

    Attributes
    ----------
    matrix : original matrix C
    eigenvalues : sorted by (Re, Im), increasing, coinciding real parts as equal
    right_vectors : columns v_j, C v_j = lambda_j v_j, scaled so <w_j, v_j> = 1
    left_vectors : columns w_j, C* w_j = conj(lambda_j) w_j, unit norm
    defective : True when no reliable eigenbasis exists
    positive_stable : True when every eigenvalue has positive real part
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray
    right_vectors: np.ndarray
    left_vectors: np.ndarray
    defective: bool
    positive_stable: bool
    eigenvector_cond: float = field(default=np.nan, repr=False)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def spectral_gap(self) -> float:
        """mu, the smallest real part of the spectrum."""
        return float(self.eigenvalues.real.min())


def _order_with_clustered_ties(lam: np.ndarray) -> np.ndarray:
    """Sort key (Re, Im) with coinciding real parts snapped together.

    Raw float real parts of an equal-real-part pair differ by rounding noise,
    which would make the tie-break on the imaginary part unreliable.
    """
    tol = coincidence_tol(lam)
    snapped = lam.real.copy()
    idx = np.argsort(snapped, kind="stable")
    for i, j in zip(idx[:-1], idx[1:]):
        if abs(snapped[j] - snapped[i]) <= tol:
            snapped[j] = snapped[i]
    return np.lexsort((lam.imag, snapped))


def eigendecompose(C) -> SpectralData:
    """Eigendecompose C, ordering eigenvalues by (Re, Im) increasing.

    Raises NonConvergence if the QR iteration fails. A defective matrix is
    detected numerically (clustered eigenvalues plus eigenvector-matrix
    condition number above DEFECT_COND_LIMIT) and flagged, not raised; the
    operations that genuinely need an eigenbasis check the flag themselves.
    """
    C = as_complex_matrix(C)
    try:
        lam, V = np.linalg.eig(C)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(f"eigenvalue iteration failed: {exc}") from exc

    order = _order_with_clustered_ties(lam)
    lam = lam[order]
    V = V[:, order]

    # np.linalg.cond(V) without its wrapper: the ratio of the extreme singular
    # values, inf for a singular V
    s = np.linalg.svd(V, compute_uv=False).tolist()
    cond = s[0] / s[-1] if s[-1] != 0.0 else math.inf
    gaps = np.abs(lam[:, None] - lam[None, :])
    np.fill_diagonal(gaps, np.inf)
    clustered = bool(gaps.min() <= coincidence_tol(lam, CLUSTER_GAP))
    defective = clustered and cond > DEFECT_COND_LIMIT

    if defective:
        W = np.full_like(V, np.nan)
    else:
        # rows of V^-1 are left row-eigenvectors; conjugate-transpose them into
        # eigenvectors of C*, then normalize and push the scale onto V
        W = np.linalg.inv(V).conj().T
        norms = np.linalg.norm(W, axis=0)
        W = W / norms
        V = V / np.einsum("jk,jk->k", W.conj(), V)

    positive_stable = bool((lam.real > 0.0).all())
    return SpectralData(
        matrix=C,
        eigenvalues=lam,
        right_vectors=V,
        left_vectors=W,
        defective=defective,
        positive_stable=positive_stable,
        eigenvector_cond=cond,
    )


@dataclass
class StabilityReport:
    """Decay-rate summary of C and of its Hermitian part.

    mu and nu bracket the real parts of the spectrum; mu_s and nu_s are the
    extreme eigenvalues of C_s = (C + C*)/2 and bound the instantaneous energy
    growth/decay: mu_s <= mu <= nu <= nu_s always holds.
    """

    mu: float
    nu: float
    mu_s: float
    nu_s: float
    positive_stable: bool
    coercive: bool
    defective: bool

    @property
    def hypocoercive(self) -> bool:
        """Decays at rate mu yet the energy functional is not monotone."""
        return self.positive_stable and not self.coercive


def classify_stability(data: SpectralData) -> StabilityReport:
    """Extract (mu, nu, mu_s, nu_s) and the stability flags from C."""
    C = data.matrix
    herm = np.linalg.eigvalsh((C + C.conj().T) / 2.0)
    return StabilityReport(
        mu=data.spectral_gap,
        nu=float(data.eigenvalues[-1].real),
        mu_s=float(herm[0]),
        nu_s=float(herm[-1]),
        positive_stable=data.positive_stable,
        coercive=bool(herm[0] > 0.0),
        defective=data.defective,
    )


def alpha_overlap(v1, v2) -> float:
    """|<v1, v2>| / (|v1| |v2|), the modulus of the normalized overlap.

    This is the single geometric quantity controlling every 2D constant below:
    0 for orthogonal eigenvectors (normal matrix), approaching 1 as the
    eigenbasis degenerates.
    """
    v1 = np.asarray(v1, dtype=complex).ravel()
    v2 = np.asarray(v2, dtype=complex).ravel()
    n1 = np.linalg.norm(v1)
    n2 = np.linalg.norm(v2)
    if n1 < 1e-300 or n2 < 1e-300:
        raise ZeroVector("overlap of a zero vector is undefined")
    a = abs(np.vdot(v1, v2)) / (n1 * n2)
    return float(min(a, 1.0))


class DecayCase(str, enum.Enum):
    """Eigenvalue configuration of a diagonalizable 2x2 system."""

    EQUAL_EIGENVALUES = "EqualEigenvalues"
    EQUAL_REAL_PARTS = "EqualRealParts"
    EQUAL_IMAGINARY_PARTS = "EqualImaginaryParts"
    FULLY_DISTINCT = "FullyDistinct"


@dataclass
class Canonical2DForm:
    """Unitarily transformed 2x2 system with a normalized eigenbasis of C*.

    The unitary U maps the adjoint eigenvectors to w1 = (1, 0) and
    w2 = (alpha, sqrt(1 - alpha^2)) with alpha in [0, 1); eigenvalues, Euclidean
    norms of solutions, and every constant computed downstream are unchanged.
    mu_s and nu_s are the extreme eigenvalues of the Hermitian part of matrix.
    The form carries the one regime decision: case, rounding_tol (ROUNDING_RTOL
    times the spectral radius) and scalar (the eigenvalues agree within it).
    """

    alpha: float
    unitary: np.ndarray
    eigenvalues: np.ndarray
    w1: np.ndarray
    w2: np.ndarray
    matrix: np.ndarray
    mu_s: float
    nu_s: float
    case: DecayCase
    scalar: bool
    rounding_tol: float

    @property
    def mu(self) -> float:
        return float(self.eigenvalues.real.min())

    @property
    def nu(self) -> float:
        return float(self.eigenvalues[1].real)

    @property
    def gamma(self) -> float:
        """Real-part spread Re(lambda_2 - lambda_1), >= 0 only up to the
        coincidence tolerance: -1.1e-16 on [[1, -1], [1, 0]]."""
        return float((self.eigenvalues[1] - self.eigenvalues[0]).real)

    @property
    def delta(self) -> float:
        """Imaginary-part spread Im(lambda_2 - lambda_1)."""
        return float((self.eigenvalues[1] - self.eigenvalues[0]).imag)

    @property
    def kappa_min(self) -> float:
        """(1 + alpha)/(1 - alpha): the least kappa of a Lyapunov matrix."""
        return (1.0 + self.alpha) / (1.0 - self.alpha)


def canonical_2d_form(data: SpectralData) -> Canonical2DForm:
    """Rotate a 2x2 system so the adjoint eigenbasis takes the standard shape.

    Fixes the phase of w2 so the overlap <w1, w2> is the real number
    alpha >= 0, then Gram-Schmidts {w1, w2} into the new coordinate frame.

    Raises Defective2D when C lies within rounding of a Jordan block: C is
    not scalar and |lambda_2 - lambda_1| sqrt(1 - alpha^2), of the order of
    the distance to the nearest defective matrix (Wilkinson), is at most
    rounding_tol. Rounding splits the double eigenvalue of a Jordan block by
    about sqrt(eps) |C| and can keep the eigenvector condition below
    DEFECT_COND_LIMIT; the alpha of that split would certify a finite
    constant where |e^{-(C - mu)t}| grows like t.
    """
    if data.n != 2:
        raise MatrixFormatError(f"canonical form needs a 2x2 matrix, got n={data.n}")
    if data.defective:
        raise Defective2D("matrix is numerically defective, eigenbasis is unreliable")

    radius = float(np.abs(data.eigenvalues).max())
    tol, rounding_tol = COINCIDENCE_RTOL * radius, ROUNDING_RTOL * radius
    spread = data.eigenvalues[1] - data.eigenvalues[0]
    gap = abs(spread)
    scalar = bool(gap <= rounding_tol)

    w1 = data.left_vectors[:, 0].copy()
    w2 = data.left_vectors[:, 1].copy()
    overlap = np.vdot(w1, w2)
    if abs(overlap) > 1e-15:
        w2 = w2 * np.exp(-1j * np.angle(overlap))
    alpha = min(abs(overlap), 1.0 - 1e-16)

    e1 = w1
    r = w2 - np.vdot(e1, w2) * e1
    rnorm = float(np.linalg.norm(r))  # sqrt(1 - alpha^2), without cancellation
    if rnorm < 1e-15:
        raise Defective2D("adjoint eigenvectors are numerically parallel")
    if not scalar and gap * rnorm <= rounding_tol:
        raise Defective2D(f"matrix is within rounding of a Jordan block: eigenvalue split "
                          f"{gap:.2e} times sqrt(1 - alpha^2) {rnorm:.2e} is "
                          f"{gap * rnorm:.2e}, at most {rounding_tol:.2e}")
    e2 = r / rnorm

    U = np.vstack([e1.conj(), e2.conj()])
    C = U @ data.matrix @ U.conj().T
    herm = np.linalg.eigvalsh((C + C.conj().T) / 2.0)
    case = (DecayCase.EQUAL_EIGENVALUES if gap <= tol
            else DecayCase.EQUAL_REAL_PARTS if abs(spread.real) <= tol
            else DecayCase.EQUAL_IMAGINARY_PARTS if abs(spread.imag) <= tol
            else DecayCase.FULLY_DISTINCT)
    return Canonical2DForm(
        alpha=float(alpha),
        unitary=U,
        eigenvalues=data.eigenvalues.copy(),
        w1=U @ w1,
        w2=U @ w2,
        matrix=C,
        mu_s=float(herm[0]),
        nu_s=float(herm[-1]),
        case=case,
        scalar=scalar,
        rounding_tol=rounding_tol,
    )
