"""Spectral decomposition and stability classification for x' = -Cx.

Everything downstream (Lyapunov matrices, sharp constants, envelopes) is built
from one spectral record of the system matrix C, computed once: the eigenvalues
ordered by increasing real part, the right eigenvectors v_j of C, the right
eigenvectors w_j of the adjoint C*, and the extreme eigenvalues mu_s, nu_s of
the Hermitian part (C + C*)/2. The two eigenvector families are kept
biorthonormal, <w_j, v_k> = delta_jk, with the w_j at unit Euclidean norm;
under this scaling the inverse of the right-eigenvector matrix is exactly W*.
The stability report and the 2x2 canonical form only read this record.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import cached_property

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
#: unitary, splits by up to 21 ulps (measured). Only such a tie makes C scalar.
#: Times |C|_2 it is the rounding distance of a 2x2 to a Jordan block
ROUNDING_RTOL = 32 * np.finfo(float).eps


def coincidence_tol(lam) -> float:
    """COINCIDENCE_RTOL times the spectral radius of lam: the one scale on which
    eigenvalues or their parts count as equal, so C -> sC changes no decision."""
    return COINCIDENCE_RTOL * float(np.abs(lam).max())


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
    mu_s, nu_s : smallest and largest eigenvalue of (C + C*)/2
    eigenvector_cond : condition number of the unit-norm eigenvector matrix,
        computed on first read
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray
    right_vectors: np.ndarray
    left_vectors: np.ndarray
    defective: bool
    positive_stable: bool
    mu_s: float
    nu_s: float
    #: the spectral radius, and the ordered unit-norm V that eig returns
    _radius: float = field(repr=False)
    _unit_vectors: np.ndarray = field(repr=False)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def eigenvector_cond(self) -> float:
        return _cond(self._unit_vectors)

    @property
    def spectral_gap(self) -> float:
        """mu, the smallest real part of the spectrum."""
        return float(self.eigenvalues.real.min())


def _order_with_clustered_ties(lam: np.ndarray, tol: float) -> np.ndarray:
    """Sort key (Re, Im) with real parts within tol, coincidence_tol(lam),
    snapped together.

    Raw float real parts of an equal-real-part pair differ by rounding noise,
    which would make the tie-break on the imaginary part unreliable.
    """
    snapped = lam.real.copy()
    idx = np.argsort(snapped, kind="stable")
    for i, j in zip(idx[:-1], idx[1:]):
        if abs(snapped[j] - snapped[i]) <= tol:
            snapped[j] = snapped[i]
    return np.lexsort((lam.imag, snapped))


def _cond(V: np.ndarray) -> float:
    """np.linalg.cond(V) without its wrapper: the ratio of the extreme singular
    values, inf for a singular V."""
    s = np.linalg.svd(V, compute_uv=False).tolist()
    return s[0] / s[-1] if s[-1] != 0.0 else math.inf


def eigendecompose(C) -> SpectralData:
    """Eigendecompose C, ordering eigenvalues by (Re, Im) increasing.

    Raises NonConvergence if the QR iteration fails. A defective matrix is
    detected numerically (clustered eigenvalues plus eigenvector-matrix
    condition number above DEFECT_COND_LIMIT) and flagged, not raised; the
    operations that genuinely need an eigenbasis check the flag themselves.
    Only a clustered spectrum computes the condition number here; otherwise
    eigenvector_cond computes it on first read, from the same V.
    """
    C = as_complex_matrix(C)
    try:
        lam, V = np.linalg.eig(C)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(f"eigenvalue iteration failed: {exc}") from exc

    radius = float(np.abs(lam).max())
    order = _order_with_clustered_ties(lam, COINCIDENCE_RTOL * radius)
    lam = lam[order]
    V = unit_V = V[:, order]

    gaps = np.abs(lam[:, None] - lam[None, :])
    np.fill_diagonal(gaps, np.inf)
    clustered = bool(gaps.min() <= CLUSTER_GAP * radius)
    defective = clustered and _cond(V) > DEFECT_COND_LIMIT

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
    herm = np.linalg.eigvalsh((C + C.conj().T) / 2.0)
    return SpectralData(
        matrix=C,
        eigenvalues=lam,
        right_vectors=V,
        left_vectors=W,
        defective=defective,
        positive_stable=positive_stable,
        mu_s=float(herm[0]),
        nu_s=float(herm[-1]),
        _radius=radius,
        _unit_vectors=unit_V,
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
    """Read (mu, nu, mu_s, nu_s) and the stability flags off the spectral record."""
    return StabilityReport(
        mu=data.spectral_gap,
        nu=float(data.eigenvalues[-1].real),
        mu_s=data.mu_s,
        nu_s=data.nu_s,
        positive_stable=data.positive_stable,
        coercive=data.mu_s > 0.0,
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
    """A diagonalizable 2x2 system up to unitary similarity.

    Up to a unitary change of basis, which keeps the Euclidean norm of every
    solution and so every constant computed downstream, C is fixed by its
    eigenvalues lambda_1, lambda_2 and the overlap alpha in [0, 1) of its unit
    adjoint eigenvectors. mu_s and nu_s are copied from the spectral record.
    The form carries the one regime decision: case, rounding_tol (ROUNDING_RTOL
    times the spectral radius) and scalar (the eigenvalues agree within it).

    mu and nu are the real parts of lambda_1 and lambda_2. gamma, the
    real-part spread Re(lambda_2 - lambda_1), is >= 0 only up to the
    coincidence tolerance: -1.1e-16 on [[1, -1], [1, 0]]. delta is the
    imaginary-part spread Im(lambda_2 - lambda_1). All four are read off the
    eigenvalues once, as Python floats.
    """

    alpha: float
    eigenvalues: np.ndarray
    mu_s: float
    nu_s: float
    case: DecayCase
    scalar: bool
    rounding_tol: float
    mu: float = field(init=False)
    nu: float = field(init=False)
    gamma: float = field(init=False)
    delta: float = field(init=False)

    def __post_init__(self):
        lam = self.eigenvalues
        self.mu = float(lam.real.min())
        self.nu = float(lam[1].real)
        spread = lam[1] - lam[0]
        self.gamma, self.delta = float(spread.real), float(spread.imag)

    @property
    def kappa_min(self) -> float:
        """(1 + alpha)/(1 - alpha): the least kappa of a Lyapunov matrix."""
        return (1.0 + self.alpha) / (1.0 - self.alpha)


def canonical_2d_form(data: SpectralData) -> Canonical2DForm:
    """Reduce a 2x2 system to (alpha, lambda_1, lambda_2) and its regime.

    alpha = |<w1, w2>| of the unit adjoint eigenvectors; sqrt(1 - alpha^2) is
    read without cancellation as |w2 - <w1, w2> w1|.

    Raises Defective2D when C lies within rounding of a Jordan block: C is
    not scalar and |lambda_2 - lambda_1| sqrt(1 - alpha^2), of the order of
    the distance to the nearest defective matrix (Wilkinson), is at most
    ROUNDING_RTOL |C|_2. Rounding splits the double eigenvalue of a Jordan
    block by about sqrt(eps) |C|_2 and can keep the eigenvector condition
    below DEFECT_COND_LIMIT; the split times sqrt(1 - alpha^2) is then of the
    order of eps |C|_2, which for a strongly non-normal block is far above
    eps times the spectral radius. The alpha of that split would certify a
    finite constant where |e^{-(C - mu)t}| grows like t.
    """
    if data.n != 2:
        raise MatrixFormatError(f"canonical form needs a 2x2 matrix, got n={data.n}")
    if data.defective:
        raise Defective2D("matrix is numerically defective, eigenbasis is unreliable")

    radius = data._radius
    tol, rounding_tol = COINCIDENCE_RTOL * radius, ROUNDING_RTOL * radius
    spread = data.eigenvalues[1] - data.eigenvalues[0]
    gap = abs(spread)
    scalar = bool(gap <= rounding_tol)

    w1, w2 = data.left_vectors[:, 0], data.left_vectors[:, 1]
    overlap = np.vdot(w1, w2)
    alpha = min(abs(overlap), 1.0 - 1e-16)
    rnorm = float(np.linalg.norm(w2 - overlap * w1))  # sqrt(1 - alpha^2)
    if rnorm < 1e-15:
        raise Defective2D("adjoint eigenvectors are numerically parallel")
    # |C|_2 <= |C|_F, so only a product below the Frobenius screen can be at
    # most ROUNDING_RTOL |C|_2; the screen is doubled against the rounding of
    # both norms, and math.hypot forms |C|_F without overflow
    if not scalar and gap * rnorm <= 2.0 * ROUNDING_RTOL * math.hypot(
            *map(abs, data.matrix.ravel().tolist())):
        jordan_tol = ROUNDING_RTOL * float(np.linalg.svd(data.matrix, compute_uv=False)[0])
        if gap * rnorm <= jordan_tol:
            raise Defective2D(f"matrix is within rounding of a Jordan block: eigenvalue split "
                              f"{gap:.2e} times sqrt(1 - alpha^2) {rnorm:.2e} is "
                              f"{gap * rnorm:.2e}, at most 32 eps |C|_2 = {jordan_tol:.2e}")
    case = (DecayCase.EQUAL_EIGENVALUES if gap <= tol
            else DecayCase.EQUAL_REAL_PARTS if abs(spread.real) <= tol
            else DecayCase.EQUAL_IMAGINARY_PARTS if abs(spread.imag) <= tol
            else DecayCase.FULLY_DISTINCT)
    return Canonical2DForm(
        alpha=float(alpha),
        eigenvalues=data.eigenvalues.copy(),
        mu_s=data.mu_s,
        nu_s=data.nu_s,
        case=case,
        scalar=scalar,
        rounding_tol=rounding_tol,
    )
