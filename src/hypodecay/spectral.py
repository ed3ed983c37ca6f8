"""Spectral decomposition and stability classification for x' = -Cx.

Everything downstream (Lyapunov matrices, sharp constants, envelopes) is built
from one spectral record of the system matrix C, computed once: the eigenvalues
ordered by increasing real part, the right eigenvectors v_j of C, the right
eigenvectors w_j of the adjoint C*, and the extreme eigenvalues mu_s, nu_s of
the Hermitian part (C + C*)/2. The two eigenvector families are kept
biorthonormal, <w_j, v_k> = delta_jk, with the w_j at unit Euclidean norm;
under this scaling the inverse of the right-eigenvector matrix is exactly W*.
The stability report and the 2x2 canonical form only read this record.

The record has two routes. A 2x2 with separated eigenvalues gets it in closed
form on Python complex scalars (_closed_form_2x2); every other matrix takes
LAPACK's eig, inv and eigvalsh (_eig_route), which is also the reference the
closed form is tested against. The extremes of a Hermitian 2x2
(_hermitian_extremes) and the norm |C|_2 of a 2x2 (_norm_2x2) are closed
forms too, which the lyapunov module shares.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import Defective2D, MatrixFormatError, NonConvergence

__all__ = [
    "SpectralData",
    "StabilityReport",
    "Canonical2DForm",
    "DecayCase",
    "as_complex_matrix",
    "eigendecompose",
    "classify_stability",
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

#: the smallest normal float: no nonzero part of a 2x2 may scale below it on
#: the closed-form route
_TINY = float(np.finfo(float).tiny)

#: least |sqrt(h^2 + bc)|, half the eigenvalue split, of a scaled 2x2 on the
#: closed-form route: its square is then at least 2^-1000, and the products
#: that form it lose at most 2^-70 of it to underflow
_MIN_SCALED_DISC = 2.0 ** -500


def coincidence_tol(lam) -> float:
    """COINCIDENCE_RTOL times the spectral radius of lam: the one scale on which
    eigenvalues or their parts count as equal, so C -> sC changes no decision."""
    return COINCIDENCE_RTOL * float(np.abs(lam).max())


def _pow2_scale(top: float) -> tuple[float, float]:
    """(2^k, 2^-k) for the k that brings top > 0 to [1/2, 1) (k = 0 for
    top = 0), clamped to [-1000, 1000] so that both are normal floats.
    Scaling by them is exact, and takes any finite top to within 2^24 of
    [1/2, 1): the one scaling of every closed form on a 2x2."""
    k = min(max(-math.frexp(top)[1], -1000), 1000)
    return 2.0 ** k, 2.0 ** -k


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
    positive_stable : True when every eigenvalue has real part above
        coincidence_tol of the spectrum, so that rounding noise on the
        imaginary axis certifies no decay; decided once, from the
        eigenvalues and the spectral radius, for both routes
    mu_s, nu_s : smallest and largest eigenvalue of (C + C*)/2
    eigenvector_cond : condition number of the unit-norm eigenvector matrix,
        computed on first read
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray
    right_vectors: np.ndarray
    left_vectors: np.ndarray
    defective: bool
    mu_s: float
    nu_s: float
    #: the spectral radius, and the ordered unit-norm eigenvector matrix V
    _radius: float = field(repr=False)
    _unit_vectors: np.ndarray = field(repr=False)
    positive_stable: bool = field(init=False)

    def __post_init__(self):
        tol = COINCIDENCE_RTOL * self._radius
        self.positive_stable = all(z.real > tol for z in self.eigenvalues.tolist())

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

    A 2x2 whose eigenvalues are separated, |lambda_2 - lambda_1| > CLUSTER_GAP
    times the spectral radius, gets its record in closed form
    (_closed_form_2x2); every other C, and a 2x2 the closed form declines,
    takes the eig route (_eig_route). Raises NonConvergence if the QR iteration
    of that route fails. A defective matrix is detected numerically (clustered
    eigenvalues plus eigenvector-matrix condition number above
    DEFECT_COND_LIMIT, or a V that inv finds singular) and flagged, not
    raised; the operations that genuinely need an eigenbasis check the flag
    themselves. Only a clustered spectrum computes the condition number here;
    otherwise eigenvector_cond computes it on first read, from the same V.
    """
    C = as_complex_matrix(C)
    data = _closed_form_2x2(C) if C.shape[0] == 2 else None
    return data if data is not None else _eig_route(C)


def _eig_route(C: np.ndarray) -> SpectralData:
    """The record through LAPACK: eig, inv of V and one eigvalsh of the
    Hermitian part, formed as C/2 + C*/2 so that no entry near the float
    maximum overflows (halving is exact, so in the normal range this is
    (C + C*)/2 to the bit)."""
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

    if not defective:
        # rows of V^-1 are left row-eigenvectors; conjugate-transpose them into
        # eigenvectors of C*. A V that inv finds singular has no adjoint basis,
        # whatever the gaps of the spectrum: a defect like a cluster's
        try:
            W = np.linalg.inv(V).conj().T
        except np.linalg.LinAlgError:
            defective = True
    if defective:
        W = np.full_like(V, np.nan)
    else:
        # normalize W and push the scale onto V. A norm that overflows leaves
        # zeros, inf or NaN in W and V, with no warning on stderr, for the
        # readers of the record to refuse
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            W = W / np.linalg.norm(W, axis=0)
            V = V / np.einsum("jk,jk->k", W.conj(), V)

    herm = np.linalg.eigvalsh(C / 2.0 + C.conj().T / 2.0)
    return SpectralData(
        matrix=C,
        eigenvalues=lam,
        right_vectors=V,
        left_vectors=W,
        defective=defective,
        mu_s=float(herm[0]),
        nu_s=float(herm[-1]),
        _radius=radius,
        _unit_vectors=unit_V,
    )


def _closed_form_2x2(C: np.ndarray) -> SpectralData | None:
    """The record of a 2x2 C = [[a, b], [c, d]] with separated eigenvalues,
    in closed form on Python complex scalars; None where the eig route decides.

    The entries are first scaled by _pow2_scale of their largest part, which
    brings it to [1/2, 1), or within 2^24 of it beyond the clamp, so no
    product below overflows. With m = (a + d)/2 and h = (a - d)/2 the
    eigenvalues are m +- sqrt(h^2 + bc): the root of larger modulus is formed
    as that sum and the other as det C over it, so neither cancels; a
    triangular C (bc = 0) keeps its diagonal. Each unit eigenvector is the
    null vector of the larger row of C - lambda I. V^-1 is the adjugate over
    det V, and the adjugate's rows are unit, so its conjugated rows times the
    phase of det V are the unit adjoint eigenvectors w_j, and V / |det V| has
    <w_j, v_j> = 1. mu_s and nu_s come from _hermitian_extremes. The
    eigenvalues are scaled back and ordered by _order_with_clustered_ties, as
    on the eig route.

    None, for the eig route, when the pair is clustered (the eig route then
    decides the defect), when a nonzero part scales below the smallest normal
    float or |sqrt(h^2 + bc)| below _MIN_SCALED_DISC (the products here would
    lose bits to underflow), or when V is singular.
    """
    entries = C.ravel().tolist()
    parts = [abs(x) for z in entries for x in (z.real, z.imag) if x]
    if not parts:
        return None
    scale, unscale = _pow2_scale(max(parts))
    if min(parts) * scale < _TINY:
        return None
    a, b, c, d = (z * scale for z in entries)
    h, bc = 0.5 * (a - d), b * c
    disc = cmath.sqrt(h * h + bc) if bc else h
    if abs(disc) < _MIN_SCALED_DISC:
        return None
    if bc:
        m = 0.5 * (a + d)
        big = m + disc if m.real * disc.real + m.imag * disc.imag >= 0.0 else m - disc
        pair = (big, (a * d - bc) / big)
    else:
        pair = (a, d)
    radius = max(map(abs, pair))
    if abs(pair[1] - pair[0]) <= CLUSTER_GAP * radius:
        return None

    radius *= unscale
    values = [z * unscale for z in pair]
    i, j = _order_with_clustered_ties(np.array(values), COINCIDENCE_RTOL * radius).tolist()
    vectors = []
    for z in (pair[i], pair[j]):
        p, q = a - z, d - z
        n1 = math.hypot(p.real, p.imag, b.real, b.imag)
        n2 = math.hypot(c.real, c.imag, q.real, q.imag)
        vectors.append((b / n1, -p / n1) if n1 >= n2 else (q / n2, -c / n2))
    (x1, y1), (x2, y2) = vectors
    det = x1 * y2 - x2 * y1
    if det == 0.0:
        return None
    size = abs(det)
    unit_V = np.array([[x1, x2], [y1, y2]])
    W = np.array([[y2.conjugate(), -y1.conjugate()],
                  [-x2.conjugate(), x1.conjugate()]]) * (det / size)
    mu_s, nu_s = _hermitian_extremes(a.real, d.real, b + c.conjugate())
    return SpectralData(
        matrix=C,
        eigenvalues=np.array([values[i], values[j]]),
        right_vectors=unit_V / size,
        left_vectors=W,
        defective=False,
        mu_s=mu_s * unscale,
        nu_s=nu_s * unscale,
        _radius=radius,
        _unit_vectors=unit_V,
    )


def _hermitian_extremes(x: float, y: float, off: complex) -> tuple[float, float]:
    """(mu_s, nu_s), the eigenvalues of [[x, off/2], [conj(off)/2, y]].

    On the parts scaled by _pow2_scale of the largest, the eigenvalue of
    larger modulus is (x + y)/2 +- hypot(x - y, |off|)/2, with the sign of
    x + y, and the other the determinant over it, so neither cancels: a
    diagonal keeps its entries, however far apart.
    """
    top = max(abs(x), abs(y), abs(off.real), abs(off.imag))
    if top == 0.0:
        return 0.0, 0.0
    scale, unscale = _pow2_scale(top)
    x, y, o = x * scale, y * scale, math.hypot(off.real * scale, off.imag * scale)
    mid, half = 0.5 * (x + y), 0.5 * math.hypot(x - y, o)
    big = mid + half if mid >= 0.0 else mid - half
    other = (x * y - 0.25 * o * o) / big
    lo, hi = (other, big) if mid >= 0.0 else (big, other)
    return lo * unscale, hi * unscale


def _norm_2x2(C: np.ndarray) -> float:
    """|C|_2 of a 2x2 C, the root of the top eigenvalue of C*C.

    The entries are scaled by _pow2_scale of their largest part, which
    brings it to [1/2, 1) or as near as the clamp allows, so no square
    overflows, and the top eigenvalue, at least the largest part squared,
    is beyond the reach of any square that underflows. It is the sum
    (p + q)/2 + hypot(p - q, 2|off|)/2 of non-negative terms, so it does not
    cancel.
    """
    entries = C.ravel().tolist()
    scale, unscale = _pow2_scale(max(abs(x) for z in entries for x in (z.real, z.imag)))
    a, b, c, d = (z * scale for z in entries)
    p = a.real * a.real + a.imag * a.imag + c.real * c.real + c.imag * c.imag
    q = b.real * b.real + b.imag * b.imag + d.real * d.real + d.imag * d.imag
    off = a.conjugate() * b + c.conjugate() * d
    return math.sqrt(_hermitian_extremes(p, q, 2.0 * off)[1]) * unscale


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
    if not scalar:
        jordan_tol = ROUNDING_RTOL * _norm_2x2(data.matrix)
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
