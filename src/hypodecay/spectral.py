"""Spectral decomposition and stability classification for x' = -Cx.

Everything downstream (Lyapunov matrices, sharp constants, envelopes) is built
from one spectral record of the system matrix C, computed once: the eigenvalues
ordered by increasing real part, the right eigenvectors v_j of C, the right
eigenvectors w_j of the adjoint C*, and the extreme eigenvalues mu_s, nu_s of
the Hermitian part (C + C*)/2. The two eigenvector families are kept
biorthonormal, <w_j, v_k> = delta_jk, with the w_j at unit Euclidean norm;
under this scaling the inverse of the right-eigenvector matrix is exactly W*.
The stability report and the 2x2 canonical form only read this record.

The record has two routes. A 2x2 gets it in closed form on Python complex
scalars (_closed_form_2x2) unless that form declines it; every other matrix,
and a 2x2 it declines, takes LAPACK's eig, inv and eigvalsh (_eig_route), the
reference of the closed form.
This module makes the package's two refusals, so every record holds an
eigenbasis and every 2x2 form a decaying C: one rule, _jordan_cluster,
refuses a C within rounding of a Jordan block, for every n, and
_require_positive_stable a C whose record is not positive stable. The
extremes of a Hermitian 2x2 (_hermitian_extremes) and |C|_2 of a 2x2
(_norm_2x2) are closed forms too, which the lyapunov module shares.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass, field

import numpy as np

from . import _HOMES
from .errors import DefectiveInput, MatrixFormatError, NonConvergence, NotPositiveStable

__all__ = _HOMES["spectral"]

#: least singular value of a cluster's unit eigenvectors at or below which it
#: is a Jordan block: a heuristic cut between the measured <= 1.5e-7 of rotated
#: Jordan blocks (sizes 2 to 4) and >= 0.068 of semisimple repeated eigenvalues
DEFECT_SIGMA = 1e-6

#: the refusal of every defective matrix
DEFECT_MESSAGE = "matrix is defective (within rounding of a Jordan block): no full eigenbasis"

#: eigenvalues, or their real or imaginary parts, within COINCIDENCE_RTOL of the
#: spectral radius coincide; every such decision in the package asks this
COINCIDENCE_RTOL = 1e-10

#: eigenvalues within ROUNDING_RTOL of the spectral radius agree up to rounding:
#: lambda I rebuilt through a basis of overlap up to 0.999, or turned by a
#: unitary, splits by up to 21 ulps (measured). Only such a tie makes C scalar.
#: Times |C|_2 it is the rounding distance of C to a multiple eigenvalue
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
    if np.count_nonzero(np.isfinite(A)) < A.size:
        raise MatrixFormatError("matrix has non-finite entries")
    return A


@dataclass
class SpectralData:
    """Eigendecomposition of C with biorthonormal left/right eigenvectors;
    eigendecompose refuses a defective C, so every record holds an eigenbasis.

    Attributes
    ----------
    matrix : original matrix C
    eigenvalues : sorted by (Re, Im), increasing, coinciding real parts as equal
    right_vectors : columns v_j, C v_j = lambda_j v_j, scaled so <w_j, v_j> = 1
    left_vectors : columns w_j, C* w_j = conj(lambda_j) w_j, unit norm
    positive_stable : True when every eigenvalue has real part above
        coincidence_tol of the spectrum, so rounding noise on the imaginary
        axis certifies no decay; decided once per record, on both routes
    spectral_gap : mu, the smallest real part of the spectrum
    mu_s, nu_s : smallest and largest eigenvalue of (C + C*)/2
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray
    right_vectors: np.ndarray
    left_vectors: np.ndarray
    mu_s: float
    nu_s: float
    #: the spectral radius
    _radius: float = field(repr=False)
    positive_stable: bool = field(init=False)
    spectral_gap: float = field(init=False)

    def __post_init__(self):
        self.spectral_gap = _least([z.real for z in self.eigenvalues.tolist()])
        self.positive_stable = self.spectral_gap > COINCIDENCE_RTOL * self._radius

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def _nan_last(x: float) -> tuple:
    """Sort key of a float that puts NaN after every number, as numpy's sort."""
    return (True, 0.0) if x != x else (False, x)


def _least(xs: list[float]) -> float:
    """numpy's min of the floats xs: NaN if one is, else the last of the
    smallest, which signs a zero as numpy does on up to 16 of them."""
    return min(reversed(xs), key=lambda x: (x == x, x))


def _order_with_clustered_ties(lam, tol: float) -> list[int]:
    """Sort order (Re, Im) of the complex numbers lam, real parts within tol,
    coincidence_tol(lam), snapped together; ties keep their order, NaN goes last.

    Raw float real parts of an equal-real-part pair differ by rounding noise,
    which would make the tie-break on the imaginary part unreliable.
    """
    snapped = [z.real for z in lam]
    idx = sorted(range(len(lam)), key=lambda k: _nan_last(snapped[k]))
    for i, j in zip(idx, idx[1:]):
        if abs(snapped[j] - snapped[i]) <= tol:
            snapped[j] = snapped[i]
    return sorted(range(len(lam)), key=lambda k: (_nan_last(snapped[k]), _nan_last(lam[k].imag)))


def eigendecompose(C) -> SpectralData:
    """Eigendecompose C, ordering eigenvalues by (Re, Im) increasing.

    A 2x2 gets its record in closed form (_closed_form_2x2); every other C,
    and a 2x2 the closed form declines, takes the eig route (_eig_route).
    Raises NonConvergence if the QR iteration of that route fails, and
    DefectiveInput(DEFECT_MESSAGE) for a defective matrix, one within
    rounding of a Jordan block (_jordan_cluster) or with a V that inv finds
    singular, for every n: every record holds an eigenbasis.
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
    order = _order_with_clustered_ties(lam.tolist(), COINCIDENCE_RTOL * radius)
    lam = lam[order]
    V = unit_V = V[:, order]

    # rows of V^-1 are left row-eigenvectors; conjugate-transpose them into
    # eigenvectors of C*. A V that inv finds singular has no adjoint basis
    try:
        W = np.linalg.inv(V).conj().T
    except np.linalg.LinAlgError:
        raise DefectiveInput(DEFECT_MESSAGE) from None
    # normalize W and push the scale onto V. A norm that overflows leaves
    # zeros, inf or NaN in W and V, with no warning on stderr, and a NaN
    # kappa, which _jordan_cluster links to every eigenvalue
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        W = W / np.linalg.norm(W, axis=0)
        V = V / np.einsum("jk,jk->k", W.conj(), V)
        kappa = np.linalg.norm(V, axis=0)
    if _jordan_cluster(C, lam, kappa, unit_V):
        raise DefectiveInput(DEFECT_MESSAGE)

    herm = np.linalg.eigvalsh(C / 2.0 + C.conj().T / 2.0)
    return SpectralData(
        matrix=C,
        eigenvalues=lam,
        right_vectors=V,
        left_vectors=W,
        mu_s=float(herm[0]),
        nu_s=float(herm[-1]),
        _radius=radius,
    )


def _jordan_cluster(C: np.ndarray, lam: np.ndarray, kappa: np.ndarray, unit_V: np.ndarray) -> bool:
    """True when C lies within rounding of a Jordan block: the one defect rule.

    kappa_j, the norm of v_j scaled to <w_j, v_j> = 1 with w_j unit, is the
    condition number of lambda_j, and |lambda_i - lambda_j|/(kappa_i + kappa_j)
    is to first order the distance from C to a matrix on which the two
    coincide (Wilkinson 1972, Demmel 1987). Eigenvalues within ROUNDING_RTOL
    |C|_2 of that are linked, each to itself, and a NaN kappa to every one. A
    cluster, a connected component of the links, is a Jordan block when its
    unit eigenvectors unit_V[:, K] have least singular value at most
    DEFECT_SIGMA, and a linked 2x2 pair unless a scalar tie: only lambda I
    repeats a 2x2 eigenvalue semisimply. Gaps are divided by |C|_F (a hypot),
    then by |C|_2 if some pair is linked, so no bound under- or overflows.
    """
    n = len(lam)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        gaps, sums = np.abs(lam[:, None] - lam), ROUNDING_RTOL * (kappa[:, None] + kappa)
        if np.count_nonzero(gaps / math.hypot(*np.abs(C).ravel().tolist()) > sums) == n * (n - 1):
            return False
        reach = ~(gaps / (_norm_2x2(C) if n == 2 else float(np.linalg.norm(C, 2))) > sums)
    for _ in range(n.bit_length()):
        reach = reach @ reach
    return any(len(K) > 1 and (n == 2 and gaps[0, 1] > ROUNDING_RTOL * np.abs(lam).max()
                               or np.linalg.svd(unit_V[:, K], compute_uv=False)[-1] <= DEFECT_SIGMA)
               for K in {tuple(np.flatnonzero(row).tolist()) for row in reach})


def _closed_form_2x2(C: np.ndarray) -> SpectralData | None:
    """The record of a 2x2 C = [[a, b], [c, d]] in closed form on Python
    complex scalars; None where the eig route decides.

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

    None, for the eig route, when C is zero, when a nonzero part scales below
    the smallest normal float or |sqrt(h^2 + bc)| below _MIN_SCALED_DISC (the
    products here would lose bits to underflow), or when _jordan_cluster
    might link the pair, screened with both kappa 1/|det V| as
    |lambda_2 - lambda_1| |det V| <= 2 ROUNDING_RTOL |C|_F.
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
    radius = max(map(abs, pair)) * unscale
    values = [z * unscale for z in pair]
    i, j = _order_with_clustered_ties(values, COINCIDENCE_RTOL * radius)
    vectors = []
    for z in (pair[i], pair[j]):
        p, q = a - z, d - z
        n1 = math.hypot(p.real, p.imag, b.real, b.imag)
        n2 = math.hypot(c.real, c.imag, q.real, q.imag)
        vectors.append((b / n1, -p / n1) if n1 >= n2 else (q / n2, -c / n2))
    (x1, y1), (x2, y2) = vectors
    det = x1 * y2 - x2 * y1
    size = abs(det)
    fro = math.hypot(*(x for z in (a, b, c, d) for x in (z.real, z.imag)))
    if abs(pair[1] - pair[0]) * size <= 2.0 * ROUNDING_RTOL * fro:
        return None
    unit_V = np.array([[x1, x2], [y1, y2]])
    W = np.array([[y2.conjugate(), -y1.conjugate()],
                  [-x2.conjugate(), x1.conjugate()]]) * (det / size)
    mu_s, nu_s = _hermitian_extremes(a.real, d.real, b + c.conjugate())
    return SpectralData(
        matrix=C,
        eigenvalues=np.array([values[i], values[j]]),
        right_vectors=unit_V / size,
        left_vectors=W,
        mu_s=mu_s * unscale,
        nu_s=nu_s * unscale,
        _radius=radius,
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


def _require_positive_stable(data: SpectralData) -> SpectralData:
    """data, unless its record is not positive stable: the one refusal of a C
    with no decay to certify, for the CLI and every 2x2 form."""
    if not data.positive_stable:
        raise NotPositiveStable(f"spectral gap is {data.spectral_gap}, not above "
                                f"{coincidence_tol(data.eigenvalues):.3e} ({COINCIDENCE_RTOL:g} "
                                "of the spectral radius); no decay to certify")
    return data


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
    )


class DecayCase(str, enum.Enum):
    """Eigenvalue configuration of a diagonalizable 2x2 system."""

    EQUAL_EIGENVALUES = "EqualEigenvalues"
    EQUAL_REAL_PARTS = "EqualRealParts"
    EQUAL_IMAGINARY_PARTS = "EqualImaginaryParts"
    FULLY_DISTINCT = "FullyDistinct"


@dataclass
class Canonical2DForm:
    """A diagonalizable positive stable 2x2 system up to unitary similarity.

    Up to a unitary change of basis, which keeps the Euclidean norm of every
    solution and so every constant computed downstream, C is fixed by its
    eigenvalues lambda_1, lambda_2, the overlap alpha in [0, 1] of its unit adjoint
    eigenvectors and beta = sqrt(1 - alpha^2). mu_s and nu_s are copied from the
    spectral record. The form carries the one regime decision: case, rounding_tol
    (ROUNDING_RTOL times the spectral radius) and scalar (the eigenvalues agree within it).

    mu and nu are the real parts of lambda_1 and lambda_2. gamma, the
    real-part spread Re(lambda_2 - lambda_1), is >= 0 only up to the
    coincidence tolerance: -1.1e-16 on [[1, -1], [1, 0]]. delta is the
    imaginary-part spread Im(lambda_2 - lambda_1). All four are read off the
    eigenvalues once, as Python floats.
    """

    alpha: float
    beta: float
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
        lam0, lam1 = self.eigenvalues.tolist()
        self.mu, self.nu = _least([lam0.real, lam1.real]), lam1.real
        spread = lam1 - lam0
        self.gamma, self.delta = spread.real, spread.imag

    @property
    def kappa_min(self) -> float:
        """(1 + alpha)/(1 - alpha) as q^2, q = (1 + alpha)/beta: the least kappa of P."""
        q = (1.0 + self.alpha) / self.beta
        return q * q


def canonical_2d_form(data: SpectralData) -> Canonical2DForm:
    """Reduce a 2x2 system to (alpha, beta, lambda_1, lambda_2) and its regime.

    alpha = |<w1, w2>| and beta = |det W| of the unit adjoint eigenvectors, each
    capped at 1 (Cauchy-Schwarz, Hadamard); their Gram determinant is 1 - alpha^2,
    so beta has relative error eps/beta where 1 - alpha^2 formed from alpha has
    eps/beta^2. NotPositiveStable: no form exists for a C that does not decay.
    """
    if data.n != 2:
        raise MatrixFormatError(f"canonical form needs a 2x2 matrix, got n={data.n}")
    _require_positive_stable(data)

    tol, rounding_tol = COINCIDENCE_RTOL * data._radius, ROUNDING_RTOL * data._radius
    spread = data.eigenvalues[1] - data.eigenvalues[0]
    gap = abs(spread)
    (w00, w01), (w10, w11) = data.left_vectors.tolist()
    case = (DecayCase.EQUAL_EIGENVALUES if gap <= tol
            else DecayCase.EQUAL_REAL_PARTS if abs(spread.real) <= tol
            else DecayCase.EQUAL_IMAGINARY_PARTS if abs(spread.imag) <= tol
            else DecayCase.FULLY_DISTINCT)
    return Canonical2DForm(
        alpha=min(abs(w00.conjugate() * w01 + w10.conjugate() * w11), 1.0),
        beta=min(abs(w00 * w11 - w01 * w10), 1.0),
        eigenvalues=data.eigenvalues.copy(),
        mu_s=data.mu_s,
        nu_s=data.nu_s,
        case=case,
        scalar=bool(gap <= rounding_tol),
        rounding_tol=rounding_tol,
    )
