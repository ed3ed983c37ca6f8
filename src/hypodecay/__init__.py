"""Decay certificates for linear ODE systems x' = -Cx.

Given a diagonalizable positive stable matrix C, the package certifies
two-sided exponential estimates

    c2 e^{-nu t} |f0|  <=  |f(t)|  <=  c1 e^{-mu t} |f0|

through weighted Lyapunov matrices P with minimal condition number, computes
the sharp constants and attainment structure for 2x2 systems, and applies the
machinery mode by mode to the two-velocity transport-relaxation model on the
torus. A Runge-Kutta integrator, independent of the eigendecomposition,
cross-checks the propagators and the envelopes.
"""

from .condopt import (
    AdmissibleOptimum,
    WeightOptimum,
    minimize_kappa_2d,
    minimize_kappa_admissible,
    minimize_kappa_weights,
)
from .errors import (
    CutoffTooLarge,
    Defective2D,
    DefectiveInput,
    HypodecayError,
    MatrixFormatError,
    NonConvergence,
    NotAdmissible,
    NotNormalized,
    NotPositiveStable,
    RateOutOfRange,
    SearchFailure,
    ZeroMode,
    ZeroVector,
)
from .goldstein_taylor import (
    GT_CONSTANT,
    GT_RATE,
    GTBoundReport,
    GTModeCertificate,
    TorusField,
    decompose,
    deviation_norm,
    evolve,
    mode_certificate,
    mode_matrix,
    reconstruct,
    verify_gt_bound,
)
from .lyapunov import (
    LyapunovCertificate,
    LyapunovMatrix,
    build_weighted_p,
    certificate_from_p,
    lyapunov_residual,
)
from .propagator import (
    BoundCheck,
    exact_solution,
    propagator_matrix,
    rk4_oracle,
    time_grid,
    verify_bounds,
)
from .rate_family import (
    FamilyBound,
    FamilyEnvelope,
    family_envelope,
    lower_bound_constant,
    upper_bound_constant,
)
from .sharp2d import (
    DecayCase,
    EnvelopeCurve,
    SharpResult2D,
    SupOfEnvelope,
    classify_and_sharp_constant,
    envelope_curves,
    sector_constant,
    sup_m_plus,
)
from .spectral import (
    Canonical2DForm,
    SpectralData,
    StabilityReport,
    alpha_overlap,
    as_complex_matrix,
    canonical_2d_form,
    classify_stability,
    eigendecompose,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # spectral analysis
    "SpectralData", "StabilityReport", "Canonical2DForm",
    "as_complex_matrix", "eigendecompose", "classify_stability",
    "alpha_overlap", "canonical_2d_form",
    # Lyapunov certificates
    "LyapunovMatrix", "LyapunovCertificate",
    "build_weighted_p", "lyapunov_residual", "certificate_from_p",
    # condition-number optimization
    "WeightOptimum", "AdmissibleOptimum",
    "minimize_kappa_2d", "minimize_kappa_weights", "minimize_kappa_admissible",
    # sharp 2x2 constants and envelopes
    "DecayCase", "SharpResult2D", "EnvelopeCurve", "SupOfEnvelope",
    "classify_and_sharp_constant", "envelope_curves", "sup_m_plus",
    "sector_constant",
    # rate families
    "FamilyBound", "FamilyEnvelope",
    "upper_bound_constant", "lower_bound_constant", "family_envelope",
    # propagation and verification
    "BoundCheck", "exact_solution", "propagator_matrix", "rk4_oracle",
    "verify_bounds", "time_grid",
    # transport model
    "TorusField", "GTModeCertificate", "GTBoundReport",
    "GT_RATE", "GT_CONSTANT",
    "mode_matrix", "mode_certificate", "decompose", "reconstruct",
    "evolve", "deviation_norm", "verify_gt_bound",
    # errors
    "HypodecayError", "MatrixFormatError", "NonConvergence",
    "NotPositiveStable", "DefectiveInput", "Defective2D", "ZeroVector",
    "NotAdmissible", "SearchFailure", "RateOutOfRange", "ZeroMode",
    "CutoffTooLarge", "NotNormalized",
]
