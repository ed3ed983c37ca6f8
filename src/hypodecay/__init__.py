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

import importlib

__version__ = "0.1.0"

# Every public name and the module it lives in: the one list of public names.
# Each module's ``__all__`` is its row here. A name is imported from its home
# module on first access (PEP 562), so ``import hypodecay`` loads no submodule
# and no numpy, and each command of the CLI pays only for the modules it uses.
_HOMES = {
    "spectral": (
        "SpectralData", "StabilityReport", "Canonical2DForm", "DecayCase",
        "as_complex_matrix", "eigendecompose", "classify_stability",
        "canonical_2d_form",
    ),
    "lyapunov": (
        "LyapunovMatrix", "LyapunovCertificate",
        "build_weighted_p", "lyapunov_residual", "certificate_from_p",
    ),
    "condopt": (
        "WeightOptimum", "AdmissibleOptimum",
        "minimize_kappa_2d", "minimize_kappa_weights", "minimize_kappa_admissible",
    ),
    "sharp2d": (
        "SharpResult2D", "EnvelopeCurve",
        "classify_and_sharp_constant", "envelope_curves", "sup_m_plus",
    ),
    "rate_family": (
        "FamilyBound", "FamilyEnvelope",
        "upper_bound_constant", "lower_bound_constant", "family_envelope",
    ),
    "propagator": ("exact_solution", "rk4_oracle"),
    "goldstein_taylor": (
        "TorusField", "GTBoundReport", "GT_RATE", "GT_CONSTANT", "GT_TOL",
        "mode_matrix", "mode_certificate", "decompose", "reconstruct",
        "evolve", "deviation_norm", "verify_gt_bound",
    ),
    "errors": (
        "HypodecayError", "MatrixFormatError", "NonConvergence",
        "NotPositiveStable", "DefectiveInput",
        "NotAdmissible", "RateOutOfRange", "ZeroMode",
        "CutoffTooLarge", "NotNormalized",
    ),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
