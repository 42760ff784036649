"""Asymptotic Bergman kernels for exponentially weighted spaces of
holomorphic functions, with independent numerical oracles.

The pipeline runs weight -> phase -> amplitude -> kernel:
truncated power series model the real-analytic weight near a point, a
stationary-phase expansion engine produces the kernel amplitude to a
requested order in h, and quadrature-based oracles (Gram-matrix kernels,
Fourier inversion, contour quadrature, sampled inequalities) check the
result without reusing the expansion machinery.
"""

from .amplitude import (Amplitude, ExpansionTermOps, RealizedSymbol,
                        estimate_growth, formal_expansion, realize,
                        solve_amplitude)
from .cli import RunConfig, config_from_dict, emit, load_config, main, run
from .errors import (BadContour, BergmanError, ConfigInvalid, DegenerateFit,
                     IllConditioned, InsufficientDegree, IoError,
                     QuadratureUnderresolved, VariableMismatch)
from .oracle import (CompareStats, FourierCheck, GramKernel,
                     LocalizedElement, MarginSuite, PointwiseBound,
                     QuadratureCase, QuadratureResult, compare_kernels,
                     fourier_inversion_check, gram_bergman, inequality_suite,
                     localized_element, near_diagonal_pairs,
                     pointwise_bound_check, sp_quadrature_check)
from .phase import (PhaseData, build_phase, inversion_margin, phase_on_contour,
                    theta_jacobian_pairs, theta_pairing, theta_pairs, theta_ratio,
                    verify_contour)
from .projector import (DecayFit, DomainSpec, KernelEvaluator, apply_projection,
                        assemble_kernel, check_domain, decay_fit, make_domain,
                        reproducing_error, weighted_norm)
from .series import TruncatedSeries
from .weight import Weight, quadratic_gap_estimate, validate_weight

__all__ = [
    "Amplitude", "BadContour", "BergmanError", "CompareStats",
    "ConfigInvalid", "DecayFit", "DegenerateFit", "DomainSpec",
    "ExpansionTermOps", "FourierCheck", "GramKernel", "IllConditioned",
    "InsufficientDegree", "IoError", "KernelEvaluator", "LocalizedElement",
    "MarginSuite", "PhaseData", "PointwiseBound", "QuadratureCase",
    "QuadratureResult", "QuadratureUnderresolved", "RealizedSymbol",
    "RunConfig", "TruncatedSeries", "VariableMismatch", "Weight",
    "apply_projection", "assemble_kernel", "build_phase", "check_domain",
    "compare_kernels", "config_from_dict", "decay_fit", "emit",
    "estimate_growth", "formal_expansion", "fourier_inversion_check",
    "gram_bergman", "inequality_suite", "inversion_margin", "load_config",
    "localized_element", "main", "make_domain", "near_diagonal_pairs",
    "phase_on_contour", "pointwise_bound_check", "quadratic_gap_estimate",
    "realize", "reproducing_error", "run", "solve_amplitude",
    "sp_quadrature_check", "theta_jacobian_pairs", "theta_pairing",
    "theta_pairs", "theta_ratio", "validate_weight", "verify_contour",
    "weighted_norm",
]
