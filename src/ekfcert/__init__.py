"""Continuous-time extended Kalman filtering with contraction certificates.

The package integrates the coupled estimate/covariance flow of the filter,
derives exponential convergence certificates (rate, region radius, error
envelope) from covariance eigenvalue bounds and second-derivative bounds,
and validates the certificates against simulated true, virtual, twin and
perturbed trajectories.
"""

from .bench import BenchmarkEntry, make, register, registry
from .contraction import (ContractionCertificate, check_contraction_inequality,
                          compare_analyses, contraction_matrix, empirical_radius,
                          inflation_rate_gain, linear_output_check, make_certificate,
                          zeta_plus)
from .ekf import (FilterConfig, FilterTrajectory, TimeSeries, integrate_ekf, riccati_rhs,
                  rk4_step, time_grid)
from .errors import (ConfigurationError, CovarianceBoundViolation,
                     DivergenceError, EkfCertError, ModelEvaluationError,
                     PreconditionError, RunFailure)
from .model import (HessianBounds, SystemModel, estimate_hessian_bounds,
                    eval_jacobians, hessian_tensor, tensor_norm)
from .sim import (Disturbance, EnvelopeReport, ExperimentRun, envelope_check,
                  fit_exponential_rate, integrate_truth, perturbed_run, twin_decay,
                  variational_validator)

__version__ = "0.1.0"

__all__ = [
    "BenchmarkEntry", "make", "register", "registry",
    "ContractionCertificate", "check_contraction_inequality", "compare_analyses",
    "contraction_matrix", "empirical_radius", "inflation_rate_gain",
    "linear_output_check", "make_certificate", "zeta_plus",
    "FilterConfig", "FilterTrajectory", "integrate_ekf", "riccati_rhs",
    "ConfigurationError", "CovarianceBoundViolation", "DivergenceError",
    "EkfCertError", "ModelEvaluationError", "PreconditionError", "RunFailure",
    "HessianBounds", "SystemModel", "estimate_hessian_bounds", "eval_jacobians",
    "hessian_tensor", "tensor_norm",
    "TimeSeries", "rk4_step", "time_grid",
    "Disturbance", "EnvelopeReport", "ExperimentRun", "envelope_check",
    "fit_exponential_rate", "integrate_truth", "perturbed_run", "twin_decay",
    "variational_validator",
    "__version__",
]
