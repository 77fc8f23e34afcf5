"""Effective-channel quantization for limited-feedback multi-antenna downlinks.

A receiver with N antennas does not quantize its M x N channel matrix; it
quantizes the best direction *inside* the channel's column span and applies a
combining vector that turns the array into a single effective antenna pointed
along the quantized direction.  This package provides the quantizer, the
zero-forcing downlink simulation around it, the closed-form feedback-bit
scaling laws, and distributional validation of the quantizer's statistics.
"""

from .formulas import (
    InfeasibleTargetError,
    ScalingInputs,
    bits_required,
    delta_a,
    feedback_savings,
    quant_error_approx,
    rate_gap_bound,
)
from .experiment import (
    BitsRule,
    ExperimentConfig,
    ExperimentResult,
    GridPointResult,
    run_experiment,
)
from .linalg import DegenerateChannelError, RngStream
from .precoding import refused, sinr_stack, sum_rate, zero_force
from .quantize import (
    QuantizationResult,
    generate_codebook,
    quantize_stack,
)
from .stats import (
    FitReport,
    beta_cdf,
    gamma_cdf,
    ks_statistic,
    ks_test,
    max_beta_cdf,
    mean_ci,
)
from .validate import (
    QuantizationSamples,
    ValidationConfig,
    collect_effective_samples,
    direction_isotropy_report,
    effective_gain_report,
    quant_error_mean_report,
    quantization_angle_report,
    run_validation_suite,
)

__version__ = "0.1.0"

__all__ = [
    "BitsRule",
    "DegenerateChannelError",
    "ExperimentConfig",
    "ExperimentResult",
    "FitReport",
    "GridPointResult",
    "InfeasibleTargetError",
    "QuantizationResult",
    "QuantizationSamples",
    "RngStream",
    "ScalingInputs",
    "ValidationConfig",
    "beta_cdf",
    "bits_required",
    "collect_effective_samples",
    "delta_a",
    "direction_isotropy_report",
    "effective_gain_report",
    "feedback_savings",
    "gamma_cdf",
    "generate_codebook",
    "ks_statistic",
    "ks_test",
    "max_beta_cdf",
    "mean_ci",
    "quant_error_approx",
    "quant_error_mean_report",
    "quantization_angle_report",
    "quantize_stack",
    "rate_gap_bound",
    "refused",
    "run_experiment",
    "run_validation_suite",
    "sinr_stack",
    "sum_rate",
    "zero_force",
]
