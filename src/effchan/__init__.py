"""Effective-channel quantization for limited-feedback multi-antenna downlinks.

A receiver with N antennas does not quantize its M x N channel matrix; it
quantizes the best direction *inside* the channel's column span and applies a
combining vector that turns the array into a single effective antenna pointed
along the quantized direction.  This package provides the quantizers, the
zero-forcing downlink simulation around them, the closed-form feedback-bit
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
    TrialRecord,
    run_experiment,
    run_trial,
)
from .linalg import DegenerateChannelError, RngStream, normal_solve
from .precoding import perfect_csit_rates, refused, sinr_stack, sum_rate, zero_force
from .quantize import (
    Codebook,
    QuantizationResult,
    generate_codebook,
    quantize_antenna_selection,
    quantize_effective,
    quantize_single,
    quantize_stack,
)
from .stats import (
    FitReport,
    beta_cdf,
    gamma_cdf,
    isotropy_report,
    ks_statistic,
    ks_test,
    max_beta_cdf,
    mean_ci,
)
from .validate import (
    QuantizationSamples,
    collect_best_cosine_samples,
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
    "Codebook",
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
    "TrialRecord",
    "beta_cdf",
    "bits_required",
    "collect_best_cosine_samples",
    "collect_effective_samples",
    "delta_a",
    "direction_isotropy_report",
    "effective_gain_report",
    "feedback_savings",
    "gamma_cdf",
    "generate_codebook",
    "isotropy_report",
    "ks_statistic",
    "ks_test",
    "max_beta_cdf",
    "mean_ci",
    "normal_solve",
    "perfect_csit_rates",
    "quant_error_approx",
    "quant_error_mean_report",
    "quantization_angle_report",
    "quantize_antenna_selection",
    "quantize_effective",
    "quantize_single",
    "quantize_stack",
    "rate_gap_bound",
    "refused",
    "run_experiment",
    "run_trial",
    "run_validation_suite",
    "sinr_stack",
    "sum_rate",
    "zero_force",
]
