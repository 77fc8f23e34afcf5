"""Distributional validation of the quantizer against its closed-form laws.

The checks need on the order of 1e5 independent quantizations.  Samples are
drawn in fixed blocks: with g complex normals per sample (channel plus
codebook), block b holds samples [b*k, (b+1)*k) for k = max(1,
_BLOCK_GAUSSIANS // g), and draws them from its own stream,
``RngStream(seed, b, 0, PURPOSE_VALIDATION)``, channels first and then
codebooks.  Each block is quantized by the same batched kernel the sweep runs
(``quantize_stack``), which scores each random codebook straight from its
drawn standard normals; equivalence tests replay the blocks and pin the
collectors to the test oracle sample by sample.

Blocks run on the worker rule the sweep's chunks share (``linalg.worker_count``:
one thread per core the process may run on, at most 2^22 complex normals in
flight).  No sample depends on the worker count, so the results are
byte-identical whatever it is.  This is validation stream contract version 2
(``STREAM_VERSION``); version 1 drew every sample from one stream.

Laws checked:
* squared cosine of the quantization angle ~ max of 2^B iid Beta(N, M-N);
* the normalized effective channel is isotropic on the unit sphere;
* the squared effective-channel norm ~ Gamma(M-N+1, 1), checked as a tested
  hypothesis (it is exact for N = 1 and empirically exact otherwise);
* the mean quantization error matches its extreme-value approximation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .formulas import quant_error_approx
from .linalg import PURPOSE_VALIDATION, RngStream, complex_normal, ordered_map, worker_count
from .quantize import FAULT_ORTHOGONAL, quantize_stack, raise_fault
from .stats import FitReport, gamma_cdf, isotropy_report, ks_test, max_beta_cdf

STREAM_VERSION = 2  # validation stream contract: one stream per sample block
_BLOCK_GAUSSIANS = 2 ** 19  # complex normals per sample block; fixes the streams
# largest relative error of the mean quantization error against its approximation
_QUANT_ERROR_RTOL = 0.15


@dataclass(frozen=True)
class QuantizationSamples:
    """Per-sample quantizer outputs pooled over independent fading blocks."""

    cos_sq: np.ndarray
    eff_norm_sq: np.ndarray
    directions: np.ndarray  # (n_samples, m) normalized effective channels


def _plan(n_samples: int, gaussians_per_sample: int) -> tuple[list[int], int]:
    """Sample count of every block, and the worker threads that run them.

    A block holds ``size * gaussians_per_sample`` complex normals, 16 bytes each.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    size = max(1, _BLOCK_GAUSSIANS // gaussians_per_sample)
    takes = [min(size, n_samples - start) for start in range(0, n_samples, size)]
    return takes, worker_count(len(takes), size * gaussians_per_sample * 16)


def _run_blocks(n_samples: int, gaussians_per_sample: int, seed: int, draw) -> list:
    """draw(gen, take) for every sample block on its own stream, in block order."""
    takes, workers = _plan(n_samples, gaussians_per_sample)

    def run(block: int):
        return draw(RngStream(seed, block, 0, PURPOSE_VALIDATION).generator(), takes[block])

    return ordered_map(run, range(len(takes)), workers)


def _effective_gaussians(m: int, n: int, bits: int) -> int:
    return (2 ** bits + n) * m


def suite_workers(m: int, n: int, bits: int, n_samples: int) -> int:
    """Worker threads that run_validation_suite's sample collection uses."""
    return _plan(n_samples, _effective_gaussians(m, n, bits))[1]


def _quantize_block(channels: np.ndarray, raw: np.ndarray) -> QuantizationSamples:
    """Quantize one block by the batched kernel; raw (2, ..., 2^B, M) holds codebook normals."""
    r, fault = quantize_stack(channels, (raw[0], raw[1]))
    raise_fault(fault)
    return QuantizationSamples(cos_sq=r.cos_sq, eff_norm_sq=r.eff_norm_sq, directions=r.s_proj)


@lru_cache(maxsize=4)
def collect_effective_samples(m: int, n: int, bits: int, n_samples: int,
                              seed: int) -> QuantizationSamples:
    """Pool n_samples independent subspace quantizations (fresh codebook each).

    Recent results are memoized (the suite reads the same pool several times)
    and shared by every caller, so the returned arrays are read-only.
    """
    def draw(gen, take):  # channels, then codebooks: the equivalence tests replay this order
        channels = complex_normal(gen, (take, m, n))
        return _quantize_block(channels, gen.standard_normal((2, take, 2 ** bits, m)))

    parts = _run_blocks(n_samples, _effective_gaussians(m, n, bits), seed, draw)
    samples = QuantizationSamples(*(np.concatenate([getattr(p, name) for p in parts])
                                    for name in ("cos_sq", "eff_norm_sq", "directions")))
    for array in (samples.cos_sq, samples.eff_norm_sq, samples.directions):
        array.flags.writeable = False
    return samples


def collect_best_cosine_samples(m: int, n: int, bits: int, n_samples: int, seed: int,
                                per_antenna: bool) -> np.ndarray:
    """Squared cosines from vector quantization of single-antenna channels.

    per_antenna=True: each of the N columns gets its own 2^bits codebook and
    the best antenna is kept (antenna-selection upper layer).  False: one
    channel vector against a single codebook of N * 2^bits entries, the
    matched-size flat quantizer.  Each column is a one-column channel for
    the batched kernel.
    """
    def draw(gen, take):
        if per_antenna:  # column k of each channel against its own codebook
            columns = np.swapaxes(complex_normal(gen, (take, m, n)), 1, 2)[..., None]
            raw = gen.standard_normal((2, take, n, 2 ** bits, m))
        else:
            columns = complex_normal(gen, (take, 1, m, 1))
            raw = gen.standard_normal((2, take, 1, n * 2 ** bits, m))
        return _best_cosines(columns, raw)

    return np.concatenate(_run_blocks(n_samples, n * 2 ** bits * m, seed, draw))


def _best_cosines(columns: np.ndarray, raw: np.ndarray) -> np.ndarray:
    """Each sample's best cos^2; an orthogonal column's 0 is a valid sample, not a fault."""
    r, fault = quantize_stack(columns, (raw[0], raw[1]))
    raise_fault(np.where(fault == FAULT_ORTHOGONAL, 0, fault))
    return r.cos_sq.max(axis=1)


def quantization_angle_report(m: int, n: int, bits: int, n_samples: int, seed: int) -> FitReport:
    """Squared quantization cosine vs the max-of-Beta(N, M-N) law (ks_test's default threshold)."""
    if not 1 <= n <= m - 1:
        raise ValueError(f"the angle law needs 1 <= N <= M-1, got N={n}, M={m}")
    samples = collect_effective_samples(m, n, bits, n_samples, seed)
    count = 2 ** bits
    # reference mean by integrating the exact survival function on a fine grid
    trapezoid = getattr(np, "trapezoid", None) or np.trapz
    grid = np.linspace(0.0, 1.0, 4097)
    mean_ref = float(trapezoid(1.0 - max_beta_cdf(grid, n, m - n, count), grid))
    return ks_test(
        samples.cos_sq,
        lambda x: max_beta_cdf(x, n, m - n, count),
        name=f"angle_law_m{m}_n{n}_b{bits}",
        mean_ref=mean_ref,
        mean_rtol=0.02,
    )


def direction_isotropy_report(m: int, n: int, bits: int, n_samples: int,
                              seed: int) -> FitReport:
    """Normalized effective channel vs the uniform law on the complex sphere."""
    samples = collect_effective_samples(m, n, bits, n_samples, seed)
    return isotropy_report(samples.directions, name=f"direction_isotropy_m{m}_n{n}_b{bits}")


def effective_gain_report(m: int, n: int, bits: int, n_samples: int, seed: int,
                          shape_offset: int = 0) -> FitReport:
    """Squared effective-channel norm vs Gamma(M-N+1, 1) (ks_test's default threshold).

    shape_offset shifts the reference shape parameter; nonzero values exist
    so a deliberately wrong reference can be shown to fail (power check).
    """
    samples = collect_effective_samples(m, n, bits, n_samples, seed)
    shape = m - n + 1 + shape_offset
    if shape < 1:
        raise ValueError(f"reference shape {shape} invalid")
    return ks_test(
        samples.eff_norm_sq,
        lambda x: gamma_cdf(x, shape),
        name=f"effective_gain_m{m}_n{n}_b{bits}",
        mean_ref=float(shape),
        mean_rtol=0.01,
    )


def quant_error_mean_report(m: int, n: int, bits: int, n_samples: int, seed: int) -> FitReport:
    """Mean quantization error vs its closed-form approximation."""
    samples = collect_effective_samples(m, n, bits, n_samples, seed)
    mean_obs = float(np.mean(1.0 - samples.cos_sq))
    approx = quant_error_approx(bits, m, n)
    rel = abs(mean_obs - approx) / approx
    return FitReport(
        name=f"quant_error_m{m}_n{n}_b{bits}",
        n_samples=n_samples,
        ks_statistic=float("nan"),
        mean_obs=mean_obs,
        mean_ref=approx,
        passed=bool(rel <= _QUANT_ERROR_RTOL),
        thresholds={"mean_rel_error": _QUANT_ERROR_RTOL},
        details={"mean_rel_error": rel},
    )


def run_validation_suite(m: int, n: int, bits: int, n_samples: int, seed: int,
                         wrong_reference: bool = False) -> list[FitReport]:
    """All distributional checks for one (M, N, B) configuration.

    wrong_reference=True swaps in off-by-one reference laws; every report
    must then fail, demonstrating the suite actually has detection power.
    """
    if wrong_reference:
        samples = collect_effective_samples(m, n, bits, n_samples, seed)
        count = 2 ** bits
        gain = effective_gain_report(m, n, bits, n_samples, seed, shape_offset=1)
        return [
            ks_test(samples.cos_sq,
                    lambda x: max_beta_cdf(x, n, m - n + 1, count),
                    name=f"angle_law_m{m}_n{n}_b{bits}_wrong_ref"),
            replace(gain, name=gain.name + "_wrong_ref"),
        ]
    reports = [
        quantization_angle_report(m, n, bits, n_samples, seed),
        direction_isotropy_report(m, n, bits, n_samples, seed),
        effective_gain_report(m, n, bits, n_samples, seed),
        quant_error_mean_report(m, n, bits, n_samples, seed),
    ]
    return reports
