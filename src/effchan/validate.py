"""Distributional validation of the quantizer against its closed-form laws.

The checks need on the order of 1e5 independent quantizations.
``run_validation_suite`` draws them once, as one pool, and hands that pool to
every report.  Samples are drawn in fixed blocks: with g complex normals per
sample (channel plus codebook), block b holds samples [b*k, (b+1)*k) for k =
max(1, _BLOCK_GAUSSIANS // g), and draws them from its own stream,
``RngStream(seed, b, 0, PURPOSE_VALIDATION)``: first the block's channels,
one (2, k, M, N) draw, then each sample's codebook in sample order, each one
(2, 2^B, M) run as ``generate_codebook`` draws it.  An effective-channel
block is quantized by the batched kernel through ``quantize._select_drawn``,
which scores each codebook straight from its drawn normals, a
``linalg.SLICE_BYTES`` slice of samples at a time, so a block holds one slice;
the block writes its samples straight into the pooled arrays.  The pool holds
24 bytes a sample, whatever M is: of each normalized effective channel it
keeps only ``stats.isotropy_moments``, summed by block.
Equivalence tests replay the blocks and pin the collector to the kernel.

Blocks run on the worker rule the sweep's chunks share (``linalg.worker_count``:
one thread per core the process may run on, and together at most
``IN_FLIGHT_BYTES``, a block counted from its shapes by ``_block_bytes``; at
B >= 17, M = 4, a block is one sample and holds its whole codebook, which
slicing by sample cannot shrink).  No sample depends on the worker count or
the slice size, so the results are byte-identical whatever they are.  This
is validation stream contract version 4 (``STREAM_VERSION``): every stream
is an SFC64 generator, so a normal takes a variable number of random words
and the block is the unit of replay.

Laws checked:
* squared cosine of the quantization angle ~ max of 2^B iid Beta(N, M-N);
* the normalized effective channel is isotropic on the unit sphere;
* the squared effective-channel norm ~ Gamma(M-N+1, 1), checked as a tested
  hypothesis (it is exact for N = 1 and empirically exact otherwise);
* the mean quantization error matches its extreme-value approximation.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass

import numpy as np

from .formulas import _check_antennas, quant_error_approx
from .linalg import (
    PURPOSE_VALIDATION,
    RngStream,
    complex_from_parts,
    is_stream_id,
    ordered_map,
    slice_items,
    worker_count,
)
from .quantize import _orient, _scan_bytes, _select_drawn, check_bits, raise_fault
from .stats import FitReport, gamma_cdf, isotropy_moments, isotropy_verdict, ks_test, max_beta_cdf

STREAM_VERSION = 4  # validation stream contract: one stream per block, codebooks per sample
_BLOCK_GAUSSIANS = 2 ** 19  # complex normals per sample block; fixes the streams
# largest relative error of the mean quantization error against its approximation
_QUANT_ERROR_RTOL = 0.15


@dataclass(frozen=True)
class ValidationConfig:
    """One validation run: M transmit and N receive antennas, codebook bits, samples, seed.

    Building one raises ValueError for values the suite cannot test.
    """

    m: int
    n_rx: int
    bits: int
    samples: int
    seed: int

    def __post_init__(self):
        _check_antennas(self.m, self.n_rx)
        check_bits(self.bits)
        if not is_stream_id(self.samples) or self.samples < 1000:
            raise ValueError(f"the suite needs an integer count of at least 1000 samples, "
                             f"got {self.samples!r}")
        if not is_stream_id(self.seed):
            raise ValueError(f"seed must be nonnegative and an integer, got {self.seed!r}")


@dataclass(frozen=True)
class QuantizationSamples:
    """Per-sample quantizer outputs pooled over independent fading blocks."""

    cos_sq: np.ndarray
    eff_norm_sq: np.ndarray
    probe_proj_sq: np.ndarray  # isotropy_moments of the normalized effective channels v:
    direction_sum: np.ndarray  # each |<probe, v>|^2, the sum of v (m,) and of v v^H (m, m)
    direction_gram: np.ndarray


def _plan(m: int, n: int, bits: int, n_samples: int) -> tuple[list[range], int]:
    """The sample blocks of one pool, and the worker threads that run them.

    A sample draws (2^B + N) M complex normals, its channel and codebook.
    Workers are capped by the bytes a block holds (``_block_bytes``).
    """
    size = max(1, _BLOCK_GAUSSIANS // ((2 ** bits + n) * m))
    blocks = [range(lo, min(lo + size, n_samples)) for lo in range(0, n_samples, size)]
    return blocks, worker_count(len(blocks), _block_bytes(m, n, bits, len(blocks[0])))


def _block_bytes(m: int, n: int, bits: int, take: int) -> int:
    """Bytes an effective-sample block of ``take`` samples holds at its peak, from shapes alone.

    A sample holds its channel, QR factors and picks, and a sample of the
    codebook slice one ``_select`` call scores holds ``_scan_bytes``.
    """
    scanned = min(take, slice_items(2 ** bits * m * 16))
    return take * (16 * (2 * m * n + n * n + m) + 8) + scanned * 2 ** bits * _scan_bytes(m, n, True)


def suite_workers(config: ValidationConfig) -> int:
    """Worker threads that run_validation_suite's sample collection uses."""
    return _plan(config.m, config.n_rx, config.bits, config.samples)[1]


def _quantize_block(gen: np.random.Generator, n: int, bits: int, out: QuantizationSamples,
                    rows: slice) -> list:
    """Quantize the samples ``rows`` into ``out[rows]``, as quantize_stack would.

    The block's channels (take, M, N) are drawn first and QR-factored once,
    ``_select_drawn`` draws and scores each sample's codebook, and the block is
    oriented once.  Returns the sums of its isotropy moments.
    """
    take, m = rows.stop - rows.start, len(out.direction_sum)
    channels = complex_from_parts(gen.standard_normal((2, take, m, n)))
    q, r = np.linalg.qr(channels)
    picks = np.empty(take, np.intp), np.empty((take, m), complex), out.cos_sq[rows]
    _select_drawn(gen, q, bits, (n,), [picks])
    result, fault = _orient(channels, q, r, *picks)
    raise_fault(fault)
    out.eff_norm_sq[rows] = result.eff_norm_sq
    out.probe_proj_sq[rows], *sums = isotropy_moments(result.s_proj)
    return sums


def collect_effective_samples(m: int, n: int, bits: int, n_samples: int,
                              seed: int) -> QuantizationSamples:
    """Pool n_samples independent subspace quantizations (fresh codebook each).

    Every block writes its samples into the pooled arrays; its direction
    sums are added in block order.  Each call draws a fresh pool;
    ``run_validation_suite`` draws one and hands it to every report.  Raises
    ValueError for antenna counts, bits or a sample count it cannot draw.
    """
    _check_antennas(m, n)
    check_bits(bits)
    if not is_stream_id(n_samples) or n_samples < 1:
        raise ValueError(f"n_samples must be a positive integer, got {n_samples!r}")
    vector_sum, gram = np.zeros(m, complex), np.zeros((m, m), complex)
    samples = QuantizationSamples(*(np.empty(n_samples) for _ in range(3)), vector_sum, gram)
    blocks, workers = _plan(m, n, bits, n_samples)

    def run(block: int) -> list:
        gen = RngStream(seed, block, 0, PURPOSE_VALIDATION).generator()
        rows = blocks[block]
        return _quantize_block(gen, n, bits, samples, slice(rows.start, rows.stop))

    for part_sum, part_gram in ordered_map(run, range(len(blocks)), workers):
        vector_sum += part_sum
        gram += part_gram
    return samples


def _tag(config: ValidationConfig) -> str:
    return f"m{config.m}_n{config.n_rx}_b{config.bits}"


def _gain_test(config: ValidationConfig, samples: QuantizationSamples, shape: int,
               suffix: str = "") -> FitReport:
    """Squared effective-channel norm vs Gamma(shape, 1), its mean within 1%."""
    return ks_test(samples.eff_norm_sq, lambda x: gamma_cdf(x, shape),
                   name=f"effective_gain_{_tag(config)}{suffix}", mean_ref=float(shape),
                   mean_rtol=0.01)


def quantization_angle_report(config: ValidationConfig,
                              samples: QuantizationSamples) -> FitReport:
    """Squared quantization cosine vs the max-of-Beta(N, M-N) law."""
    m, n, count = config.m, config.n_rx, 2 ** config.bits
    # reference mean by integrating the exact survival function on a fine grid
    trapezoid = getattr(np, "trapezoid", None) or np.trapz
    grid = np.linspace(0.0, 1.0, 4097)
    mean_ref = float(trapezoid(1.0 - max_beta_cdf(grid, n, m - n, count), grid))
    return ks_test(samples.cos_sq, lambda x: max_beta_cdf(x, n, m - n, count),
                   name=f"angle_law_{_tag(config)}", mean_ref=mean_ref, mean_rtol=0.02)


def direction_isotropy_report(config: ValidationConfig,
                              samples: QuantizationSamples) -> FitReport:
    """Normalized effective channel vs the uniform law on the complex sphere."""
    return isotropy_verdict(samples.probe_proj_sq, samples.direction_sum, samples.direction_gram,
                            name=f"direction_isotropy_{_tag(config)}")


def effective_gain_report(config: ValidationConfig, samples: QuantizationSamples) -> FitReport:
    """Squared effective-channel norm vs Gamma(M-N+1, 1)."""
    return _gain_test(config, samples, config.m - config.n_rx + 1)


def quant_error_mean_report(config: ValidationConfig, samples: QuantizationSamples) -> FitReport:
    """Mean quantization error vs its closed-form approximation."""
    mean_obs = float(np.mean(1.0 - samples.cos_sq))
    approx = quant_error_approx(config.bits, config.m, config.n_rx)
    rel = abs(mean_obs - approx) / approx
    return FitReport(
        name=f"quant_error_{_tag(config)}",
        n_samples=samples.cos_sq.size,
        ks_statistic=float("nan"),
        mean_obs=mean_obs,
        mean_ref=approx,
        passed=bool(rel <= _QUANT_ERROR_RTOL),
        thresholds={"mean_rel_error": _QUANT_ERROR_RTOL},
        details={"mean_rel_error": rel},
    )


def _wrong_reference_reports(config: ValidationConfig,
                             samples: QuantizationSamples) -> list[FitReport]:
    """The angle and gain laws with one shape parameter off by one; both must fail."""
    m, n, count = config.m, config.n_rx, 2 ** config.bits
    return [
        ks_test(samples.cos_sq, lambda x: max_beta_cdf(x, n, m - n + 1, count),
                name=f"angle_law_{_tag(config)}_wrong_ref"),
        _gain_test(config, samples, m - n + 2, "_wrong_ref"),
    ]


def run_validation_suite(config: ValidationConfig,
                         wrong_reference: bool = False) -> list[FitReport]:
    """All distributional checks for one (M, N, B) configuration, on one pool.

    wrong_reference=True swaps in off-by-one reference laws; every report
    must then fail, demonstrating the suite actually has detection power.
    """
    samples = collect_effective_samples(*astuple(config))
    if wrong_reference:
        return _wrong_reference_reports(config, samples)
    return [
        quantization_angle_report(config, samples),
        direction_isotropy_report(config, samples),
        effective_gain_report(config, samples),
        quant_error_mean_report(config, samples),
    ]
