"""Distributional validation of the quantizer against its closed-form laws.

The checks need on the order of 1e5 independent quantizations.  Samples are
drawn in fixed blocks: with g complex normals per sample (channel plus
codebook), block b holds samples [b*k, (b+1)*k) for k = max(1,
_BLOCK_GAUSSIANS // g), and draws them from its own stream,
``RngStream(seed, b, 0, PURPOSE_VALIDATION)``, channels first and then
codebooks.  Each block is quantized by the batched kernel the sweep runs
(``quantize_stack``), which scores each random codebook straight from its
drawn standard normals; as the sweep's per-block codebooks are, an
effective-channel block is scored a ``linalg.SLICE_BYTES`` slice at a time and
writes its samples straight into the pooled arrays.  Equivalence tests replay
the blocks and pin the collectors to the kernel and the test oracle.

Blocks run on the worker rule the sweep's chunks share (``linalg.worker_count``:
one thread per core the process may run on, at most 2^22 complex normals in
flight, a block counted as its whole draw; at B >= 17, M = 4, a block is one
sample, which slicing cannot shrink).  No sample depends on the worker count,
so the results are byte-identical whatever it is.  This is validation stream
contract version 2 (``STREAM_VERSION``); version 1 drew every sample from one
stream.

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
from .linalg import (
    PURPOSE_VALIDATION,
    RngStream,
    complex_normal,
    ordered_map,
    slice_items,
    worker_count,
)
from .quantize import FAULT_ORTHOGONAL, _orient, _select, quantize_stack, raise_fault
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

    A block is counted as its whole draw, ``size * gaussians_per_sample``
    complex normals of 16 bytes; ``_quantize_block`` holds less at once.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    size = max(1, _BLOCK_GAUSSIANS // gaussians_per_sample)
    takes = [min(size, n_samples - start) for start in range(0, n_samples, size)]
    return takes, worker_count(len(takes), size * gaussians_per_sample * 16)


def _run_blocks(n_samples: int, gaussians_per_sample: int, seed: int, draw) -> None:
    """draw(gen, rows) for every sample block on its own stream; rows slices its samples."""
    takes, workers = _plan(n_samples, gaussians_per_sample)

    def run(block: int):
        start = block * takes[0]
        draw(RngStream(seed, block, 0, PURPOSE_VALIDATION).generator(),
             slice(start, start + takes[block]))

    ordered_map(run, range(len(takes)), workers)


def _effective_gaussians(m: int, n: int, bits: int) -> int:
    return (2 ** bits + n) * m


def suite_workers(m: int, n: int, bits: int, n_samples: int) -> int:
    """Worker threads that run_validation_suite's sample collection uses."""
    return _plan(n_samples, _effective_gaussians(m, n, bits))[1]


def _quantize_block(gen: np.random.Generator, n: int, bits: int,
                    out: QuantizationSamples, rows: slice) -> None:
    """Quantize the samples ``rows`` into ``out[rows]``, as quantize_stack would their whole draw.

    After the channels, the codebooks' real parts (take, 2^B, M) are drawn
    whole and their imaginary parts a SLICE_BYTES slice at a time, the numbers
    of one (2, take, 2^B, M) draw; each slice is scored as it is drawn, on the
    block's one QR factor, and the block is oriented once.
    """
    take, m = rows.stop - rows.start, out.directions.shape[-1]
    channels = complex_normal(gen, (take, m, n))
    q, r = np.linalg.qr(channels)
    re = gen.standard_normal((take, 2 ** bits, m))
    index, q_hat, cos_sq = np.empty(take, np.intp), np.empty((take, m), complex), out.cos_sq[rows]
    step = slice_items(2 * re[0].nbytes)
    for lo in range(0, take, step):
        picks = slice(lo, lo + step)
        index[picks], q_hat[picks], cos_sq[picks] = _select(
            q[picks], (re[picks], gen.standard_normal(re[picks].shape)))
    result, fault = _orient(channels, q, r, index, q_hat, cos_sq)
    raise_fault(fault)
    out.eff_norm_sq[rows], out.directions[rows] = result.eff_norm_sq, result.s_proj


@lru_cache(maxsize=4)
def collect_effective_samples(m: int, n: int, bits: int, n_samples: int,
                              seed: int) -> QuantizationSamples:
    """Pool n_samples independent subspace quantizations (fresh codebook each).

    Every block writes its samples into the pooled arrays.  Recent results
    are memoized (the suite reads the same pool several times) and shared by
    every caller, so the returned arrays are read-only.
    """
    samples = QuantizationSamples(cos_sq=np.empty(n_samples), eff_norm_sq=np.empty(n_samples),
                                  directions=np.empty((n_samples, m), complex))
    _run_blocks(n_samples, _effective_gaussians(m, n, bits), seed,
                lambda gen, rows: _quantize_block(gen, n, bits, samples, rows))
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
    best = np.empty(n_samples)

    def draw(gen, rows):
        take = rows.stop - rows.start
        if per_antenna:  # column k of each channel against its own codebook
            columns = np.swapaxes(complex_normal(gen, (take, m, n)), 1, 2)[..., None]
            raw = gen.standard_normal((2, take, n, 2 ** bits, m))
        else:
            columns = complex_normal(gen, (take, 1, m, 1))
            raw = gen.standard_normal((2, take, 1, n * 2 ** bits, m))
        best[rows] = _best_cosines(columns, raw)

    _run_blocks(n_samples, n * 2 ** bits * m, seed, draw)
    return best


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
