"""Ergodic sum-rate Monte Carlo over fading blocks.

One trial = one fading block: draw every user's M x N channel, quantize with
that block's codebooks, zero-force on the reported directions, and evaluate
the true SINRs.  A matching perfect-knowledge benchmark (independent M-user
single-antenna draw) runs on the same trial index so the reported gap is a
paired comparison.

A sweep's whole (N, SNR) grid runs in one pass over chunks per bit count.
No stream id carries N or SNR, so a chunk draws the benchmark, the codebooks
and the largest N's channels (a smaller N's are a prefix of them) once for the
whole grid, zero-forces the benchmark and each N's feedback once, and rates
every SNR point from the same beams.

Determinism contract, stream version 2 (``STREAM_VERSION``, in the sweep
manifest): block b, trials [64 b, 64 b + 64), draws its channels, benchmarks
and per-block codebooks in trial order from one stream per purpose,
``RngStream(seed, b, 0, purpose)``.  A normal takes a variable number of
Philox words, so the block, not the trial, is the unit of replay.  Chunks are
whole blocks, so no draw depends on the chunk size or the worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .formulas import ScalingInputs, bits_required
from .linalg import (
    PURPOSE_BENCHMARK,
    PURPOSE_CHANNEL,
    PURPOSE_CODEBOOK,
    PURPOSE_FIXED_CODEBOOK,
    RngStream,
    complex_from_parts,
    is_stream_id,
)
from .precoding import perfect_csit_rates, refused, sinr_stack, sum_rate, zero_force
from .quantize import MAX_CODEBOOK_BITS, generate_codebook, quantize_stack
from .stats import mean_ci

CODEBOOK_POLICIES = ("per_block", "fixed")
# Version of the sweep's stream contract (module docstring), and the trials
# per stream block, the contract's unit of replay.
STREAM_VERSION = 2
_BLOCK = 64
# Codebook bytes (users x 2^B x M entries a trial, two float64 parts each) a
# chunk scans or a per-block codebook slice holds: one trial at M = 8, B = 10.
_CHUNK_BYTES = 2 ** 20


@dataclass(frozen=True)
class BitsRule:
    """How many feedback bits each user spends per block.

    Either a fixed bit count, or the gap-target scaling rule which picks
    B = ceil(bits_required) at each SNR grid point (clamped to at least one
    bit, since a codebook needs two entries).
    """

    kind: str
    bits: int | None = None
    target_gap: float | None = None

    def __post_init__(self):
        if self.kind == "fixed":
            if not is_stream_id(self.bits) or not 1 <= self.bits <= MAX_CODEBOOK_BITS:
                raise ValueError(f"fixed bits must be an integer in [1, {MAX_CODEBOOK_BITS}], "
                                 f"got {self.bits!r}")
        elif self.kind == "scaling":
            if self.target_gap is None or not 0 < self.target_gap < math.inf:  # NaN fails too
                raise ValueError(
                    f"scaling rule needs a positive finite target gap, got {self.target_gap}")
        else:
            raise ValueError(f"unknown bits rule kind {self.kind!r}")

    @classmethod
    def fixed(cls, bits: int) -> "BitsRule":
        return cls(kind="fixed", bits=bits)

    @classmethod
    def scaling(cls, target_gap: float) -> "BitsRule":
        return cls(kind="scaling", target_gap=target_gap)

    def resolve(self, m: int, n: int, snr_db: float) -> int:
        """Integer bit count for one grid point (may raise InfeasibleTargetError)."""
        if self.kind == "fixed":
            return int(self.bits)
        exact = bits_required(ScalingInputs(m=m, n=n, p_db=snr_db, target_gap=self.target_gap))
        bits = max(1, math.ceil(exact))
        if bits > MAX_CODEBOOK_BITS:
            raise ValueError(
                f"scaling rule needs {bits} bits at {snr_db} dB (N={n}), "
                f"beyond the {MAX_CODEBOOK_BITS}-bit codebook limit")
        return bits


def _power(snr_db: float) -> float:
    """Linear transmit power of an SNR in dB (inf where a float overflows)."""
    try:
        return 10.0 ** (snr_db / 10.0)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one sweep: geometry, (N, SNR) grid, bits, trials, seed.

    The number of users always equals the number of transmit antennas M.
    """

    m: int
    n_rx: tuple
    snr_db_grid: tuple
    bits_rule: BitsRule
    trials: int
    seed: int
    codebook_policy: str = "per_block"

    def __post_init__(self):
        for field in ("m", "trials", "seed"):
            value = getattr(self, field)
            if not is_stream_id(value):
                raise ValueError(f"{field} must be a nonnegative integer, got {value!r}")
        if self.m < 2:
            raise ValueError(f"need at least 2 transmit antennas, got M={self.m}")
        if not self.n_rx or not all(is_stream_id(n) and 1 <= n <= self.m for n in self.n_rx):
            raise ValueError(
                f"n_rx must hold integers N, 1 <= N <= M = {self.m}, got {self.n_rx!r}")
        if len(self.snr_db_grid) == 0:
            raise ValueError("SNR grid is empty")
        if not all(math.isfinite(p) and math.isfinite(_power(p)) for p in self.snr_db_grid):
            raise ValueError("SNR grid entries must be finite, and so must their linear "
                             f"powers, got {self.snr_db_grid}")
        if self.trials < 1:
            raise ValueError(f"need at least 1 trial, got {self.trials}")
        if self.codebook_policy not in CODEBOOK_POLICIES:
            raise ValueError(
                f"codebook policy must be one of {CODEBOOK_POLICIES}, got {self.codebook_policy!r}")

    @property
    def users(self) -> int:
        return self.m


@dataclass(frozen=True)
class GridPointResult:
    """Aggregated rates at one (SNR, N) grid point; ci fields are half-widths."""

    snr_db: float
    n_rx: int
    bits: int
    rate_fb_mean: float
    rate_fb_ci: float
    rate_zf_mean: float
    rate_zf_ci: float
    gap: float
    dropped: int
    trials: int


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    points: list
    warnings: list


def _budget_trials(config: ExperimentConfig, bits: int) -> int:
    """Trials whose codebooks fit in _CHUNK_BYTES (at least one)."""
    return max(1, _CHUNK_BYTES // (config.users * 2 ** bits * config.m * 2 * 8))


def _run_chunk(config: ExperimentConfig, bits: int, cells: list[tuple[int, float]],
               trials: range, codebooks: np.ndarray | None = None
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Simulate the fading blocks ``trials`` at every (N, SNR) cell of ``cells``.

    ``trials`` starts at a stream block's first trial; a block the range ends
    inside draws a prefix of its streams.  A block draws its benchmarks, its
    channels for the largest N and its per-block codebooks from one stream
    per purpose, the codebooks a slice of at most _CHUNK_BYTES at a time,
    each slice scored for every N before the next is drawn.  An N drops a
    trial at all its SNRs when a quantization faults or zero-forcing refuses
    its stack or the benchmark's.  Returns ``(rate_fb, rate_zf, dropped)``,
    each ``(len(cells), len(trials))``; a dropped trial carries zero rates.
    """
    m, users, seed, count = config.m, config.users, config.seed, len(trials)
    first_block, starts = trials.start // _BLOCK, range(0, count, _BLOCK)
    n_rx = list(dict.fromkeys(n for n, _ in cells))
    channel_parts = {n: np.empty((count, users, 2, m, n)) for n in n_rx}
    bench_parts = np.empty((count, users, 2, m))
    for lo in starts:
        block, size = first_block + lo // _BLOCK, min(_BLOCK, count - lo)
        # an N's draw, (size, users, 2, M, N), is a prefix of the largest N's
        normals = RngStream(seed, block, 0, PURPOSE_CHANNEL).generator().standard_normal(
            size * users * 2 * m * max(n_rx))
        for n in n_rx:
            channel_parts[n][lo:lo + size] = normals[:size * users * 2 * m * n].reshape(
                size, users, 2, m, n)
        RngStream(seed, block, 0, PURPOSE_BENCHMARK).generator().standard_normal(
            out=bench_parts[lo:lo + _BLOCK])
    channels = {n: complex_from_parts(np.moveaxis(parts, 2, 0))
                for n, parts in channel_parts.items()}
    # (trials, M, users), contiguous: column u = user u
    bench = complex_from_parts(bench_parts.transpose(2, 0, 3, 1))
    powers = {snr_db: _power(snr_db) for _, snr_db in cells}
    zf_rates, zf_cond, zf_residual = perfect_csit_rates(bench, np.array(list(powers.values())))
    rate_zf, zf_refused = dict(zip(powers, zf_rates)), refused(zf_cond, zf_residual)
    if codebooks is not None:  # shared by every trial
        scored = {n: [quantize_stack(channels[n], codebooks)] for n in n_rx}
    else:  # generate_codebook's draw, trial after trial, a slice at a time
        scored, step = {n: [] for n in n_rx}, _budget_trials(config, bits)
        for lo in starts:
            gen = RngStream(seed, first_block + lo // _BLOCK, 0, PURPOSE_CODEBOOK).generator()
            end = min(lo + _BLOCK, count)
            for i in range(lo, end, step):
                normals = gen.standard_normal((min(step, end - i), users, 2, 2 ** bits, m))
                books = (normals[:, :, 0], normals[:, :, 1])
                for n in n_rx:
                    scored[n].append(quantize_stack(channels[n][i:i + len(normals)], books))
    records = {}
    for n in n_rx:
        q_hat, h_eff, fault = (np.concatenate(parts) for parts in
                               zip(*((fb.q_hat, fb.h_eff, f) for fb, f in scored[n])))
        # user stacks as (M, M) matrices with one column per user
        beams, cond, residual = zero_force(np.swapaxes(q_hat, -1, -2))
        dropped = (fault != 0).any(axis=-1) | refused(cond, residual) | zf_refused
        own = [snr_db for k, snr_db in cells if k == n]
        sinrs = sinr_stack(np.swapaxes(h_eff, -1, -2), beams, np.array([powers[s] for s in own]))
        sinrs = np.where(dropped[:, None], 0.0, sinrs)  # dropped trials carry zero rates
        for snr_db, rate_fb in zip(own, sum_rate(sinrs)):
            records[n, snr_db] = rate_fb, np.where(dropped, 0.0, rate_zf[snr_db]), dropped
    return tuple(np.stack(column) for column in zip(*(records[cell] for cell in cells)))


def _fixed_codebooks(config: ExperimentConfig, bits: int) -> np.ndarray | None:
    """Every user's fixed codebook, stacked (1, users, 2^B, M); None under per_block."""
    if config.codebook_policy != "fixed":
        return None
    books = [generate_codebook(RngStream(config.seed, 0, u, PURPOSE_FIXED_CODEBOOK), bits,
                               config.m) for u in range(config.users)]
    return np.stack([cb.vectors for cb in books])[None]


def _aggregate(n_rx: int, snr_db: float, bits: int,
               records: tuple[np.ndarray, np.ndarray, np.ndarray],
               warnings: list) -> GridPointResult:
    rate_fb, rate_zf, drops = records
    kept, trials, dropped = ~drops, len(drops), int(drops.sum())
    if dropped > 0.01 * trials:
        warnings.append(f"snr_db={snr_db:g} n_rx={n_rx}: dropped {dropped}/{trials} trials")
    if dropped == trials:
        warnings.append(f"snr_db={snr_db:g} n_rx={n_rx}: all trials dropped")
        nan = float("nan")
        return GridPointResult(snr_db, n_rx, bits, nan, nan, nan, nan, nan, dropped, trials)
    fb_mean, fb_ci = mean_ci(rate_fb[kept])
    zf_mean, zf_ci = mean_ci(rate_zf[kept])
    return GridPointResult(snr_db, n_rx, bits, fb_mean, fb_ci, zf_mean, zf_ci, zf_mean - fb_mean,
                           dropped, trials)


def run_experiment(config: ExperimentConfig, threads: int = 1) -> ExperimentResult:
    """Run the full grid: a point for each N of n_rx, for each SNR.

    Every point's bits are resolved before any trial runs; points of equal
    bits share one pass over chunks.  Results are deterministic in (config,
    seed): the thread count only changes wall-clock time.  Dropped trials (a
    degenerate channel, a codeword orthogonal to the span, a combiner that
    fails its norm identity, or a refused direction or benchmark stack) are
    excluded from the averages and counted per grid point, with a warning if
    they exceed one percent.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    grid = [(n, snr_db, config.bits_rule.resolve(config.m, n, snr_db))
            for n in config.n_rx for snr_db in config.snr_db_grid]
    records = {}
    for bits in dict.fromkeys(bits for *_, bits in grid):
        cells = list(dict.fromkeys((n, snr_db) for n, snr_db, b in grid if b == bits))
        size = max(1, _budget_trials(config, bits) // _BLOCK) * _BLOCK
        # chunks are whole stream blocks and workers take whole chunks, so
        # neither the chunk size nor the worker count changes any rate or order
        chunks = [range(lo, min(lo + size, config.trials)) for lo in range(0, config.trials, size)]
        run = partial(_run_chunk, config, bits, cells, codebooks=_fixed_codebooks(config, bits))
        if threads <= 1 or len(chunks) < 2:
            parts = map(run, chunks)
        else:
            with ProcessPoolExecutor(max_workers=min(threads, len(chunks))) as pool:
                parts = list(pool.map(run, chunks, chunksize=math.ceil(len(chunks) / threads)))
        columns = (np.concatenate(column, axis=-1) for column in zip(*parts))
        records.update(zip(cells, zip(*columns)))  # cell -> (rate_fb, rate_zf, dropped)
    warnings: list = []
    points = [_aggregate(n, snr_db, bits, records[n, snr_db], warnings)
              for n, snr_db, bits in grid]
    return ExperimentResult(config=config, points=points, warnings=warnings)
