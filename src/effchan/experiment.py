"""Ergodic sum-rate Monte Carlo over fading blocks.

One trial = one fading block: draw every user's M x N channel, quantize with
that block's codebooks, zero-force on the reported directions, and evaluate
the true SINRs.  A matching perfect-knowledge benchmark (independent M-user
single-antenna draw) runs on the same trial index so the reported gap is a
paired comparison.

Determinism contract: every random draw comes from an RngStream keyed by
(seed, trial, user, purpose), so results depend only on the config seed and
are byte-identical for any worker count.  Trials run in chunks (one batched
pass each) that start at fixed trial indices, aggregated in index order.
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
    rewind,
    stream_keys,
)
from .precoding import perfect_csit_rates, refused, sinr_stack, sum_rate, zero_force
from .quantize import MAX_CODEBOOK_BITS, Codebook, generate_codebook, quantize_stack
from .stats import mean_ci

CODEBOOK_POLICIES = ("per_block", "fixed")
# Codebook bytes (users x 2^B x M entries a trial, two float64 parts each) one
# chunk of trials scans: bounds the kernel's memory, one trial at M = 8, B = 10.
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
            if self.target_gap is None or self.target_gap <= 0:
                raise ValueError(f"scaling rule needs a positive target gap, got {self.target_gap}")
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


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one sweep cell: geometry, grid, bits, trials, seed.

    The number of users always equals the number of transmit antennas M.
    """

    m: int
    n: int
    snr_db_grid: tuple
    bits_rule: BitsRule
    trials: int
    seed: int
    codebook_policy: str = "per_block"

    def __post_init__(self):
        for field in ("m", "n", "trials", "seed"):
            value = getattr(self, field)
            if not is_stream_id(value):
                raise ValueError(f"{field} must be a nonnegative integer, got {value!r}")
        if self.m < 2:
            raise ValueError(f"need at least 2 transmit antennas, got M={self.m}")
        if not 1 <= self.n <= self.m:
            raise ValueError(f"need 1 <= N <= M, got N={self.n} with M={self.m}")
        if len(self.snr_db_grid) == 0:
            raise ValueError("SNR grid is empty")
        if self.trials < 1:
            raise ValueError(f"need at least 1 trial, got {self.trials}")
        if self.codebook_policy not in CODEBOOK_POLICIES:
            raise ValueError(
                f"codebook policy must be one of {CODEBOOK_POLICIES}, got {self.codebook_policy!r}")

    @property
    def users(self) -> int:
        return self.m


@dataclass(frozen=True)
class TrialRecord:
    """One fading block's outcome; dropped trials carry zero rates."""

    sinrs: np.ndarray
    rate_fb: float
    rate_zf: float
    dropped: bool


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


def _run_chunk(config: ExperimentConfig, power: float, bits: int, seed: int, trials: range,
               codebooks: list[Codebook] | None = None) -> list[TrialRecord]:
    """Simulate the fading blocks ``trials`` of stream seed ``seed`` in one batched pass.

    Each trial draws every user's channel, per-block codebook and benchmark
    channel from its own stream; the chunk derives all their keys at once and
    rewinds one generator to each, so every draw equals the stream's own;
    the kernel scores per-block codebooks straight from their drawn normals.
    A trial is dropped when a user's quantization faults or zero-forcing
    refuses either direction stack.
    """
    m, n, users = config.m, config.n, config.users
    keys = stream_keys(seed, np.asarray(trials)[:, None, None], np.arange(users)[:, None],
                       np.array([PURPOSE_CHANNEL, PURPOSE_CODEBOOK, PURPOSE_BENCHMARK]))
    gen = np.random.Generator(np.random.Philox(0))  # rewound to a key before each draw
    channel_parts = np.empty((len(trials), users, 2, m, n))
    bench_parts = np.empty((len(trials), users, 2, m))
    if codebooks is None:
        book_parts = np.empty((len(trials), users, 2, 2 ** bits, m))
        books = (book_parts[:, :, 0], book_parts[:, :, 1])
    else:
        books = np.stack([cb.vectors for cb in codebooks])[None]  # shared by every trial
    for t, trial_keys in enumerate(keys):
        for u, (channel_key, codebook_key, bench_key) in enumerate(trial_keys):
            rewind(gen, channel_key).standard_normal(out=channel_parts[t, u])
            if codebooks is None:  # generate_codebook's draw
                rewind(gen, codebook_key).standard_normal(out=book_parts[t, u])
            rewind(gen, bench_key).standard_normal(out=bench_parts[t, u])
    channels = complex_from_parts(np.moveaxis(channel_parts, 2, 0))
    # (trials, M, users), contiguous: column u = user u
    bench = complex_from_parts(bench_parts.transpose(2, 0, 3, 1))
    fb, fault = quantize_stack(channels, books)
    # user stacks as (M, M) matrices with one column per user
    beams, cond, residual = zero_force(np.swapaxes(fb.q_hat, -1, -2))
    sinrs = sinr_stack(np.swapaxes(fb.h_eff, -1, -2), beams, power)
    rate_zf, zf_cond, zf_residual = perfect_csit_rates(bench, power)
    dropped = (fault != 0).any(axis=-1) | refused(cond, residual) | refused(zf_cond, zf_residual)
    sinrs = np.where(dropped[:, None], 0.0, sinrs)  # dropped trials carry zero rates
    rate_zf = np.where(dropped, 0.0, rate_zf)
    return [TrialRecord(s, float(fb_rate), float(zf_rate), bool(drop))
            for s, fb_rate, zf_rate, drop in zip(sinrs, sum_rate(sinrs), rate_zf, dropped)]


def run_trial(config: ExperimentConfig, power: float, bits: int, stream: RngStream,
              codebooks: list[Codebook] | None = None) -> TrialRecord:
    """Simulate one fading block at linear power ``power`` with B = bits.

    ``stream`` identifies the block by its seed and trial index (its user and
    purpose are not used).  ``codebooks`` overrides per-user codebook
    generation (used by the fixed-codebook policy and by tests that plant
    codebook entries).  A one-trial chunk of the batched pass.
    """
    trials = range(stream.trial, stream.trial + 1)
    return _run_chunk(config, power, bits, stream.seed, trials, codebooks)[0]


def _fixed_codebooks(config: ExperimentConfig, bits: int) -> list[Codebook] | None:
    if config.codebook_policy != "fixed":
        return None
    return [
        generate_codebook(RngStream(config.seed, 0, u, PURPOSE_FIXED_CODEBOOK), bits, config.m)
        for u in range(config.users)
    ]


def _point_records(config: ExperimentConfig, power: float, bits: int,
                   threads: int) -> list[TrialRecord]:
    codebooks = _fixed_codebooks(config, bits)
    size = max(1, _CHUNK_BYTES // (config.users * 2 ** bits * config.m * 2 * 8))
    # chunk boundaries depend on the config only and workers take whole
    # chunks, so the worker count never changes any record or their order
    chunks = [range(lo, min(lo + size, config.trials)) for lo in range(0, config.trials, size)]
    run = partial(_run_chunk, config, power, bits, config.seed, codebooks=codebooks)
    if threads <= 1 or len(chunks) < 2:
        parts = map(run, chunks)
    else:
        with ProcessPoolExecutor(max_workers=min(threads, len(chunks))) as pool:
            parts = list(pool.map(run, chunks, chunksize=math.ceil(len(chunks) / threads)))
    return [record for part in parts for record in part]


def _aggregate(config: ExperimentConfig, snr_db: float, bits: int,
               records: list[TrialRecord], warnings: list) -> GridPointResult:
    kept = [r for r in records if not r.dropped]
    dropped = len(records) - len(kept)
    if dropped > 0.01 * len(records):
        warnings.append(
            f"snr_db={snr_db:g} n_rx={config.n}: dropped {dropped}/{len(records)} trials")
    if not kept:
        warnings.append(f"snr_db={snr_db:g} n_rx={config.n}: all trials dropped")
        nan = float("nan")
        return GridPointResult(snr_db, config.n, bits, nan, nan, nan, nan, nan,
                               dropped, len(records))
    fb_mean, fb_ci = mean_ci(np.array([r.rate_fb for r in kept]))
    zf_mean, zf_ci = mean_ci(np.array([r.rate_zf for r in kept]))
    return GridPointResult(
        snr_db=snr_db,
        n_rx=config.n,
        bits=bits,
        rate_fb_mean=fb_mean,
        rate_fb_ci=fb_ci,
        rate_zf_mean=zf_mean,
        rate_zf_ci=zf_ci,
        gap=zf_mean - fb_mean,
        dropped=dropped,
        trials=len(records),
    )


def run_experiment(config: ExperimentConfig, threads: int = 1) -> ExperimentResult:
    """Run the full SNR grid for one (M, N) cell.

    Results are deterministic in (config, seed): the thread count only
    changes wall-clock time.  Dropped trials (a degenerate channel, a codeword
    orthogonal to the span, a combiner that fails its norm identity, or a
    direction stack or perfect-CSIT benchmark stack that zero-forcing
    refuses) are excluded from the averages and counted per grid point, with
    a warning if they exceed one percent.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    warnings: list = []
    points = []
    for snr_db in config.snr_db_grid:
        power = 10.0 ** (snr_db / 10.0)
        bits = config.bits_rule.resolve(config.m, config.n, snr_db)
        records = _point_records(config, power, bits, threads)
        points.append(_aggregate(config, snr_db, bits, records, warnings))
    return ExperimentResult(config=config, points=points, warnings=warnings)
