"""Ergodic sum-rate Monte Carlo over fading blocks.

One trial = one fading block: draw every user's M x N channel, quantize with
that block's codebooks, zero-force on the reported directions, and evaluate
the true SINRs.  A matching perfect-knowledge benchmark (independent M-user
single-antenna draw) runs on the same trial index so the reported gap is a
paired comparison.

A sweep's whole (N, SNR) grid runs in one pass over chunks per bit count.
No stream id carries N or SNR, so a chunk draws the benchmark, the codebooks
and an M x M channel per trial and user once for the grid.  An N's channel is
the first N columns of it, so the receive antennas nest: N + 1 antennas are
the same mobile's N antennas and one more.  The chunk QR-factors the largest
N once (a smaller N's factors are prefixes of it), takes every N's picks from
one pass of the codebook policy's scorer (``CODEBOOK_POLICIES``), orients and
zero-forces each N and the benchmark once, and rates every SNR point from the
same beams.

Determinism contract, stream version 4 (``STREAM_VERSION``, in the sweep
manifest): block b, trials [64 b, 64 b + 64), draws its channels (M x M
each), benchmarks and per-block codebooks in trial order from one stream per
purpose, ``RngStream(seed, b, 0, purpose)``.  A normal takes a variable
number of random words, so the block, not the trial, is the unit of replay.
Chunks are whole blocks, so no draw depends on the chunk size or the worker
count.

A bit count's chunks run on the threads of ``linalg.worker_count``, as
validation's sample blocks do, and are joined in chunk order.
"""

from __future__ import annotations

import math
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
    ordered_map,
    slice_items,
    worker_count,
)
from .precoding import perfect_csit_rates, refused, sinr_stack, sum_rate, zero_force
from .quantize import (MAX_CODEBOOK_BITS, _orient, _scan_bytes, _select, _select_drawn,
                       check_bits, generate_codebook)
from .stats import mean_ci

# Version of the sweep's stream contract (module docstring), and the trials
# per stream block, the contract's unit of replay.  A chunk is as many whole
# stream blocks as one ``linalg.SLICE_BYTES`` slice of per-block codebooks
# holds trials, but at least one.
STREAM_VERSION = 4
_BLOCK = 64


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
            check_bits(self.bits, "fixed bits")
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
        if self.codebook_policy not in tuple(CODEBOOK_POLICIES):
            raise ValueError(f"codebook_policy must be one of {tuple(CODEBOOK_POLICIES)}, "
                             f"got {self.codebook_policy!r}")

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


def _chunk_bytes(config: ExperimentConfig, bits: int, trials: int, scanned: int) -> int:
    """Bytes a chunk of ``trials`` trials holds at its peak, from shapes alone.

    A trial and user holds its complex (M, M) channel, the QR factors of the
    largest N, every N's quantization results, and the complex benchmark (their
    normals are freed once these are formed).  A trial, user and codeword of the
    ``scanned`` trials one ``_select`` call scores holds ``_scan_bytes`` for the
    largest N, its normals counted only under per_block (a fixed codebook is
    shared).
    """
    m, top = config.m, max(config.n_rx)
    held = (16 * (m * m + m * top + top * top + m)
            + sum(16 * (3 * m + n) + 40 for n in config.n_rx))
    per_codeword = _scan_bytes(m, top, config.codebook_policy == "per_block")
    return config.users * (trials * held + scanned * 2 ** bits * per_codeword)


def _plan(config: ExperimentConfig, bits: int) -> tuple[list[range], int]:
    """The chunks of one bit count, and the worker threads that run them.

    Workers are capped by the bytes a chunk holds (``_chunk_bytes``): its
    draws and picks, and the codebooks one ``_select`` call scores, a
    per-block slice or the whole chunk against the fixed codebooks.
    """
    step = slice_items(config.users * 2 ** bits * config.m * 16)  # trials a codebook slice holds
    size = max(1, step // _BLOCK) * _BLOCK
    chunks = [range(lo, min(lo + size, config.trials)) for lo in range(0, config.trials, size)]
    trials = len(chunks[0])
    scanned = trials if config.codebook_policy == "fixed" else min(step, _BLOCK, trials)
    return chunks, worker_count(len(chunks), _chunk_bytes(config, bits, trials, scanned))


def _score_per_block(config: ExperimentConfig, bits: int):
    """Per-block scorer: a chunk's stream blocks draw their codebooks as generate_codebook
    would, trial after trial, and ``_select_drawn`` scores each slice for every width."""
    def score(first_block: int, q: np.ndarray, widths: list) -> list:
        lead = q.shape[:-2]
        picks = [(np.empty(lead, np.intp), np.empty((*lead, config.m), complex), np.empty(lead))
                 for _ in widths]
        for lo in range(0, len(q), _BLOCK):
            stream = RngStream(config.seed, first_block + lo // _BLOCK, 0, PURPOSE_CODEBOOK)
            rows = slice(lo, lo + _BLOCK)
            _select_drawn(stream.generator(), q[rows], bits, widths,
                          [[p[rows] for p in pick] for pick in picks])
        return picks
    return score


def _score_fixed(config: ExperimentConfig, bits: int):
    """Fixed scorer: every user's codebook (users, 2^B, M) is drawn once, and
    every chunk's trials are scored against them (``_select``)."""
    books = np.stack([generate_codebook(RngStream(config.seed, 0, u, PURPOSE_FIXED_CODEBOOK),
                                        bits, config.m) for u in range(config.users)])
    return lambda first_block, q, widths: _select(q, books, widths)


# Codebook policy -> scorer.  scorer(config, bits) does a bit count's set-up and
# returns score(first_block, q, widths): the (index, q_hat, cos_sq) picks of a
# chunk, whose first trial opens stream block first_block, for the span of each
# width's first columns of its (trials, users, M, N) Q, as _select returns them.
CODEBOOK_POLICIES = {"per_block": _score_per_block, "fixed": _score_fixed}


def _run_chunk(config: ExperimentConfig, bits: int, cells: list[tuple[int, float]],
               trials: range, score) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Simulate the fading blocks ``trials`` at every (N, SNR) cell of ``cells``.

    ``trials`` starts at a stream block's first trial; a block the range ends
    inside draws a prefix of its streams.  A block draws its benchmarks and its
    M x M channels from one stream per purpose; an N's channels are their first
    N columns.  The largest N is QR-factored once and every N picked for by one
    ``score`` call (a ``CODEBOOK_POLICIES`` scorer's) on its Q; each N is
    oriented on its prefixes of the factors.  An N drops a trial at all its
    SNRs when a quantization faults or zero-forcing refuses its stack or the
    benchmark's.  Returns ``(rate_fb, rate_zf, dropped)``, each
    ``(len(cells), len(trials))``; a dropped trial carries zero rates.
    """
    m, users, seed, count = config.m, config.users, config.seed, len(trials)
    first_block = trials.start // _BLOCK
    n_rx = list(dict.fromkeys(n for n, _ in cells))
    channel_parts = np.empty((count, users, 2, m, m))
    bench_parts = np.empty((count, users, 2, m))
    for lo in range(0, count, _BLOCK):
        block, rows = first_block + lo // _BLOCK, slice(lo, lo + _BLOCK)
        RngStream(seed, block, 0, PURPOSE_CHANNEL).generator().standard_normal(
            out=channel_parts[rows])
        RngStream(seed, block, 0, PURPOSE_BENCHMARK).generator().standard_normal(
            out=bench_parts[rows])
    # (trials, users, M, M): an N's channels are the first N columns
    channels = complex_from_parts(np.moveaxis(channel_parts, 2, 0))
    # (trials, M, users), contiguous: column u = user u
    bench = complex_from_parts(bench_parts.transpose(2, 0, 3, 1))
    del channel_parts, bench_parts  # the real normals; only the complex arrays are used
    powers = {snr_db: _power(snr_db) for _, snr_db in cells}
    zf_rates, zf_cond, zf_residual = perfect_csit_rates(bench, np.array(list(powers.values())))
    rate_zf, zf_refused = dict(zip(powers, zf_rates)), refused(zf_cond, zf_residual)
    # QR of a column prefix is the prefix of the QR: one factorization serves every N
    q, r = np.linalg.qr(channels[..., :max(n_rx)])
    records = {}
    for n, picks in zip(n_rx, score(first_block, q, n_rx)):
        # contiguous prefixes, so that each N is oriented as a chunk of that N alone is
        fb, fault = _orient(channels[..., :n], np.ascontiguousarray(q[..., :n]),
                            np.ascontiguousarray(r[..., :n, :n]), *picks)
        # user stacks as (M, M) matrices with one column per user
        beams, cond, residual = zero_force(np.swapaxes(fb.q_hat, -1, -2))
        dropped = (fault != 0).any(axis=-1) | refused(cond, residual) | zf_refused
        own = [snr_db for k, snr_db in cells if k == n]
        sinrs = sinr_stack(np.swapaxes(fb.h_eff, -1, -2), beams,
                           np.array([powers[s] for s in own]))
        sinrs = np.where(dropped[:, None], 0.0, sinrs)  # dropped trials carry zero rates
        for snr_db, rate_fb in zip(own, sum_rate(sinrs)):
            records[n, snr_db] = rate_fb, np.where(dropped, 0.0, rate_zf[snr_db]), dropped
    return tuple(np.stack(column) for column in zip(*(records[cell] for cell in cells)))


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


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run the full grid: a point for each N of n_rx, for each SNR.

    Every point's bits are resolved before any trial runs; points of equal
    bits share one pass over chunks.  Results are deterministic in (config,
    seed): the worker count only changes wall-clock time.  Dropped trials (a
    degenerate channel, a codeword orthogonal to the span, a combiner that
    fails its norm identity, or a refused direction or benchmark stack) are
    excluded from the averages and counted per grid point, with a warning if
    they exceed one percent.
    """
    grid = [(n, snr_db, config.bits_rule.resolve(config.m, n, snr_db))
            for n in config.n_rx for snr_db in config.snr_db_grid]
    records = {}
    for bits in dict.fromkeys(bits for *_, bits in grid):
        cells = list(dict.fromkeys((n, snr_db) for n, snr_db, b in grid if b == bits))
        # chunks are whole stream blocks and workers take whole chunks, so
        # neither the chunk size nor the worker count changes any rate or order
        chunks, workers = _plan(config, bits)
        run = partial(_run_chunk, config, bits, cells,
                      score=CODEBOOK_POLICIES[config.codebook_policy](config, bits))
        parts = ordered_map(run, chunks, workers)
        columns = (np.concatenate(column, axis=-1) for column in zip(*parts))
        records.update(zip(cells, zip(*columns)))  # cell -> (rate_fb, rate_zf, dropped)
    warnings: list = []
    points = [_aggregate(n, snr_db, bits, records[n, snr_db], warnings)
              for n, snr_db, bits in grid]
    return ExperimentResult(config=config, points=points, warnings=warnings)
