"""Ergodic sum-rate Monte Carlo over fading blocks.

One trial = one fading block: draw every user's M x N channel, quantize it
(per_block: on a fresh codebook, its pick drawn from the exact law, by
``_score_per_block``; fixed: on one codebook a run), zero-force on the
reported directions, and evaluate the true SINRs.  The benchmark, the ergodic
perfect-CSIT zero-forcing sum rate, is exact (``formulas.zf_rate_mean``), not
simulated, so the reported gap carries the feedback rate's Monte Carlo noise alone.

A sweep's whole (N, SNR) grid runs in one pass over chunks per bit count.
No stream id carries N or SNR, so a chunk draws an M x M channel per trial
and user, and its scorer's draws, once for the grid.  An N's channel is
the first N columns of it, so the receive antennas nest: N + 1 antennas are
the same mobile's N antennas and one more.  The chunk QR-factors the largest
N once (a smaller N's factors are prefixes of it), takes every N's picks from
one pass of the codebook policy's scorer (``CODEBOOK_POLICIES``), orients and
zero-forces each N once, and rates every SNR point from the same beams.

Determinism contract, stream version 6 (``STREAM_VERSION``, in the sweep
manifest): block b, trials [64 b, 64 b + 64), draws from one stream per purpose,
``RngStream(seed, b, 0, purpose)``: its channels, a (64, users, 2, M, M) run,
and under per_block the law's u = 1 - random((64, users)), then g and w, each a
standard_normal((2, 64, users, M)) run (``PURPOSE_LAW``); a block cut short
still draws in full.  A normal takes a variable number of random words, so the
block, not the trial, is the unit of replay.  Chunks are whole blocks, so no draw
depends on the chunk size or the worker count.

A bit count's chunks run on the threads of ``linalg.worker_count``, as
validation's sample blocks do, and are joined in chunk order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from numbers import Real

import numpy as np

from .formulas import ScalingInputs, bits_required, zf_rate_mean
from .linalg import (
    PURPOSE_CHANNEL,
    PURPOSE_FIXED_CODEBOOK,
    PURPOSE_LAW,
    RngStream,
    complex_from_parts,
    is_stream_id,
    ordered_map,
    slice_items,
    worker_count,
)
from .precoding import refused, sinr_stack, sum_rate, zero_force
from .quantize import (MAX_CODEBOOK_BITS, _orient, _scan_bytes, _select,
                       check_bits, generate_codebook)
from .stats import beta_cdf, mean_ci

# Version of the sweep's stream contract (module docstring), and the trials
# per stream block, the contract's unit of replay; a chunk is whole blocks (``_plan``).
STREAM_VERSION = 6
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
        # a repeated N or SNR would only repeat its rows
        if (not self.n_rx or not all(is_stream_id(n) and 1 <= n <= self.m for n in self.n_rx)
                or len(set(self.n_rx)) < len(self.n_rx)):
            raise ValueError(f"n_rx must hold integers N, 1 <= N <= M = {self.m}, each once, "
                             f"got {self.n_rx!r}")
        snrs = self.snr_db_grid
        if len(snrs) == 0:
            raise ValueError("SNR grid is empty")
        if (not all(isinstance(p, Real) and not isinstance(p, bool) and 0 < _power(p) < math.inf
                    for p in snrs) or len(set(snrs)) < len(snrs)):
            raise ValueError("SNR grid entries must be finite real numbers, each once, whose "
                             f"linear powers are positive and finite, got {snrs!r}")
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


def _chunk_bytes(config: ExperimentConfig, bits: int, trials: int) -> int:
    """Bytes a chunk of ``trials`` trials holds at its peak, from shapes alone.

    A trial and user holds its complex (M, M) channel (its normals are freed
    once it is formed), the QR factors of the largest N and every N's picks;
    under per_block also the law's draws and one width's temporaries, and under
    fixed ``_scan_bytes`` a codeword for the largest N (a chunk is scored at once).
    """
    m, top = config.m, max(config.n_rx)
    held = 16 * (m * m + m * top + top * top) + sum(16 * (3 * m + n) + 40 for n in config.n_rx)
    if config.codebook_policy == "fixed":
        return config.users * trials * (held + 2 ** bits * _scan_bytes(m, top, False))
    return config.users * trials * (held + 16 * m * (4 + top))


def _plan(config: ExperimentConfig, bits: int) -> tuple[list[range], int]:
    """The chunks of one bit count, and the worker threads that run them.

    A chunk is as many whole stream blocks as ``linalg.SLICE_BYTES`` holds trials
    of (``_chunk_bytes``; fixed ones as if they held per-block codebooks), but at
    least one.  Workers are capped by the bytes a chunk holds.
    """
    fixed = config.codebook_policy == "fixed"
    step = slice_items(config.users * 2 ** bits * config.m * 16 if fixed
                       else _chunk_bytes(config, bits, 1))
    size = max(1, step // _BLOCK) * _BLOCK
    chunks = [range(lo, min(lo + size, config.trials)) for lo in range(0, config.trials, size)]
    return chunks, worker_count(len(chunks), _chunk_bytes(config, bits, len(chunks[0])))


def _law_sin_sq(u: np.ndarray, m: int, n: int, bits: int) -> np.ndarray:
    """sin^2 to an n-dim span of C^M (n < M) of the best of 2^B isotropic codewords, the least
    of 2^B iid Beta(M - n, n), at survival u in (0, 1]: G^-1(-expm1(log u / 2^B)), G the Beta
    CDF, exact at large B where 1 - cos^2 cancels; 64 bisection steps on log sin^2 invert G."""
    target = -np.expm1(np.log(u) / 2 ** bits)
    lo, hi = np.full(u.shape, np.log(np.finfo(float).tiny)), np.zeros(u.shape)
    for _ in range(64):
        mid = (lo + hi) / 2
        below = beta_cdf(np.exp(mid), m - n, n) < target
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return np.exp(hi)


def _score_per_block(config: ExperimentConfig, bits: int):
    """Per-block scorer: each pick on a fresh isotropic codebook drawn from its law, with no
    codebook (the span metric is invariant under unitaries that keep span(Q_n)).  Per trial
    and user, u sets sin^2 (``_law_sin_sq``), a = g[:n] / |g[:n]| is uniform on the sphere of
    C^n, z = (I - Q_n Q_n^H) w / |.| on the span's complement, and q_hat = cos Q_n a + sin z;
    one u, g and w serve every width n.  index is -1, as there is no codebook row."""
    def score(first_block: int, q: np.ndarray, widths: list) -> list:
        count, users, m = *q.shape[:2], config.m
        u, (g, w) = np.empty((count, users)), np.empty((2, 2, count, users, m))
        for lo in range(0, count, _BLOCK):
            gen = RngStream(config.seed, first_block + lo // _BLOCK, 0, PURPOSE_LAW).generator()
            rows, k = slice(lo, lo + _BLOCK), min(_BLOCK, count - lo)  # a cut block draws in full
            u[rows] = 1.0 - gen.random((_BLOCK, users))[:k]  # never 0, which would make sin^2 1
            g[:, rows] = gen.standard_normal((2, _BLOCK, users, m))[:, :k]
            w[:, rows] = gen.standard_normal((2, _BLOCK, users, m))[:, :k]
        g, w = complex_from_parts(g), complex_from_parts(w)  # frees the real normals
        picks = []
        for n in widths:
            q_n, a = q[..., :n], g[..., :n]
            q_hat = np.einsum("...mk,...k->...m", q_n, a / np.linalg.norm(a, axis=-1)[..., None])
            sin_sq = np.zeros(u.shape)  # n = M: every codeword lies in the span
            if n < m:
                sin_sq = _law_sin_sq(u, m, n, bits)
                z = w - np.einsum("...mk,...k->...m", q_n,
                                  np.einsum("...mk,...m->...k", q_n.conj(), w))
                z /= np.linalg.norm(z, axis=-1)[..., None]
                q_hat = np.sqrt(1.0 - sin_sq)[..., None] * q_hat + np.sqrt(sin_sq)[..., None] * z
            picks.append((np.full(u.shape, -1, np.intp), q_hat, 1.0 - sin_sq))
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
               trials: range, score) -> tuple[np.ndarray, np.ndarray]:
    """Simulate the fading blocks ``trials`` at every (N, SNR) cell of ``cells``.

    ``trials`` starts at a stream block's first trial; a block the range ends
    inside draws a prefix of its stream.  A block draws its M x M channels from
    one stream; an N's channels are their first N columns.  The largest N is
    QR-factored once and every N picked for by one ``score`` call (a
    ``CODEBOOK_POLICIES`` scorer's) on its Q; each N is oriented on its
    prefixes of the factors.  An N drops a trial at all its SNRs when a
    quantization faults or zero-forcing refuses its stack.  Returns
    ``(rate_fb, dropped)``, each ``(len(cells), len(trials))``; a dropped trial
    carries a zero rate.
    """
    m, users, seed, count = config.m, config.users, config.seed, len(trials)
    first_block = trials.start // _BLOCK
    n_rx = list(dict.fromkeys(n for n, _ in cells))
    channel_parts = np.empty((count, users, 2, m, m))
    for lo in range(0, count, _BLOCK):
        stream = RngStream(seed, first_block + lo // _BLOCK, 0, PURPOSE_CHANNEL)
        stream.generator().standard_normal(out=channel_parts[lo:lo + _BLOCK])
    # (trials, users, M, M): an N's channels are the first N columns
    channels = complex_from_parts(np.moveaxis(channel_parts, 2, 0))
    del channel_parts  # the real normals; only the complex channels are used
    # QR of a column prefix is the prefix of the QR: one factorization serves every N
    q, r = np.linalg.qr(channels[..., :max(n_rx)])
    records = {}
    for n, picks in zip(n_rx, score(first_block, q, n_rx)):
        # contiguous prefixes, so that each N is oriented as a chunk of that N alone is
        fb, fault = _orient(channels[..., :n], np.ascontiguousarray(q[..., :n]),
                            np.ascontiguousarray(r[..., :n, :n]), *picks)
        # user stacks as (M, M) matrices with one column per user
        beams, cond, residual = zero_force(np.swapaxes(fb.q_hat, -1, -2))
        dropped = (fault != 0).any(axis=-1) | refused(cond, residual)
        own = [snr_db for k, snr_db in cells if k == n]
        sinrs = sinr_stack(np.swapaxes(fb.h_eff, -1, -2), beams,
                           np.array([_power(s) for s in own]))
        sinrs = np.where(dropped[:, None], 0.0, sinrs)  # dropped trials carry zero rates
        for snr_db, rate_fb in zip(own, sum_rate(sinrs)):
            records[n, snr_db] = rate_fb, dropped
    return tuple(np.stack(column) for column in zip(*(records[cell] for cell in cells)))


def _aggregate(m: int, n_rx: int, snr_db: float, bits: int,
               records: tuple[np.ndarray, np.ndarray], warnings: list) -> GridPointResult:
    """A grid point's row: rate_fb over its kept trials, and the exact rate_zf, with CI 0."""
    rate_fb, drops = records
    trials, dropped = len(drops), int(drops.sum())
    if dropped > 0.01 * trials:
        warnings.append(f"snr_db={snr_db:g} n_rx={n_rx}: dropped {dropped}/{trials} trials")
    if dropped == trials:
        warnings.append(f"snr_db={snr_db:g} n_rx={n_rx}: all trials dropped")
    fb_mean, fb_ci = mean_ci(rate_fb[~drops]) if dropped < trials else (math.nan, math.nan)
    zf_mean = zf_rate_mean(m, _power(snr_db))
    return GridPointResult(snr_db, n_rx, bits, fb_mean, fb_ci, zf_mean, 0.0, zf_mean - fb_mean,
                           dropped, trials)


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run the full grid: a point for each N of n_rx, for each SNR.

    Every point's bits are resolved before any trial runs; points of equal
    bits share one pass over chunks.  Results are deterministic in (config,
    seed): the worker count only changes wall-clock time.  Dropped trials (a
    degenerate channel, a codeword orthogonal to the span, a combiner that
    fails its norm identity, or a refused direction stack) are
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
        records.update(zip(cells, zip(*columns)))  # cell -> (rate_fb, dropped)
    warnings: list = []
    points = [_aggregate(config.m, n, snr_db, bits, records[n, snr_db], warnings)
              for n, snr_db, bits in grid]
    return ExperimentResult(config=config, points=points, warnings=warnings)
