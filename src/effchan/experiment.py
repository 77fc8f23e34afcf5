"""Ergodic sum-rate Monte Carlo over fading blocks.

One trial = one fading block: draw every user's M x N channel, quantize it
(per_block: on a fresh codebook, its pick drawn from the exact law, by
``_score_per_block``; fixed: on one codebook a run), zero-force on the
reported directions, and evaluate the true SINRs.  The benchmark, the ergodic
perfect-CSIT zero-forcing sum rate, is exact (``formulas.zf_rate_mean``), not
simulated, so the reported gap carries the feedback rate's Monte Carlo noise alone.

A sweep's whole (N, SNR) grid, whatever bits its cells spend, runs in one pass
over chunks (``_plan``) on the threads of ``linalg.worker_count``, as validation's
sample blocks do, joined in chunk order.  No stream id carries N, SNR or B, so a
chunk draws an M x top channel per trial and user once for its cells, top the
largest N.  An N's channel is its first N columns, as in a run of that N alone, so
the receive antennas nest: N + 1 antennas are the same mobile's N and one more.
The chunk QR-factors the channels once (a smaller N's factors are prefixes), takes
every (N, B) pair's picks from one call of the policy's scorer (``CODEBOOK_POLICIES``),
orients and zero-forces each (N, B) once, and rates every SNR from the same beams.

Determinism contract, stream version 8 (``STREAM_VERSION``, in the sweep
manifest): block b, trials [64 b, 64 b + 64), draws from one stream per purpose,
``RngStream(seed, b, 0, purpose)``: its channels, a (top, 64, users, 2, M) run,
and under per_block the law's u = 1 - random((64, users)), then w and g, the
standard_normal runs (2, 64, users, M) and (top, 2, 64, users) (``PURPOSE_LAW``).
The sampler fills in order, so a narrower run's draws are a prefix of a wider
run's; a block cut short still draws in full.  A normal takes a variable number
of random words, so the block, not the trial, is the unit of replay; chunks are
whole blocks, so no draw depends on the chunk size or the worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from numbers import Real

import numpy as np

from . import linalg
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
from .quantize import (MAX_CODEBOOK_BITS, _orient, _scan_bytes, _select_slices,
                       check_bits, generate_codebook)
from .stats import _beta_coefs, mean_ci

# Version of the sweep's stream contract (module docstring), and the trials
# per stream block, the contract's unit of replay; a chunk is whole blocks (``_plan``).
STREAM_VERSION = 8
_BLOCK = 64
# Fewest stream blocks in a chunk of a split sweep (``_plan``): fewer run faster unsplit.
_SPLIT_BLOCKS = 4


@dataclass(frozen=True)
class BitsRule:
    """How many feedback bits each user spends per block.

    Exactly one of ``bits``, a fixed count, and ``target_gap`` is set: the
    gap-target rule picks B = ceil(bits_required) at each SNR grid point
    (clamped to at least one bit, since a codebook needs two entries).
    """

    bits: int | None = None
    target_gap: float | None = None

    def __post_init__(self):
        if (self.bits is None) == (self.target_gap is None):
            raise ValueError(f"a bits rule sets exactly one of bits and target_gap, got "
                             f"bits={self.bits!r} and target_gap={self.target_gap!r}")
        if self.bits is not None:
            check_bits(self.bits, "fixed bits")
        elif not 0 < self.target_gap < math.inf:  # NaN fails too
            raise ValueError(
                f"scaling rule needs a positive finite target gap, got {self.target_gap}")

    @classmethod
    def fixed(cls, bits: int) -> "BitsRule":
        return cls(bits=bits)

    @classmethod
    def scaling(cls, target_gap: float) -> "BitsRule":
        return cls(target_gap=target_gap)

    def resolve(self, m: int, n: int, snr_db: float) -> int:
        """Integer bit count for one grid point (may raise InfeasibleTargetError)."""
        if self.bits is not None:
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


def _chunk_bytes(config: ExperimentConfig, cells: list, trials: int) -> int:
    """Bytes a chunk of ``trials`` trials at the (N, SNR, bits) ``cells`` holds at its peak:
    per trial and user, its complex (M, top) channel, top the largest N (its normals are freed
    once it is formed), its QR factors, one bit count's picks and what orienting them makes, and
    zero_force's temporaries; under per_block also the law's u, w and g and one width's Q_n a and
    z.  Under fixed a scan slice, a bit count's at the largest N that spends it, overlaps only the
    channels, factors and that bit count's picks, so the larger of the two peaks is counted."""
    m, top = config.m, max(n for n, *_ in cells)
    widths = {b: {n for n, _, c in cells if c == b} for *_, b in cells}  # bits -> their Ns
    factored = 16 * (2 * m * top + top * top)
    held = factored + max(sum(16 * (3 * m + n) + 40 for n in ns) for ns in widths.values())
    zf = m * trials * 64 * m  # zero_force's rows and inverse, and two temporaries of a norm
    if config.codebook_policy == "per_block":
        return m * trials * (held + 16 * (3 * m + top) + 8) + zf
    scans = [(m * trials * (factored + 16 * (m + 1) * len(ns)),  # (what a scan overlaps, a trial's)
              m * 2 ** b * _scan_bytes(m, max(ns), False)) for b, ns in widths.items()]
    return max([m * trials * held + zf] + [beside + min(trials, slice_items(s)) * s
                                           for beside, s in scans])


def _plan(config: ExperimentConfig, cells: list) -> tuple[tuple[range, ...], int]:
    """The chunks of a sweep's one pass over its (N, SNR, bits) ``cells``, and their workers:
    whole stream blocks, split evenly over min(cores, blocks // _SPLIT_BLOCKS) chunks, at least
    one, each capped so that a chunk a core holds at most IN_FLIGHT_BYTES in all.  Workers are
    capped by the bytes a chunk holds (``linalg.worker_count``)."""
    blocks, cores = -(-config.trials // _BLOCK), linalg._cores()
    share = -(-blocks // max(1, min(cores, blocks // _SPLIT_BLOCKS)))
    cap = linalg.IN_FLIGHT_BYTES // (cores * _chunk_bytes(config, cells, _BLOCK))
    size = max(1, min(share, cap)) * _BLOCK
    chunks = tuple(range(lo, min(lo + size, config.trials)) for lo in range(0, config.trials, size))
    return chunks, worker_count(len(chunks), _chunk_bytes(config, cells, len(chunks[0])))


def _law_sin_sq(u: np.ndarray, m: int, n: int, bits: int) -> np.ndarray:
    """sin^2 to an n-dim span of C^M (n < M) of the best of 2^B isotropic codewords, the least of
    2^B iid Beta(a, b) = Beta(M - n, n), at survival u in (0, 1]: G^-1(p), G the Beta CDF and
    p = -expm1(log u / 2^B).  At p <= 1/2, log G(e^y) = a y + (b - 1) log(1 - e^y) + log S(r),
    S(r) = sum_k C(M - 1, a + k) r^k at r = e^y / (1 - e^y) (``stats._beta_coefs``), is concave
    of slope a S(0) / S(r): Newton steps from (log p - log S(0)) / a climb to its root; at p > 1/2
    they solve the mirror, Beta(b, a) at 1 - p.  A fixed count keeps each sin^2 a function of u."""
    log_q = np.log(u) / 2 ** bits
    upper = log_q < -math.log(2)
    with np.errstate(divide="ignore"):  # p = 0 at u = 1
        target = np.where(upper, log_q, np.log(-np.expm1(log_q)))
    y, floor = np.empty(u.shape), math.log(np.finfo(float).tiny)  # u = 1 gives tiny
    for rows, a, b in ((~upper, m - n, n), (upper, n, m - n)):
        coefs, t = _beta_coefs(a, b), target[rows]
        z = np.clip((t - math.log(coefs[0])) / a, floor, 0.0)
        for _ in range(6):  # within 4e-14 of SciPy at M <= 64, B <= 29
            e = np.exp(z)
            s = np.polyval(coefs[::-1], e / (1.0 - e))  # Horner's rule
            z = np.clip(z - (a * z + (b - 1) * np.log1p(-e) + np.log(s) - t) * s / (a * coefs[0]),
                        floor, 0.0)
        y[rows] = z
    return np.where(upper, -np.expm1(y), np.exp(y))


def _score_per_block(config: ExperimentConfig, pairs: list):
    """Per-block scorer: each pick on a fresh isotropic codebook drawn from its law, with no
    codebook row, so index -1 (the span metric is invariant under unitaries that keep
    span(Q_n)).  Per trial and user, u sets sin^2 (``_law_sin_sq``), a = g[:n] / |g[:n]| is
    uniform on the sphere of C^n, z = (I - Q_n Q_n^H) w / |.| on the span's complement, and
    q_hat = cos Q_n a + sin z; one u, w and g serve every pair, and one Q_n a and z every B."""
    def score(first_block: int, q: np.ndarray):
        count, users, m, top = q.shape  # top: the chunk's largest N
        u, w, g = (np.empty(shape) for shape in ((count, users), (2, count, users, m),
                                                 (top, 2, count, users)))
        for lo in range(0, count, _BLOCK):
            gen = RngStream(config.seed, first_block + lo // _BLOCK, 0, PURPOSE_LAW).generator()
            rows, k = slice(lo, lo + _BLOCK), min(_BLOCK, count - lo)  # a cut block draws in full
            u[rows] = 1.0 - gen.random((_BLOCK, users))[:k]  # never 0, which would make sin^2 1
            w[:, rows] = gen.standard_normal((2, _BLOCK, users, m))[:, :k]
            g[:, :, rows] = gen.standard_normal((top, 2, _BLOCK, users))[:, :, :k]  # g[:n] nest
        g, w = complex_from_parts(np.moveaxis(g, 0, -1)), complex_from_parts(w)  # frees normals
        for n in dict.fromkeys(n for n, _ in pairs):
            q_n, a = q[..., :n], g[..., :n]
            q_a = np.einsum("...mk,...k->...m", q_n, a / np.linalg.norm(a, axis=-1)[..., None])
            sin_sq, q_hat = np.zeros(u.shape), q_a  # n = M: every codeword lies in the span
            if n < m:
                z = w - np.einsum("...mk,...k->...m", q_n,
                                  np.einsum("...mk,...m->...k", q_n.conj(), w))
                z /= np.linalg.norm(z, axis=-1)[..., None]
            for bits in (b for width, b in pairs if width == n):
                if n < m:
                    sin_sq = _law_sin_sq(u, m, n, bits)
                    q_hat = np.sqrt(1.0 - sin_sq)[..., None] * q_a + np.sqrt(sin_sq)[..., None] * z
                yield (n, bits), (np.full(u.shape, -1, np.intp), q_hat, 1.0 - sin_sq)
    return score


def _score_fixed(config: ExperimentConfig, pairs: list):
    """Fixed scorer: every user's codebook (users, 2^B, M) is drawn once a run, and a chunk's
    trials are scored against them in slices whose scans fit SLICE_BYTES (``_select_slices``),
    on the columns of Q that the largest N spending B spans."""
    books = {bits: np.stack([generate_codebook(RngStream(config.seed, 0, u, PURPOSE_FIXED_CODEBOOK),
                                               bits, config.m) for u in range(config.m)])
             for bits in dict.fromkeys(b for _, b in pairs)}

    def score(first_block: int, q: np.ndarray):
        count, users, m, _ = q.shape
        for bits, book in books.items():
            ns = [n for n, b in pairs if b == bits]
            picks = [(np.empty((count, users), np.intp), np.empty((count, users, m), complex),
                      np.empty((count, users))) for _ in ns]
            step = slice_items(users * 2 ** bits * _scan_bytes(m, max(ns), False))
            _select_slices(q[..., :max(ns)], lambda take: book, ns, step, picks)
            yield from zip(((n, bits) for n in ns), picks)
    return score


# Codebook policy -> scorer.  scorer(config, pairs) does a run's set-up for its grid's distinct
# (N, B) pairs and returns score(first_block, q), called once a chunk whose first trial opens
# stream block first_block: a generator of ((n, bits), (index, q_hat, cos_sq)), one pair at a
# time in an order the policy picks, the picks (as _select returns them) for the span of the
# first n columns of the chunk's (trials, users, M, N) Q.
CODEBOOK_POLICIES = {"per_block": _score_per_block, "fixed": _score_fixed}


def _run_chunk(config: ExperimentConfig, cells: list[tuple[int, float, int]], trials: range,
               score) -> tuple[np.ndarray, np.ndarray]:
    """Simulate the fading blocks ``trials`` at every (N, SNR, bits) cell of ``cells``.

    ``trials`` starts at a stream block's first trial; a block the range ends inside still
    draws all its trials.  A block draws its M x top channels, top the largest N, from one
    stream, column outermost; an N's channels are their first N columns, and a narrower run's
    draw is a prefix of this one.  They are QR-factored once, and one call of ``score``
    (a ``CODEBOOK_POLICIES`` scorer's) yields the picks of every (N, bits) pair of ``cells``;
    each pair is oriented on its prefixes of the factors, and drops a trial at all its SNRs
    when a quantization faults or zero-forcing refuses its stack.  Returns ``(rate_fb,
    dropped)``, each ``(len(cells), len(trials))``; a dropped trial carries a zero rate.
    """
    m, count, top = config.m, len(trials), max(n for n, *_ in cells)
    first_block = trials.start // _BLOCK
    # per block, column outermost: a narrower run's draw is a prefix of this one
    parts = np.empty((-(-count // _BLOCK), top, _BLOCK, m, 2, m))
    for b in range(len(parts)):
        RngStream(config.seed, first_block + b, 0, PURPOSE_CHANNEL).generator().standard_normal(
            out=parts[b])
    # (trials, users, M, top): an N's channels are the first N columns
    channels = complex_from_parts(parts.transpose(4, 0, 2, 3, 5, 1)).reshape(-1, m, m, top)[:count]
    del parts  # the real normals; only the complex channels are used
    # QR of a column prefix is the prefix of the QR: one factorization serves every N
    q, r = np.linalg.qr(channels)
    records = {}
    for (n, bits), picks in score(first_block, q):
        # contiguous prefixes, so that each N is oriented as a chunk of that N alone is
        fb, fault = _orient(*(np.ascontiguousarray(x) for x in (
            channels[..., :n], q[..., :n], r[..., :n, :n])), *picks)
        # user stacks as (M, M) matrices with one column per user
        beams, cond, residual = zero_force(np.swapaxes(fb.q_hat, -1, -2))
        dropped = (fault != 0).any(axis=-1) | refused(cond, residual)
        own = [snr_db for k, snr_db, b in cells if (k, b) == (n, bits)]
        sinrs = sinr_stack(np.swapaxes(fb.h_eff, -1, -2), beams,
                           np.array([_power(s) for s in own]))
        sinrs = np.where(dropped[:, None], 0.0, sinrs)  # dropped trials carry zero rates
        for snr_db, rate_fb in zip(own, sum_rate(sinrs)):
            records[n, snr_db, bits] = rate_fb, dropped
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

    Every point's bits are resolved before any trial runs, and every point shares one
    pass over the chunks of ``_plan``.  Results are deterministic in (config, seed): the
    worker count only changes wall-clock time.  Dropped trials (a degenerate channel, a
    codeword orthogonal to the span, a combiner that fails its norm identity, or a refused
    direction stack) are excluded from the averages and counted per grid point, with a
    warning if they exceed one percent.
    """
    grid = [(n, snr_db, config.bits_rule.resolve(config.m, n, snr_db))
            for n in config.n_rx for snr_db in config.snr_db_grid]
    chunks, workers = _plan(config, grid)
    pairs = list(dict.fromkeys((n, b) for n, _, b in grid))
    score = CODEBOOK_POLICIES[config.codebook_policy](config, pairs)
    # chunks are whole stream blocks and workers take whole chunks, so
    # neither the chunk size nor the worker count changes any rate or order
    parts = ordered_map(partial(_run_chunk, config, grid, score=score), chunks, workers)
    columns = (np.concatenate(column, axis=-1) for column in zip(*parts))
    warnings: list = []
    points = [_aggregate(config.m, *cell, records, warnings)
              for cell, records in zip(grid, zip(*columns))]  # records: (rate_fb, dropped)
    return ExperimentResult(config=config, points=points, warnings=warnings)
