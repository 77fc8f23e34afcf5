import dataclasses
import itertools
import math
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

import effchan.experiment as experiment
import effchan.precoding as precoding
from effchan.experiment import (
    CODEBOOK_POLICIES,
    BitsRule,
    ExperimentConfig,
    _aggregate,
    _fixed_codebooks,
    _run_chunk,
    run_experiment,
)
from effchan.formulas import InfeasibleTargetError
from effchan.linalg import (
    PURPOSE_BENCHMARK,
    PURPOSE_CHANNEL,
    PURPOSE_CODEBOOK,
    PURPOSE_FIXED_CODEBOOK,
    RngStream,
    complex_from_parts,
)
from effchan.precoding import perfect_csit_rates
from effchan.quantize import Codebook, generate_codebook, quantize_stack
from effchan.stats import mean_ci


def small_config(**overrides):
    base = dict(m=2, n_rx=(1,), snr_db_grid=(5.0,), bits_rule=BitsRule.fixed(2),
                trials=20, seed=99)
    base.update(overrides)
    return ExperimentConfig(**base)


def block_draw(seed, block, purpose, shape):
    """Stream block ``block``'s standard normals for ``purpose``, drawn from its start."""
    return RngStream(seed, block, 0, purpose).generator().standard_normal(shape)


def block_channels(config, block, trials):
    """Complex channels (trials, users, M, N) of a stream block's first trials (one-N config)."""
    [n] = config.n_rx
    parts = block_draw(config.seed, block, PURPOSE_CHANNEL, (trials, config.users, 2, config.m, n))
    return complex_from_parts(np.moveaxis(parts, 2, 0))


def stacked(codebooks):
    """Per-user Codebooks as the (1, users, 2^B, M) stack that _run_chunk scans."""
    return np.stack([cb.vectors for cb in codebooks])[None]


def trial_record(config, snr_db, bits, t, codebooks=None):
    """Trial t's (rate_fb, rate_zf, dropped) at the config's one N: the last entry
    of its block's prefix."""
    block_start = t // experiment._BLOCK * experiment._BLOCK
    [n] = config.n_rx
    columns = _run_chunk(config, bits, [(n, snr_db)], range(block_start, t + 1), codebooks)
    return tuple(column[0, -1] for column in columns)


def assert_same_records(records, others):
    for column, other in zip(records, others, strict=True):
        assert column.dtype == other.dtype and column.tobytes() == other.tobytes()


# ------------------------------------------------------------------ BitsRule


def test_bits_rule_fixed():
    assert BitsRule.fixed(6).resolve(4, 2, 10.0) == 6
    with pytest.raises(ValueError):
        BitsRule.fixed(0)
    with pytest.raises(ValueError):
        BitsRule.fixed(25)


def test_bits_rule_scaling_resolves_known_sequence():
    rule = BitsRule.scaling(1.0)
    assert [rule.resolve(4, 1, p) for p in (0.0, 5.0, 10.0)] == [1, 5, 10]
    assert [rule.resolve(4, 2, p) for p in (0.0, 5.0, 10.0)] == [1, 4, 7]


def test_bits_rule_scaling_guards():
    for gap in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            BitsRule.scaling(gap)
    with pytest.raises(ValueError):
        BitsRule(kind="other")
    # a 50-bit budget is beyond the codebook limit
    with pytest.raises(ValueError):
        BitsRule.scaling(1.0).resolve(6, 1, 30.0)
    # target below the (4,3) asymptotic floor has no finite budget at all
    with pytest.raises(InfeasibleTargetError):
        BitsRule.scaling(1.0).resolve(4, 3, 10.0)


# ---------------------------------------------------------- ExperimentConfig


def test_config_guards():
    with pytest.raises(ValueError):
        small_config(m=1)
    with pytest.raises(ValueError):
        small_config(n_rx=(3,))  # N > M
    with pytest.raises(ValueError, match="n_rx"):
        small_config(n_rx=(1, 3))  # every N is checked
    with pytest.raises(ValueError, match="n_rx"):
        small_config(n_rx=())
    with pytest.raises(ValueError):
        small_config(snr_db_grid=())
    for snr_db in (math.nan, math.inf, -math.inf):  # would run to all-NaN rows
        with pytest.raises(ValueError, match="finite"):
            small_config(snr_db_grid=(0.0, snr_db))
    # 10^(4000/10) overflows a float: refused, not an OverflowError mid-run
    with pytest.raises(ValueError, match="finite"):
        small_config(snr_db_grid=(0.0, 4000.0))
    assert run_experiment(small_config(snr_db_grid=(300.0,), trials=2)).points[0].dropped == 0
    with pytest.raises(ValueError):
        small_config(trials=0)
    with pytest.raises(ValueError):
        small_config(seed=-1)
    with pytest.raises(ValueError):
        small_config(codebook_policy="daily")


@pytest.mark.parametrize("policy", CODEBOOK_POLICIES)
def test_config_rejects_non_integer_seed(policy):
    # refused by the stream rule under either policy, never truncated
    for seed in (1.5, 2.0):
        with pytest.raises(ValueError):
            small_config(seed=seed, codebook_policy=policy)
    assert small_config(seed=np.int64(99), codebook_policy=policy).seed == 99


@pytest.mark.parametrize("field, value", [
    ("trials", 5.5), ("m", 2.0), pytest.param("n_rx", (1.0,), id="n_rx-1.0")])
def test_config_rejects_non_integer_counts(field, value):
    # refused at construction, not by a TypeError from range/np.empty mid-run
    with pytest.raises(ValueError, match=field):
        small_config(**{field: value})
    assert small_config(m=np.int64(2), n_rx=(np.int64(1),), trials=np.int64(5)).trials == 5


def test_bits_rule_fixed_rejects_non_integer_bits():
    # never truncated to the bit count below
    for bits in (2.5, 2.0):
        with pytest.raises(ValueError):
            BitsRule.fixed(bits)
    assert BitsRule.fixed(np.int64(3)).resolve(4, 2, 10.0) == 3


def test_config_users_equals_transmit_antennas():
    assert small_config(m=4, n_rx=(2,)).users == 4


# ---------------------------------------------------------------- _run_chunk


def test_trial_deterministic():
    config = small_config()
    a = trial_record(config, 10.0, 2, 3)
    b = trial_record(config, 10.0, 2, 3)
    c = trial_record(config, 10.0, 2, 4)
    assert a == b
    assert a[0] != c[0]


def test_trial_with_planted_directions_matches_perfect_zf():
    # give each user a codebook containing its exact channel direction: the
    # feedback link is then lossless and the rate equals zero-forcing on the
    # true channels
    config = small_config(seed=1234)
    channels = block_channels(config, 0, 1)[0, :, :, 0]  # trial 0 of block 0: (users, M)
    codebooks = []
    for h in channels:
        direction = h / np.linalg.norm(h)
        other = np.array([-np.conj(direction[1]), np.conj(direction[0])])
        codebooks.append(Codebook(vectors=np.stack([direction, other]), bits=1))
    rate_fb, _, dropped = trial_record(config, 10.0, 1, 0, stacked(codebooks))
    expected, _, _ = perfect_csit_rates(channels.T, 10.0)
    assert not dropped
    assert rate_fb == pytest.approx(expected, rel=1e-9)


def orthogonal_codebooks(config):
    """Stacked per-user codebooks whose every codeword is orthogonal to trial 0's channel."""
    codebooks = []
    for h in block_channels(config, 0, 1)[0, :, :, 0]:
        direction = h / np.linalg.norm(h)
        other = np.array([-np.conj(direction[1]), np.conj(direction[0])])
        codebooks.append(Codebook(vectors=np.stack([other, other]), bits=1))
    return stacked(codebooks)


def test_trial_drops_codeword_orthogonal_to_channel():
    # every codeword of every user is orthogonal to that user's channel, so
    # no user can orient a combiner and the trial must be dropped
    config = small_config(seed=1234)
    rate_fb, rate_zf, dropped = trial_record(config, 10.0, 1, 0, orthogonal_codebooks(config))
    assert dropped
    assert rate_fb == 0.0 and rate_zf == 0.0


def test_run_chunk_returns_rate_and_drop_arrays():
    # trial 0 is dropped (orthogonal codebooks); the chunk still reports
    # every trial, as float64 rates and a bool drop mask
    config = small_config(seed=1234)
    trials = range(0, 5)
    rate_fb, rate_zf, dropped = _run_chunk(config, 1, [(1, 10.0)], trials,
                                           orthogonal_codebooks(config))
    assert [rate_fb.shape, rate_zf.shape, dropped.shape] == [(1, len(trials))] * 3
    assert (rate_fb.dtype, rate_zf.dtype, dropped.dtype) == (np.float64, np.float64, np.bool_)
    assert dropped[0, 0]
    assert rate_fb[0, 0] == 0.0 and rate_zf[0, 0] == 0.0


def test_refused_benchmark_drops_its_trial_at_every_cell(monkeypatch):
    # drops do not depend on power: a refused benchmark stack drops its
    # trial at every N and every SNR of the chunk, and no other trial
    def refusing(bench, power):
        rates, cond, residual = perfect_csit_rates(bench, power)
        cond[1] = np.inf
        return rates, cond, residual

    monkeypatch.setattr(experiment, "perfect_csit_rates", refusing)
    config = small_config(m=3, n_rx=(1, 2), snr_db_grid=(0.0, 10.0), seed=1234)
    cells = [(1, 0.0), (1, 10.0), (2, 0.0), (2, 10.0)]
    rate_fb, rate_zf, dropped = _run_chunk(config, 2, cells, range(5))
    assert dropped.tolist() == [[False, True, False, False, False]] * len(cells)
    assert (rate_fb[:, 1] == 0.0).all() and (rate_zf[:, 1] == 0.0).all()
    assert (rate_fb[:, [0, 2, 3, 4]] > 0.0).all()


def test_trial_drops_parallel_reported_directions():
    # both users report the same codeword, so the direction stack is singular
    e1 = np.array([1.0, 0.0], dtype=complex)
    cb = Codebook(vectors=np.stack([e1, e1]), bits=1)
    rate_fb, rate_zf, dropped = trial_record(small_config(), 10.0, 1, 0, stacked([cb, cb]))
    assert dropped
    assert rate_fb == 0.0 and rate_zf == 0.0  # rate_fb is 0 only if every SINR is 0


class Replay:
    """Stand-in stream whose generator hands out given normals once."""

    def __init__(self, normals):
        self.normals = normals

    def generator(self):
        return self

    def standard_normal(self, shape):
        assert shape == self.normals.shape
        return self.normals.copy()


@pytest.mark.parametrize("policy", CODEBOOK_POLICIES)
@pytest.mark.parametrize("seed", [5, 2 ** 40 + 9])
def test_chunk_draws_equal_per_stream_draws(monkeypatch, policy, seed):
    # a chunk of two stream blocks, the second cut short: every draw must be
    # the block stream's own, drawn from its start with the block's shapes,
    # and per-block codebooks drawn in slices of 5 trials must be the block
    # stream's codebook draw in trial order
    config = ExperimentConfig(m=3, n_rx=(2,), snr_db_grid=(10.0,), bits_rule=BitsRule.fixed(3),
                              trials=200, seed=seed, codebook_policy=policy)
    seen = {"books": []}

    def spy_quantize(channels, books):
        seen["channels"] = channels  # the last slice's
        seen["books"].append(books)
        fb, fault = quantize_stack(channels, books)
        seen.setdefault("q_hat", []).append(fb.q_hat)
        seen.setdefault("index", []).append(fb.index)
        return fb, fault

    def spy_rates(bench, power):
        seen["bench"] = bench
        return perfect_csit_rates(bench, power)

    monkeypatch.setattr(experiment, "quantize_stack", spy_quantize)
    monkeypatch.setattr(experiment, "perfect_csit_rates", spy_rates)
    monkeypatch.setattr(experiment, "_CHUNK_BYTES", 5 * 3 * 2 ** 3 * 3 * 2 * 8)
    trials = range(64, 134)
    codebooks = _fixed_codebooks(config, 3)
    records = _run_chunk(config, 3, [(2, 10.0)], trials, codebooks)
    monkeypatch.undo()

    assert seen["bench"].shape == (70, 3, 3) and seen["bench"].flags.c_contiguous
    channels = np.concatenate([block_channels(config, 1, 64), block_channels(config, 2, 6)])
    bench = np.concatenate([block_draw(seed, b, PURPOSE_BENCHMARK, (k, 3, 2, 3))
                            for b, k in ((1, 64), (2, 6))])
    assert seen["bench"].tobytes() == complex_from_parts(bench.transpose(2, 0, 3, 1)).tobytes()
    if policy == "per_block":
        # the kernel gets the codebooks' normal parts; each winning row is
        # the row generate_codebook forms from them
        assert [len(re) for re, _ in seen["books"]] == [5] * 12 + [4, 5, 1]
        assert seen["channels"].tobytes() == channels[-1:].tobytes()
        normals = np.concatenate([block_draw(seed, b, PURPOSE_CODEBOOK, (k, 3, 2, 2 ** 3, 3))
                                  for b, k in ((1, 64), (2, 6))])
        assert np.concatenate([re for re, _ in seen["books"]]).tobytes() == (
            normals[:, :, 0].tobytes())
        assert np.concatenate([im for _, im in seen["books"]]).tobytes() == (
            normals[:, :, 1].tobytes())
        index, q_hat = np.concatenate(seen["index"]), np.concatenate(seen["q_hat"])
        for i, u in itertools.product(range(70), range(3)):
            book = generate_codebook(Replay(normals[i, u]), 3, 3)
            assert q_hat[i, u].tobytes() == book.vectors[index[i, u]].tobytes()
    else:
        [books] = seen["books"]
        assert seen["channels"].tobytes() == channels.tobytes()
        for u in range(config.users):
            book = generate_codebook(RngStream(seed, 0, u, PURPOSE_FIXED_CODEBOOK), 3, 3)
            assert books[0, u].tobytes() == book.vectors.tobytes()
    singles = [trial_record(config, 10.0, 3, t, codebooks) for t in trials]
    assert_same_records([column[0] for column in records],
                        tuple(np.array(column) for column in zip(*singles)))


def test_each_n_quantizes_its_own_block_channel_draw(monkeypatch):
    # one draw a block serves every N: each N's channels must be what its own
    # draw of shape (trials, users, 2, M, N) from the stream's start gives,
    # over a full block and one cut short
    seen = {}

    def spy_quantize(channels, books):
        seen[channels.shape[-1]] = channels
        return quantize_stack(channels, books)

    monkeypatch.setattr(experiment, "quantize_stack", spy_quantize)
    config = ExperimentConfig(m=3, n_rx=(2, 1, 3), snr_db_grid=(10.0,),
                              bits_rule=BitsRule.fixed(2), trials=200, seed=11,
                              codebook_policy="fixed")
    _run_chunk(config, 2, [(2, 10.0), (1, 10.0), (3, 10.0)], range(64, 134),
               _fixed_codebooks(config, 2))
    for n in config.n_rx:
        one = dataclasses.replace(config, n_rx=(n,))
        channels = np.concatenate([block_channels(one, 1, 64), block_channels(one, 2, 6)])
        assert seen[n].tobytes() == channels.tobytes()


def test_trial_feedback_loses_to_perfect_knowledge_on_average():
    config = small_config(trials=200)
    records = [trial_record(config, 10.0, 2, t) for t in range(200)]
    kept = [r for r in records if not r[2]]
    fb = np.mean([r[0] for r in kept])
    zf = np.mean([r[1] for r in kept])
    assert zf > fb + 0.5


def test_more_feedback_bits_raise_mean_rate():
    # paired runs share channel draws through the seed, so the finer
    # codebook must win by far more than the Monte Carlo half-widths
    def mean_rate(bits):
        config = ExperimentConfig(m=3, n_rx=(1,), snr_db_grid=(10.0,),
                                  bits_rule=BitsRule.fixed(bits),
                                  trials=400, seed=512)
        point = run_experiment(config).points[0]
        return point.rate_fb_mean

    assert mean_rate(6) > mean_rate(1) + 1.0


# ----------------------------------------------------------- fixed codebooks


def test_fixed_codebooks_policy():
    per_block = small_config()
    assert _fixed_codebooks(per_block, 2) is None
    fixed = small_config(codebook_policy="fixed")
    books_a = _fixed_codebooks(fixed, 2)
    books_b = _fixed_codebooks(fixed, 2)
    assert books_a.shape == (1, fixed.users, 2 ** 2, fixed.m)  # stacked for quantize_stack
    for a, b in zip(books_a[0], books_b[0]):
        assert np.array_equal(a, b)
    # per-user books differ from each other
    assert not np.array_equal(books_a[0, 0], books_a[0, 1])


def test_fixed_policy_changes_results_but_stays_deterministic():
    per_block = run_experiment(small_config(trials=30))
    fixed_1 = run_experiment(small_config(trials=30, codebook_policy="fixed"))
    fixed_2 = run_experiment(small_config(trials=30, codebook_policy="fixed"))
    assert fixed_1.points == fixed_2.points
    assert fixed_1.points[0].rate_fb_mean != per_block.points[0].rate_fb_mean
    # the benchmark draw is independent of the codebook policy
    assert fixed_1.points[0].rate_zf_mean == per_block.points[0].rate_zf_mean


# ------------------------------------------------------------------ _aggregate


def test_aggregate_matches_mean_ci():
    rates = np.array([1.0, 2.0, 3.0, 4.0])
    records = (rates, 2 * rates, np.zeros(4, dtype=bool))
    warnings = []
    point = _aggregate(1, 5.0, 2, records, warnings)
    fb_mean, fb_ci = mean_ci(np.array([1.0, 2.0, 3.0, 4.0]))
    assert (point.rate_fb_mean, point.rate_fb_ci) == (fb_mean, fb_ci)
    assert point.gap == point.rate_zf_mean - point.rate_fb_mean
    assert point.dropped == 0 and point.trials == 4
    assert warnings == []


def test_aggregate_excludes_dropped_and_warns():
    records = (np.array([2.0] * 8 + [0.0] * 2), np.array([3.0] * 8 + [0.0] * 2),
               np.array([False] * 8 + [True] * 2))
    warnings = []
    point = _aggregate(1, 0.0, 2, records, warnings)
    assert point.rate_fb_mean == 2.0  # zeros from dropped trials never dilute
    assert point.dropped == 2 and point.trials == 10
    assert len(warnings) == 1 and "dropped 2/10" in warnings[0]


def test_aggregate_masks_dropped_trials_whatever_their_rates():
    # placeholder rates on dropped trials: the mask, not their zeros, excludes them
    records = (np.array([1.0, 3.0, 50.0]), np.array([2.0, 4.0, 70.0]),
               np.array([False, False, True]))
    warnings = []
    point = _aggregate(1, 0.0, 2, records, warnings)
    assert (point.rate_fb_mean, point.rate_fb_ci) == mean_ci(np.array([1.0, 3.0]))
    assert (point.rate_zf_mean, point.rate_zf_ci) == mean_ci(np.array([2.0, 4.0]))
    assert point.dropped == 1 and point.trials == 3
    assert type(point.dropped) is int and type(point.trials) is int


def test_aggregate_all_dropped_yields_nan_row():
    records = (np.zeros(3), np.zeros(3), np.ones(3, dtype=bool))
    warnings = []
    point = _aggregate(1, 0.0, 2, records, warnings)
    assert np.isnan(point.rate_fb_mean) and np.isnan(point.gap)
    assert point.dropped == 3
    assert any("all trials dropped" in w for w in warnings)


# -------------------------------------------------------------- run_experiment


def test_run_experiment_matches_manual_loop():
    config = small_config(trials=50, snr_db_grid=(5.0,))
    result = run_experiment(config)
    [rate_fb], _, [dropped] = _run_chunk(config, 2, [(1, 5.0)], range(50))
    fb_mean, fb_ci = mean_ci(rate_fb[~dropped])
    point = result.points[0]
    assert point.rate_fb_mean == fb_mean and point.rate_fb_ci == fb_ci
    assert point.trials == 50
    assert point.bits == 2 and point.n_rx == 1 and point.snr_db == 5.0


def test_run_experiment_resolves_bits_per_grid_point():
    config = ExperimentConfig(m=4, n_rx=(2,), snr_db_grid=(0.0, 10.0),
                              bits_rule=BitsRule.scaling(1.0), trials=2, seed=7)
    result = run_experiment(config)
    assert [p.bits for p in result.points] == [1, 7]


def test_run_experiment_thread_count_does_not_change_results():
    config = small_config(trials=9, snr_db_grid=(0.0, 5.0))
    serial = run_experiment(config, threads=1)
    parallel = run_experiment(config, threads=3)
    assert serial.points == parallel.points
    assert serial.warnings == parallel.warnings


def test_run_experiment_worker_count_with_many_chunks(monkeypatch):
    # a tiny chunk budget splits the trials into one-block chunks (the last
    # cut short), so the workers share the chunks unevenly
    monkeypatch.setattr(experiment, "_CHUNK_BYTES", 1)
    config = small_config(trials=200, codebook_policy="fixed")
    serial = run_experiment(config, threads=1)
    assert serial.points == run_experiment(config, threads=2).points
    assert serial.points == run_experiment(config, threads=3).points


@pytest.mark.parametrize("policy", CODEBOOK_POLICIES)
def test_run_experiment_worker_count_with_multi_block_chunks(monkeypatch, policy):
    # two-block chunks (M = 2, B = 2: 256 codebook bytes a trial): 128, 128, 44
    monkeypatch.setattr(experiment, "_CHUNK_BYTES", 128 * 256)
    config = small_config(trials=300, codebook_policy=policy)
    serial = run_experiment(config, threads=1)
    assert serial.points == run_experiment(config, threads=2).points
    assert serial.points == run_experiment(config, threads=3).points


@pytest.mark.parametrize("policy", CODEBOOK_POLICIES)
def test_run_experiment_does_not_depend_on_chunk_bytes(monkeypatch, policy):
    # M = 4, B = 7: 32 KiB of codebook a trial, so at the default budget
    # per-block codebooks are drawn in two slices a block, at 1 byte in 64
    config = ExperimentConfig(m=4, n_rx=(2,), snr_db_grid=(0.0, 10.0), bits_rule=BitsRule.fixed(7),
                              trials=150, seed=77, codebook_policy=policy)
    points = run_experiment(config).points
    for chunk_bytes in (1, 2 ** 30):
        monkeypatch.setattr(experiment, "_CHUNK_BYTES", chunk_bytes)
        assert run_experiment(config).points == points


@pytest.mark.parametrize("policy", CODEBOOK_POLICIES)
def test_records_of_fewer_trials_are_a_prefix(policy):
    # a run that stops inside a stream block draws a prefix of its streams
    config = ExperimentConfig(m=3, n_rx=(1, 2), snr_db_grid=(0.0, 10.0),
                              bits_rule=BitsRule.fixed(3), trials=130, seed=8,
                              codebook_policy=policy)
    cells, codebooks = [(1, 10.0), (2, 0.0), (2, 10.0)], _fixed_codebooks(config, 3)
    assert_same_records(_run_chunk(config, 3, cells, range(70), codebooks),
                        [column[:, :70] for column in
                         _run_chunk(config, 3, cells, range(130), codebooks)])


@pytest.mark.parametrize("policy", CODEBOOK_POLICIES)
@pytest.mark.parametrize("chunk_bytes", [1, 2 ** 14, 2 ** 20, 2 ** 30])
def test_chunks_start_on_stream_blocks(monkeypatch, policy, chunk_bytes):
    chunks = []

    def spy_chunk(config, bits, cells, trials, codebooks=None):
        chunks.append(trials)
        return _run_chunk(config, bits, cells, trials, codebooks)

    monkeypatch.setattr(experiment, "_run_chunk", spy_chunk)
    monkeypatch.setattr(experiment, "_CHUNK_BYTES", chunk_bytes)
    config = small_config(m=3, n_rx=(2,), snr_db_grid=(10.0,), bits_rule=BitsRule.fixed(4),
                          trials=333, codebook_policy=policy)
    run_experiment(config)
    assert all(chunk.start % experiment._BLOCK == 0 for chunk in chunks)
    assert [t for chunk in chunks for t in chunk] == list(range(333))


# Recorded on stream contract v2 (block-keyed streams) when it replaced the
# per-trial streams: (N, policy, SNR) -> (rate_fb_mean, rate_zf_mean, gap,
# dropped) at M = 3, B = 3, 50 trials, seed 2024.
RECORDED_POINTS = {
    (1, "per_block", 0.0): (0.9491327151656006, 1.1988785494948067, 0.24974583432920605, 0),
    (1, "per_block", 10.0): (2.6884445938243506, 5.468691378912033, 2.7802467850876824, 0),
    (1, "fixed", 0.0): (0.8948443849904986, 1.1988785494948067, 0.3040341645043081, 0),
    (1, "fixed", 10.0): (2.630336143120577, 5.468691378912033, 2.838355235791456, 0),
    (2, "per_block", 0.0): (0.8100139655182049, 1.1988785494948067, 0.38886458397660173, 0),
    (2, "per_block", 10.0): (3.6574942248998408, 5.468691378912033, 1.8111971540121923, 0),
    (2, "fixed", 0.0): (0.6483567439807087, 1.1988785494948067, 0.5505218055140979, 0),
    (2, "fixed", 10.0): (3.102234070906017, 5.468691378912033, 2.366457308006016, 0),
}


def test_run_experiment_matches_recorded_values():
    for n, policy in itertools.product((1, 2), ("per_block", "fixed")):
        config = ExperimentConfig(m=3, n_rx=(n,), snr_db_grid=(0.0, 10.0),
                                  bits_rule=BitsRule.fixed(3), trials=50, seed=2024,
                                  codebook_policy=policy)
        for point in run_experiment(config).points:
            fb, zf, gap, dropped = RECORDED_POINTS[(n, policy, point.snr_db)]
            assert point.rate_fb_mean == pytest.approx(fb, rel=1e-12)
            assert point.rate_zf_mean == pytest.approx(zf, rel=1e-12)
            assert point.gap == pytest.approx(gap, rel=1e-12)
            assert point.dropped == dropped


# ------------------------------------------------------------ the (N, SNR) grid


def assert_grid_equals_its_cells(config):
    """The grid's points and warnings, at 1 and 3 workers, are its 1 x 1 runs'."""
    points, warnings = [], []
    for n, snr_db in itertools.product(config.n_rx, config.snr_db_grid):
        cell = run_experiment(dataclasses.replace(config, n_rx=(n,), snr_db_grid=(snr_db,)))
        points += cell.points
        warnings += cell.warnings
    for threads in (1, 3):
        grid = run_experiment(config, threads=threads)
        assert grid.points == points
        assert grid.warnings == warnings
    return points


GRIDS = {
    # one bit count for the whole grid
    "bits": dict(m=3, n_rx=(1, 2, 3), snr_db_grid=(0.0, 10.0, 5.0), bits_rule=BitsRule.fixed(3),
                 trials=150, seed=41),
    # bits (N = 2: 1, 4, 7; N = 1: 1, 5, 10) differ across N and SNR, and
    # (N, 0 dB) share one bit count
    "gap_target": dict(m=4, n_rx=(2, 1), snr_db_grid=(0.0, 5.0, 10.0),
                       bits_rule=BitsRule.scaling(1.0), trials=70, seed=42),
}


@pytest.mark.parametrize("policy", CODEBOOK_POLICIES)
@pytest.mark.parametrize("grid", sorted(GRIDS))
def test_grid_equals_its_cells(monkeypatch, policy, grid):
    # 64-trial chunks at M = 3, B = 3, so the workers get whole chunks
    monkeypatch.setattr(experiment, "_CHUNK_BYTES", 64 * 3 * 2 ** 3 * 3 * 16)
    config = ExperimentConfig(codebook_policy=policy, **GRIDS[grid])
    points = assert_grid_equals_its_cells(config)
    if grid == "gap_target":
        assert [p.bits for p in points] == [1, 4, 7, 1, 5, 10]


def test_grid_equals_its_cells_when_trials_drop(monkeypatch):
    # every user scans the same four codewords, so users often report one
    # direction and zero-forcing refuses the stack, at every (N, SNR)
    book = np.vstack([np.eye(3), np.ones((1, 3)) / np.sqrt(3)]).astype(complex)
    monkeypatch.setattr(experiment, "_fixed_codebooks",
                        lambda config, bits: np.stack([book] * config.users)[None])
    config = ExperimentConfig(m=3, n_rx=(1, 2), snr_db_grid=(0.0, 10.0),
                              bits_rule=BitsRule.fixed(2), trials=150, seed=43,
                              codebook_policy="fixed")
    points = assert_grid_equals_its_cells(config)
    assert all(0.01 * p.trials < p.dropped < p.trials for p in points)


@pytest.mark.parametrize("policy", CODEBOOK_POLICIES)
def test_grid_draws_and_zero_forces_shared_work_once_per_chunk(monkeypatch, policy):
    # 5-trial codebook slices and 64-trial chunks at M = 3, B = 3: 200
    # trials are chunks of 64, 64, 64 and 8 trials and 3 x 13 + 2 slices
    monkeypatch.setattr(experiment, "_CHUNK_BYTES", 5 * 3 * 2 ** 3 * 3 * 16)

    def work(n_rx, snr_db_grid):
        seen = Counter()

        def spy(name, fn):
            def counted(*args, **kwargs):
                seen[name] += 1
                return fn(*args, **kwargs)
            return counted

        class SpyStream(RngStream):
            def generator(self):
                gen = super().generator()
                return SimpleNamespace(
                    standard_normal=spy(("draw", self.purpose), gen.standard_normal))

        with monkeypatch.context() as patch:
            # the benchmark's zero_force is precoding's, called by perfect_csit_rates
            patch.setattr(precoding, "zero_force", spy("benchmark ZF", precoding.zero_force))
            patch.setattr(experiment, "zero_force", spy("feedback ZF", experiment.zero_force))
            patch.setattr(experiment, "_run_chunk", spy("chunk", experiment._run_chunk))
            patch.setattr(experiment, "RngStream", SpyStream)
            run_experiment(ExperimentConfig(m=3, n_rx=n_rx, snr_db_grid=snr_db_grid,
                                            bits_rule=BitsRule.fixed(3), trials=200, seed=3,
                                            codebook_policy=policy))
        return seen

    grid, cell = work((1, 2), (0.0, 5.0, 10.0)), work((1,), (0.0,))
    assert grid["chunk"] == cell["chunk"] == 4
    # once a chunk, not once a cell
    assert grid["benchmark ZF"] == cell["benchmark ZF"] == 4
    assert grid["draw", PURPOSE_BENCHMARK] == cell["draw", PURPOSE_BENCHMARK] == 4
    # each codebook slice drawn once a chunk, the fixed codebooks once a run
    per_block = policy == "per_block"
    assert grid["draw", PURPOSE_CODEBOOK] == cell["draw", PURPOSE_CODEBOOK] == 41 * per_block
    assert grid["draw", PURPOSE_FIXED_CODEBOOK] == cell["draw", PURPOSE_FIXED_CODEBOOK] == (
        3 * (not per_block))
    # one channel draw a block for every N; each N's feedback once a chunk
    assert grid["draw", PURPOSE_CHANNEL] == cell["draw", PURPOSE_CHANNEL] == 4
    assert grid["feedback ZF"] == 2 * 4


def test_run_experiment_single_trial():
    result = run_experiment(small_config(trials=1))
    assert result.points[0].rate_fb_ci == 0.0


def test_run_experiment_guards():
    with pytest.raises(ValueError):
        run_experiment(small_config(), threads=0)
