import dataclasses
import itertools
import math
import threading
import tracemalloc
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

import effchan.experiment as experiment
import effchan.linalg as linalg
import effchan.precoding as precoding
import effchan.quantize as quantize
from effchan.experiment import (
    CODEBOOK_POLICIES,
    BitsRule,
    ExperimentConfig,
    _aggregate,
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
from effchan.quantize import _orient, _select, generate_codebook
from effchan.stats import mean_ci
from oracles import Replay


def small_config(**overrides):
    base = dict(m=2, n_rx=(1,), snr_db_grid=(5.0,), bits_rule=BitsRule.fixed(2),
                trials=20, seed=99)
    base.update(overrides)
    return ExperimentConfig(**base)


def block_draw(seed, block, purpose, shape):
    """Stream block ``block``'s standard normals for ``purpose``, drawn from its start."""
    return RngStream(seed, block, 0, purpose).generator().standard_normal(shape)


def block_channels(config, block, trials):
    """Complex channels (trials, users, M, N) of a stream block's first trials at the
    config's one N: the first N columns of the block's (M, M) channel draw."""
    [n], m = config.n_rx, config.m
    parts = block_draw(config.seed, block, PURPOSE_CHANNEL, (trials, config.users, 2, m, m))
    return np.ascontiguousarray(complex_from_parts(np.moveaxis(parts, 2, 0))[..., :n])


def policy_score(config, bits):
    """The chunk scorer that run_experiment hands _run_chunk for the config's policy."""
    return CODEBOOK_POLICIES[config.codebook_policy](config, bits)


def planted(codebooks):
    """A chunk scorer that scores every trial against the per-user (2^B, M) codebooks."""
    books = np.stack(codebooks)
    return lambda first_block, q, widths: _select(q, books, widths)


def trial_record(config, snr_db, bits, t, score=None):
    """Trial t's (rate_fb, rate_zf, dropped) at the config's one N: the last entry
    of its block's prefix (scored by the config's policy unless ``score`` is given)."""
    block_start = t // experiment._BLOCK * experiment._BLOCK
    [n] = config.n_rx
    columns = _run_chunk(config, bits, [(n, snr_db)], range(block_start, t + 1),
                         score or policy_score(config, bits))
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
    for seed in (1.5, 2.0, False):
        with pytest.raises(ValueError):
            small_config(seed=seed, codebook_policy=policy)
    assert small_config(seed=np.int64(99), codebook_policy=policy).seed == 99


@pytest.mark.parametrize("field, value", [
    ("trials", 5.5), ("m", 2.0), pytest.param("n_rx", (1.0,), id="n_rx-1.0"),
    ("trials", True), pytest.param("n_rx", (True,), id="n_rx-True")])
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
        codebooks.append(np.stack([direction, other]))
    rate_fb, _, dropped = trial_record(config, 10.0, 1, 0, planted(codebooks))
    expected, _, _ = perfect_csit_rates(channels.T, 10.0)
    assert not dropped
    assert rate_fb == pytest.approx(expected, rel=1e-9)


def orthogonal_codebooks(config):
    """A scorer of per-user codebooks whose every codeword is orthogonal to trial 0's channel."""
    codebooks = []
    for h in block_channels(config, 0, 1)[0, :, :, 0]:
        direction = h / np.linalg.norm(h)
        other = np.array([-np.conj(direction[1]), np.conj(direction[0])])
        codebooks.append(np.stack([other, other]))
    return planted(codebooks)


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
    rate_fb, rate_zf, dropped = _run_chunk(config, 2, cells, range(5), policy_score(config, 2))
    assert dropped.tolist() == [[False, True, False, False, False]] * len(cells)
    assert (rate_fb[:, 1] == 0.0).all() and (rate_zf[:, 1] == 0.0).all()
    assert (rate_fb[:, [0, 2, 3, 4]] > 0.0).all()


def test_trial_drops_parallel_reported_directions():
    # both users report the same codeword, so the direction stack is singular
    e1 = np.array([1.0, 0.0], dtype=complex)
    cb = np.stack([e1, e1])
    rate_fb, rate_zf, dropped = trial_record(small_config(), 10.0, 1, 0, planted([cb, cb]))
    assert dropped
    assert rate_fb == 0.0 and rate_zf == 0.0  # rate_fb is 0 only if every SINR is 0


@pytest.mark.parametrize("policy", CODEBOOK_POLICIES)
@pytest.mark.parametrize("seed", [5, 2 ** 40 + 9])
def test_chunk_draws_equal_per_stream_draws(monkeypatch, policy, seed):
    # a chunk of two stream blocks, the second cut short: every draw must be
    # the block stream's own, drawn from its start with the block's shapes,
    # and per-block codebooks drawn in slices of 5 trials must be the block
    # stream's codebook draw in trial order
    config = ExperimentConfig(m=3, n_rx=(2,), snr_db_grid=(10.0,), bits_rule=BitsRule.fixed(3),
                              trials=200, seed=seed, codebook_policy=policy)
    seen = {"books": [], "picks": []}

    def spy_select(q, books, widths):  # every per-block codebook slice's, or the fixed chunk's one
        seen["q"] = q  # the last call's
        seen["books"].append(books)
        picks = _select(q, books, widths)
        seen["picks"].append(picks[0])  # the config's one N
        return picks

    def spy_orient(channels, *args):  # the chunk's one call
        seen["channels"] = channels
        return _orient(channels, *args)

    def spy_rates(bench, power):
        seen["bench"] = bench
        return perfect_csit_rates(bench, power)

    # the per-block slices call quantize's _select, the fixed scorer experiment's
    monkeypatch.setattr(quantize, "_select", spy_select)
    monkeypatch.setattr(experiment, "_select", spy_select)
    monkeypatch.setattr(experiment, "_orient", spy_orient)
    monkeypatch.setattr(experiment, "perfect_csit_rates", spy_rates)
    monkeypatch.setattr(linalg, "SLICE_BYTES", 5 * 3 * 2 ** 3 * 3 * 2 * 8)
    trials = range(64, 134)
    records = _run_chunk(config, 3, [(2, 10.0)], trials, policy_score(config, 3))
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
        # each slice is scored on its rows of the chunk's one QR factor, and
        # the whole chunk is oriented at once
        assert seen["q"].tobytes() == np.linalg.qr(channels[-1:])[0].tobytes()
        assert seen["channels"].tobytes() == channels.tobytes()
        normals = np.concatenate([block_draw(seed, b, PURPOSE_CODEBOOK, (k, 3, 2, 2 ** 3, 3))
                                  for b, k in ((1, 64), (2, 6))])
        assert np.concatenate([re for re, _ in seen["books"]]).tobytes() == (
            normals[:, :, 0].tobytes())
        assert np.concatenate([im for _, im in seen["books"]]).tobytes() == (
            normals[:, :, 1].tobytes())
        index, q_hat, _ = map(np.concatenate, zip(*seen["picks"]))
        for i, u in itertools.product(range(70), range(3)):
            book = generate_codebook(Replay(normals[i, u]), 3, 3)
            assert q_hat[i, u].tobytes() == book[index[i, u]].tobytes()
    else:
        # the whole chunk is scored on its one QR factor and oriented at once
        [books] = seen["books"]
        assert seen["q"].tobytes() == np.linalg.qr(channels)[0].tobytes()
        assert seen["channels"].tobytes() == channels.tobytes()
        for u in range(config.users):
            book = generate_codebook(RngStream(seed, 0, u, PURPOSE_FIXED_CODEBOOK), 3, 3)
            assert books[u].tobytes() == book.tobytes()
    singles = [trial_record(config, 10.0, 3, t) for t in trials]
    assert_same_records([column[0] for column in records],
                        tuple(np.array(column) for column in zip(*singles)))


def test_each_n_quantizes_its_own_block_channel_draw(monkeypatch):
    # one draw a block serves every N: each N's channels must be the first N
    # columns of the block stream's (trials, users, 2, M, M) draw from its
    # start, over a full block and one cut short, and each N's (Q, R) the
    # prefixes of the chunk's one QR, of the largest N (here N < M)
    seen = {}

    def spy_orient(channels, q, r, *picks):
        seen[channels.shape[-1]] = channels, q, r
        return _orient(channels, q, r, *picks)

    monkeypatch.setattr(experiment, "_orient", spy_orient)
    config = ExperimentConfig(m=4, n_rx=(2, 1, 3), snr_db_grid=(10.0,),
                              bits_rule=BitsRule.fixed(2), trials=200, seed=11,
                              codebook_policy="fixed")
    _run_chunk(config, 2, [(2, 10.0), (1, 10.0), (3, 10.0)], range(64, 134),
               policy_score(config, 2))
    parts = np.concatenate([block_draw(config.seed, b, PURPOSE_CHANNEL, (k, 4, 2, 4, 4))
                            for b, k in ((1, 64), (2, 6))])
    full = complex_from_parts(np.moveaxis(parts, 2, 0))  # (70, users, M, M)
    q, r = np.linalg.qr(full[..., :3])
    assert sorted(seen) == [1, 2, 3]
    for n, (channels, q_n, r_n) in seen.items():
        assert channels.tobytes() == full[..., :n].tobytes()
        assert q_n.tobytes() == q[..., :n].tobytes()
        assert r_n.tobytes() == r[..., :n, :n].tobytes()


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
    # the fixed scorer draws each user's codebook once, from the user's own
    # stream, and scores every chunk against it; per-block codebooks are fresh
    fixed = small_config(codebook_policy="fixed")
    books = [generate_codebook(RngStream(fixed.seed, 0, u, PURPOSE_FIXED_CODEBOOK), 2, fixed.m)
             for u in range(fixed.users)]
    # per-user books differ from each other
    assert not np.array_equal(books[0], books[1])
    q = np.linalg.qr(block_channels(fixed, 0, 5))[0]
    [expected] = planted(books)(0, q, (1,))
    for score in (policy_score(fixed, 2), policy_score(fixed, 2)):
        for first_block in (0, 3):
            [picks] = score(first_block, q, (1,))
            assert_same_records(picks, expected)
    per_block = policy_score(small_config(), 2)
    [first], [later] = per_block(0, q, (1,)), per_block(3, q, (1,))
    assert not np.array_equal(first[1], later[1])


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
    [rate_fb], _, [dropped] = _run_chunk(config, 2, [(1, 5.0)], range(50), policy_score(config, 2))
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


def run_on_cores(monkeypatch, config, cores):
    """run_experiment(config) once for each core count the process may run on."""
    results = []
    for count in cores:
        monkeypatch.setattr(linalg, "_cores", lambda: count)
        results.append(run_experiment(config))
    return results


def test_run_experiment_thread_count_does_not_change_results(monkeypatch, pools):
    config = small_config(trials=9, snr_db_grid=(0.0, 5.0))
    serial, parallel = run_on_cores(monkeypatch, config, (1, 3))
    assert pools == []  # one chunk runs serially whatever the cores
    assert serial.points == parallel.points
    assert serial.warnings == parallel.warnings


def test_run_experiment_worker_count_with_many_chunks(monkeypatch, pools):
    # a tiny chunk budget splits the trials into one-block chunks (the last
    # cut short), so the workers share the chunks unevenly
    monkeypatch.setattr(linalg, "SLICE_BYTES", 1)
    config = small_config(trials=200, codebook_policy="fixed")
    serial, two, three = run_on_cores(monkeypatch, config, (1, 2, 3))
    assert pools == [2, 3]
    assert serial.points == two.points
    assert serial.points == three.points


@pytest.mark.parametrize("policy", CODEBOOK_POLICIES)
def test_run_experiment_worker_count_with_multi_block_chunks(monkeypatch, pools, policy):
    # two-block chunks (M = 2, B = 2: 256 codebook bytes a trial): 128, 128, 44
    monkeypatch.setattr(linalg, "SLICE_BYTES", 128 * 256)
    config = small_config(trials=300, codebook_policy=policy)
    serial, two, three = run_on_cores(monkeypatch, config, (1, 2, 3))
    assert pools == [2, 3]
    assert serial.points == two.points
    assert serial.points == three.points


@pytest.mark.parametrize("policy", CODEBOOK_POLICIES)
def test_run_experiment_does_not_depend_on_chunk_bytes(monkeypatch, policy):
    # M = 4, B = 7: 32 KiB of codebook a trial, so at the default budget
    # per-block codebooks are drawn in two slices a block, at 1 byte in 64
    config = ExperimentConfig(m=4, n_rx=(2,), snr_db_grid=(0.0, 10.0), bits_rule=BitsRule.fixed(7),
                              trials=150, seed=77, codebook_policy=policy)
    points = run_experiment(config).points
    for chunk_bytes in (1, 2 ** 30):
        monkeypatch.setattr(linalg, "SLICE_BYTES", chunk_bytes)
        assert run_experiment(config).points == points


@pytest.mark.parametrize("policy, m, n_rx, bits, trials, scanned", [
    ("per_block", 8, (2,), 10, 64, 1),  # sweep_block_b10's chunk: one-trial slices
    ("fixed", 4, (1, 2, 3), 2, 200, 200),  # sweep_fixed_b2's one chunk, scored at once
])
def test_chunk_bytes_counts_a_chunks_traced_peak(traced_peak, policy, m, n_rx, bits, trials,
                                                 scanned):
    config = ExperimentConfig(m=m, n_rx=n_rx, snr_db_grid=(10.0,), bits_rule=BitsRule.fixed(bits),
                              trials=trials, seed=1, codebook_policy=policy)
    cells, score = [(n, 10.0) for n in n_rx], policy_score(config, bits)
    _run_chunk(config, bits, cells, range(1), score)  # numpy's one-time set-up
    peak = traced_peak(_run_chunk, config, bits, cells, range(trials), score)
    assert 0.75 * peak <= experiment._chunk_bytes(config, bits, trials, scanned) <= 1.25 * peak


def test_chunk_holds_no_real_normals_once_scoring_starts(monkeypatch):
    # channels dominate at M = 8, N = 1..8, B = 1: keeping their real normals
    # (and the benchmark's) past the complex arrays adds about 26%
    m, n_rx, bits, trials = 8, tuple(range(1, 9)), 1, 64
    config = ExperimentConfig(m=m, n_rx=n_rx, snr_db_grid=(10.0,), bits_rule=BitsRule.fixed(bits),
                              trials=trials, seed=1, codebook_policy="per_block")
    cells, held = [(n, 10.0) for n in n_rx], []

    def spy_select_drawn(*args):
        held.append(tracemalloc.get_traced_memory()[0])
        return select_drawn(*args)

    select_drawn = experiment._select_drawn
    monkeypatch.setattr(experiment, "_select_drawn", spy_select_drawn)
    score = policy_score(config, bits)
    _run_chunk(config, bits, cells, range(1), score)  # numpy's one-time set-up
    held.clear()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        _run_chunk(config, bits, cells, range(trials), score)
    finally:
        tracemalloc.stop()
    # a trial and user holds its complex (M, M) channel, the QR factors of the
    # largest N, every N's (index, q_hat, cos_sq) picks, and its complex benchmark
    top = max(n_rx)
    count = trials * config.users * (
        16 * (m * m + m * top + top * top) + len(n_rx) * (16 * m + 16) + 16 * m)
    assert 0.9 * count <= held[0] - start <= 1.1 * count


@pytest.mark.parametrize("policy", CODEBOOK_POLICIES)
def test_records_of_fewer_trials_are_a_prefix(policy):
    # a run that stops inside a stream block draws a prefix of its streams
    config = ExperimentConfig(m=3, n_rx=(1, 2), snr_db_grid=(0.0, 10.0),
                              bits_rule=BitsRule.fixed(3), trials=130, seed=8,
                              codebook_policy=policy)
    cells, score = [(1, 10.0), (2, 0.0), (2, 10.0)], policy_score(config, 3)
    assert_same_records(_run_chunk(config, 3, cells, range(70), score),
                        [column[:, :70] for column in
                         _run_chunk(config, 3, cells, range(130), score)])


@pytest.mark.parametrize("policy", CODEBOOK_POLICIES)
@pytest.mark.parametrize("chunk_bytes", [1, 2 ** 14, 2 ** 20, 2 ** 30])
def test_chunks_start_on_stream_blocks(monkeypatch, policy, chunk_bytes):
    chunks = []

    def spy_chunk(config, bits, cells, trials, score):
        chunks.append(trials)
        return _run_chunk(config, bits, cells, trials, score)

    monkeypatch.setattr(experiment, "_run_chunk", spy_chunk)
    monkeypatch.setattr(linalg, "SLICE_BYTES", chunk_bytes)
    config = small_config(m=3, n_rx=(2,), snr_db_grid=(10.0,), bits_rule=BitsRule.fixed(4),
                          trials=333, codebook_policy=policy)
    run_experiment(config)
    assert all(chunk.start % experiment._BLOCK == 0 for chunk in chunks)
    # worker threads may start their chunks out of order
    chunks.sort(key=lambda chunk: chunk.start)
    assert [t for chunk in chunks for t in chunk] == list(range(333))


# Recorded on stream contract v4 (each block's channels drawn M x M, an N's
# channels their first N columns) when it replaced v3's M x N_max draw:
# (N, policy, SNR) -> (rate_fb_mean, rate_zf_mean, gap, dropped) at M = 3,
# B = 3, 50 trials, seed 2024.
RECORDED_POINTS = {
    (1, "per_block", 0.0): (0.9058193019900481, 0.9818589496021937, 0.07603964761214554, 0),
    (1, "per_block", 10.0): (2.490153634598315, 4.781263771664084, 2.2911101370657687, 0),
    (1, "fixed", 0.0): (0.7629923539298932, 0.9818589496021937, 0.2188665956723005, 0),
    (1, "fixed", 10.0): (2.287053015065227, 4.781263771664084, 2.4942107565988567, 0),
    (2, "per_block", 0.0): (0.7846283193622979, 0.9818589496021937, 0.19723063023989573, 0),
    (2, "per_block", 10.0): (3.561731238404753, 4.781263771664084, 1.219532533259331, 0),
    (2, "fixed", 0.0): (0.8585801071354492, 0.9818589496021937, 0.12327884246674448, 0),
    (2, "fixed", 10.0): (3.817623662848248, 4.781263771664084, 0.9636401088158357, 0),
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


def assert_grid_equals_its_cells(monkeypatch, config):
    """The grid's points and warnings, on 1 and 3 cores, are its 1 x 1 runs'."""
    points, warnings = [], []
    for n, snr_db in itertools.product(config.n_rx, config.snr_db_grid):
        cell = run_experiment(dataclasses.replace(config, n_rx=(n,), snr_db_grid=(snr_db,)))
        points += cell.points
        warnings += cell.warnings
    for grid in run_on_cores(monkeypatch, config, (1, 3)):
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
    monkeypatch.setattr(linalg, "SLICE_BYTES", 64 * 3 * 2 ** 3 * 3 * 16)
    config = ExperimentConfig(codebook_policy=policy, **GRIDS[grid])
    points = assert_grid_equals_its_cells(monkeypatch, config)
    if grid == "gap_target":
        assert [p.bits for p in points] == [1, 4, 7, 1, 5, 10]


def test_grid_equals_its_cells_when_trials_drop(monkeypatch):
    # every user scans the same four codewords, so users often report one
    # direction and zero-forcing refuses the stack, at every (N, SNR)
    book = np.vstack([np.eye(3), np.ones((1, 3)) / np.sqrt(3)]).astype(complex)
    monkeypatch.setitem(experiment.CODEBOOK_POLICIES, "fixed",
                        lambda config, bits: planted([book] * config.users))
    config = ExperimentConfig(m=3, n_rx=(1, 2), snr_db_grid=(0.0, 10.0),
                              bits_rule=BitsRule.fixed(2), trials=150, seed=43,
                              codebook_policy="fixed")
    points = assert_grid_equals_its_cells(monkeypatch, config)
    assert all(0.01 * p.trials < p.dropped < p.trials for p in points)


@pytest.mark.parametrize("policy", CODEBOOK_POLICIES)
def test_grid_draws_and_zero_forces_shared_work_once_per_chunk(monkeypatch, policy):
    # 5-trial codebook slices and 64-trial chunks at M = 3, B = 3: 200
    # trials are chunks of 64, 64, 64 and 8 trials and 3 x 13 + 2 slices
    monkeypatch.setattr(linalg, "SLICE_BYTES", 5 * 3 * 2 ** 3 * 3 * 16)

    def work(n_rx, snr_db_grid):
        seen, lock = Counter(), threading.Lock()  # chunks run on worker threads

        def spy(name, fn):
            def counted(*args, **kwargs):
                with lock:
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
            # the kernel's stages: the chunk's QR factor (zero_force's QR is mode "r"),
            # the per-block slices' or the fixed scorer's _select, and _orient
            qr, reduced_qr = np.linalg.qr, spy("QR", np.linalg.qr)
            patch.setattr(np.linalg, "qr", lambda a, mode="reduced": (
                reduced_qr if mode == "reduced" else qr)(a, mode=mode))
            for module, name in ((experiment, "_orient"), (quantize, "_select"),
                                 (experiment, "_select"), (quantize, "_orient"),
                                 (quantize, "quantize_stack")):
                patch.setattr(module, name, spy(name, getattr(module, name)))
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
    # the largest N QR-factored once a chunk and each N's picks oriented once a
    # chunk, under either policy, and never through quantize_stack; a per-block
    # codebook slice selected on once for every N, the fixed codebooks once a chunk
    assert grid["QR"] == cell["QR"] == 4
    assert grid["_orient"] == 2 * cell["_orient"] == 2 * 4
    assert grid["_select"] == cell["_select"] == (41 if per_block else 4)
    assert grid["quantize_stack"] == cell["quantize_stack"] == 0
    assert not hasattr(experiment, "quantize_stack")


def test_run_experiment_single_trial():
    result = run_experiment(small_config(trials=1))
    assert result.points[0].rate_fb_ci == 0.0
