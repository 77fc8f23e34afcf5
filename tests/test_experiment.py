import itertools

import numpy as np
import pytest

import effchan.experiment as experiment
from effchan.experiment import (
    CODEBOOK_POLICIES,
    BitsRule,
    ExperimentConfig,
    TrialRecord,
    _aggregate,
    _fixed_codebooks,
    _run_chunk,
    run_experiment,
    run_trial,
)
from effchan.formulas import InfeasibleTargetError
from effchan.linalg import (
    PURPOSE_BENCHMARK,
    PURPOSE_CHANNEL,
    PURPOSE_CODEBOOK,
    RngStream,
    complex_normal,
)
from effchan.precoding import perfect_csit_rates
from effchan.quantize import Codebook, generate_codebook, quantize_stack
from effchan.stats import mean_ci


def small_config(**overrides):
    base = dict(m=2, n=1, snr_db_grid=(5.0,), bits_rule=BitsRule.fixed(2),
                trials=20, seed=99)
    base.update(overrides)
    return ExperimentConfig(**base)


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
    with pytest.raises(ValueError):
        BitsRule.scaling(0.0)
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
        small_config(n=3)  # N > M
    with pytest.raises(ValueError):
        small_config(snr_db_grid=())
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


@pytest.mark.parametrize("field, value", [("trials", 5.5), ("m", 2.0), ("n", 1.0)])
def test_config_rejects_non_integer_counts(field, value):
    # refused at construction, not by a TypeError from range/np.empty mid-run
    with pytest.raises(ValueError, match=field):
        small_config(**{field: value})
    assert small_config(m=np.int64(2), n=np.int64(1), trials=np.int64(5)).trials == 5


def test_bits_rule_fixed_rejects_non_integer_bits():
    # never truncated to the bit count below
    for bits in (2.5, 2.0):
        with pytest.raises(ValueError):
            BitsRule.fixed(bits)
    assert BitsRule.fixed(np.int64(3)).resolve(4, 2, 10.0) == 3


def test_config_users_equals_transmit_antennas():
    assert small_config(m=4, n=2).users == 4


# ----------------------------------------------------------------- run_trial


def test_run_trial_deterministic():
    config = small_config()
    a = run_trial(config, 10.0, 2, RngStream(config.seed, 3))
    b = run_trial(config, 10.0, 2, RngStream(config.seed, 3))
    c = run_trial(config, 10.0, 2, RngStream(config.seed, 4))
    assert a.rate_fb == b.rate_fb and a.rate_zf == b.rate_zf
    assert np.array_equal(a.sinrs, b.sinrs)
    assert a.rate_fb != c.rate_fb


def test_run_trial_with_planted_directions_matches_perfect_zf():
    # give each user a codebook containing its exact channel direction: the
    # feedback link is then lossless and the rate equals zero-forcing on the
    # true channels
    config = small_config(seed=1234)
    stream = RngStream(config.seed, 0)
    channels = []
    codebooks = []
    for u in range(config.users):
        h = complex_normal(stream.derive(user=u, purpose=PURPOSE_CHANNEL).generator(),
                           (2, 1))[:, 0]
        direction = h / np.linalg.norm(h)
        other = np.array([-np.conj(direction[1]), np.conj(direction[0])])
        codebooks.append(Codebook(vectors=np.stack([direction, other]), bits=1))
        channels.append(h)
    record = run_trial(config, 10.0, 1, stream, codebooks=codebooks)
    expected, _, _ = perfect_csit_rates(np.stack(channels, axis=1), 10.0)
    assert not record.dropped
    assert record.rate_fb == pytest.approx(expected, rel=1e-9)


def test_run_trial_drops_codeword_orthogonal_to_channel():
    # every codeword of every user is orthogonal to that user's channel, so
    # no user can orient a combiner and the trial must be dropped
    config = small_config(seed=1234)
    stream = RngStream(config.seed, 0)
    codebooks = []
    for u in range(config.users):
        h = complex_normal(stream.derive(user=u, purpose=PURPOSE_CHANNEL).generator(),
                           (2, 1))[:, 0]
        direction = h / np.linalg.norm(h)
        other = np.array([-np.conj(direction[1]), np.conj(direction[0])])
        codebooks.append(Codebook(vectors=np.stack([other, other]), bits=1))
    record = run_trial(config, 10.0, 1, stream, codebooks=codebooks)
    assert record.dropped
    assert record.rate_fb == 0.0 and record.rate_zf == 0.0


def test_run_trial_drops_parallel_reported_directions():
    # both users report the same codeword, so the direction stack is singular
    e1 = np.array([1.0, 0.0], dtype=complex)
    cb = Codebook(vectors=np.stack([e1, e1]), bits=1)
    record = run_trial(small_config(), 10.0, 1, RngStream(99, 0), codebooks=[cb, cb])
    assert record.dropped
    assert record.rate_fb == 0.0 and record.rate_zf == 0.0
    assert np.all(record.sinrs == 0.0)


@pytest.mark.parametrize("policy", CODEBOOK_POLICIES)
@pytest.mark.parametrize("seed", [5, 2 ** 40 + 9])
def test_chunk_draws_equal_per_stream_draws(monkeypatch, policy, seed):
    # the chunk derives its stream keys at once and rewinds one generator;
    # every draw must still be the one its own RngStream generator makes
    config = ExperimentConfig(m=3, n=2, snr_db_grid=(10.0,), bits_rule=BitsRule.fixed(3),
                              trials=20, seed=seed, codebook_policy=policy)
    seen = {}

    def spy_quantize(channels, books):
        seen["channels"], seen["books"] = channels, books
        seen["fb"], fault = quantize_stack(channels, books)
        return seen["fb"], fault

    def spy_rates(bench, power):
        seen["bench"] = bench
        return perfect_csit_rates(bench, power)

    monkeypatch.setattr(experiment, "quantize_stack", spy_quantize)
    monkeypatch.setattr(experiment, "perfect_csit_rates", spy_rates)
    trials = range(11, 17)
    codebooks = _fixed_codebooks(config, 3)
    records = _run_chunk(config, 10.0, 3, seed, trials, codebooks)
    monkeypatch.undo()

    def oracle(t, u, purpose, shape):
        return complex_normal(RngStream(seed, t, u, purpose).generator(), shape)

    assert seen["bench"].shape == (6, 3, 3) and seen["bench"].flags.c_contiguous
    for i, t in enumerate(trials):
        for u in range(config.users):
            channel = oracle(t, u, PURPOSE_CHANNEL, (3, 2))
            assert seen["channels"][i, u].tobytes() == channel.tobytes()
            assert seen["bench"][i, :, u].tobytes() == oracle(t, u, PURPOSE_BENCHMARK, 3).tobytes()
            if policy == "per_block":
                # the kernel gets the codebook's normal parts; its winning row
                # is the row generate_codebook forms from them
                stream = RngStream(seed, t, u, PURPOSE_CODEBOOK)
                normals = stream.generator().standard_normal((2, 2 ** 3, 3))
                assert seen["books"][0][i, u].tobytes() == normals[0].tobytes()
                assert seen["books"][1][i, u].tobytes() == normals[1].tobytes()
                book = generate_codebook(stream, 3, 3)
                index = seen["fb"].index[i, u]
                assert seen["fb"].q_hat[i, u].tobytes() == book.vectors[index].tobytes()
            else:
                assert seen["books"][0, u].tobytes() == codebooks[u].vectors.tobytes()
    singles = [run_trial(config, 10.0, 3, RngStream(seed, t), codebooks) for t in trials]
    for record, single in zip(records, singles):
        assert np.array_equal(record.sinrs, single.sinrs)
        assert (record.rate_fb, record.rate_zf, record.dropped) == (
            single.rate_fb, single.rate_zf, single.dropped)


def test_run_trial_feedback_loses_to_perfect_knowledge_on_average():
    config = small_config(trials=200)
    records = [run_trial(config, 10.0, 2, RngStream(config.seed, t))
               for t in range(200)]
    kept = [r for r in records if not r.dropped]
    fb = np.mean([r.rate_fb for r in kept])
    zf = np.mean([r.rate_zf for r in kept])
    assert zf > fb + 0.5


def test_more_feedback_bits_raise_mean_rate():
    # paired runs share channel draws through the seed, so the finer
    # codebook must win by far more than the Monte Carlo half-widths
    def mean_rate(bits):
        config = ExperimentConfig(m=3, n=1, snr_db_grid=(10.0,),
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
    assert len(books_a) == fixed.users
    for a, b in zip(books_a, books_b):
        assert np.array_equal(a.vectors, b.vectors)
    # per-user books differ from each other
    assert not np.array_equal(books_a[0].vectors, books_a[1].vectors)


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
    config = small_config()
    records = [TrialRecord(sinrs=np.ones(2), rate_fb=float(v), rate_zf=float(2 * v),
                           dropped=False) for v in (1.0, 2.0, 3.0, 4.0)]
    warnings = []
    point = _aggregate(config, 5.0, 2, records, warnings)
    fb_mean, fb_ci = mean_ci(np.array([1.0, 2.0, 3.0, 4.0]))
    assert (point.rate_fb_mean, point.rate_fb_ci) == (fb_mean, fb_ci)
    assert point.gap == point.rate_zf_mean - point.rate_fb_mean
    assert point.dropped == 0 and point.trials == 4
    assert warnings == []


def test_aggregate_excludes_dropped_and_warns():
    config = small_config()
    good = [TrialRecord(np.ones(2), 2.0, 3.0, False) for _ in range(8)]
    bad = [TrialRecord(np.zeros(2), 0.0, 0.0, True) for _ in range(2)]
    warnings = []
    point = _aggregate(config, 0.0, 2, good + bad, warnings)
    assert point.rate_fb_mean == 2.0  # zeros from dropped trials never dilute
    assert point.dropped == 2 and point.trials == 10
    assert len(warnings) == 1 and "dropped 2/10" in warnings[0]


def test_aggregate_all_dropped_yields_nan_row():
    config = small_config()
    records = [TrialRecord(np.zeros(2), 0.0, 0.0, True) for _ in range(3)]
    warnings = []
    point = _aggregate(config, 0.0, 2, records, warnings)
    assert np.isnan(point.rate_fb_mean) and np.isnan(point.gap)
    assert point.dropped == 3
    assert any("all trials dropped" in w for w in warnings)


# -------------------------------------------------------------- run_experiment


def test_run_experiment_matches_manual_loop():
    config = small_config(trials=50, snr_db_grid=(5.0,))
    result = run_experiment(config)
    records = [run_trial(config, 10.0 ** 0.5, 2, RngStream(config.seed, t))
               for t in range(50)]
    kept = [r for r in records if not r.dropped]
    fb_mean, fb_ci = mean_ci(np.array([r.rate_fb for r in kept]))
    point = result.points[0]
    assert point.rate_fb_mean == fb_mean and point.rate_fb_ci == fb_ci
    assert point.trials == 50
    assert point.bits == 2 and point.n_rx == 1 and point.snr_db == 5.0


def test_run_experiment_resolves_bits_per_grid_point():
    config = ExperimentConfig(m=4, n=2, snr_db_grid=(0.0, 10.0),
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
    # a tiny chunk budget splits the trials into one-trial chunks, so the
    # workers share the chunks unevenly
    monkeypatch.setattr(experiment, "_CHUNK_BYTES", 1)
    config = small_config(trials=7, codebook_policy="fixed")
    serial = run_experiment(config, threads=1)
    assert serial.points == run_experiment(config, threads=2).points
    assert serial.points == run_experiment(config, threads=3).points


# Recorded from the trial-at-a-time implementation (Gram-Schmidt quantizer,
# per-user SINR) on the same streams: (N, policy, SNR) -> (rate_fb_mean,
# rate_zf_mean, gap, dropped) at M = 3, B = 3, 50 trials, seed 2024.
RECORDED_POINTS = {
    (1, "per_block", 0.0): (0.8735873920295114, 1.1145550578510803, 0.24096766582156892, 0),
    (1, "per_block", 10.0): (2.4800407390218773, 5.364528379166904, 2.884487640145027, 0),
    (1, "fixed", 0.0): (0.8465658509786975, 1.1145550578510803, 0.2679892068723828, 0),
    (1, "fixed", 10.0): (2.3549803343612314, 5.364528379166904, 3.0095480448056726, 0),
    (2, "per_block", 0.0): (0.7530677655767904, 1.1145550578510803, 0.3614872922742899, 0),
    (2, "per_block", 10.0): (3.517774277811087, 5.364528379166904, 1.8467541013558169, 0),
    (2, "fixed", 0.0): (0.6818053964684557, 1.1145550578510803, 0.4327496613826246, 0),
    (2, "fixed", 10.0): (3.251644857973079, 5.364528379166904, 2.112883521193825, 0),
}


def test_run_experiment_matches_recorded_values():
    for n, policy in itertools.product((1, 2), ("per_block", "fixed")):
        config = ExperimentConfig(m=3, n=n, snr_db_grid=(0.0, 10.0),
                                  bits_rule=BitsRule.fixed(3), trials=50, seed=2024,
                                  codebook_policy=policy)
        for point in run_experiment(config).points:
            fb, zf, gap, dropped = RECORDED_POINTS[(n, policy, point.snr_db)]
            assert point.rate_fb_mean == pytest.approx(fb, rel=1e-12)
            assert point.rate_zf_mean == pytest.approx(zf, rel=1e-12)
            assert point.gap == pytest.approx(gap, rel=1e-12)
            assert point.dropped == dropped


def test_run_experiment_single_trial():
    result = run_experiment(small_config(trials=1))
    assert result.points[0].rate_fb_ci == 0.0


def test_run_experiment_guards():
    with pytest.raises(ValueError):
        run_experiment(small_config(), threads=0)
