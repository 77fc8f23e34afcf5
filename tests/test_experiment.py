import dataclasses
import itertools
import math
import threading
import tracemalloc
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.special

import effchan.experiment as experiment
import effchan.linalg as linalg
import effchan.quantize as quantize
from effchan.experiment import (
    CODEBOOK_POLICIES,
    BitsRule,
    ExperimentConfig,
    _aggregate,
    _run_chunk,
    run_experiment,
)
from effchan.formulas import InfeasibleTargetError, zf_rate_mean
from effchan.linalg import (
    PURPOSE_CHANNEL,
    PURPOSE_CODEBOOK,
    PURPOSE_FIXED_CODEBOOK,
    PURPOSE_LAW,
    RngStream,
    complex_from_parts,
)
from effchan.quantize import _orient, _select, generate_codebook
from effchan.stats import mean_ci
from oracles import complex_normal, explicit_per_block, perfect_csit_rates


def small_config(**overrides):
    base = dict(m=2, n_rx=(1,), snr_db_grid=(5.0,), bits_rule=BitsRule.fixed(2),
                trials=20, seed=99)
    base.update(overrides)
    return ExperimentConfig(**base)


def block_channels(config, block, trials):
    """Complex channels (trials, users, M, top) of a stream block's first trials, top the
    config's largest N: the block's (top, 64, users, 2, M) draw from its stream's start,
    column outermost, drawn in full and cut."""
    m, top = config.m, max(config.n_rx)
    gen = RngStream(config.seed, block, 0, PURPOSE_CHANNEL).generator()
    parts = gen.standard_normal((top, experiment._BLOCK, m, 2, m))
    return np.ascontiguousarray(complex_from_parts(parts.transpose(3, 1, 2, 4, 0))[:trials])


def law_draws(config, block, trials):
    """Stream block ``block``'s law draws for its first ``trials`` trials: u = 1 - random((64,
    users)), then w, standard normals (2, 64, users, M), then g, standard normals (top, 2, 64,
    users) at the config's largest N, drawn in full and cut; g is returned as (2, trials,
    users, top)."""
    gen = RngStream(config.seed, block, 0, PURPOSE_LAW).generator()
    users, top = config.m, max(config.n_rx)
    u = 1.0 - gen.random((experiment._BLOCK, users))
    w = gen.standard_normal((2, experiment._BLOCK, users, config.m))
    g = np.moveaxis(gen.standard_normal((top, 2, experiment._BLOCK, users)), 0, -1)
    return u[:trials], g[:, :trials], w[:, :trials]


def grid_pairs(cells):
    """The distinct (N, bits) pairs of (N, SNR, bits) cells, as run_experiment lists them."""
    return list(dict.fromkeys((n, b) for n, _, b in cells))


def policy_score(config, pairs):
    """The chunk scorer that run_experiment hands _run_chunk for the config's policy, for its
    (N, bits) ``pairs``."""
    return CODEBOOK_POLICIES[config.codebook_policy](config, pairs)


def planted(codebooks):
    """A codebook policy that scores every trial against the per-user (2^B, M) codebooks."""
    books = np.stack(codebooks)

    def policy(config, pairs):
        def score(first_block, q):
            for n, bits in pairs:
                [picks] = _select(q[..., :n], books, (n,))
                yield (n, bits), picks
        return score
    return policy


def trial_record(config, snr_db, bits, t, policy=None):
    """Trial t's (rate_fb, dropped) at the config's one N: the last entry
    of its block's prefix (scored by the config's policy unless ``policy`` is given)."""
    block_start = t // experiment._BLOCK * experiment._BLOCK
    [n] = config.n_rx
    score = (policy or CODEBOOK_POLICIES[config.codebook_policy])(config, [(n, bits)])
    columns = _run_chunk(config, [(n, snr_db, bits)], range(block_start, t + 1), score)
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
    # a 50-bit budget is beyond the codebook limit
    with pytest.raises(ValueError):
        BitsRule.scaling(1.0).resolve(6, 1, 30.0)
    # target below the (4,3) asymptotic floor has no finite budget at all
    with pytest.raises(InfeasibleTargetError):
        BitsRule.scaling(1.0).resolve(4, 3, 10.0)


def test_bits_rule_sets_exactly_one_of_bits_and_target_gap():
    # a stray field would be ignored by resolve, yet recorded in the manifest's config
    for bits, gap in ((5, 1.0), (None, None)):
        with pytest.raises(ValueError, match="exactly one"):
            BitsRule(bits=bits, target_gap=gap)


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
    # 10^(4000/10) overflows a float: refused, not an OverflowError mid-run;
    # 10^(-4000/10) underflows to zero power, where no benchmark rate is defined
    for snr_db in (4000.0, -4000.0):
        with pytest.raises(ValueError, match="finite"):
            small_config(snr_db_grid=(0.0, snr_db))
    # a bool or a non-real entry is refused, never run and reported as its value
    for snr_db in (True, np.bool_(True), 1j, "10"):
        with pytest.raises(ValueError, match="real"):
            small_config(snr_db_grid=(snr_db,))
    # a repeated N or SNR would only repeat its rows
    for field, value in [("n_rx", (1, 1)), ("snr_db_grid", (10.0, 10)),
                         ("snr_db_grid", (0.0, -0.0))]:
        with pytest.raises(ValueError, match="each once"):
            small_config(**{field: value})
    with pytest.raises(ValueError, match="n_rx .* each once"):
        small_config(m=3, n_rx=(2, 2), snr_db_grid=(10.0, 10.0))
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
    rate_fb, dropped = trial_record(config, 10.0, 1, 0, planted(codebooks))
    expected, _, _ = perfect_csit_rates(channels.T, 10.0)
    assert not dropped
    assert rate_fb == pytest.approx(expected, rel=1e-9)


def orthogonal_codebooks(config):
    """A policy of per-user codebooks whose every codeword is orthogonal to trial 0's channel."""
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
    rate_fb, dropped = trial_record(config, 10.0, 1, 0, orthogonal_codebooks(config))
    assert dropped
    assert rate_fb == 0.0


def test_run_chunk_returns_rate_and_drop_arrays():
    # trial 0 is dropped (orthogonal codebooks); the chunk still reports
    # every trial, as float64 rates and a bool drop mask
    config = small_config(seed=1234)
    trials = range(0, 5)
    rate_fb, dropped = _run_chunk(config, [(1, 10.0, 1)], trials,
                                  orthogonal_codebooks(config)(config, [(1, 1)]))
    assert [rate_fb.shape, dropped.shape] == [(1, len(trials))] * 2
    assert (rate_fb.dtype, dropped.dtype) == (np.float64, np.bool_)
    assert dropped[0, 0]
    assert rate_fb[0, 0] == 0.0


def test_refused_feedback_stack_drops_its_trial_at_every_snr(monkeypatch):
    # drops do not depend on power: a refused feedback stack drops its trial
    # at every SNR of its N, and no other trial or N
    calls = []

    def refusing(directions):  # refuses trial 1 of the first N's stacks
        vectors, cond, residual = zero_force(directions)
        if not calls:
            cond[1] = np.inf
        calls.append(directions.shape)
        return vectors, cond, residual

    zero_force = experiment.zero_force
    monkeypatch.setattr(experiment, "zero_force", refusing)
    config = small_config(m=3, n_rx=(1, 2), snr_db_grid=(0.0, 10.0), seed=1234)
    cells = [(1, 0.0, 2), (1, 10.0, 2), (2, 0.0, 2), (2, 10.0, 2)]
    rate_fb, dropped = _run_chunk(config, cells, range(5), policy_score(config, grid_pairs(cells)))
    assert dropped.tolist() == [[False, True, False, False, False]] * 2 + [[False] * 5] * 2
    assert (rate_fb[:2, 1] == 0.0).all()
    assert (rate_fb[:2, [0, 2, 3, 4]] > 0.0).all() and (rate_fb[2:] > 0.0).all()
    assert calls == [(5, 3, 3)] * 2  # one stack of trials a chunk for each N


def test_trial_drops_parallel_reported_directions():
    # both users report the same codeword, so the direction stack is singular
    e1 = np.array([1.0, 0.0], dtype=complex)
    cb = np.stack([e1, e1])
    rate_fb, dropped = trial_record(small_config(), 10.0, 1, 0, planted([cb, cb]))
    assert dropped
    assert rate_fb == 0.0  # rate_fb is 0 only if every SINR is 0


@pytest.mark.parametrize("policy", CODEBOOK_POLICIES)
@pytest.mark.parametrize("seed", [5, 2 ** 40 + 9])
def test_chunk_draws_equal_per_stream_draws(monkeypatch, policy, seed):
    # a chunk of two stream blocks, the second cut short: every draw must be
    # the block stream's own, drawn from its start with the block's shapes
    config = ExperimentConfig(m=3, n_rx=(2,), snr_db_grid=(10.0,), bits_rule=BitsRule.fixed(3),
                              trials=200, seed=seed, codebook_policy=policy)
    seen = {"books": []}

    def spy_select(q, books, widths):  # the fixed chunk's one scan slice
        seen["q"] = q
        seen["books"].append(books)
        return _select(q, books, widths)

    def spy_orient(channels, q, r, *picks):  # the chunk's one call
        seen["channels"], seen["q"], seen["picks"] = channels, q, picks
        return _orient(channels, q, r, *picks)

    monkeypatch.setattr(quantize, "_select", spy_select)
    monkeypatch.setattr(experiment, "_orient", spy_orient)
    trials = range(64, 134)
    records = _run_chunk(config, [(2, 10.0, 3)], trials, policy_score(config, [(2, 3)]))
    monkeypatch.undo()

    channels = np.concatenate([block_channels(config, 1, 64), block_channels(config, 2, 6)])
    # the whole chunk is scored on its one QR factor and oriented at once
    assert seen["q"].tobytes() == np.linalg.qr(channels)[0].tobytes()
    assert seen["channels"].tobytes() == channels.tobytes()
    if policy == "per_block":
        # no codebook is drawn or scanned: each block draws the law's u, g and w
        # in full, and the cut block's first 6 trials are used
        assert seen["books"] == []
        index, q_hat, cos_sq = seen["picks"]
        u, g, w = (np.concatenate(parts, axis=axis) for parts, axis in zip(
            zip(*(law_draws(config, block, k) for block, k in ((1, 64), (2, 6)))), (0, 1, 1)))
        q = np.linalg.qr(channels)[0]
        sin_sq = experiment._law_sin_sq(u, 3, 2, 3)
        a = complex_from_parts(g)[..., :2]
        z = complex_from_parts(w)
        z = z - np.einsum("...mk,...lk,...l->...m", q, q.conj(), z)
        expected = (np.sqrt(1 - sin_sq)[..., None] * np.einsum(
            "...mk,...k->...m", q, a / np.linalg.norm(a, axis=-1, keepdims=True))
            + np.sqrt(sin_sq)[..., None] * z / np.linalg.norm(z, axis=-1, keepdims=True))
        assert (index == -1).all()
        assert cos_sq.tobytes() == (1.0 - sin_sq).tobytes()
        np.testing.assert_allclose(q_hat, expected, rtol=0, atol=1e-14)
    else:
        [books] = seen["books"]
        for u in range(config.m):
            book = generate_codebook(RngStream(seed, 0, u, PURPOSE_FIXED_CODEBOOK), 3, 3)
            assert books[u].tobytes() == book.tobytes()
    singles = [trial_record(config, 10.0, 3, t) for t in trials]
    assert_same_records([column[0] for column in records],
                        tuple(np.array(column) for column in zip(*singles)))


def test_each_n_quantizes_its_own_block_channel_draw(monkeypatch):
    # one draw a block serves every N: each N's channels must be the first N
    # columns of the block stream's (top, 64, users, 2, M) draw from its start,
    # top the largest N, over a full block and one cut short, and each N's (Q, R)
    # the prefixes of the chunk's one QR, of the largest N (here N < M)
    seen = {}

    def spy_orient(channels, q, r, *picks):
        seen[channels.shape[-1]] = channels, q, r
        return _orient(channels, q, r, *picks)

    monkeypatch.setattr(experiment, "_orient", spy_orient)
    config = ExperimentConfig(m=4, n_rx=(2, 1, 3), snr_db_grid=(10.0,),
                              bits_rule=BitsRule.fixed(2), trials=200, seed=11,
                              codebook_policy="fixed")
    cells = [(2, 10.0, 2), (1, 10.0, 2), (3, 10.0, 2)]
    _run_chunk(config, cells, range(64, 134), policy_score(config, grid_pairs(cells)))
    full = np.concatenate([block_channels(config, b, k) for b, k in ((1, 64), (2, 6))])
    assert full.shape == (70, 4, 4, 3)  # (trials, users, M, top)
    q, r = np.linalg.qr(full)
    assert sorted(seen) == [1, 2, 3]
    for n, (channels, q_n, r_n) in seen.items():
        assert channels.tobytes() == full[..., :n].tobytes()
        assert q_n.tobytes() == q[..., :n].tobytes()
        assert r_n.tobytes() == r[..., :n, :n].tobytes()


@pytest.mark.parametrize("policy, n, wider", [("per_block", 1, (3, 1)), ("per_block", 2, (2, 4)),
                                             ("fixed", 2, (1, 2, 3))])
def test_a_runs_draws_for_n_are_a_wider_runs_first_n_columns(monkeypatch, policy, n, wider):
    # a run draws each block's channels, and the law's g, only max(n_rx) columns wide, column
    # outermost: N's channels, QR factors and picks, and the law's u, w and g[:N], must be
    # byte for byte those of a run of N alone, over a full block and one cut short
    def run(n_rx):
        draws, oriented = [], {}

        class SpyStream(RngStream):
            def generator(self):
                gen = super().generator()

                def spy(name):
                    def draw(*args, **kwargs):
                        out = getattr(gen, name)(*args, **kwargs)
                        draws.append((self.purpose, self.trial, out.copy()))
                        return out
                    return draw
                return SimpleNamespace(random=spy("random"), standard_normal=spy("standard_normal"))

        def spy_orient(channels, q, r, *picks):
            oriented[channels.shape[-1]] = channels, q, r, *picks
            return _orient(channels, q, r, *picks)

        with monkeypatch.context() as patch:
            patch.setattr(experiment, "RngStream", SpyStream)
            patch.setattr(experiment, "_orient", spy_orient)
            run_experiment(small_config(m=4, n_rx=n_rx, bits_rule=BitsRule.fixed(3), trials=70,
                                        seed=23, codebook_policy=policy))
        return draws, oriented[n]

    (draws, alone), (wide_draws, wide) = run((n,)), run(wider)
    for got, want in zip(alone, wide, strict=True):
        assert got.tobytes() == want.tobytes()
    # the same streams in the same order; only channels and g are drawn max(n_rx) wide
    assert [key[:2] for key in draws] == [key[:2] for key in wide_draws]
    law = [(d, w) for (purpose, _, d), (*_, w) in zip(draws, wide_draws) if purpose == PURPOSE_LAW]
    assert len(law) == 3 * 2 * (policy == "per_block")  # u, w and g of each of two blocks
    for k, (drawn, wide_drawn) in enumerate(law):
        assert drawn.tobytes() == (wide_drawn[:n] if k % 3 == 2 else wide_drawn).tobytes()


def test_trial_feedback_loses_to_perfect_knowledge_on_average():
    config = small_config(trials=200)
    records = [trial_record(config, 10.0, 2, t) for t in range(200)]
    fb = np.mean([rate for rate, dropped in records if not dropped])
    assert zf_rate_mean(config.m, 10.0) > fb + 0.5


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


# ------------------------------------------------------ per-block law picks


@pytest.mark.parametrize("m, n", [(8, 1), (4, 3), (8, 2), (8, 7)])
@pytest.mark.parametrize("bits", [1, 10, 24, 29])
def test_law_sin_sq_matches_scipys_inverse(m, n, bits):
    # sin^2 = G^-1(1 - u^(1/2^B)) for G the Beta(M - n, n) CDF, exact in the complement form
    # down to u = 1 - 2^-53, where 1 - cos^2 would have lost every digit at B = 24; (8, 2)
    # is sweep_block_b10's cell, n = M - 1 the widest with an error, and B = 29 the most
    # bits a 30 dB gap target asks at M = 4
    u = np.concatenate([1.0 - np.array([2.0 ** -53, 2.0 ** -40, 1e-9]),
                        np.linspace(0.001, 0.999, 50), [1e-6, 2.0 ** -53]])
    log_q = np.log(u) / 2 ** bits  # log(1 - t), exact
    t = -np.expm1(log_q)
    # where t > 1/2, SciPy inverts the upper tail 1 - t, which keeps the digits t loses
    expected = np.where(t > 0.5, scipy.special.betainccinv(m - n, n, np.exp(log_q)),
                        scipy.special.betaincinv(m - n, n, t))
    np.testing.assert_allclose(experiment._law_sin_sq(u, m, n, bits), expected, rtol=1e-11)
    # u = 1, the draw that random() = 0 gives, is the best pick: sin^2 is the least normal
    assert 0 < experiment._law_sin_sq(np.ones(1), m, n, bits)[0] < 2 * np.finfo(float).tiny


# u = 1, the least normal and subnormal floats, both sides of u = 1/4 (where t = 1/2 at
# B = 1), and uniform draws
MIXED_U = np.concatenate([[1.0, 2.0 ** -53, np.finfo(float).tiny, 5e-324, 0.25,
                           np.nextafter(0.25, 0), np.nextafter(0.25, 1), 1.0 - 2.0 ** -53],
                          1.0 - np.random.default_rng(29).random(56)])


@pytest.mark.parametrize("m, n, bits", [(8, 2, 10), (4, 3, 1), (8, 7, 24)])
def test_law_sin_sq_is_elementwise(m, n, bits):
    # each sin^2 depends on its own u alone, as the chunk-size and worker-count byte
    # identity needs: a batch-wide stopping rule would break it.  The batch takes both
    # branches (t <= 1/2 and its mirror) at B = 1, and at B = 10 through u = 5e-324
    batch = experiment._law_sin_sq(MIXED_U.reshape(8, 8), m, n, bits)
    target = -np.expm1(np.log(MIXED_U) / 2 ** bits)
    assert (target > 0.5).any() == (bits < 24) and (target <= 0.5).any()
    singles = [experiment._law_sin_sq(MIXED_U[k:k + 1], m, n, bits) for k in range(64)]
    assert batch.tobytes() == np.concatenate(singles).tobytes()


@pytest.mark.parametrize("m, n", [(8, 1), (8, 2), (4, 3), (8, 7)])
def test_law_sin_sq_is_nonincreasing_in_bits(m, n):
    # for a fixed u the best of 2^(B + 1) codewords is never worse than the best of 2^B,
    # so one u may serve every B
    sin_sq = np.stack([experiment._law_sin_sq(MIXED_U, m, n, bits) for bits in range(1, 30)])
    assert (np.diff(sin_sq, axis=0) <= 0).all()


def law_picks(m, widths, bits=4, trials=200, seed=3):
    """The Q of drawn channels, and the per_block scorer's picks on it for every width."""
    config = small_config(m=m, n_rx=widths, bits_rule=BitsRule.fixed(bits), trials=trials,
                          seed=seed)
    channels = complex_normal(RngStream(seed, purpose=PURPOSE_CHANNEL).generator(),
                              (trials, m, m, max(widths)))
    q = np.linalg.qr(channels)[0]
    picks = dict(policy_score(config, [(n, bits) for n in widths])(0, q))
    return q, [picks[n, bits] for n in widths]


def test_law_cos_sq_is_nondecreasing_in_n():
    # one u serves every width, and Beta(n, M - n) grows stochastically in n, so
    # a trial and user's cos^2 never falls as antennas are added; at N = M it is 1
    q, picks = law_picks(4, (1, 2, 3, 4))
    cos_sq = np.stack([pick[2] for pick in picks])
    assert (np.diff(cos_sq, axis=0) >= 0).all()
    assert (cos_sq[-1] == 1.0).all() and (cos_sq[:-1] < 1.0).all()
    for n, (index, q_hat, c) in zip((1, 2, 3, 4), picks):
        assert (index == -1).all()
        np.testing.assert_allclose(np.linalg.norm(q_hat, axis=-1), 1.0, rtol=0, atol=1e-13)
        # cos^2 is q_hat's own squared cosine to the span of Q's first n columns
        in_span = np.einsum("...mk,...m->...k", q[..., :n].conj(), q_hat)
        np.testing.assert_allclose(np.linalg.norm(in_span, axis=-1) ** 2, c, rtol=0, atol=1e-13)


def test_law_full_width_quantizes_without_error_or_drop():
    config = small_config(m=3, n_rx=(3,), snr_db_grid=(0.0, 10.0), trials=130)
    assert all(p.dropped == 0 for p in run_experiment(config).points)
    _, [(_, _, cos_sq)] = law_picks(3, (3,))
    assert (cos_sq == 1.0).all()


def test_law_draw_of_zero_is_the_best_pick_not_an_orthogonal_one(monkeypatch):
    # a random() word of 0 is u = 1 - 0 = 1, the codeword in the span; were it
    # u = 0, sin^2 would be 1 and every user's pick orthogonal to its span, a drop
    class ZeroStream(RngStream):
        def generator(self):
            gen = super().generator()
            return SimpleNamespace(random=lambda shape: np.zeros(shape),
                                   standard_normal=gen.standard_normal)

    monkeypatch.setattr(experiment, "RngStream", ZeroStream)
    config = small_config(m=3, n_rx=(1, 2), snr_db_grid=(10.0,), trials=70)
    assert all(p.dropped == 0 for p in run_experiment(config).points)
    _, picks = law_picks(3, (1, 2))
    assert all((cos_sq == 1.0).all() for _, _, cos_sq in picks)


# ----------------------------------------------------------- fixed codebooks


def test_fixed_codebooks_policy():
    # the fixed scorer draws each user's codebook once, from the user's own
    # stream, and scores every chunk against it; per-block picks are fresh each block
    fixed = small_config(codebook_policy="fixed")
    books = [generate_codebook(RngStream(fixed.seed, 0, u, PURPOSE_FIXED_CODEBOOK), 2, fixed.m)
             for u in range(fixed.m)]
    # per-user books differ from each other
    assert not np.array_equal(books[0], books[1])
    q = np.linalg.qr(block_channels(fixed, 0, 5))[0]
    [(_, expected)] = planted(books)(fixed, [(1, 2)])(0, q)
    for score in (policy_score(fixed, [(1, 2)]), policy_score(fixed, [(1, 2)])):
        for first_block in (0, 3):
            [(_, picks)] = score(first_block, q)
            assert_same_records(picks, expected)
    per_block = policy_score(small_config(), [(1, 2)])
    [(_, first)], [(_, later)] = per_block(0, q), per_block(3, q)
    assert not np.array_equal(first[1], later[1])


def test_fixed_policy_changes_results_but_stays_deterministic():
    per_block = run_experiment(small_config(trials=30))
    fixed_1 = run_experiment(small_config(trials=30, codebook_policy="fixed"))
    fixed_2 = run_experiment(small_config(trials=30, codebook_policy="fixed"))
    assert fixed_1.points == fixed_2.points
    assert fixed_1.points[0].rate_fb_mean != per_block.points[0].rate_fb_mean
    # the exact benchmark does not depend on the codebook policy
    assert fixed_1.points[0].rate_zf_mean == per_block.points[0].rate_zf_mean


@pytest.mark.parametrize("policy", CODEBOOK_POLICIES)
def test_sharing_work_across_pairs_moves_no_pick(policy):
    # one chunk score over pairs that share an N (2, at B = 3 and 5), a B (3, at N = 2, 1
    # and 4) and the full width N = M: each pair's picks must be byte for byte those of a
    # score of that pair alone, on the Q a chunk of its N alone would factor
    config = small_config(m=4, n_rx=(1, 2, 4), trials=200, seed=17, codebook_policy=policy)
    pairs = [(2, 3), (1, 3), (2, 5), (4, 5), (4, 3)]
    q = np.linalg.qr(np.concatenate([block_channels(config, b, k)
                                     for b, k in ((1, 64), (2, 6))]))[0]
    shared = list(policy_score(config, pairs)(1, q))
    assert sorted(pair for pair, _ in shared) == sorted(pairs)
    for (n, bits), picks in shared:
        [(_, alone)] = policy_score(config, [(n, bits)])(1, np.ascontiguousarray(q[..., :n]))
        assert_same_records(picks, alone)


# ------------------------------------------------------------------ _aggregate


def test_aggregate_matches_mean_ci():
    rates = np.array([1.0, 2.0, 3.0, 4.0])
    records = (rates, np.zeros(4, dtype=bool))
    warnings = []
    point = _aggregate(2, 1, 5.0, 2, records, warnings)
    fb_mean, fb_ci = mean_ci(np.array([1.0, 2.0, 3.0, 4.0]))
    assert (point.rate_fb_mean, point.rate_fb_ci) == (fb_mean, fb_ci)
    # the benchmark is exact: its closed form at M = 2 and 5 dB, with no CI
    assert (point.rate_zf_mean, point.rate_zf_ci) == (zf_rate_mean(2, 10 ** 0.5), 0.0)
    assert point.gap == point.rate_zf_mean - point.rate_fb_mean
    assert point.dropped == 0 and point.trials == 4
    assert warnings == []


def test_aggregate_excludes_dropped_and_warns():
    records = (np.array([2.0] * 8 + [0.0] * 2), np.array([False] * 8 + [True] * 2))
    warnings = []
    point = _aggregate(2, 1, 0.0, 2, records, warnings)
    assert point.rate_fb_mean == 2.0  # zeros from dropped trials never dilute
    assert point.dropped == 2 and point.trials == 10
    assert len(warnings) == 1 and "dropped 2/10" in warnings[0]


def test_aggregate_masks_dropped_trials_whatever_their_rates():
    # placeholder rates on dropped trials: the mask, not their zeros, excludes them
    records = (np.array([1.0, 3.0, 50.0]), np.array([False, False, True]))
    warnings = []
    point = _aggregate(2, 1, 0.0, 2, records, warnings)
    assert (point.rate_fb_mean, point.rate_fb_ci) == mean_ci(np.array([1.0, 3.0]))
    assert point.dropped == 1 and point.trials == 3
    assert type(point.dropped) is int and type(point.trials) is int


def test_aggregate_all_dropped_yields_nan_row():
    records = (np.zeros(3), np.ones(3, dtype=bool))
    warnings = []
    point = _aggregate(2, 1, 0.0, 2, records, warnings)
    assert np.isnan(point.rate_fb_mean) and np.isnan(point.gap)
    assert point.rate_zf_mean == zf_rate_mean(2, 1.0)  # exact whatever the trials
    assert point.dropped == 3
    assert any("all trials dropped" in w for w in warnings)


# -------------------------------------------------------------- run_experiment


def test_run_experiment_matches_manual_loop():
    config = small_config(trials=50, snr_db_grid=(5.0,))
    result = run_experiment(config)
    [rate_fb], [dropped] = _run_chunk(config, [(1, 5.0, 2)], range(50),
                                      policy_score(config, [(1, 2)]))
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


def grid_cells(config):
    """The config's (N, SNR, bits) cells, in run_experiment's order."""
    return [(n, snr_db, config.bits_rule.resolve(config.m, n, snr_db))
            for n in config.n_rx for snr_db in config.snr_db_grid]


def chunk_lengths(config):
    """The trials of each chunk of the config's one pass."""
    return [len(chunk) for chunk in experiment._plan(config, grid_cells(config))[0]]


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
    # a cap of three one-block chunks' bytes splits the trials into one-block
    # chunks (the last cut short) on 2 and 3 cores, and lets every core work, so
    # the workers share the chunks unevenly
    config = small_config(trials=200, codebook_policy="fixed")
    block_bytes = experiment._chunk_bytes(config, grid_cells(config), experiment._BLOCK)
    monkeypatch.setattr(linalg, "IN_FLIGHT_BYTES", 3 * block_bytes)
    monkeypatch.setattr(linalg, "_cores", lambda: 3)
    assert chunk_lengths(config) == [64, 64, 64, 8]
    serial, two, three = run_on_cores(monkeypatch, config, (1, 2, 3))
    assert pools == [2, 3]
    assert serial.points == two.points
    assert serial.points == three.points


@pytest.mark.parametrize("policy", CODEBOOK_POLICIES)
def test_run_experiment_worker_count_with_multi_block_chunks(monkeypatch, pools, policy):
    # with a floor of one block a chunk, a run splits its five blocks over the
    # cores: on 3 cores in two-block chunks, 128, 128 and 44 trials, and on 2
    # cores in chunks of 192 and 108 trials
    config = small_config(trials=300, codebook_policy=policy)
    monkeypatch.setattr(experiment, "_SPLIT_BLOCKS", 1)
    monkeypatch.setattr(linalg, "_cores", lambda: 3)
    assert chunk_lengths(config) == [128, 128, 44]
    serial, two, three = run_on_cores(monkeypatch, config, (1, 2, 3))
    assert pools == [2, 3]
    assert serial.points == two.points
    assert serial.points == three.points


@pytest.mark.parametrize("policy", CODEBOOK_POLICIES)
def test_run_experiment_does_not_depend_on_chunk_bytes(monkeypatch, policy):
    # M = 4, B = 7, 150 trials on 2 cores with a floor of one block a chunk:
    # chunks of two blocks and one; then one-block chunks (a 1-byte budget) and
    # one chunk (one core); under fixed also one-trial scan slices (a 1-byte
    # slice budget) and one slice a chunk (a 2^30-byte one), on the same chunks
    config = ExperimentConfig(m=4, n_rx=(2,), snr_db_grid=(0.0, 10.0), bits_rule=BitsRule.fixed(7),
                              trials=150, seed=77, codebook_policy=policy)
    monkeypatch.setattr(experiment, "_SPLIT_BLOCKS", 1)
    monkeypatch.setattr(linalg, "_cores", lambda: 2)
    assert chunk_lengths(config) == [128, 22]
    points = run_experiment(config).points
    for name, value, chunks in (("IN_FLIGHT_BYTES", 1, 3), ("_cores", lambda: 1, 1)):
        with monkeypatch.context() as patch:
            patch.setattr(linalg, name, value)
            assert len(chunk_lengths(config)) == chunks
            assert run_experiment(config).points == points
    if policy == "fixed":
        select, scans = quantize._select, []
        monkeypatch.setattr(quantize, "_select", lambda *args: scans.append(1) or select(*args))
        for slice_bytes, slices in ((1, 150), (2 ** 30, 2)):
            scans.clear()
            monkeypatch.setattr(linalg, "SLICE_BYTES", slice_bytes)
            assert run_experiment(config).points == points
            assert len(scans) == slices


def assert_chunk_bytes_count_traced_peak(traced_peak, config) -> int:
    """A chunk of the config's trials at all its cells peaks within 25% of ``_chunk_bytes``:
    a bit count's scorer is handed only the columns of Q its Ns span, and a finished count's
    arrays are not held while the next one is scored.  Returns the traced peak."""
    cells = grid_cells(config)
    score = policy_score(config, grid_pairs(cells))
    _run_chunk(config, cells, range(1), score)  # numpy's one-time set-up
    peak = traced_peak(_run_chunk, config, cells, range(config.trials), score)
    counted = experiment._chunk_bytes(config, cells, config.trials)
    assert 0.75 * peak <= counted <= 1.25 * peak
    return peak


@pytest.mark.parametrize("policy, m, n_rx, bits, trials", [
    ("per_block", 8, (2,), 10, 64),  # sweep_block_b10's shape
    ("fixed", 4, (1, 2, 3), 2, 200),  # sweep_fixed_b2's one chunk, scanned in one slice
    ("per_block", 8, tuple(range(1, 9)), 10, 64),  # every width's law temporaries
    ("per_block", 4, (1, 2), 4, 192),  # README sweep.cfg's chunk
    ("fixed", 4, (1,), 14, 64),  # a block scanned a trial at a time, not ~130 MiB at once
    ("per_block", 8, (1,), 10, 256),  # one column drawn of eight: zero_force's stacks lead
    ("fixed", 8, (2,), 10, 64),  # a trial's 576 KiB scan slice leads, over the chunk's picks
])
def test_chunk_bytes_counts_a_chunks_traced_peak(traced_peak, policy, m, n_rx, bits, trials):
    peak = assert_chunk_bytes_count_traced_peak(traced_peak, ExperimentConfig(
        m=m, n_rx=n_rx, snr_db_grid=(10.0,), bits_rule=BitsRule.fixed(bits), trials=trials,
        seed=1, codebook_policy=policy))
    assert peak < 8 * 2 ** 20


@pytest.mark.parametrize("policy, m, n_rx, snr_db_grid, target_gap, trials", [
    ("per_block", 4, (1, 2, 3), (0.0, 10.0, 20.0), 1.25, 128),  # B = 1, 3, 6, 9, 12, 19
    ("per_block", 8, (1, 2, 3, 4), (0.0, 10.0), 2.0, 64),  # B = 1, 4, 6, 9, 13
    # B = 1, 4, 5, 7, 10, scanned in turn; B = 10 at N = 1 alone, so at one column of Q
    ("fixed", 4, (1, 2), (0.0, 5.0, 10.0), 1.0, 64),
])
def test_chunk_bytes_counts_a_multi_bit_chunks_traced_peak(traced_peak, policy, m, n_rx,
                                                           snr_db_grid, target_gap, trials):
    assert_chunk_bytes_count_traced_peak(traced_peak, ExperimentConfig(
        m=m, n_rx=n_rx, snr_db_grid=snr_db_grid, bits_rule=BitsRule.scaling(target_gap),
        trials=trials, seed=1, codebook_policy=policy))


def test_chunk_holds_no_real_normals_once_scoring_starts():
    # channels dominate at M = 8, N = 1..8, B = 1: keeping their real normals
    # past the complex channels adds about 24%
    m, n_rx, bits, trials = 8, tuple(range(1, 9)), 1, 64
    config = ExperimentConfig(m=m, n_rx=n_rx, snr_db_grid=(10.0,), bits_rule=BitsRule.fixed(bits),
                              trials=trials, seed=1, codebook_policy="per_block")
    cells, held = [(n, 10.0, bits) for n in n_rx], []

    def spy_score(*args):
        held.append(tracemalloc.get_traced_memory()[0])
        return score(*args)

    score = policy_score(config, grid_pairs(cells))
    _run_chunk(config, cells, range(1), score)  # numpy's one-time set-up
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        _run_chunk(config, cells, range(trials), spy_score)
    finally:
        tracemalloc.stop()
    # a trial and user holds its complex (M, top) channel, top the largest N,
    # and their QR factors when the scorer is called
    top = max(n_rx)
    count = trials * config.m * 16 * (m * top + m * top + top * top)
    assert 0.9 * count <= held[0] - start <= 1.1 * count


@pytest.mark.parametrize("policy", CODEBOOK_POLICIES)
def test_records_of_fewer_trials_are_a_prefix(policy):
    # a run that stops inside a stream block draws a prefix of its streams
    config = ExperimentConfig(m=3, n_rx=(1, 2), snr_db_grid=(0.0, 10.0),
                              bits_rule=BitsRule.fixed(3), trials=130, seed=8,
                              codebook_policy=policy)
    cells = [(1, 10.0, 3), (2, 0.0, 3), (2, 10.0, 3)]
    score = policy_score(config, grid_pairs(cells))
    assert_same_records(_run_chunk(config, cells, range(70), score),
                        [column[:, :70] for column in
                         _run_chunk(config, cells, range(130), score)])


@pytest.mark.parametrize("policy", CODEBOOK_POLICIES)
@pytest.mark.parametrize("chunk_bytes", [1, 2 ** 14, 2 ** 20, 2 ** 30])
def test_chunks_start_on_stream_blocks(monkeypatch, policy, chunk_bytes):
    chunks = []

    def spy_chunk(config, cells, trials, score):
        chunks.append(trials)
        return _run_chunk(config, cells, trials, score)

    monkeypatch.setattr(experiment, "_run_chunk", spy_chunk)
    # the budgets that size chunks and fixed scan slices, with a floor of one block a chunk
    monkeypatch.setattr(experiment, "_SPLIT_BLOCKS", 1)
    monkeypatch.setattr(linalg, "SLICE_BYTES", chunk_bytes)
    monkeypatch.setattr(linalg, "IN_FLIGHT_BYTES", chunk_bytes)
    config = small_config(m=3, n_rx=(2,), snr_db_grid=(10.0,), bits_rule=BitsRule.fixed(4),
                          trials=333, codebook_policy=policy)
    run_experiment(config)
    assert all(chunk.start % experiment._BLOCK == 0 for chunk in chunks)
    # worker threads may start their chunks out of order
    chunks.sort(key=lambda chunk: chunk.start)
    assert [t for chunk in chunks for t in chunk] == list(range(333))


# rate_fb_mean re-pinned on stream contract v8, which draws each block's channels
# and the law's g only max(n_rx) columns wide, column outermost (v4 to v7 drew
# both M wide, the channels trials outermost), so every row moved; the v7-vs-v8
# rate_fb_mean check over 20,000 trials is in CHANGES.md.  rate_zf_mean is the
# exact benchmark since v5, checked against scipy's exp1, and gap is rate_zf_mean -
# rate_fb_mean: (N, scorer, SNR) -> (rate_fb_mean, rate_zf_mean, gap, dropped) at
# M = 3, B = 3, 50 trials, seed 2024.  The "explicit" rows are reproduced by
# ``oracles.explicit_per_block``, which draws and scans every codebook, in the
# per_block scorer's place; the "per_block" rows draw each pick from its law.
RECORDED_POINTS = {
    (1, "explicit", 0.0): (0.9804258522928905, 1.1343207370919375, 0.153894884799047, 0),
    (1, "explicit", 10.0): (2.793311377430515, 5.291238164279847, 2.4979267868493324, 0),
    (1, "per_block", 0.0): (0.9993438191822134, 1.1343207370919375, 0.1349769179097241, 0),
    (1, "per_block", 10.0): (2.8354387131618353, 5.291238164279847, 2.455799451118012, 0),
    (1, "fixed", 0.0): (0.9582381889853783, 1.1343207370919375, 0.1760825481065592, 0),
    (1, "fixed", 10.0): (2.652791394519146, 5.291238164279847, 2.6384467697607015, 0),
    (2, "explicit", 0.0): (0.7863639263265116, 1.1343207370919375, 0.34795681076542584, 0),
    (2, "explicit", 10.0): (3.5281022173709635, 5.291238164279847, 1.7631359469088839, 0),
    (2, "per_block", 0.0): (0.8043555490447498, 1.1343207370919375, 0.32996518804718766, 0),
    (2, "per_block", 10.0): (3.6138928879927503, 5.291238164279847, 1.677345276287097, 0),
    (2, "fixed", 0.0): (0.7684604874571646, 1.1343207370919375, 0.3658602496347729, 0),
    (2, "fixed", 10.0): (3.5946756815789396, 5.291238164279847, 1.6965624827009078, 0),
}


def test_run_experiment_matches_recorded_values(monkeypatch):
    monkeypatch.setitem(CODEBOOK_POLICIES, "explicit", explicit_per_block)
    for n, scorer in itertools.product((1, 2), ("explicit", "per_block", "fixed")):
        config = ExperimentConfig(m=3, n_rx=(n,), snr_db_grid=(0.0, 10.0),
                                  bits_rule=BitsRule.fixed(3), trials=50, seed=2024,
                                  codebook_policy=scorer)
        for point in run_experiment(config).points:
            fb, zf, gap, dropped = RECORDED_POINTS[(n, scorer, point.snr_db)]
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
    # 64-trial chunks on 3 cores with a floor of one block a chunk (one chunk on 1),
    # so the workers get whole chunks
    monkeypatch.setattr(experiment, "_SPLIT_BLOCKS", 1)
    config = ExperimentConfig(codebook_policy=policy, **GRIDS[grid])
    points = assert_grid_equals_its_cells(monkeypatch, config)
    if grid == "gap_target":
        assert [p.bits for p in points] == [1, 4, 7, 1, 5, 10]


def test_grid_equals_its_cells_when_trials_drop(monkeypatch):
    # every user scans the same four codewords, so users often report one
    # direction and zero-forcing refuses the stack, at every (N, SNR)
    book = np.vstack([np.eye(3), np.ones((1, 3)) / np.sqrt(3)]).astype(complex)
    monkeypatch.setitem(experiment.CODEBOOK_POLICIES, "fixed",
                        planted([book] * 3))
    config = ExperimentConfig(m=3, n_rx=(1, 2), snr_db_grid=(0.0, 10.0),
                              bits_rule=BitsRule.fixed(2), trials=150, seed=43,
                              codebook_policy="fixed")
    points = assert_grid_equals_its_cells(monkeypatch, config)
    assert all(0.01 * p.trials < p.dropped < p.trials for p in points)


@pytest.mark.parametrize("policy", CODEBOOK_POLICIES)
def test_grid_draws_and_zero_forces_shared_work_once_per_chunk(monkeypatch, policy):
    # one-block chunks on 4 cores with a floor of one block a chunk
    monkeypatch.setattr(experiment, "_SPLIT_BLOCKS", 1)
    monkeypatch.setattr(linalg, "_cores", lambda: 4)

    def work(config):
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
                    random=spy(("random", self.purpose), gen.random),
                    standard_normal=spy(("draw", self.purpose), gen.standard_normal))

        with monkeypatch.context() as patch:
            patch.setattr(experiment, "zero_force", spy("feedback ZF", experiment.zero_force))
            patch.setattr(experiment, "_run_chunk", spy("chunk", experiment._run_chunk))
            patch.setattr(experiment, "RngStream", SpyStream)
            # the kernel's stages: the chunk's QR factor (the only QR; zero_force
            # runs none), the fixed scorer's _select or the law's sin^2, and _orient
            patch.setattr(np.linalg, "qr", spy("QR", np.linalg.qr))
            for module, name in ((experiment, "_orient"), (quantize, "_select"),
                                 (quantize, "_orient"),
                                 (quantize, "quantize_stack"), (quantize, "_select_drawn"),
                                 (experiment, "_law_sin_sq")):
                patch.setattr(module, name, spy(name, getattr(module, name)))
            run_experiment(config)
        return seen

    # the gap-target grid's B = 1, 4, 5, 7, 10 in one pass of two one-block chunks
    config = ExperimentConfig(codebook_policy=policy, **GRIDS["gap_target"])
    assert chunk_lengths(config) == [64, 6]
    gap = work(config)
    assert gap["chunk"] == gap["QR"] == 2
    assert gap["draw", PURPOSE_CHANNEL] == 2  # the pass draws the 70 trials' 2 blocks
    # each (N, B) zero-forced once a chunk; the law drawn once a chunk, whatever its B
    assert gap["feedback ZF"] == 6 * 2
    assert gap["random", PURPOSE_LAW] == 2 * (policy == "per_block")

    # one-block chunks at M = 3, B = 3: 200 trials are chunks of 64, 64, 64 and 8,
    # each scanned in one slice under fixed
    grid, cell = (work(ExperimentConfig(m=3, n_rx=n_rx, snr_db_grid=snr_db_grid,
                                        bits_rule=BitsRule.fixed(3), trials=200, seed=3,
                                        codebook_policy=policy))
                  for n_rx, snr_db_grid in (((1, 2), (0.0, 5.0, 10.0)), ((1,), (0.0,))))
    assert grid["chunk"] == cell["chunk"] == 4
    # the law's u, g and w drawn once a block for every N, the fixed codebooks
    # once a run, and no per-block codebook
    per_block = policy == "per_block"
    assert grid["random", PURPOSE_LAW] == cell["random", PURPOSE_LAW] == 4 * per_block
    assert grid["draw", PURPOSE_LAW] == cell["draw", PURPOSE_LAW] == 2 * 4 * per_block
    assert grid["draw", PURPOSE_FIXED_CODEBOOK] == cell["draw", PURPOSE_FIXED_CODEBOOK] == (
        3 * (not per_block))
    assert grid["draw", PURPOSE_CODEBOOK] == grid["_select_drawn"] == 0
    # one channel draw a block for every N; each N's feedback once a chunk
    assert grid["draw", PURPOSE_CHANNEL] == cell["draw", PURPOSE_CHANNEL] == 4
    assert grid["feedback ZF"] == 2 * 4
    # the largest N QR-factored once a chunk and each N's picks oriented once a
    # chunk, under either policy, and never through quantize_stack; the fixed
    # codebooks selected on once a chunk for every N, and the law's sin^2 taken
    # once a chunk for each N < M
    assert grid["QR"] == cell["QR"] == 4
    assert grid["_orient"] == 2 * cell["_orient"] == 2 * 4
    assert grid["_select"] == cell["_select"] == 4 * (not per_block)
    assert grid["_law_sin_sq"] == 2 * cell["_law_sin_sq"] == 2 * 4 * per_block
    assert grid["quantize_stack"] == cell["quantize_stack"] == 0
    assert not hasattr(experiment, "quantize_stack")


@pytest.mark.parametrize("policy, codebook", [("per_block", PURPOSE_LAW),
                                              ("fixed", PURPOSE_FIXED_CODEBOOK)])
def test_sweep_draws_no_benchmark_stream(monkeypatch, policy, codebook):
    # the benchmark is exact, so a sweep opens only its channel and codebook or
    # law streams; purpose 2, which drew the Monte Carlo benchmark up to stream
    # contract v4, stays out of the registry so that no purpose reuses its draws,
    # and purpose 1, which drew per-block codebooks up to v5, is not opened
    purposes = set()

    class SpyStream(RngStream):
        def generator(self):
            purposes.add(self.purpose)
            return super().generator()

    monkeypatch.setattr(experiment, "RngStream", SpyStream)
    run_experiment(small_config(m=3, n_rx=(1, 2), snr_db_grid=(0.0, 10.0), trials=70,
                                codebook_policy=policy))
    assert purposes == {PURPOSE_CHANNEL, codebook}
    assert 2 not in {value for name, value in vars(linalg).items() if name.startswith("PURPOSE_")}


def test_run_experiment_single_trial():
    result = run_experiment(small_config(trials=1))
    assert result.points[0].rate_fb_ci == 0.0
