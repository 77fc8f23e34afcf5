"""End-to-end acceptance checks: closed-form numbers, distribution laws,
simulation behavior, and CLI determinism.

These run the full pipeline at realistic sample sizes, so this module is the
slow part of the suite (a few minutes total).
"""

import functools
import itertools
import json
import math
from dataclasses import astuple

import numpy as np
import pytest
import scipy.special
import scipy.stats

from effchan import experiment, linalg, precoding, stats, validate
from effchan.experiment import CODEBOOK_POLICIES, BitsRule, ExperimentConfig, run_experiment
from effchan.formulas import (InfeasibleTargetError, ScalingInputs, bits_required, delta_a,
                              rate_gap_bound, zf_rate_mean)
from effchan.linalg import PURPOSE_CHANNEL, PURPOSE_CODEBOOK, RngStream
from effchan.cli import main, scaling_table_rows
from effchan.precoding import refused, zero_force
from effchan.quantize import _select, generate_codebook, quantize_stack
from effchan.validate import (
    ValidationConfig,
    collect_effective_samples,
    direction_isotropy_report,
    effective_gain_report,
    quant_error_mean_report,
    quantization_angle_report,
)
import oracles
from oracles import collect_best_cosine_samples, complex_normal


# 1 ------------------------------------------------------ bit-budget numbers


def test_scaling_table_reference_numbers():
    rows = scaling_table_rows(10, [1, 2, 3], [10.0], 1.0)
    by_n = {r["n_rx"]: r for r in rows}
    # N = 1 is exact: 3 bits per 3 dB with every correction term zero
    assert by_n[1]["bits_exact"] == pytest.approx(30.0, abs=1e-9)
    assert by_n[1]["bits_ceil"] == 30 and by_n[1]["bits_round"] == 30
    # multi-antenna budgets land at 25.006 and 21.422 exactly; the reference
    # integers 25 and 21 are their nearest-integer values (their ceilings are
    # 26 and 22)
    assert by_n[2]["bits_exact"] == pytest.approx(25.0060, abs=2e-3)
    assert by_n[3]["bits_exact"] == pytest.approx(21.4217, abs=2e-3)
    assert by_n[2]["bits_round"] == 25
    assert by_n[3]["bits_round"] == 21
    assert by_n[2]["bits_ceil"] == 26
    assert by_n[3]["bits_ceil"] == 22


# 2 ------------------------------------------------------- feedback savings


def test_feedback_savings_reference_numbers():
    budgets = {
        n: bits_required(ScalingInputs(m=6, n=n, p_db=20.0, target_gap=1.0))
        for n in (1, 2, 3)
    }
    savings_2 = budgets[1] - budgets[2]
    savings_3 = budgets[1] - budgets[3]
    assert savings_2 == pytest.approx(7.4424, abs=1e-3)
    assert savings_3 == pytest.approx(12.8267, abs=1e-3)
    assert 6.0 <= savings_2 <= 8.0
    assert 11.0 <= savings_3 <= 13.0


# 3 ------------------------------------------- sum-rate tracking across N


SHIFT_GRID = (0.0, 5.0, 10.0)
SHIFT_TRIALS = 5000
SHIFT_SEED = 20260816


def shift_sweep(n, target=1.0):
    config = ExperimentConfig(m=4, n_rx=(n,), snr_db_grid=SHIFT_GRID,
                              bits_rule=BitsRule.scaling(target),
                              trials=SHIFT_TRIALS, seed=SHIFT_SEED)
    return run_experiment(config)


def assert_tracks_and_coincides(results, target):
    for n, result in results.items():
        for point in result.points:
            per_user_gap = point.gap / 4.0
            assert per_user_gap <= 1.15 * target, (n, point.snr_db, per_user_gap)
            assert point.dropped == 0
    # equal-gap design: the sum-rate curves for different N coincide
    for points in zip(*(result.points for result in results.values())):
        for p1, p2 in itertools.combinations(points, 2):
            assert abs(p1.rate_fb_mean - p2.rate_fb_mean) <= 0.3


def test_sum_rate_tracks_perfect_csit_for_feasible_receive_counts():
    results = {n: shift_sweep(n) for n in (1, 2)}
    # the scaling rule spends these bit budgets on the grid
    assert [p.bits for p in results[1].points] == [1, 5, 10]
    assert [p.bits for p in results[2].points] == [1, 4, 7]
    assert_tracks_and_coincides(results, 1.0)


def test_sum_rate_tracking_covers_third_receive_count():
    # the bit rule B(N, P) is undefined for N = 3 at a unit gap target:
    # the SNR-independent floor delta_a(4, 3) = 1.2022 bits already exceeds
    # the 1.0-bit target, so no finite codebook qualifies at any grid SNR
    floor = delta_a(4, 3)
    assert floor > 1.0
    for snr_db in SHIFT_GRID:
        with pytest.raises(InfeasibleTargetError):
            bits_required(ScalingInputs(m=4, n=3, p_db=snr_db, target_gap=1.0))
    # so the three curves share the smallest quarter-bit target above that
    # floor, 1.25 bits.  The paper names no target for N = 3; the
    # quarter-bit step is this test's own choice, fixed by the floor and not
    # by the simulated outcome.
    target = math.ceil(4 * floor) / 4
    assert target == 1.25
    results = {n: shift_sweep(n, target) for n in (1, 2, 3)}
    # max(1, ceil(bits_required)) at 0, 5, 10 dB, worked out by hand from the
    # closed form: exact budgets (-1.39, 3.61, 8.61), (-1.40, 1.93, 5.26) and
    # (2.31, 3.97, 5.64).  N = 3 holds the same gap with 6 bits at 10 dB where
    # N = 1 needs 9: the feedback reduction of extra receive antennas.
    assert [p.bits for p in results[1].points] == [1, 4, 9]
    assert [p.bits for p in results[2].points] == [1, 2, 6]
    assert [p.bits for p in results[3].points] == [3, 4, 6]
    assert_tracks_and_coincides(results, target)


# 4 --------------------------------------------------- quantization angle law


@pytest.fixture(scope="module")
def pool():
    """pool(config): run_validation_suite(config)'s sample pool, drawn once in this module.

    The angle and gain laws at (4, 2, 8, 100 000, 88001) read the same pool.
    """
    return functools.cache(lambda config: collect_effective_samples(*astuple(config)))


def large_report(pool, report, m, n, bits, seed):
    config = ValidationConfig(m, n, bits, 100_000, seed)
    return report(config, pool(config))


@pytest.mark.parametrize("m,n,seed", [(4, 2, 88001), (6, 3, 88002)])
def test_angle_law_large_sample(pool, m, n, seed):
    report = large_report(pool, quantization_angle_report, m, n, 8, seed)
    assert report.ks_statistic < 0.02
    assert report.passed


# 5 ------------------------------------------------------ effective gain law


def test_effective_gain_law_large_sample(pool):
    report = large_report(pool, effective_gain_report, 4, 2, 8, 88001)
    assert abs(report.mean_obs - 3.0) / 3.0 < 0.01
    assert report.ks_statistic < 0.02
    assert report.passed


def test_effective_gain_law_single_antenna_exact_case(pool):
    report = large_report(pool, effective_gain_report, 4, 1, 8, 88004)
    assert abs(report.mean_obs - 4.0) / 4.0 < 0.01
    assert report.ks_statistic < 0.02
    assert report.passed


# 6 --------------------------------------------------- direction isotropy law


def test_direction_isotropy_large_sample(pool):
    report = large_report(pool, direction_isotropy_report, 4, 2, 6, 88005)
    assert report.details["cov_max_deviation"] < 0.01
    assert report.ks_statistic < 0.02
    assert report.passed


# 7 -------------------------------------------- quantization error vs formula


@pytest.mark.parametrize("m", [4, 6])
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("bits", [6, 8, 10, 12])
def test_quant_error_approximation_grid(m, n, bits):
    config = ValidationConfig(m, n, bits, 20_000, 9000 + m * 100 + n * 10 + bits)
    report = quant_error_mean_report(config, collect_effective_samples(*astuple(config)))
    assert report.details["mean_rel_error"] <= 0.15, report
    assert report.passed


# 8 ---------------------------------------------------- zero-forcing invariant


def test_zfbf_invariants_over_many_trials():
    trials, users = 10_000, 4
    channels = np.empty((trials, users, 4, 2), dtype=complex)
    books = np.empty((trials, users, 16, 4), dtype=complex)
    for trial in range(trials):
        for u in range(users):
            channels[trial, u] = complex_normal(
                RngStream(606, trial, u, PURPOSE_CHANNEL).generator(), (4, 2))
            books[trial, u] = generate_codebook(RngStream(606, trial, u, PURPOSE_CODEBOOK), 4, 4)
    fb, fault = quantize_stack(channels, books)
    assert not fault.any()
    stacks = np.swapaxes(fb.q_hat, -1, -2)  # column u = user u's direction
    vectors, cond, residual = zero_force(stacks)
    kept = ~refused(cond, residual)
    stacks, vectors = stacks[kept], vectors[kept]
    norms = np.linalg.norm(vectors, axis=-2)
    assert np.all(np.abs(norms - 1.0) < 1e-10)
    cross = np.abs(np.swapaxes(stacks, -1, -2).conj() @ vectors)
    cross[:, np.arange(users), np.arange(users)] = 0.0
    assert cross.max() < 1e-8
    assert trials - kept.sum() < 0.001 * trials


# 9 --------------------------------------- antenna selection equals flat RVQ


def test_antenna_selection_matches_flat_codebook_in_distribution():
    selected = collect_best_cosine_samples(4, 2, 6, 10_000, 101, per_antenna=True)
    flat = collect_best_cosine_samples(4, 2, 6, 10_000, 202, per_antenna=False)
    stat = scipy.stats.ks_2samp(selected, flat).statistic
    assert stat < 0.023


# 10 ----------------------------------------------- square channel, zero error


def test_full_rank_square_channel_quantizes_exactly():
    channels = np.stack([complex_normal(RngStream(707, trial).generator(), (2, 2))
                         for trial in range(100)])
    books = np.stack([generate_codebook(RngStream(707, trial, purpose=PURPOSE_CODEBOOK), 3, 2)
                      for trial in range(100)])
    r, fault = quantize_stack(channels, books)
    assert (fault == 0).all()
    assert ((1 - r.cos_sq) < 1e-10).all()


# 11 ------------------------------------------------------ CLI determinism


def test_cli_outputs_identical_across_worker_counts(tmp_path, capsys, monkeypatch, pools):
    # at M = 4, B = 4 a chunk holds 256 trials, so the grid's one bit count
    # is two chunks (256 + 44) and 3 cores really hand them to a pool
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("m = 4\nn_rx = 1, 2\nsnr_db = 0, 10\nbits = 4\n"
                   "trials = 300\nseed = 31\n")
    out1, out2 = tmp_path / "serial", tmp_path / "parallel"
    monkeypatch.setattr(linalg, "_cores", lambda: 1)
    assert main(["sweep", "--config", str(cfg), "--out", str(out1)]) == 0
    assert pools == []
    monkeypatch.setattr(linalg, "_cores", lambda: 3)
    assert main(["sweep", "--config", str(cfg), "--out", str(out2)]) == 0
    assert pools == [2]  # one two-worker pool per multi-chunk bit count
    capsys.readouterr()
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()
    assert (out1 / "manifest.json").read_bytes() == (out2 / "manifest.json").read_bytes()
    # the shared artifact really is the full result set
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert len(manifest["rows"]) == 4
    assert all(math.isfinite(row["rate_fb_mean"]) for row in manifest["rows"])


def test_validate_outputs_identical_across_worker_counts(tmp_path, capsys, monkeypatch, pools):
    # (32 + 2) * 4 = 136 normals a sample: 20,000 samples are 5 blocks of 4000
    monkeypatch.setattr(validate, "_BLOCK_GAUSSIANS", 4000 * 136)
    cfg = tmp_path / "val.cfg"
    cfg.write_text("m = 4\nn_rx = 2\nbits = 5\nsamples = 20000\nseed = 32\n")
    written, logs = [], []
    for cores in (1, 3):
        monkeypatch.setattr(linalg, "_cores", lambda: cores)
        out = tmp_path / f"cores{cores}"
        assert main(["validate", "--config", str(cfg), "--out", str(out)]) == 0
        written.append((out / "validation.json").read_bytes())
        logs.append(capsys.readouterr().err)
    assert pools == [3]  # the 1-worker run starts no pool
    assert written[0] == written[1]
    assert logs[0].rstrip().endswith("(1 worker)")
    assert logs[1].rstrip().endswith("(3 workers)")


# 12 ------------------------------------------ closed-form anchors of the rates
# The sweep reports the perfect-CSIT benchmark from its closed form, which is
# checked against a Monte Carlo run of the zero-forcing kernel; the gap check
# reads the sweep's own rows.  A mean may miss its closed form by the critical
# value of its CI half-width, Bonferroni over the cells of the check, at stats'
# chance of failing correct code.

ANCHOR_SNRS = (0.0, 10.0, 20.0)
ANCHOR_N = (1, 2, 3)
ANCHOR_BITS = (4, 8)
ANCHOR_POLICIES = ("per_block", "fixed")


def anchor_points(n_rx, bits, policy, trials, seed):
    config = ExperimentConfig(m=4, n_rx=n_rx, snr_db_grid=ANCHOR_SNRS,
                              bits_rule=BitsRule.fixed(bits), trials=trials, seed=seed,
                              codebook_policy=policy)
    return run_experiment(config).points


def critical(ci, cells):
    """The Bonferroni critical distance of one of ``cells`` means whose 95% half-width is ci."""
    return stats._critical(1, ci / stats._Z95, cells)


def zf_anchor_misses():
    """SNRs at which the Monte Carlo perfect-CSIT rate (``oracles.perfect_csit_rates`` over
    4000 channel draws, M = 4, 0/10/20 dB) has a mean beyond its critical value of
    ``formulas.zf_rate_mean``, M log2(e) e^{M/P} E1(M/P)."""
    channels = complex_normal(RngStream(2026101, purpose=PURPOSE_CHANNEL).generator(),
                              (4000, 4, 4))
    powers = 10 ** (np.array(ANCHOR_SNRS) / 10)
    rates, cond, residual = oracles.perfect_csit_rates(channels, powers)
    kept = ~refused(cond, residual)
    misses = []
    for snr_db, power, rate in zip(ANCHOR_SNRS, powers, rates):
        mean, ci = stats.mean_ci(rate[kept])
        if abs(mean - zf_rate_mean(4, power)) > critical(ci, len(ANCHOR_SNRS)):
            misses.append((snr_db, mean))
    return misses


def gap_bound_misses(policy):
    """Cells whose sum-rate gap exceeds M rate_gap_bound(P, B, M, N) by more than its critical
    value, at M = 4, N = 1, 2, 3, B = 4, 8 and 0/10/20 dB.  The gap's half-width is
    rate_fb's, since its benchmark is exact."""
    cells = len(ANCHOR_N) * len(ANCHOR_SNRS) * len(ANCHOR_BITS) * len(ANCHOR_POLICIES)
    misses = []
    for bits in ANCHOR_BITS:
        for p in anchor_points(ANCHOR_N, bits, policy, 2000, 2026102):
            bound = 4 * rate_gap_bound(10 ** (p.snr_db / 10), bits, 4, p.n_rx)
            if p.gap > bound + critical(p.rate_fb_ci, cells):
                misses.append((bits, p.n_rx, p.snr_db, p.gap, bound))
    return misses


def test_benchmark_rate_matches_its_closed_form():
    # at M = P = 1 the mean is log2(e) e E1(1), and e E1(1) is the Gompertz constant
    assert zf_rate_mean(1, 1.0) == pytest.approx(math.log2(math.e) * 0.5963473623231941,
                                                 rel=1e-15)
    # scipy's E1 and the quadrature oracle, at x = M/P on both sides of the switch from
    # the series to the continued fraction at x = 1
    for m, x in itertools.product((1, 2, 4, 8), (1e-4, 0.05, 0.5, 0.999999, 1.0, 1.5, 4.0,
                                                  30.0, 250.0)):
        exact = m * math.log2(math.e) * math.exp(x) * scipy.special.exp1(x)
        assert zf_rate_mean(m, m / x) == pytest.approx(exact, rel=1e-13), (m, x)
        assert zf_rate_mean(m, m / x) == pytest.approx(oracles.zf_rate_mean(m, m / x),
                                                       rel=1e-9), (m, x)
    # and the mean of the Monte Carlo benchmark that zero-forces drawn channels
    assert zf_anchor_misses() == []


def test_benchmark_anchor_fails_on_full_power_per_user(monkeypatch):
    # P in place of P/M: each user's SINR scaled by M
    real = precoding.sinr_stack
    monkeypatch.setattr(precoding, "sinr_stack",
                        lambda h, v, power: real(h, v, power * v.shape[-1]))
    assert len(zf_anchor_misses()) == len(ANCHOR_SNRS)


def test_benchmark_anchor_fails_on_unnormalized_beams(monkeypatch):
    def unnormalized(directions):  # the inverse's own columns, each of norm >= 1
        _, cond, residual = zero_force(directions)
        return np.linalg.inv(np.swapaxes(directions, -1, -2).conj()), cond, residual

    monkeypatch.setattr(precoding, "zero_force", unnormalized)
    assert len(zf_anchor_misses()) == len(ANCHOR_SNRS)


@pytest.mark.parametrize("policy", ANCHOR_POLICIES)
def test_gap_stays_under_the_papers_bound(policy):
    assert gap_bound_misses(policy) == []


def test_gap_bound_fails_on_a_random_codeword(monkeypatch):
    def random_codeword(config, bits):  # scores one fresh random row per trial and user
        def score(first_block, q, widths):
            gen = RngStream(config.seed, first_block, 0, PURPOSE_CODEBOOK).generator()
            normals = gen.standard_normal((2, *q.shape[:-2], 1, config.m))
            return _select(q, (normals[0], normals[1]), widths)
        return score

    monkeypatch.setitem(CODEBOOK_POLICIES, "per_block", random_codeword)
    assert gap_bound_misses("per_block") != []


# Agreement of the per_block scorer, which draws each pick from its law, with the
# explicit codebooks it replaced (``oracles.explicit_per_block``), at M = 4.
LAW_N = (1, 2, 3)
LAW_BITS = (2, 6)


def law_agreement_misses():
    """(N, B) cells at M = 4 where the per_block scorer's cos^2 (2000 trials of 4 users) lies
    beyond its KS critical value of max_beta_cdf, or its rate_fb_mean at 10 dB beyond the
    critical distance of the explicit oracle's, Bonferroni over the cells of each check."""
    cells = len(LAW_N) * len(LAW_BITS)
    channels = complex_normal(RngStream(2026103, purpose=PURPOSE_CHANNEL).generator(),
                              (2000, 4, 4, max(LAW_N)))
    q = np.linalg.qr(channels)[0]
    misses = []
    for bits in LAW_BITS:
        config = ExperimentConfig(m=4, n_rx=LAW_N, snr_db_grid=(10.0,),
                                  bits_rule=BitsRule.fixed(bits), trials=2000, seed=2026104)
        picks = CODEBOOK_POLICIES["per_block"](config, bits)(0, q, list(LAW_N))
        for n, (_, _, cos_sq) in zip(LAW_N, picks):
            ks = stats.ks_statistic(cos_sq.ravel(),
                                    lambda x: stats.max_beta_cdf(x, n, 4 - n, 2 ** bits))
            if ks > stats._critical(cos_sq.size, 0.5, 2 * cells):
                misses.append(("ks", bits, n, ks))
        law = run_experiment(config).points
        with pytest.MonkeyPatch.context() as patch:
            patch.setitem(CODEBOOK_POLICIES, "per_block", oracles.explicit_per_block)
            explicit = run_experiment(config).points
        for p, o in zip(law, explicit):
            if abs(p.rate_fb_mean - o.rate_fb_mean) > critical(
                    math.hypot(p.rate_fb_ci, o.rate_fb_ci), cells):
                misses.append(("rate", bits, p.n_rx, p.rate_fb_mean, o.rate_fb_mean))
    return misses


def test_law_picks_agree_with_explicit_codebooks():
    assert law_agreement_misses() == []


def test_law_agreement_fails_on_the_wrong_beta(monkeypatch):
    # sin^2 from Beta(M - n + 1, n), that is cos^2 from Beta(n, M - n + 1)
    monkeypatch.setattr(experiment, "beta_cdf", lambda x, a, b: stats.beta_cdf(x, a + 1, b))
    assert {miss[0] for miss in law_agreement_misses()} >= {"ks"}


def test_law_agreement_fails_without_the_out_of_span_part(monkeypatch):
    # q_hat = Q_n a: every pick in its user's span, with no quantization error to interfere
    law = CODEBOOK_POLICIES["per_block"]

    def in_span(config, bits):
        def score(first_block, q, widths):
            picks = law(config, bits)(first_block, q, widths)
            for n, (_, q_hat, _) in zip(widths, picks):
                q_hat[:] = np.einsum("...mk,...lk,...l->...m", q[..., :n], q[..., :n].conj(), q_hat)
                q_hat /= np.linalg.norm(q_hat, axis=-1, keepdims=True)
            return picks
        return score

    monkeypatch.setitem(CODEBOOK_POLICIES, "per_block", in_span)
    assert {miss[0] for miss in law_agreement_misses()} == {"rate"}
