"""End-to-end acceptance checks: closed-form numbers, distribution laws,
simulation behavior, and CLI determinism.

These run the full pipeline at realistic sample sizes, so this module is the
slow part of the suite (a few minutes total).
"""

import itertools
import json
import math

import numpy as np
import pytest
import scipy.stats

from effchan import experiment
from effchan.experiment import BitsRule, ExperimentConfig, run_experiment
from effchan.formulas import InfeasibleTargetError, ScalingInputs, bits_required, delta_a
from effchan.linalg import (
    PURPOSE_CHANNEL,
    PURPOSE_CODEBOOK,
    RngStream,
    complex_normal,
)
from effchan.cli import main, scaling_table_rows
from effchan.precoding import refused, zero_force
from effchan.quantize import generate_codebook, quantize_effective, quantize_stack
from effchan.validate import (
    collect_best_cosine_samples,
    direction_isotropy_report,
    effective_gain_report,
    quant_error_mean_report,
    quantization_angle_report,
)


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
    return run_experiment(config, threads=4)


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


@pytest.mark.parametrize("m,n,seed", [(4, 2, 88001), (6, 3, 88002)])
def test_angle_law_large_sample(m, n, seed):
    report = quantization_angle_report(m, n, 8, 100_000, seed)
    assert report.ks_statistic < 0.02
    assert report.passed


# 5 ------------------------------------------------------ effective gain law


def test_effective_gain_law_large_sample():
    report = effective_gain_report(4, 2, 8, 100_000, 88001)
    assert abs(report.mean_obs - 3.0) / 3.0 < 0.01
    assert report.ks_statistic < 0.02
    assert report.passed


def test_effective_gain_law_single_antenna_exact_case():
    report = effective_gain_report(4, 1, 8, 100_000, 88004)
    assert abs(report.mean_obs - 4.0) / 4.0 < 0.01
    assert report.ks_statistic < 0.02
    assert report.passed


# 6 --------------------------------------------------- direction isotropy law


def test_direction_isotropy_large_sample():
    report = direction_isotropy_report(4, 2, 6, 100_000, 88005)
    assert report.details["cov_max_deviation"] < 0.01
    assert report.ks_statistic < 0.02
    assert report.passed


# 7 -------------------------------------------- quantization error vs formula


@pytest.mark.parametrize("m", [4, 6])
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("bits", [6, 8, 10, 12])
def test_quant_error_approximation_grid(m, n, bits):
    seed = 9000 + m * 100 + n * 10 + bits
    report = quant_error_mean_report(m, n, bits, 20_000, seed)
    assert report.details["mean_rel_error"] <= 0.15, report
    assert report.passed


# 8 ---------------------------------------------------- zero-forcing invariant


def test_zfbf_invariants_over_many_trials():
    trials, users = 10_000, 4
    channels = np.empty((trials, users, 4, 2), dtype=complex)
    books = np.empty((trials, users, 16, 4), dtype=complex)
    for trial in range(trials):
        stream = RngStream(606, trial)
        for u in range(users):
            channels[trial, u] = complex_normal(
                stream.derive(user=u, purpose=PURPOSE_CHANNEL).generator(), (4, 2))
            books[trial, u] = generate_codebook(
                stream.derive(user=u, purpose=PURPOSE_CODEBOOK), 4, 4).vectors
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
    for trial in range(100):
        gen = RngStream(707, trial).generator()
        h = complex_normal(gen, (2, 2))
        cb = generate_codebook(RngStream(707, trial, purpose=PURPOSE_CODEBOOK), 3, 2)
        assert quantize_effective(h, cb).sin_sq < 1e-10


# 11 ------------------------------------------------------ CLI determinism


def test_cli_outputs_identical_across_worker_counts(tmp_path, capsys, monkeypatch):
    pools = []

    class CountingPool(experiment.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(experiment, "ProcessPoolExecutor", CountingPool)
    # at M = 4, B = 4 a chunk holds 256 trials, so the grid's one bit count
    # is two chunks (256 + 44) and --threads 3 really hands them to a pool
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("m = 4\nn_rx = 1, 2\nsnr_db = 0, 10\nbits = 4\n"
                   "trials = 300\nseed = 31\n")
    out1, out2 = tmp_path / "serial", tmp_path / "parallel"
    assert main(["sweep", "--config", str(cfg), "--out", str(out1),
                 "--threads", "1"]) == 0
    assert pools == []
    assert main(["sweep", "--config", str(cfg), "--out", str(out2),
                 "--threads", "3"]) == 0
    assert pools == [2]  # one two-worker pool per bit count
    capsys.readouterr()
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()
    assert (out1 / "manifest.json").read_bytes() == (out2 / "manifest.json").read_bytes()
    # the shared artifact really is the full result set
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert len(manifest["rows"]) == 4
    assert all(math.isfinite(row["rate_fb_mean"]) for row in manifest["rows"])
