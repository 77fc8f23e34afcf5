import math

import numpy as np
import pytest

from effchan.formulas import (
    InfeasibleTargetError,
    ScalingInputs,
    bits_required,
    delta_a,
    feedback_savings,
    log2_binomial,
    quant_error_approx,
    rate_gap_bound,
)

LOG2E = math.log2(math.e)


# ------------------------------------------------------------------- delta_a


def test_delta_a_hand_values():
    assert delta_a(4, 1) == 0.0
    assert delta_a(4, 2) == pytest.approx(LOG2E / 3.0, abs=1e-14)
    assert delta_a(4, 3) == pytest.approx(LOG2E * (1.0 / 2.0 + 1.0 / 3.0), abs=1e-14)
    assert delta_a(10, 2) == pytest.approx(LOG2E / 9.0, abs=1e-14)


def test_delta_a_matches_log_gain_difference():
    # delta_a is the expected log2 gain loss E[log2 G_M] - E[log2 G_{M-N+1}]
    # for Gamma(shape, 1) gains; check it against direct Monte Carlo
    rng = np.random.default_rng(2024)
    full = np.log2(rng.gamma(4.0, 1.0, 200_000)).mean()
    reduced = np.log2(rng.gamma(3.0, 1.0, 200_000)).mean()
    assert delta_a(4, 2) == pytest.approx(full - reduced, abs=0.01)


def test_delta_a_increasing_in_n():
    values = [delta_a(6, n) for n in range(1, 6)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_delta_a_guards():
    with pytest.raises(ValueError):
        delta_a(4, 4)
    with pytest.raises(ValueError):
        delta_a(4, 0)
    with pytest.raises(ValueError):
        delta_a(1, 1)


# -------------------------------------------------------------- log2_binomial


def test_log2_binomial_values():
    assert log2_binomial(3, 0) == 0.0
    assert log2_binomial(3, 1) == pytest.approx(math.log2(3), abs=1e-14)
    assert log2_binomial(9, 2) == pytest.approx(math.log2(36), abs=1e-14)
    with pytest.raises(ValueError):
        log2_binomial(3, 4)
    with pytest.raises(ValueError):
        log2_binomial(-1, 0)


# --------------------------------------------------------- quant_error_approx


def test_quant_error_hand_values():
    assert quant_error_approx(4, 2, 1) == pytest.approx(2.0**-4, abs=1e-14)
    assert quant_error_approx(12, 4, 2) == pytest.approx(2.0**-6 / math.sqrt(3), abs=1e-14)
    assert quant_error_approx(0, 4, 1) == pytest.approx(1.0, abs=1e-14)


def test_quant_error_near_exact_for_order_one():
    # M - N = 1: the true mean error of the max-of-K Beta(N, 1) law is
    # 1/(N*K + 1) while the approximation gives 1/(N*K); they agree closely
    for m, bits in ((2, 12), (4, 10)):
        n = m - 1
        k = n * 2**bits
        assert quant_error_approx(bits, m, n) == pytest.approx(1.0 / (k + 1), rel=5e-4)


def test_quant_error_matches_max_beta_monte_carlo():
    # independent oracle: sample the max-of-2^B Beta(N, M-N) law directly
    rng = np.random.default_rng(77)
    best = rng.beta(2.0, 2.0, size=(100_000, 64)).max(axis=1)
    observed = np.mean(1.0 - best)
    assert quant_error_approx(6, 4, 2) == pytest.approx(observed, rel=0.15)


def test_quant_error_decreasing_in_bits():
    values = [quant_error_approx(b, 6, 3) for b in range(0, 16, 3)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_quant_error_guards():
    with pytest.raises(ValueError):
        quant_error_approx(-1, 4, 2)
    with pytest.raises(ValueError):
        quant_error_approx(4, 4, 4)


def test_quant_error_refuses_non_finite_bits():
    # never a nan error, nor a zero one from infinitely many bits
    for bits in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            quant_error_approx(bits, 4, 2)


# ------------------------------------------------------------ rate_gap_bound


def test_rate_gap_bound_hand_value():
    # M=4, N=2, P=100, B=10: delta_a + log2(1 + 100 * 0.75 * 2^-5 / sqrt(3))
    expected = LOG2E / 3.0 + math.log2(1.0 + 100.0 * 0.75 * 2.0**-5 / math.sqrt(3))
    assert rate_gap_bound(100.0, 10, 4, 2) == pytest.approx(expected, abs=1e-12)


def test_rate_gap_bound_limits_to_floor():
    floor = delta_a(6, 3)
    assert rate_gap_bound(10.0, 200, 6, 3) == pytest.approx(floor, abs=1e-9)
    assert rate_gap_bound(10.0, 5, 6, 3) > floor


def test_rate_gap_bound_monotone():
    bits = [rate_gap_bound(50.0, b, 4, 2) for b in (2, 6, 10, 14)]
    assert all(a > b for a, b in zip(bits, bits[1:]))
    powers = [rate_gap_bound(p, 8, 4, 2) for p in (1.0, 10.0, 100.0)]
    assert all(a < b for a, b in zip(powers, powers[1:]))


def test_rate_gap_bound_guards():
    with pytest.raises(ValueError):
        rate_gap_bound(-1.0, 8, 4, 2)
    with pytest.raises(ValueError):
        rate_gap_bound(1.0, 8, 4, 5)


def test_rate_gap_bound_refuses_non_finite_inputs():
    for power in (math.nan, math.inf):
        with pytest.raises(ValueError, match="power must be nonnegative and finite"):
            rate_gap_bound(power, 4, 4, 2)
    for bits in (math.nan, math.inf):
        with pytest.raises(ValueError, match="bits must be nonnegative and finite"):
            rate_gap_bound(10.0, bits, 4, 2)


# ------------------------------------------------------------- bits_required


def test_bits_required_unit_floor_case():
    # N=1 with unit gap target: c = 1 and every correction vanishes, so the
    # budget is exactly (M-1)/3 bits per dB
    assert bits_required(ScalingInputs(m=10, n=1, p_db=10.0, target_gap=1.0)) == \
        pytest.approx(30.0, abs=1e-12)
    assert bits_required(ScalingInputs(m=4, n=1, p_db=12.0, target_gap=1.0)) == \
        pytest.approx(12.0, abs=1e-12)


def test_bits_required_inverts_the_gap_bound():
    # defining property: plugging the budget back into the bound hits the
    # target exactly, under the 3 dB-per-bit power convention P = 2^(P_dB/3)
    for m, n, p_db, target in [(4, 2, 10.0, 1.0), (6, 3, 20.0, 1.5),
                               (10, 2, 10.0, 1.0), (6, 2, 5.0, 0.7),
                               (4, 3, 15.0, 1.5)]:
        bits = bits_required(ScalingInputs(m=m, n=n, p_db=p_db, target_gap=target))
        assert bits > 0
        achieved = rate_gap_bound(2.0 ** (p_db / 3.0), bits, m, n)
        assert achieved == pytest.approx(target, abs=1e-9)


def test_bits_required_slope():
    # 3 dB more SNR costs exactly M - N extra bits
    lo = bits_required(ScalingInputs(m=6, n=2, p_db=12.0, target_gap=1.0))
    hi = bits_required(ScalingInputs(m=6, n=2, p_db=15.0, target_gap=1.0))
    assert hi - lo == pytest.approx(4.0, abs=1e-10)


def test_bits_required_clamps_to_zero():
    assert bits_required(ScalingInputs(m=4, n=2, p_db=-30.0, target_gap=1.0)) == 0.0


def test_bits_required_monotone_in_target():
    budgets = [bits_required(ScalingInputs(m=4, n=2, p_db=10.0, target_gap=g))
               for g in (0.6, 1.0, 1.4, 1.8)]
    assert all(a > b for a, b in zip(budgets, budgets[1:]))


def test_bits_required_infeasible_below_floor():
    # (4,3) has floor delta_a ~ 1.20 bits: a unit gap target is unreachable
    assert delta_a(4, 3) > 1.0
    with pytest.raises(InfeasibleTargetError):
        bits_required(ScalingInputs(m=4, n=3, p_db=40.0, target_gap=1.0))


def test_gap_headroom_sign_tracks_floor():
    floor = delta_a(6, 3)
    assert ScalingInputs(m=6, n=3, p_db=0.0, target_gap=floor + 0.01).gap_headroom() > 0
    assert ScalingInputs(m=6, n=3, p_db=0.0, target_gap=floor - 0.01).gap_headroom() < 0


def test_scaling_inputs_guards():
    with pytest.raises(ValueError):
        ScalingInputs(m=4, n=4, p_db=10.0, target_gap=1.0)
    for gap in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            ScalingInputs(m=4, n=2, p_db=10.0, target_gap=gap)


def test_scaling_inputs_refuse_non_finite_snr():
    # never a nan, inf or 0.0 bit budget
    for p_db in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="SNR must be finite"):
            ScalingInputs(m=4, n=2, p_db=p_db, target_gap=1.0)


def test_antenna_counts_must_be_integers():
    # refused at the check, not by a TypeError from math.comb later
    for m, n in ((4.5, 2), (4.0, 2), (4, 2.0), (4, True)):
        with pytest.raises(ValueError, match="antenna counts must be integers"):
            ScalingInputs(m=m, n=n, p_db=10.0, target_gap=1.0)
        with pytest.raises(ValueError, match="antenna counts must be integers"):
            delta_a(m, n)
    assert bits_required(ScalingInputs(m=np.int64(4), n=np.int64(2), p_db=10.0,
                                       target_gap=1.0)) > 0


# ---------------------------------------------------------- feedback_savings


def test_feedback_savings_hand_value():
    expected = 10.0 / 3.0 + math.log2(3) - LOG2E
    assert feedback_savings(4, 2, 10.0) == pytest.approx(expected, abs=1e-12)


def test_feedback_savings_zero_for_single_antenna():
    assert feedback_savings(4, 1, 10.0) == 0.0
    assert feedback_savings(10, 1, 25.0) == 0.0


def test_feedback_savings_tracks_exact_budget_difference():
    # the approximation should stay within 1.5 bits of the true budget
    # difference wherever both budgets exist
    for m, n, p_db in [(4, 2, 10.0), (6, 2, 20.0), (6, 3, 20.0), (10, 3, 10.0)]:
        b1 = bits_required(ScalingInputs(m=m, n=1, p_db=p_db, target_gap=1.0))
        bn = bits_required(ScalingInputs(m=m, n=n, p_db=p_db, target_gap=1.0))
        assert feedback_savings(m, n, p_db) == pytest.approx(b1 - bn, abs=1.5)


def test_feedback_savings_guards():
    with pytest.raises(ValueError):
        feedback_savings(4, 4, 10.0)


def test_feedback_savings_refuses_non_finite_snr():
    # never a nan or infinite saving, even at N = 1, where 0 * inf is nan
    for n in (1, 2):
        for p_db in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="SNR must be finite"):
                feedback_savings(4, n, p_db)
