import numpy as np
import pytest

from effchan.linalg import COND_LIMIT, RngStream
from effchan.precoding import refused, sinr_stack, sum_rate, zero_force
from oracles import complex_normal, perfect_csit_rates


def unit_cols(a):
    return a / np.linalg.norm(a, axis=0)


def zf_beams(d):
    """Beams of one direction matrix, asserting zero-forcing accepted it."""
    vectors, cond, residual = zero_force(d)
    assert not refused(cond, residual)
    return vectors


def perfect_rate(h, power):
    """Perfect-CSIT rate of one channel matrix, asserting it was not refused."""
    rate, cond, residual = perfect_csit_rates(h, power)
    assert not refused(cond, residual)
    return float(rate)


# ---------------------------------------------------------------- zero_force


def test_zfbf_hand_case():
    d = np.stack([np.array([1.0, 0.0]), np.array([1.0, 1.0]) / np.sqrt(2)], axis=1)
    vectors = zf_beams(d.astype(complex))
    v0, v1 = vectors[:, 0], vectors[:, 1]
    s = 1.0 / np.sqrt(2)
    assert np.allclose(np.abs(v0), [s, s], atol=1e-12)
    assert abs(np.vdot(d[:, 1], v0)) < 1e-12  # v0 nulls user 1's direction
    assert np.allclose(np.abs(v1), [0.0, 1.0], atol=1e-12)


def test_zfbf_identity_directions():
    assert np.allclose(np.abs(zf_beams(np.eye(3, dtype=complex))), np.eye(3), atol=1e-12)


def test_zfbf_nulls_cross_directions():
    for t in range(30):
        d = unit_cols(complex_normal(RngStream(83, trial=t).generator(), (4, 4)))
        vectors = zf_beams(d)
        cross = np.abs(d.conj().T @ vectors)
        np.fill_diagonal(cross, 0.0)
        assert cross.max() < 1e-8
        assert np.allclose(np.linalg.norm(vectors, axis=0), 1.0, atol=1e-12)


def test_zfbf_rejects_near_parallel_directions():
    gen = RngStream(89).generator()
    d = unit_cols(complex_normal(gen, (3, 3)))
    d[:, 2] = d[:, 1] + 1e-13 * complex_normal(gen, 3)
    d = unit_cols(d)
    _, cond, residual = zero_force(d)
    assert cond > COND_LIMIT
    assert refused(cond, residual)


def test_zfbf_refusal_reports_the_pivot_ratio():
    # rows d_i^H = (1, 0) and (1, eps): QR pivots sqrt(2) and eps / sqrt(2),
    # a pivot ratio of 2 / eps
    for eps, refuse in ((1e-9, True), (1e-6, False)):
        d = np.array([[1.0, 1.0], [0.0, eps]], dtype=complex)
        _, cond, residual = zero_force(d)
        assert cond == pytest.approx(2.0 / eps, rel=1e-9)
        assert bool(refused(cond, residual)) is refuse


def test_zero_force_stack_matches_views_and_masks_refusals():
    gen = RngStream(87).generator()
    d = unit_cols(complex_normal(gen, (5, 4, 4)))
    d[2, :, 3] = d[2, :, 0]  # one singular stack among good ones
    vectors, cond, residual = zero_force(d)
    assert list(refused(cond, residual)) == [False, False, True, False, False]
    for i in (0, 1, 3, 4):
        assert np.allclose(vectors[i], zf_beams(d[i]), rtol=0, atol=1e-12)
    assert refused(*zero_force(d[2])[1:])


# ---------------------------------------------------------------------- sinr
# Every user's column of the channel stack holds the same h_eff, so entry i
# of sinr_stack is user i's SINR on that channel.


def test_sinr_hand_case():
    h_eff = np.array([2.0, 1.0], dtype=complex)
    sinrs = sinr_stack(np.stack([h_eff] * 2, axis=1), np.eye(2, dtype=complex), 4.0)
    # P/M = 2: signal 2*4 = 8, interference 2*1 = 2
    assert sinrs[0] == pytest.approx(8.0 / 3.0, abs=1e-12)
    assert sinrs[1] == pytest.approx(2.0 / 9.0, abs=1e-12)


def test_sinr_no_interference_when_orthogonal():
    h_eff = np.array([0.0, 1.5, 0.0], dtype=complex)
    sinrs = sinr_stack(np.stack([h_eff] * 3, axis=1), np.eye(3, dtype=complex), 9.0)
    assert sinrs[1] == pytest.approx(3.0 * 2.25, abs=1e-12)


def test_sinr_zero_power():
    sinrs = sinr_stack(np.ones((2, 2), dtype=complex), np.eye(2, dtype=complex), 0.0)
    assert list(sinrs) == [0.0, 0.0]


def test_sinr_stack_matches_scalar_view():
    gen = RngStream(91).generator()
    beams = np.stack([zf_beams(unit_cols(complex_normal(gen, (3, 3)))) for _ in range(4)])
    h_eff = complex_normal(gen, (4, 3, 3))
    stacked = sinr_stack(h_eff, beams, 7.0)
    # per user from the definition: P/M |<v_i, h_i>|^2 over 1 + P/M sum_{j != i} |<v_j, h_i>|^2
    for t in range(4):
        for user in range(3):
            gains = [7.0 / 3.0 * abs(np.vdot(beams[t, :, j], h_eff[t, :, user])) ** 2
                     for j in range(3)]
            interference = sum(g for j, g in enumerate(gains) if j != user)
            assert stacked[t, user] == pytest.approx(
                gains[user] / (1.0 + interference), rel=1e-13)
    # an array of powers leads the axes, each slice equal to its scalar call
    powers = np.array([0.5, 7.0, 30.0])
    assert sinr_stack(h_eff, beams, powers).tobytes() == (
        np.stack([sinr_stack(h_eff, beams, p) for p in powers]).tobytes())


def test_sinr_increases_with_power():
    gen = RngStream(97).generator()
    d = unit_cols(complex_normal(gen, (4, 4)))
    vectors = zf_beams(d)
    h_eff = complex_normal(gen, 4)
    values = [sinr_stack(np.stack([h_eff] * 4, axis=1), vectors, p)[2]
              for p in (0.5, 1.0, 4.0, 16.0)]
    assert all(a < b for a, b in zip(values, values[1:]))


# ------------------------------------------------------------------ sum_rate


def test_sum_rate_hand_case():
    assert sum_rate(np.array([1.0, 3.0])) == pytest.approx(3.0, abs=1e-12)
    assert sum_rate(np.array([0.0, 0.0])) == 0.0


def test_sum_rate_over_last_axis():
    assert np.allclose(sum_rate(np.array([[1.0, 3.0], [0.0, 7.0]])), [3.0, 3.0], atol=1e-12)


def test_sum_rate_rejects_negative():
    with pytest.raises(ValueError):
        sum_rate(np.array([0.5, -0.1]))


# -------------------------------------------------------- perfect_csit_rates


def test_perfect_rate_orthogonal_hand_case():
    h = np.diag([2.0, 3.0]).astype(complex)
    # beams align with the channels: rate = sum log2(1 + P/2 * |h_i|^2)
    expected = np.log2(1.0 + 4.0) + np.log2(1.0 + 9.0)
    assert perfect_rate(h, power=2.0) == pytest.approx(expected, abs=1e-12)


def test_perfect_rate_beats_any_fixed_interference():
    # zero-forced beams leave no interference, so each user's rate is at
    # least log2(1 + P/M |<h_i, v_i>|^2) with the realized aligned gain
    for t in range(20):
        h = complex_normal(RngStream(101, trial=t).generator(), (3, 3))
        rate = perfect_rate(h, power=10.0)
        vectors = zf_beams(unit_cols(h))
        per_user = [
            np.log2(1.0 + (10.0 / 3.0) * np.abs(np.vdot(h[:, i], vectors[:, i])) ** 2)
            for i in range(3)
        ]
        assert rate == pytest.approx(sum(per_user), rel=1e-12)


def test_perfect_rates_stack_matches_scalar_view():
    h = complex_normal(RngStream(105).generator(), (6, 4, 4))
    rates, cond, residual = perfect_csit_rates(h, 3.0)
    assert not refused(cond, residual).any()
    for t in range(6):
        assert rates[t] == pytest.approx(perfect_rate(h[t], 3.0), rel=1e-13)
    swept, _, _ = perfect_csit_rates(h, np.array([0.5, 3.0]))
    assert swept.shape == (2, 6) and swept[1].tobytes() == rates.tobytes()


def test_perfect_rate_phase_invariant():
    gen = RngStream(103).generator()
    h = complex_normal(gen, (4, 4))
    phases = np.exp(1j * gen.uniform(0, 2 * np.pi, size=4))
    assert perfect_rate(h * phases, 5.0) == pytest.approx(perfect_rate(h, 5.0), rel=1e-10)


def test_perfect_rate_monotone_in_power():
    h = complex_normal(RngStream(107).generator(), (3, 3))
    rates = [perfect_rate(h, p) for p in (0.1, 1.0, 10.0, 100.0)]
    assert all(a < b for a, b in zip(rates, rates[1:]))
