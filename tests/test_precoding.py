import numpy as np
import pytest

from effchan.linalg import COND_LIMIT, IllConditionedError, RngStream, complex_normal
from effchan.precoding import (
    BeamformerSet,
    perfect_csit_rate,
    perfect_csit_rates,
    refused,
    sinr,
    sinr_stack,
    sum_rate,
    zero_force,
    zfbf_vectors,
)


def unit_cols(a):
    return a / np.linalg.norm(a, axis=0)


# ------------------------------------------------------------- BeamformerSet


def test_beamformer_set_validates():
    BeamformerSet(vectors=np.eye(3, dtype=complex))
    with pytest.raises(ValueError):
        BeamformerSet(vectors=np.ones((2, 3), dtype=complex))
    with pytest.raises(ValueError):
        BeamformerSet(vectors=2.0 * np.eye(2, dtype=complex))
    assert BeamformerSet(vectors=np.eye(4, dtype=complex)).users == 4


# -------------------------------------------------------------- zfbf_vectors


def test_zfbf_hand_case():
    d = np.stack([np.array([1.0, 0.0]), np.array([1.0, 1.0]) / np.sqrt(2)], axis=1)
    beams = zfbf_vectors(d.astype(complex))
    v0, v1 = beams.vectors[:, 0], beams.vectors[:, 1]
    s = 1.0 / np.sqrt(2)
    assert np.allclose(np.abs(v0), [s, s], atol=1e-12)
    assert abs(np.vdot(d[:, 1], v0)) < 1e-12  # v0 nulls user 1's direction
    assert np.allclose(np.abs(v1), [0.0, 1.0], atol=1e-12)


def test_zfbf_identity_directions():
    beams = zfbf_vectors(np.eye(3, dtype=complex))
    assert np.allclose(np.abs(beams.vectors), np.eye(3), atol=1e-12)


def test_zfbf_nulls_cross_directions():
    for t in range(30):
        d = unit_cols(complex_normal(RngStream(83, trial=t).generator(), (4, 4)))
        beams = zfbf_vectors(d)
        cross = np.abs(d.conj().T @ beams.vectors)
        np.fill_diagonal(cross, 0.0)
        assert cross.max() < 1e-8
        assert np.allclose(np.linalg.norm(beams.vectors, axis=0), 1.0, atol=1e-12)


def test_zfbf_rejects_near_parallel_directions():
    gen = RngStream(89).generator()
    d = unit_cols(complex_normal(gen, (3, 3)))
    d[:, 2] = d[:, 1] + 1e-13 * complex_normal(gen, 3)
    d = unit_cols(d)
    with pytest.raises(IllConditionedError) as info:
        zfbf_vectors(d)
    assert info.value.condition_estimate > COND_LIMIT


def test_zfbf_refusal_reports_the_pivot_ratio():
    # rows d_i^H = (1, 0) and (1, eps): QR pivots sqrt(2) and eps / sqrt(2),
    # a pivot ratio of 2 / eps
    for eps, refuse in ((1e-9, True), (1e-6, False)):
        d = np.array([[1.0, 1.0], [0.0, eps]], dtype=complex)
        _, cond, _ = zero_force(d)
        assert cond == pytest.approx(2.0 / eps, rel=1e-9)
        if refuse:
            with pytest.raises(IllConditionedError) as info:
                zfbf_vectors(d)
            assert info.value.condition_estimate == pytest.approx(2.0 / eps, rel=1e-9)
        else:
            zfbf_vectors(d)


def test_zero_force_stack_matches_views_and_masks_refusals():
    gen = RngStream(87).generator()
    d = unit_cols(complex_normal(gen, (5, 4, 4)))
    d[2, :, 3] = d[2, :, 0]  # one singular stack among good ones
    vectors, cond, residual = zero_force(d)
    assert list(refused(cond, residual)) == [False, False, True, False, False]
    for i in (0, 1, 3, 4):
        assert np.allclose(vectors[i], zfbf_vectors(d[i]).vectors, rtol=0, atol=1e-12)
    with pytest.raises(IllConditionedError):
        zfbf_vectors(d[2])


def test_zfbf_rejects_non_square():
    with pytest.raises(ValueError):
        zfbf_vectors(np.ones((3, 2), dtype=complex))


# ---------------------------------------------------------------------- sinr


def test_sinr_hand_case():
    beams = BeamformerSet(vectors=np.eye(2, dtype=complex))
    h_eff = np.array([2.0, 1.0], dtype=complex)
    # P/M = 2: signal 2*4 = 8, interference 2*1 = 2
    assert sinr(h_eff, beams, user=0, power=4.0) == pytest.approx(8.0 / 3.0, abs=1e-12)
    assert sinr(h_eff, beams, user=1, power=4.0) == pytest.approx(2.0 / 9.0, abs=1e-12)


def test_sinr_no_interference_when_orthogonal():
    beams = BeamformerSet(vectors=np.eye(3, dtype=complex))
    h_eff = np.array([0.0, 1.5, 0.0], dtype=complex)
    assert sinr(h_eff, beams, user=1, power=9.0) == pytest.approx(3.0 * 2.25, abs=1e-12)


def test_sinr_zero_power():
    beams = BeamformerSet(vectors=np.eye(2, dtype=complex))
    assert sinr(np.array([1.0, 1.0]), beams, 0, 0.0) == 0.0


def test_sinr_guards():
    beams = BeamformerSet(vectors=np.eye(2, dtype=complex))
    with pytest.raises(ValueError):
        sinr(np.ones(2), beams, 2, 1.0)
    with pytest.raises(ValueError):
        sinr(np.ones(2), beams, 0, -1.0)


def test_sinr_stack_matches_scalar_view():
    gen = RngStream(91).generator()
    beams = [zfbf_vectors(unit_cols(complex_normal(gen, (3, 3)))) for _ in range(4)]
    h_eff = complex_normal(gen, (4, 3, 3))
    stacked = sinr_stack(h_eff, np.stack([b.vectors for b in beams]), 7.0)
    for t in range(4):
        for user in range(3):
            assert stacked[t, user] == pytest.approx(
                sinr(h_eff[t, :, user], beams[t], user, 7.0), rel=1e-13)


def test_sinr_increases_with_power():
    gen = RngStream(97).generator()
    d = unit_cols(complex_normal(gen, (4, 4)))
    beams = zfbf_vectors(d)
    h_eff = complex_normal(gen, 4)
    values = [sinr(h_eff, beams, 2, p) for p in (0.5, 1.0, 4.0, 16.0)]
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


# ---------------------------------------------------------- perfect_csit_rate


def test_perfect_rate_orthogonal_hand_case():
    h = np.diag([2.0, 3.0]).astype(complex)
    # beams align with the channels: rate = sum log2(1 + P/2 * |h_i|^2)
    expected = np.log2(1.0 + 4.0) + np.log2(1.0 + 9.0)
    assert perfect_csit_rate(h, power=2.0) == pytest.approx(expected, abs=1e-12)


def test_perfect_rate_beats_any_fixed_interference():
    # zero-forced beams leave no interference, so each user's rate is at
    # least log2(1 + P/M |<h_i, v_i>|^2) with the realized aligned gain
    for t in range(20):
        h = complex_normal(RngStream(101, trial=t).generator(), (3, 3))
        rate = perfect_csit_rate(h, power=10.0)
        beams = zfbf_vectors(unit_cols(h))
        per_user = [
            np.log2(1.0 + (10.0 / 3.0) * np.abs(np.vdot(h[:, i], beams.vectors[:, i])) ** 2)
            for i in range(3)
        ]
        assert rate == pytest.approx(sum(per_user), rel=1e-12)


def test_perfect_rates_stack_matches_scalar_view():
    h = complex_normal(RngStream(105).generator(), (6, 4, 4))
    rates, cond, residual = perfect_csit_rates(h, 3.0)
    assert not refused(cond, residual).any()
    for t in range(6):
        assert rates[t] == pytest.approx(perfect_csit_rate(h[t], 3.0), rel=1e-13)


def test_perfect_rate_phase_invariant():
    gen = RngStream(103).generator()
    h = complex_normal(gen, (4, 4))
    phases = np.exp(1j * gen.uniform(0, 2 * np.pi, size=4))
    assert perfect_csit_rate(h * phases, 5.0) == pytest.approx(
        perfect_csit_rate(h, 5.0), rel=1e-10)


def test_perfect_rate_monotone_in_power():
    h = complex_normal(RngStream(107).generator(), (3, 3))
    rates = [perfect_csit_rate(h, p) for p in (0.1, 1.0, 10.0, 100.0)]
    assert all(a < b for a, b in zip(rates, rates[1:]))


def test_perfect_rate_guards():
    with pytest.raises(ValueError):
        perfect_csit_rate(np.ones((2, 3), dtype=complex), 1.0)
    bad = np.eye(3, dtype=complex)
    bad[:, 1] = 0.0
    with pytest.raises(ValueError):
        perfect_csit_rate(bad, 1.0)
    with pytest.raises(ValueError):
        perfect_csit_rate(np.eye(3, dtype=complex), -2.0)
