import numpy as np
import pytest

from effchan.linalg import (
    COND_LIMIT,
    DegenerateChannelError,
    RngStream,
    complex_normal,
    normal_solve,
    rewind,
    stream_keys,
)
from effchan.precoding import refused, zero_force
from effchan.quantize import FAULT_RANK, Codebook, quantize_effective, quantize_stack


def basis(k, dim):
    e = np.zeros(dim, dtype=complex)
    e[k] = 1.0
    return e


def gaussian(stream, dim):
    """One CN(0, I_dim) vector from the start of ``stream``."""
    return complex_normal(stream.generator(), dim)


# ----------------------------------------------------------------- RngStream


def test_stream_reproducible():
    a = gaussian(RngStream(123, 4, 5, 6), 8)
    b = gaussian(RngStream(123, 4, 5, 6), 8)
    assert np.array_equal(a, b)


def test_distinct_stream_ids_differ():
    base = RngStream(123)
    ref = gaussian(base, 8)
    for other in (base.derive(trial=1), base.derive(user=1), base.derive(purpose=1)):
        assert not np.array_equal(ref, gaussian(other, 8))


def test_derive_replaces_components():
    s = RngStream(9, 1, 2, 3).derive(trial=7, purpose=0)
    assert (s.seed, s.trial, s.user, s.purpose) == (9, 7, 2, 0)


def test_stream_rejects_bad_fields():
    with pytest.raises(ValueError):
        RngStream(-1)
    with pytest.raises(ValueError):
        RngStream(1, trial=-2)
    with pytest.raises(ValueError):
        RngStream(1.5)


def seed_sequence_key(seed, trial, user, purpose):
    return np.random.SeedSequence([seed, trial, user, purpose]).generate_state(2, np.uint64)


@pytest.mark.parametrize("seed", [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 70 + 3])
def test_stream_keys_match_seed_sequence(seed):
    rng = np.random.default_rng(211)
    trial = rng.integers(0, 2 ** 32, 300)
    trial[:2] = (0, 2 ** 32 - 1)
    user = rng.integers(0, 64, 300)
    purpose = rng.integers(0, 6, 300)
    keys = stream_keys(seed, trial, user, purpose)
    assert keys.shape == (300, 2) and keys.dtype == np.uint64
    expected = [seed_sequence_key(seed, int(t), int(u), int(p))
                for t, u, p in zip(trial, user, purpose)]
    assert np.array_equal(keys, expected)


def test_stream_keys_broadcast_over_ids():
    keys = stream_keys(7, np.arange(3)[:, None, None], np.arange(4)[:, None], np.array([0, 2]))
    assert keys.shape == (3, 4, 2, 2)
    for t, u, (i, p) in [(0, 0, (0, 0)), (2, 1, (1, 2)), (1, 3, (0, 0))]:
        assert np.array_equal(keys[t, u, i], seed_sequence_key(7, t, u, p))
    one = stream_keys(7, 2, 1, 2)
    assert one.shape == (2,)
    # the key a fresh stream generator starts from
    start = RngStream(7, 2, 1, 2).generator().bit_generator.state
    assert np.array_equal(one, start["state"]["key"])


def test_stream_keys_reject_out_of_range_ids():
    for ids in [(-1, 0, 0), (0, -1, 0), (0, 0, -1), (2 ** 32, 0, 0), (0, 0, 2 ** 32),
                (np.array([0, 2 ** 32]), 0, 0), (1.5, 0, 0)]:
        with pytest.raises(ValueError):
            stream_keys(1, *ids)
    with pytest.raises(ValueError):
        stream_keys(-1, 0, 0, 0)


def test_stream_keys_reject_non_integer_seed():
    # a float seed is refused, as RngStream refuses it, not truncated
    for seed in (1.5, 1.0, np.float64(2.0)):
        with pytest.raises(ValueError):
            stream_keys(seed, 0, 0, 0)
    assert np.array_equal(stream_keys(np.int64(7), 2, 1, 2), stream_keys(7, 2, 1, 2))


def test_rewind_replays_stream_from_its_start():
    gen = np.random.Generator(np.random.Philox(0))
    gen.random(3)  # leave it mid-buffer
    for ids in [(7, 2, 1, 2), (2 ** 40 + 9, 11, 0, 0)]:
        expected = RngStream(*ids).generator()
        key = stream_keys(*ids)
        assert np.array_equal(rewind(gen, key).standard_normal(9), expected.standard_normal(9))
        assert np.array_equal(gen.integers(0, 100, 5), expected.integers(0, 100, 5))


# ------------------------------------------------------------ complex_normal


@pytest.mark.parametrize("shape", [5, (), (3, 4, 2)])
def test_complex_normal_matches_two_draw_formula(shape):
    reference, gen = RngStream(13).generator(), RngStream(13).generator()
    re = reference.standard_normal(shape)
    im = reference.standard_normal(shape)
    expected = np.asarray((re + 1j * im) * np.sqrt(0.5))
    got = complex_normal(gen, shape)
    assert got.dtype == np.complex128 and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()
    # both generators end at the same position
    assert np.array_equal(gen.standard_normal(3), reference.standard_normal(3))


# -------------------------------------------------------------- normal_solve


def test_normal_solve_orthonormal_columns():
    q, _ = np.linalg.qr(complex_normal(RngStream(5).generator(), (5, 3)))
    coeffs = np.array([1.0 + 1j, -0.5, 2.0])
    s = q @ coeffs
    assert np.allclose(normal_solve(q, s), q.conj().T @ s, atol=1e-12)


def test_normal_solve_scalar_case():
    h = np.zeros((4, 1), dtype=complex)
    h[0, 0] = 2.0
    v = normal_solve(h, basis(0, 4))
    assert v.shape == (1,)
    assert v[0] == pytest.approx(0.5, abs=1e-14)


def test_normal_solve_recovers_constructed_solution():
    for t in range(20):
        gen = RngStream(21, trial=t).generator()
        h = complex_normal(gen, (5, 3))
        v0 = complex_normal(gen, 3)
        v = normal_solve(h, h @ v0)
        assert np.linalg.norm(v - v0) < 1e-9
        assert np.linalg.norm(h @ v - h @ v0) < 1e-10


def test_normal_solve_stack_matches_single_systems():
    gen = RngStream(23).generator()
    h = complex_normal(gen, (6, 5, 3))
    s = complex_normal(gen, (6, 5))
    stacked = normal_solve(h, s)
    assert stacked.shape == (6, 3)
    for i in range(6):
        assert np.allclose(stacked[i], normal_solve(h[i], s[i]), rtol=0, atol=1e-12)


def test_normal_solve_rejects_singular_system():
    col = complex_normal(RngStream(3).generator(), (4, 1))
    with pytest.raises(DegenerateChannelError):
        normal_solve(np.concatenate([col, col], axis=1), np.ones(4, dtype=complex))


def test_normal_solve_shape_checks():
    with pytest.raises(ValueError):
        normal_solve(np.ones((4, 2), dtype=complex), np.ones(3, dtype=complex))
    with pytest.raises(ValueError):
        normal_solve(np.ones((2, 4, 2), dtype=complex), np.ones(4, dtype=complex))


# ------------------------------------------------- orthonormal span basis
# The span basis is the batched QR inside quantize_stack; these tests reach
# it through the quantizer's outputs.


def test_gram_schmidt_identity_passthrough():
    # identity columns are already an orthonormal basis: every codeword in
    # their span is its own in-span direction, reached with unit gain
    cols = np.stack([basis(0, 3), basis(1, 3)], axis=1)
    s = 1.0 / np.sqrt(2.0)
    words = np.array([basis(0, 3), basis(1, 3), [s, 1j * s, 0.0]])
    r, fault = quantize_stack(np.stack([cols] * 3), words[:, None, :])
    assert list(fault) == [0, 0, 0]
    assert np.allclose(r.cos_sq, 1.0, rtol=0, atol=1e-14)
    assert np.allclose(r.s_proj, words, rtol=0, atol=1e-14)
    assert np.allclose(r.gamma, words[:, :2], rtol=0, atol=1e-14)
    assert np.allclose(r.eff_norm_sq, 1.0, rtol=0, atol=1e-14)


def test_gram_schmidt_orthonormal_and_span_preserving():
    channels = np.stack([complex_normal(RngStream(11, trial=t).generator(), (4, 2))
                         for t in range(20)])
    # every input column, as a codeword, lies wholly inside the basis' span
    cols = np.swapaxes(channels, -1, -2)
    cols = cols / np.linalg.norm(cols, axis=-1, keepdims=True)
    for k in range(2):
        r, fault = quantize_stack(channels, cols[:, k:k + 1, :])
        assert not fault.any()
        assert np.abs(r.sin_sq).max() < 1e-10
        assert np.abs(r.s_proj - cols[:, k]).max() < 1e-10
    # a codeword off the span: the metric is its squared projection onto the
    # span of the inputs, so the basis is orthonormal and spans the inputs
    w = complex_normal(RngStream(11, purpose=1).generator(), (20, 1, 4))
    w = w / np.linalg.norm(w, axis=-1, keepdims=True)
    r, _ = quantize_stack(channels, w)
    for t in range(20):
        proj = channels[t] @ np.linalg.lstsq(channels[t], w[t, 0], rcond=None)[0]
        assert r.cos_sq[t] == pytest.approx(np.linalg.norm(proj) ** 2, abs=1e-10)


def test_gram_schmidt_rejects_rank_deficiency():
    col = complex_normal(RngStream(3).generator(), (4, 1))
    deficient = np.concatenate([col, col], axis=1)
    book = Codebook(vectors=np.eye(4, dtype=complex), bits=2)
    with pytest.raises(DegenerateChannelError):
        quantize_effective(deficient, book)
    _, fault = quantize_stack(np.stack([np.eye(4, dtype=complex)[:, :2], deficient]), book.vectors)
    assert list(fault) == [0, FAULT_RANK]


def test_gram_schmidt_rejects_wide_matrix():
    with pytest.raises(ValueError):
        quantize_effective(np.ones((2, 3), dtype=complex),
                           Codebook(vectors=np.eye(2, dtype=complex), bits=1))


# ------------------------------------------------------ zero-forcing inverse
# The guarded inverse is the batched one inside zero_force.


def test_invert_identity_and_diagonal():
    vectors, cond, residual = zero_force(np.eye(3, dtype=complex))
    assert np.allclose(vectors, np.eye(3), rtol=0, atol=1e-14)
    assert cond == pytest.approx(1.0) and residual == 0.0
    # the inverse of diag(2, 4) is diag(1/2, 1/4): unit beams e1, e2, ratio 2
    vectors, cond, residual = zero_force(np.diag([2.0, 4.0]).astype(complex))
    assert np.allclose(vectors, np.eye(2), rtol=0, atol=1e-14)
    assert cond == pytest.approx(2.0, rel=1e-14) and residual == 0.0


def test_invert_random_multiply_back():
    d = np.stack([complex_normal(RngStream(31, trial=t).generator(), (4, 4)) for t in range(20)])
    vectors, cond, residual = zero_force(d)
    assert not refused(cond, residual).any()
    assert np.allclose(np.linalg.norm(vectors, axis=-2), 1.0, rtol=0, atol=1e-12)
    # rows d_i^H times the beams is diagonal: beam j is the inverse's column
    # j, scaled, so it is orthogonal to every direction i != j
    prod = np.swapaxes(d, -1, -2).conj() @ vectors
    diag = np.diagonal(prod, axis1=-2, axis2=-1)
    assert np.abs(diag).min() > 1e-3
    assert np.abs(prod / diag[:, None, :] - np.eye(4)).max() < 1e-8
    assert residual.max() < 1e-8


def test_invert_rejects_near_singular():
    gen = RngStream(37).generator()
    a = complex_normal(gen, (3, 3))
    a[:, 2] = a[:, 1] + 1e-12 * complex_normal(gen, 3)
    _, cond, residual = zero_force(a)
    assert cond > COND_LIMIT
    assert refused(cond, residual)
    # in a stack, only the near-singular entry is refused
    vectors, cond, residual = zero_force(np.stack([np.eye(3, dtype=complex), a]))
    assert cond[1] > COND_LIMIT
    assert list(refused(cond, residual)) == [False, True]
    assert np.allclose(vectors[0], np.eye(3), rtol=0, atol=1e-14)


# ------------------------------------------------------------------ sampling


def test_gaussian_unit_power():
    # one long draw is 1e5 iid CN(0,1) entries
    h = gaussian(RngStream(101), 100_000)
    assert 0.99 <= np.mean(np.abs(h) ** 2) <= 1.01


def test_gaussian_real_imag_covariance():
    draws = np.stack([gaussian(RngStream(103, trial=t), 4) for t in range(100_000)])
    stacked = np.concatenate([draws.real, draws.imag], axis=1)  # (n, 8)
    cov = stacked.T @ stacked / stacked.shape[0]
    assert np.abs(cov - 0.5 * np.eye(8)).max() < 0.01
