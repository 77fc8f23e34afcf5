import dataclasses

import numpy as np
import pytest

import effchan.experiment as experiment
import effchan.linalg as linalg
import effchan.validate as validate
from effchan.experiment import BitsRule, ExperimentConfig
from effchan.linalg import (
    COND_LIMIT,
    PURPOSE_CHANNEL,
    PURPOSE_CODEBOOK,
    PURPOSE_FIXED_CODEBOOK,
    PURPOSE_LAW,
    RngStream,
    ordered_map,
)
from effchan.precoding import refused, zero_force
from oracles import complex_normal


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
    for other in (RngStream(123, 1), RngStream(123, 0, 1), RngStream(123, 0, 0, 1)):
        assert not np.array_equal(ref, gaussian(other, 8))


def test_stream_rejects_bad_fields():
    with pytest.raises(ValueError):
        RngStream(-1)
    with pytest.raises(ValueError):
        RngStream(1, trial=-2)
    # a float seed is refused, not truncated, even when it is integral; a bool is no id
    for seed in (1.5, 1.0, np.float64(2.0), True, False):
        with pytest.raises(ValueError):
            RngStream(seed)
    with pytest.raises(ValueError):
        RngStream(1, trial=True)
    # a numpy integer seed is the same stream id as the int
    assert (RngStream(np.int64(7), 2, 1, 2).generator().standard_normal(9).tobytes()
            == RngStream(7, 2, 1, 2).generator().standard_normal(9).tobytes())


# The first normals of RngStream(2024, 1, 2, PURPOSE_FIXED_CODEBOOK), recorded with numpy
# 2.4.6 on stream contracts v3 (sweep) and v4 (validation).
RECORDED_NUMPY = "2.4.6"
RECORDED_NORMALS = [0.6559720606282384, -0.05841492836371949, 0.7039224301002268,
                    0.12852285672448585, 1.6623168338445677, -0.49114909680572855,
                    0.5793377374229444, 0.29289713727771416]


def test_stream_is_sfc64_keyed_by_its_id():
    gen = RngStream(2024, 1, 2, PURPOSE_FIXED_CODEBOOK).generator()
    assert isinstance(gen.bit_generator, np.random.SFC64)
    if np.__version__ != RECORDED_NUMPY:
        pytest.skip(f"normals recorded with numpy {RECORDED_NUMPY}, this is numpy {np.__version__}")
    assert gen.standard_normal(8).tolist() == RECORDED_NORMALS  # bit-exact


def test_block_streams_share_no_word():
    # SFC64 streams have no disjoint-key guarantee: check that the channel,
    # codebook, fixed-codebook and law streams of blocks 0 and 1 (a fixed
    # codebook's stream is keyed by user in place of block) share no 64-bit word
    # in their first 2^16 outputs
    words = np.concatenate([
        RngStream(1, block, 0, purpose).generator().bit_generator.random_raw(2 ** 16)
        for block in (0, 1)
        for purpose in (PURPOSE_CHANNEL, PURPOSE_CODEBOOK, PURPOSE_FIXED_CODEBOOK, PURPOSE_LAW)])
    assert np.unique(words).size == words.size


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


# ---------------------------------------------------------------- worker rule


def test_worker_rule_serves_sweep_chunks_and_validation_blocks(monkeypatch, pools):
    # the plans come from shapes alone: nothing is drawn
    monkeypatch.setattr(linalg, "_cores", lambda: 2)
    # sweep_block_b10's shape: chunks of 64 and 56 trials, one stream block each
    block_b10 = ExperimentConfig(m=8, n_rx=(2,), snr_db_grid=(10.0,),
                                 bits_rule=BitsRule.fixed(10), trials=120, seed=1)
    chunks, workers = experiment._plan(block_b10, 10)
    assert [len(chunk) for chunk in chunks] == [64, 56] and workers == 2
    # sweep_fixed_b2's shape is one chunk, so it runs serially
    fixed_b2 = ExperimentConfig(m=4, n_rx=(1, 2, 3), snr_db_grid=(10.0,),
                                bits_rule=BitsRule.fixed(2), trials=200, seed=1,
                                codebook_policy="fixed")
    assert experiment._plan(fixed_b2, 2) == ([range(200)], 1)
    monkeypatch.setattr(linalg, "_cores", lambda: 64)
    # a fixed chunk at M = 8, B = 10 scores its 64-trial block at once, and
    # its overlap and metric (about 37 MiB) allow one worker however many
    # cores and chunks there are; a per-block chunk of the same sweep holds
    # about 1.25 MiB (the chunk's M x M channels, QR factors, picks and law
    # draws, with no codebook), so 51 fit under the 64 MiB cap
    fixed_b10 = dataclasses.replace(block_b10, trials=6400, codebook_policy="fixed")
    assert experiment._plan(fixed_b10, 10)[1] == 1
    assert experiment._plan(dataclasses.replace(fixed_b10, codebook_policy="per_block"),
                            10)[1] == 51
    # validate_b8's shape: a 508-sample block holds about 2.3 MiB (a 64-sample
    # slice of codebook normals, its overlap and metric, and the block's
    # channels and picks), so 27 fit; at B = 24 one sample is over the cap
    assert validate.suite_workers(validate.ValidationConfig(4, 2, 8, 100_000, 1)) == 27
    assert validate.suite_workers(validate.ValidationConfig(4, 2, 24, 100_000, 1)) == 1
    # one worker maps serially and starts no pool; more keep the item order
    assert ordered_map(str, range(3), 1) == ["0", "1", "2"]
    assert pools == []
    assert ordered_map(str, range(9), 2) == [str(i) for i in range(9)]
    assert pools == [2]
