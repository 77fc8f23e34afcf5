import numpy as np
import pytest

from effchan.linalg import DegenerateChannelError, RngStream, complex_from_parts, complex_normal
from effchan.quantize import (
    FAULT_ORTHOGONAL,
    FAULT_RANK,
    Codebook,
    generate_codebook,
    quantize_antenna_selection,
    quantize_effective,
    quantize_single,
    quantize_stack,
)


def book(rows):
    """Codebook from explicit unit rows (bits inferred from the row count)."""
    v = np.asarray(rows, dtype=np.complex128)
    bits = int(np.log2(v.shape[0]))
    return Codebook(vectors=v, bits=bits)


def unit(v):
    v = np.asarray(v, dtype=np.complex128)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------- codebook drawing


def test_generate_codebook_shape_and_norms():
    cb = generate_codebook(RngStream(5), bits=4, dim=3)
    assert cb.size == 16 and cb.dim == 3 and cb.bits == 4
    assert np.allclose(np.linalg.norm(cb.vectors, axis=1), 1.0, atol=1e-12)


def test_generate_codebook_deterministic_per_stream():
    a = generate_codebook(RngStream(5, trial=1), 3, 4)
    b = generate_codebook(RngStream(5, trial=1), 3, 4)
    c = generate_codebook(RngStream(5, trial=2), 3, 4)
    assert np.array_equal(a.vectors, b.vectors)
    assert not np.array_equal(a.vectors, c.vectors)


def test_generate_codebook_guards():
    with pytest.raises(ValueError):
        generate_codebook(RngStream(1), 0, 4)
    with pytest.raises(ValueError):
        generate_codebook(RngStream(1), 25, 4)
    with pytest.raises(ValueError):
        generate_codebook(RngStream(1), 2, 1)


def test_codebook_validates_rows():
    with pytest.raises(ValueError):
        Codebook(vectors=np.ones((3, 2), dtype=complex), bits=2)  # wrong count
    with pytest.raises(ValueError):
        Codebook(vectors=np.ones((2, 2), dtype=complex), bits=1)  # not unit norm


# ----------------------------------------------------------- quantize_single


def test_single_hand_case():
    cb = book([[1.0, 0.0], [0.0, 1.0]])
    h = np.array([0.6, 0.8j])
    r = quantize_single(h, cb)
    assert r.index == 1
    assert r.cos_sq == pytest.approx(0.64, abs=1e-12)
    assert r.sin_sq == pytest.approx(0.36, abs=1e-12)
    # reported in-span direction lies on the h line
    assert abs(abs(np.vdot(unit(h), r.s_proj)) - 1.0) < 1e-12
    assert r.eff_norm_sq == pytest.approx(1.0, abs=1e-12)
    assert np.array_equal(r.h_eff, h)
    assert r.gamma.shape == (1,)


def test_single_planted_codeword_is_exact():
    gen = RngStream(17).generator()
    for _ in range(10):
        h = complex_normal(gen, 4)
        rows = complex_normal(gen, (4, 4))
        rows[2] = h  # plant the true direction
        cb = book(rows / np.linalg.norm(rows, axis=1, keepdims=True))
        r = quantize_single(h, cb)
        assert r.index == 2
        assert r.cos_sq == pytest.approx(1.0, abs=1e-10)


def test_single_tie_takes_lowest_index():
    cb = book([[1.0, 0.0], [0.0, 1.0]])
    r = quantize_single(np.array([1.0, 1.0]) / np.sqrt(2), cb)
    assert r.index == 0


def test_single_orthogonal_codeword_falls_back_to_channel_direction():
    cb = book([[0.0, 1.0], [0.0, 1.0]])
    r = quantize_single(np.array([2.0, 0.0]), cb)
    assert r.cos_sq == 0.0
    assert np.allclose(r.s_proj, [1.0, 0.0])


def test_single_scale_invariant_selection():
    cb = generate_codebook(RngStream(23), 4, 3)
    gen = RngStream(29).generator()
    for _ in range(20):
        h = complex_normal(gen, 3)
        base = quantize_single(h, cb)
        scaled = quantize_single(h * (2.0 - 1.5j), cb)
        assert scaled.index == base.index
        assert scaled.cos_sq == pytest.approx(base.cos_sq, abs=1e-12)


def test_single_rejects_bad_input():
    cb = generate_codebook(RngStream(1), 2, 3)
    with pytest.raises(ValueError):
        quantize_single(np.zeros(3, dtype=complex), cb)
    with pytest.raises(ValueError):
        quantize_single(np.ones(4, dtype=complex), cb)


# -------------------------------------------------------- quantize_effective


def brute_metric(h_matrix, vectors):
    """Independent recompute: squared projection of each row onto span(H)."""
    q, _ = np.linalg.qr(h_matrix)
    proj = q @ (q.conj().T @ vectors.T)  # (m, 2^B)
    return np.sum(np.abs(proj) ** 2, axis=0)


def test_effective_identities_random():
    for t in range(50):
        gen = RngStream(31, trial=t).generator()
        h = complex_normal(gen, (4, 2))
        cb = generate_codebook(RngStream(31, trial=t, purpose=1), 4, 4)
        r = quantize_effective(h, cb)

        metric = brute_metric(h, cb.vectors)
        assert r.index == int(np.argmax(metric))
        assert r.cos_sq == pytest.approx(metric[r.index], abs=1e-10)
        proj = h @ np.linalg.lstsq(h, r.q_hat, rcond=None)[0]  # q_hat's shadow on span(H)
        assert r.sin_sq == pytest.approx(1.0 - np.linalg.norm(proj) ** 2, abs=1e-10)

        # s_proj: unit norm, inside the span, aligned with q_hat's shadow
        assert abs(np.linalg.norm(r.s_proj) - 1.0) < 1e-12
        q, _ = np.linalg.qr(h)
        resid = r.s_proj - q @ (q.conj().T @ r.s_proj)
        assert np.linalg.norm(resid) < 1e-10
        align = np.vdot(r.s_proj, r.q_hat)
        assert align.real == pytest.approx(np.sqrt(r.cos_sq), abs=1e-10)
        assert abs(align.imag) < 1e-10

        # combiner: unit norm, effective channel is a positive multiple of s_proj
        assert abs(np.linalg.norm(r.gamma) - 1.0) < 1e-12
        assert np.allclose(r.h_eff, h @ r.gamma, atol=1e-12)
        assert np.allclose(r.h_eff, np.sqrt(r.eff_norm_sq) * r.s_proj, atol=1e-8)
        assert r.eff_norm_sq == pytest.approx(np.linalg.norm(r.h_eff) ** 2, rel=1e-9)


def test_effective_hand_case():
    # span(2 e1, e1 + e2) is the e1-e2 plane: e2 lies in it, the others do not
    h = np.array([[2.0, 1.0], [0.0, 1.0], [0.0, 0.0]], dtype=complex)
    s = 1.0 / np.sqrt(2.0)
    r = quantize_effective(h, book([[0, 0, 1], [s, 0, s], [0, 1, 0], [0, 0, 1]]))
    assert r.index == 2
    assert r.cos_sq == pytest.approx(1.0, abs=1e-14)
    assert abs(abs(r.s_proj[1]) - 1.0) < 1e-14
    # H v = e2 gives v = (-1/2, 1), so the gain is 1 / ||v||^2 = 0.8
    assert r.eff_norm_sq == pytest.approx(0.8, abs=1e-14)
    assert np.allclose(r.h_eff, h @ r.gamma, atol=1e-14)


def test_effective_planted_in_span_codeword():
    gen = RngStream(37).generator()
    for _ in range(10):
        h = complex_normal(gen, (5, 3))
        target = unit(h @ complex_normal(gen, 3))
        rows = complex_normal(gen, (8, 5))
        rows = rows / np.linalg.norm(rows, axis=1, keepdims=True)
        rows[5] = target
        r = quantize_effective(h, book(rows))
        assert r.index == 5
        assert r.sin_sq < 1e-12
        # with no quantization error the reported direction is the codeword
        assert abs(np.vdot(r.s_proj, target) - 1.0) < 1e-8


def test_effective_single_column_matches_vector_quantizer():
    gen = RngStream(41).generator()
    cb = generate_codebook(RngStream(43), 5, 4)
    for _ in range(20):
        h = complex_normal(gen, 4)
        single = quantize_single(h, cb)
        eff = quantize_effective(h[:, None], cb)
        assert eff.index == single.index
        assert eff.cos_sq == pytest.approx(single.cos_sq, abs=1e-12)
        # one receive antenna: combining cannot change the gain
        assert eff.eff_norm_sq == pytest.approx(np.linalg.norm(h) ** 2, rel=1e-12)
        assert abs(abs(np.vdot(unit(h), eff.s_proj)) - 1.0) < 1e-12


def test_effective_full_rank_square_channel_has_no_error():
    gen = RngStream(47).generator()
    cb = generate_codebook(RngStream(53), 3, 3)
    for _ in range(10):
        h = complex_normal(gen, (3, 3))
        r = quantize_effective(h, cb)
        # the span is all of C^M, so every codeword fits perfectly
        assert r.sin_sq < 1e-10
        assert abs(np.vdot(r.s_proj, r.q_hat) - 1.0) < 1e-8


def test_effective_more_bits_never_hurt():
    # nested codebooks: the small one is a prefix of the large one
    big = generate_codebook(RngStream(59), 6, 4)
    small = Codebook(vectors=big.vectors[:32], bits=5)
    gen = RngStream(61).generator()
    for _ in range(30):
        h = complex_normal(gen, (4, 2))
        assert quantize_effective(h, big).cos_sq >= quantize_effective(h, small).cos_sq


def test_effective_rejects_bad_input():
    cb = generate_codebook(RngStream(1), 2, 4)
    with pytest.raises(ValueError):
        quantize_effective(np.ones((3, 2), dtype=complex), cb)  # dim mismatch
    col = complex_normal(RngStream(2).generator(), (4, 1))
    with pytest.raises(DegenerateChannelError):
        quantize_effective(np.concatenate([col, col], axis=1), cb)
    with pytest.raises(ValueError):
        quantize_effective(np.ones((2, 3), dtype=complex),
                           generate_codebook(RngStream(1), 2, 2))  # wider than tall


def test_effective_rejects_codeword_orthogonal_to_span():
    h = np.eye(3, dtype=complex)[:, :2]
    with pytest.raises(ValueError, match="orthogonal"):
        quantize_effective(h, book([[0, 0, 1], [0, 0, 1]]))


# ------------------------------------------------------------ quantize_stack


def test_stack_matches_one_channel_views():
    gen = RngStream(79).generator()
    channels = complex_normal(gen, (3, 5, 4, 2))
    raw = complex_normal(gen, (3, 5, 16, 4))
    books = raw / np.linalg.norm(raw, axis=-1, keepdims=True)
    r, fault = quantize_stack(channels, books)
    assert fault.shape == (3, 5) and not fault.any()
    for t in range(3):
        for u in range(5):
            one = quantize_effective(channels[t, u], Codebook(vectors=books[t, u], bits=4))
            assert r.index[t, u] == one.index
            assert r.cos_sq[t, u] == pytest.approx(one.cos_sq, rel=1e-13)
            assert r.eff_norm_sq[t, u] == pytest.approx(one.eff_norm_sq, rel=1e-13)
            assert np.allclose(r.h_eff[t, u], one.h_eff, rtol=0, atol=1e-13)


def test_stack_broadcasts_a_shared_codebook():
    gen = RngStream(83).generator()
    channels = complex_normal(gen, (6, 3, 4, 2))
    books = np.stack([generate_codebook(RngStream(83, user=u), 3, 4).vectors
                      for u in range(3)])
    shared, _ = quantize_stack(channels, books[None])
    tiled, _ = quantize_stack(channels, np.broadcast_to(books, (6, 3, 8, 4)).copy())
    assert np.array_equal(shared.index, tiled.index)
    assert np.allclose(shared.eff_norm_sq, tiled.eff_norm_sq, rtol=1e-14, atol=0)


def test_stack_faults_are_per_channel():
    gen = RngStream(89).generator()
    good = complex_normal(gen, (4, 2))
    col = complex_normal(gen, (4, 1))
    channels = np.stack([good, np.concatenate([col, col], axis=1), np.eye(4, dtype=complex)[:, :2]])
    books = np.stack([generate_codebook(RngStream(89), 2, 4).vectors] * 2
                     + [np.tile(np.eye(4, dtype=complex)[3], (4, 1))])
    r, fault = quantize_stack(channels, books)
    assert list(fault) == [0, FAULT_RANK, FAULT_ORTHOGONAL]
    one = quantize_effective(good, Codebook(vectors=books[0], bits=2))
    assert r.eff_norm_sq[0] == pytest.approx(one.eff_norm_sq, rel=1e-13)
    assert np.all(np.isfinite(r.h_eff)) and np.all(np.isfinite(r.eff_norm_sq))


# ------------------------------------------ quantize_stack on codebook normals
# The kernel scores a codebook given as its (re, im) standard normals without
# forming it; the oracle forms and normalizes every row, as generate_codebook
# does, and scores the rows by complex products.


def normalized(parts):
    """The complex codebook of standard-normal parts, every row normalized."""
    rows = complex_from_parts(parts.copy())
    return rows / np.linalg.norm(rows, axis=-1, keepdims=True)


def complex_metric(channels, books):
    """|<w_j, span(H)>|^2 of unit rows from the complex product books @ Q*."""
    q = np.linalg.qr(channels)[0]
    return (np.abs(books @ q.conj()) ** 2).sum(axis=-1)


@pytest.mark.parametrize("policy", ["per_block", "fixed"])
def test_stack_scores_normal_parts_like_the_normalized_codebook(policy):
    m, n, bits, chunk = 4, 2, 4, 20_000
    gen = RngStream(97).generator()
    for c in range(5):  # 10^5 channels
        channels = complex_normal(gen, (chunk, m, n))
        if policy == "per_block":
            parts = RngStream(97, trial=c, purpose=1).generator().standard_normal(
                (2, chunk, 2 ** bits, m))
            books = normalized(parts)
        else:  # one shared codebook, passed as itself
            stream = RngStream(97, trial=c, purpose=3)
            parts = stream.generator().standard_normal((2, 2 ** bits, m))
            books = generate_codebook(stream, bits, m).vectors
            assert books.tobytes() == normalized(parts).tobytes()
        fast, fast_fault = quantize_stack(channels, (parts[0], parts[1]))
        slow, slow_fault = quantize_stack(channels, books)
        metric = complex_metric(channels, books)
        assert np.array_equal(fast.index, np.argmax(metric, axis=-1))
        assert np.array_equal(fast.index, slow.index)
        assert fast.q_hat.tobytes() == slow.q_hat.tobytes()
        assert np.allclose(fast.cos_sq, slow.cos_sq, rtol=0, atol=1e-14)
        assert np.allclose(fast.cos_sq, metric.max(axis=-1), rtol=0, atol=1e-14)
        assert np.array_equal(fast_fault, slow_fault) and not fast_fault.any()


def test_stack_parts_ignore_row_scale():
    gen = RngStream(101).generator()
    channels = complex_normal(gen, (20_000, 4, 2))
    re, im = gen.standard_normal((2, 20_000, 16, 4))
    r, _ = quantize_stack(channels, (re, im))
    # powers of two scale exactly, so q_hat keeps every byte
    exact = np.ldexp(1.0, gen.integers(-30, 30, size=(20_000, 16, 1)))
    scaled, _ = quantize_stack(channels, (re * exact, im * exact))
    assert np.array_equal(scaled.index, r.index)
    assert scaled.q_hat.tobytes() == r.q_hat.tobytes()
    scale = gen.uniform(0.01, 100.0, size=(20_000, 16, 1))
    scaled, _ = quantize_stack(channels, (re * scale, im * scale))
    assert np.array_equal(scaled.index, r.index)
    assert np.allclose(scaled.q_hat, r.q_hat, rtol=0, atol=1e-15)


# ------------------------------------------------- quantize_antenna_selection


def test_antenna_selection_hand_case():
    h = np.array([[1.0, 0.0], [0.0, 2.0]], dtype=complex)
    cb0 = book([[0.0, 1.0], [0.0, 1.0]])  # antenna 0 sees only orthogonal entries
    cb1 = book([[0.0, 1.0], [1.0, 0.0]])  # antenna 1 has a perfect entry first
    r = quantize_antenna_selection(h, [cb0, cb1])
    assert r.cos_sq == pytest.approx(1.0, abs=1e-12)
    assert r.index == 0  # index within the winning antenna's codebook
    assert np.allclose(r.gamma, [0.0, 1.0])
    assert np.allclose(r.h_eff, h[:, 1])
    assert r.eff_norm_sq == pytest.approx(4.0, abs=1e-12)


def test_antenna_selection_tie_takes_lowest_antenna():
    h = np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex)
    cb = book([[1.0, 0.0], [0.0, 1.0]])
    r = quantize_antenna_selection(h, [cb, cb])
    assert np.allclose(r.gamma, [1.0, 0.0])


def test_antenna_selection_matches_per_column_best():
    gen = RngStream(67).generator()
    for t in range(20):
        h = complex_normal(gen, (4, 3))
        cbs = [generate_codebook(RngStream(71, trial=t, user=k), 3, 4) for k in range(3)]
        r = quantize_antenna_selection(h, cbs)
        singles = [quantize_single(h[:, k], cbs[k]) for k in range(3)]
        best_k = int(np.argmax([s.cos_sq for s in singles]))
        assert r.cos_sq == singles[best_k].cos_sq
        assert np.allclose(r.h_eff, h[:, best_k])
        assert r.eff_norm_sq == pytest.approx(np.linalg.norm(h[:, best_k]) ** 2, rel=1e-12)


def test_antenna_selection_needs_one_codebook_per_antenna():
    cb = generate_codebook(RngStream(1), 2, 4)
    with pytest.raises(ValueError):
        quantize_antenna_selection(np.ones((4, 2), dtype=complex), [cb])


# ----------------------------------------------- quantization error of a vector
# A unit vector's quantization error is the sin^2 quantize_stack reports for
# it as a one-row codebook.


def test_error_of_in_span_and_orthogonal_vectors():
    h = np.eye(4, dtype=complex)[:, :2]  # span of e1, e2
    rows = np.array([[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 3.0], [1.0, 0.0, 1.0, 0.0]])
    books = (rows / np.linalg.norm(rows, axis=1, keepdims=True))[:, None, :]
    r, fault = quantize_stack(np.stack([h] * 3), books)
    assert r.sin_sq == pytest.approx([0.0, 1.0, 0.5], abs=1e-14)
    assert list(fault) == [0, FAULT_ORTHOGONAL, 0]  # nothing in the span to orient by
