import math
from types import SimpleNamespace

import numpy as np
import pytest

import effchan.linalg as linalg
from effchan.linalg import DegenerateChannelError, RngStream, complex_from_parts
from effchan.quantize import (
    FAULT_ORTHOGONAL,
    FAULT_RANK,
    QuantizationResult,
    _orient,
    _select,
    _select_drawn,
    generate_codebook,
    quantize_stack,
    raise_fault,
)
from oracles import Replay, complex_normal, quantize_parts, span_metric, vector_oracle


def book(rows):
    """A codebook (2^B, M) from explicit unit rows."""
    return np.asarray(rows, dtype=np.complex128)


def unit(v):
    v = np.asarray(v, dtype=np.complex128)
    return v / np.linalg.norm(v)


def basis(k, dim):
    e = np.zeros(dim, dtype=complex)
    e[k] = 1.0
    return e


def select_antenna(h, books):
    """Antenna selection on the kernel: column k of h (M, N) is a one-column
    channel against books[k]; returns the per-column results, their faults and
    the column of largest cos^2 (lowest on ties)."""
    r, fault = quantize_stack(np.swapaxes(h, -1, -2)[..., None], books)
    return r, fault, int(np.argmax(r.cos_sq))


# ---------------------------------------------------------- codebook drawing


def test_generate_codebook_shape_and_norms():
    cb = generate_codebook(RngStream(5), bits=4, dim=3)
    assert cb.shape == (16, 3) and cb.dtype == np.complex128
    assert np.allclose(np.linalg.norm(cb, axis=1), 1.0, atol=1e-12)


def test_generate_codebook_deterministic_per_stream():
    a = generate_codebook(RngStream(5, trial=1), 3, 4)
    b = generate_codebook(RngStream(5, trial=1), 3, 4)
    c = generate_codebook(RngStream(5, trial=2), 3, 4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_generate_codebook_guards():
    with pytest.raises(ValueError):
        generate_codebook(RngStream(1), 0, 4)
    with pytest.raises(ValueError):
        generate_codebook(RngStream(1), 25, 4)
    with pytest.raises(ValueError):
        generate_codebook(RngStream(1), 2, 1)


# ------------------------------------------- one channel vector (N = 1)
# A channel vector is a one-column channel with no leading axes.


def test_single_hand_case():
    cb = book([[1.0, 0.0], [0.0, 1.0]])
    h = np.array([0.6, 0.8j])
    r, fault = quantize_stack(h[:, None], cb)
    assert fault == 0
    assert r.index == 1
    assert r.cos_sq == pytest.approx(0.64, abs=1e-12)
    assert (1 - r.cos_sq) == pytest.approx(0.36, abs=1e-12)
    # reported in-span direction lies on the h line
    assert abs(abs(np.vdot(unit(h), r.s_proj)) - 1.0) < 1e-12
    assert r.eff_norm_sq == pytest.approx(1.0, abs=1e-12)
    # one receive antenna: the combiner is a unit phase that h_eff carries
    assert r.gamma.shape == (1,) and abs(abs(r.gamma[0]) - 1.0) < 1e-12
    assert np.allclose(r.h_eff, h * r.gamma[0], rtol=0, atol=1e-15)


def test_single_planted_codeword_is_exact():
    gen = RngStream(17).generator()
    for _ in range(10):
        h = complex_normal(gen, 4)
        rows = complex_normal(gen, (4, 4))
        rows[2] = h  # plant the true direction
        cb = book(rows / np.linalg.norm(rows, axis=1, keepdims=True))
        r, _ = quantize_stack(h[:, None], cb)
        assert r.index == 2
        assert r.cos_sq == pytest.approx(1.0, abs=1e-10)


def test_single_tie_takes_lowest_index():
    cb = book([[1.0, 0.0], [0.0, 1.0]])
    r, _ = quantize_stack(np.array([[1.0], [1.0]]) / np.sqrt(2), cb)
    assert r.index == 0


def test_single_scale_invariant_selection():
    cb = generate_codebook(RngStream(23), 4, 3)
    gen = RngStream(29).generator()
    for _ in range(20):
        h = complex_normal(gen, 3)
        base, _ = quantize_stack(h[:, None], cb)
        scaled, _ = quantize_stack(h[:, None] * (2.0 - 1.5j), cb)
        assert scaled.index == base.index
        assert scaled.cos_sq == pytest.approx(base.cos_sq, abs=1e-12)


def test_single_rejects_bad_input():
    cb = generate_codebook(RngStream(1), 2, 3)
    _, fault = quantize_stack(np.zeros((3, 1), dtype=complex), cb)
    assert fault == FAULT_RANK  # a zero channel is a fault of its entry, not a raise
    with pytest.raises(ValueError):
        raise_fault(fault)
    with pytest.raises(ValueError, match=r"got shape \(4, 1\)"):
        quantize_stack(np.ones((4, 1), dtype=complex), cb)


# ------------------------------------------------------ one M x N channel
# One channel is a call with no leading axes; raise_fault turns its fault
# code into the error.


def test_effective_identities_random():
    for t in range(50):
        gen = RngStream(31, trial=t).generator()
        h = complex_normal(gen, (4, 2))
        cb = generate_codebook(RngStream(31, trial=t, purpose=1), 4, 4)
        r, fault = quantize_stack(h, cb)
        assert fault == 0

        metric = span_metric(h, cb)
        assert r.index == int(np.argmax(metric))
        assert r.cos_sq == pytest.approx(metric[r.index], abs=1e-10)
        proj = h @ np.linalg.lstsq(h, r.q_hat, rcond=None)[0]  # q_hat's shadow on span(H)
        assert (1 - r.cos_sq) == pytest.approx(1.0 - np.linalg.norm(proj) ** 2, abs=1e-10)

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
    r, fault = quantize_stack(h, book([[0, 0, 1], [s, 0, s], [0, 1, 0], [0, 0, 1]]))
    assert fault == 0
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
        r, fault = quantize_stack(h, book(rows))
        assert fault == 0
        assert r.index == 5
        assert (1 - r.cos_sq) < 1e-12
        # with no quantization error the reported direction is the codeword
        assert abs(np.vdot(r.s_proj, target) - 1.0) < 1e-8


def test_effective_single_column_matches_vector_quantizer():
    gen = RngStream(41).generator()
    cb = generate_codebook(RngStream(43), 5, 4)
    for _ in range(20):
        h = complex_normal(gen, 4)
        single = vector_oracle(h, cb)
        eff, fault = quantize_stack(h[:, None], cb)
        assert fault == 0
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
        r, fault = quantize_stack(h, cb)
        assert fault == 0
        # the span is all of C^M, so every codeword fits perfectly
        assert (1 - r.cos_sq) < 1e-10
        assert abs(np.vdot(r.s_proj, r.q_hat) - 1.0) < 1e-8


def test_effective_more_bits_never_hurt():
    # nested codebooks: the small one is a prefix of the large one
    big = generate_codebook(RngStream(59), 6, 4)
    small = big[:32]
    gen = RngStream(61).generator()
    for _ in range(30):
        h = complex_normal(gen, (4, 2))
        (r_big, f_big), (r_small, f_small) = quantize_stack(h, big), quantize_stack(h, small)
        assert f_big == 0 and f_small == 0
        assert r_big.cos_sq >= r_small.cos_sq


def test_effective_rejects_bad_input():
    cb = generate_codebook(RngStream(1), 2, 4)
    with pytest.raises(ValueError, match=r"\(\.\.\., 4, N\) channels .* got shape \(3, 2\)"):
        quantize_stack(np.ones((3, 2), dtype=complex), cb)  # dim mismatch
    col = complex_normal(RngStream(2).generator(), (4, 1))
    with pytest.raises(DegenerateChannelError):
        raise_fault(quantize_stack(np.concatenate([col, col], axis=1), cb)[1])
    with pytest.raises(ValueError, match=r"1 <= N <= 2, got shape \(2, 3\)"):
        quantize_stack(np.ones((2, 3), dtype=complex),
                       generate_codebook(RngStream(1), 2, 2))  # wider than tall


def test_effective_rejects_codeword_orthogonal_to_span():
    h = np.eye(3, dtype=complex)[:, :2]
    with pytest.raises(ValueError, match="orthogonal"):
        raise_fault(quantize_stack(h, book([[0, 0, 1], [0, 0, 1]]))[1])


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
            one, one_fault = quantize_stack(channels[t, u], books[t, u])
            assert one_fault == 0
            assert r.index[t, u] == one.index
            assert r.cos_sq[t, u] == pytest.approx(one.cos_sq, rel=1e-13)
            assert r.eff_norm_sq[t, u] == pytest.approx(one.eff_norm_sq, rel=1e-13)
            assert np.allclose(r.h_eff[t, u], one.h_eff, rtol=0, atol=1e-13)


def test_stack_broadcasts_a_shared_codebook():
    gen = RngStream(83).generator()
    channels = complex_normal(gen, (6, 3, 4, 2))
    books = np.stack([generate_codebook(RngStream(83, user=u), 3, 4) for u in range(3)])
    shared, _ = quantize_stack(channels, books[None])
    tiled, _ = quantize_stack(channels, np.broadcast_to(books, (6, 3, 8, 4)).copy())
    assert np.array_equal(shared.index, tiled.index)
    assert np.allclose(shared.eff_norm_sq, tiled.eff_norm_sq, rtol=1e-14, atol=0)


def test_stack_faults_are_per_channel():
    gen = RngStream(89).generator()
    good = complex_normal(gen, (4, 2))
    col = complex_normal(gen, (4, 1))
    channels = np.stack([good, np.concatenate([col, col], axis=1), np.eye(4, dtype=complex)[:, :2]])
    books = np.stack([generate_codebook(RngStream(89), 2, 4)] * 2
                     + [np.tile(np.eye(4, dtype=complex)[3], (4, 1))])
    r, fault = quantize_stack(channels, books)
    assert list(fault) == [0, FAULT_RANK, FAULT_ORTHOGONAL]
    one, _ = quantize_stack(good, books[0])
    assert r.eff_norm_sq[0] == pytest.approx(one.eff_norm_sq, rel=1e-13)
    assert np.all(np.isfinite(r.h_eff)) and np.all(np.isfinite(r.eff_norm_sq))


def test_stack_solves_full_rank_channels_whose_gram_matrix_is_singular():
    # second QR pivot eps is above RANK_TOL, but eps^2 is lost next to 1 in
    # H^H H; the combiner is solved on R, whose condition is only ~1/eps
    eps = (1e-8, 1e-10, 1e-11)
    channels = np.zeros((3, 4, 2), dtype=complex)
    channels[:, 0] = 1.0
    channels[:, 1, 1] = eps
    cb = generate_codebook(RngStream(97), 3, 4)
    r, fault = quantize_stack(channels, cb)
    assert list(fault) == [0, 0, 0]
    h_eff = np.einsum("tmi,ti->tm", channels, r.gamma)
    gain = np.linalg.norm(h_eff, axis=-1) ** 2
    assert np.all(np.abs(gain - r.eff_norm_sq) <= 1e-8 * np.maximum(1.0, r.eff_norm_sq))
    # H gamma is a positive multiple of s_proj; forming H gamma cancels, so
    # its part off s_proj is bounded absolutely, about eps ||H|| ||gamma||
    along = np.einsum("tm,tm->t", r.s_proj.conj(), h_eff)
    assert np.allclose(along.real, np.sqrt(gain), rtol=1e-6, atol=0)
    assert np.linalg.norm(h_eff - along[:, None] * r.s_proj, axis=-1).max() < 1e-14
    for t in range(3):
        one, one_fault = quantize_stack(channels[t], cb)
        assert one_fault == 0 and one.index == r.index[t]


# ----------------------------------------------- span basis of quantize_stack
# The span basis is the batched QR inside quantize_stack; these tests reach
# it through the quantizer's outputs.


def test_stack_identity_passthrough():
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


def test_stack_orthonormal_and_span_preserving():
    channels = np.stack([complex_normal(RngStream(11, trial=t).generator(), (4, 2))
                         for t in range(20)])
    # every input column, as a codeword, lies wholly inside the basis' span
    cols = np.swapaxes(channels, -1, -2)
    cols = cols / np.linalg.norm(cols, axis=-1, keepdims=True)
    for k in range(2):
        r, fault = quantize_stack(channels, cols[:, k:k + 1, :])
        assert not fault.any()
        assert np.abs(1 - r.cos_sq).max() < 1e-10
        assert np.abs(r.s_proj - cols[:, k]).max() < 1e-10
    # a codeword off the span: the metric is its squared projection onto the
    # span of the inputs, so the basis is orthonormal and spans the inputs
    w = complex_normal(RngStream(11, purpose=1).generator(), (20, 1, 4))
    w = w / np.linalg.norm(w, axis=-1, keepdims=True)
    r, _ = quantize_stack(channels, w)
    for t in range(20):
        proj = channels[t] @ np.linalg.lstsq(channels[t], w[t, 0], rcond=None)[0]
        assert r.cos_sq[t] == pytest.approx(np.linalg.norm(proj) ** 2, abs=1e-10)


def test_stack_rejects_rank_deficiency():
    col = complex_normal(RngStream(3).generator(), (4, 1))
    deficient = np.concatenate([col, col], axis=1)
    book = np.eye(4, dtype=complex)
    with pytest.raises(DegenerateChannelError):
        raise_fault(quantize_stack(deficient, book)[1])
    _, fault = quantize_stack(np.stack([np.eye(4, dtype=complex)[:, :2], deficient]), book)
    assert list(fault) == [0, FAULT_RANK]


def test_stack_rejects_wide_matrix():
    with pytest.raises(ValueError, match=r"1 <= N <= 2, got shape \(2, 3\)"):
        quantize_stack(np.ones((2, 3), dtype=complex), np.eye(2, dtype=complex))


# ------------------------------------------- the kernel on codebook normals
# The kernel's stages score a codebook given as its (re, im) standard normals
# without forming it; the oracle forms and normalizes every row, as
# generate_codebook does, and scores the rows by complex products.


def normalized(parts):
    """The complex codebook of standard-normal parts, every row normalized."""
    rows = complex_from_parts(parts.copy())
    return rows / np.linalg.norm(rows, axis=-1, keepdims=True)


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
            books = generate_codebook(stream, bits, m)
            assert books.tobytes() == normalized(parts).tobytes()
        fast, fast_fault = quantize_parts(channels, parts[0], parts[1])
        slow, slow_fault = quantize_stack(channels, books)
        metric = span_metric(channels, books)
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
    r, _ = quantize_parts(channels, re, im)
    # powers of two scale exactly, so q_hat keeps every byte
    exact = np.ldexp(1.0, gen.integers(-30, 30, size=(20_000, 16, 1)))
    scaled, _ = quantize_parts(channels, re * exact, im * exact)
    assert np.array_equal(scaled.index, r.index)
    assert scaled.q_hat.tobytes() == r.q_hat.tobytes()
    scale = gen.uniform(0.01, 100.0, size=(20_000, 16, 1))
    scaled, _ = quantize_parts(channels, re * scale, im * scale)
    assert np.array_equal(scaled.index, r.index)
    assert np.allclose(scaled.q_hat, r.q_hat, rtol=0, atol=1e-15)


# ------------------------------------------------------------ kernel stages
# quantize_stack is one QR, then _select (the span metric and the winning
# row), then _orient (the combiner); the sweep runs _select on each codebook
# slice's rows of the chunk's Q, or on the whole chunk against fixed codebooks,
# and _orient once on the whole chunk.  Drawn codebooks reach _select as their
# normal parts, which quantize_stack does not take: their stages are checked
# against quantize_stack on the unit rows the parts form.


def planted_stack(leading):
    """Channels (6, 2, 4, 2), entry [1, 0] rank deficient and entry [3, 1]
    orthogonal to all its codewords, and the normal parts (2, *leading, 2, 8,
    4) of their codebooks, user 1's rows in span(e3, e4)."""
    gen = RngStream(103).generator()
    channels = complex_normal(gen, (6, 2, 4, 2))
    channels[1, 0, :, 1] = channels[1, 0, :, 0]
    channels[3, 1] = np.eye(4)[:, :2] @ complex_normal(gen, (2, 2))  # spans e1, e2
    parts = gen.standard_normal((2, *leading, 2, 8, 4))
    parts[..., 1, :, :2] = 0.0
    return channels, parts


def stage_books(kind, parts):
    """The codebooks _select takes: the (re, im) parts, or their unit rows."""
    return (parts[0], parts[1]) if kind == "parts" else normalized(parts)


@pytest.mark.parametrize("kind", ["complex", "parts", "shared"])
def test_stack_is_select_then_orient(kind):
    channels, parts = planted_stack((1,) if kind == "shared" else (6,))
    books = stage_books(kind, parts)
    r, fault = quantize_stack(channels, normalized(parts))
    q, rr = np.linalg.qr(channels)
    [picks] = _select(q, books, (2,))
    staged, staged_fault = _orient(channels, q, rr, *picks)
    for name in QuantizationResult.__dataclass_fields__:
        if name == "cos_sq" and kind == "parts":  # scored on unnormalized rows
            assert np.allclose(staged.cos_sq, r.cos_sq, rtol=0, atol=1e-14)
        else:
            assert getattr(staged, name).tobytes() == getattr(r, name).tobytes(), name
    assert staged_fault.tobytes() == fault.tobytes()
    # the planted faults survive _orient, and only they fault
    assert (fault[1, 0], fault[3, 1], np.count_nonzero(fault)) == (
        FAULT_RANK, FAULT_ORTHOGONAL, 2)
    assert r.cos_sq[3, 1] == 0.0


@pytest.mark.parametrize("kind", ["complex", "parts", "shared"])
def test_select_of_row_slices_is_select_of_the_stack(kind):
    channels, parts = planted_stack((1,) if kind == "shared" else (6,))
    books = stage_books(kind, parts)
    q = np.linalg.qr(channels)[0]
    [whole] = _select(q, books, (2,))
    cuts = ((0, 2), (2, 5), (5, 6))
    if kind == "shared":
        sliced = [_select(q[lo:hi], books, (2,))[0] for lo, hi in cuts]
    elif kind == "parts":
        sliced = [_select(q[lo:hi], (books[0][lo:hi], books[1][lo:hi]), (2,))[0]
                  for lo, hi in cuts]
    else:
        sliced = [_select(q[lo:hi], books[lo:hi], (2,))[0] for lo, hi in cuts]
    for a, b in zip(whole, map(np.concatenate, zip(*sliced)), strict=True):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("lead, n_rx", [
    ((3,), (1, 2)),  # a sweep's (trials, users) stack, scored for two N
    ((), (2,)),  # a validation block's (samples,) stack
], ids=["sweep", "validation"])
def test_select_drawn_picks_rows_of_each_entrys_generated_codebook(monkeypatch, lead, n_rx):
    # 11 entries in slices of 4, the last of 3: each entry's codebook is one
    # (2, 2^B, M) run of the stream, in entry order, scored for every width
    m, bits, k = 4, 3, 11
    monkeypatch.setattr(linalg, "SLICE_BYTES", 4 * math.prod(lead) * 2**bits * m * 16)
    channels = complex_normal(RngStream(107).generator(), (k, *lead, m, max(n_rx)))
    q = np.linalg.qr(channels)[0]
    picks = [(np.empty((k, *lead), np.intp), np.empty((k, *lead, m), complex),
              np.empty((k, *lead))) for _ in n_rx]
    gen, shapes = RngStream(109).generator(), []

    def standard_normal(shape):
        shapes.append(shape)
        return gen.standard_normal(shape)

    _select_drawn(SimpleNamespace(standard_normal=standard_normal), q, bits, n_rx, picks)
    assert [shape[0] for shape in shapes] == [4, 4, 3]
    normals = RngStream(109).generator().standard_normal((k, *lead, 2, 2**bits, m))
    for n, (index, q_hat, cos_sq) in zip(n_rx, picks, strict=True):
        for entry in np.ndindex(k, *lead):
            book = generate_codebook(Replay(normals[entry]), bits, m)
            metric = span_metric(channels[entry][:, :n], book)
            assert index[entry] == np.argmax(metric)
            assert q_hat[entry].tobytes() == book[index[entry]].tobytes()
            assert cos_sq[entry] == pytest.approx(metric.max(), rel=0, abs=1e-14)


def test_select_drawn_holds_one_slice_at_a_time(monkeypatch, traced_peak):
    # M = 8, N = 1, one entry a slice: a slice's normals (128 KiB) outweigh
    # _select's temporaries, so a slice still held while the next is drawn
    # would raise the peak of eight slices well above that of one
    m, bits, k = 8, 10, 8
    monkeypatch.setattr(linalg, "SLICE_BYTES", 2**bits * m * 16)
    q = np.linalg.qr(complex_normal(RngStream(113).generator(), (k, m, 1)))[0]
    picks = [(np.empty(k, np.intp), np.empty((k, m), complex), np.empty(k))]

    def run(entries):
        _select_drawn(RngStream(127).generator(), q[:entries], bits, (1,),
                      [[pick[:entries] for pick in picks[0]]])

    run(k)  # numpy's one-time set-up
    assert traced_peak(run, k) <= 1.1 * traced_peak(run, 1)


# ------------------------------------------------- nested receive antennas
# A sweep draws each trial's channel max(n_rx) columns wide, and an N's channel is its first N
# columns, so one QR and one _select pass serve every N.  Both facts below are
# bitwise: a BLAS or numpy that broke either fails here, by name, rather than
# as a disagreement between a sweep's grid and its one-N cells.


@pytest.mark.parametrize("m", [3, 4, 6, 8])
def test_qr_of_a_column_prefix_is_the_prefix_of_the_qr(m):
    channels = complex_normal(RngStream(131, m).generator(), (64, 2, m, m))
    for width in range(1, m + 1):
        q, r = np.linalg.qr(channels[..., :width])
        for n in range(1, width + 1):
            q_n, r_n = np.linalg.qr(channels[..., :n])
            assert q_n.tobytes() == q[..., :n].tobytes(), (width, n)
            assert r_n.tobytes() == r[..., :n, :n].tobytes(), (width, n)


@pytest.mark.parametrize("kind", ["parts", "complex"])
@pytest.mark.parametrize("m", [3, 4, 8])
def test_select_of_several_widths_is_select_of_each_width(kind, m):
    # drawn normals per (trial, user), or complex codebooks shared by the
    # trials: each width's picks are those of a call on its columns alone
    gen = RngStream(137, m).generator()
    q = np.linalg.qr(complex_normal(gen, (16, 3, m, 3)))[0]
    parts = gen.standard_normal((2, 16, 3, 2 ** 6, m))
    books = (parts[0], parts[1]) if kind == "parts" else normalized(parts[:, 0])
    picks = _select(q, books, (1, 2, 3))
    for n, pick in zip((1, 2, 3), picks, strict=True):
        [alone] = _select(q[..., :n], books, (n,))
        for got, want in zip(pick, alone, strict=True):
            assert got.tobytes() == want.tobytes(), n


# --------------------------------------------------------- antenna selection
# Each receive antenna's column is a one-column channel against its own
# codebook, and the column of largest cos^2 wins.


def test_antenna_selection_hand_case():
    h = np.array([[1.0, 0.0], [0.0, 2.0]], dtype=complex)
    cb0 = book([[0.0, 1.0], [0.0, 1.0]])  # antenna 0 sees only orthogonal entries
    cb1 = book([[0.0, 1.0], [1.0, 0.0]])  # antenna 1 has a perfect entry first
    r, _, k = select_antenna(h, np.stack([cb0, cb1]))
    assert r.cos_sq[k] == pytest.approx(1.0, abs=1e-12)
    assert r.index[k] == 0  # index within the winning antenna's codebook
    assert k == 1  # antenna 1 wins
    assert np.allclose(r.h_eff[k], h[:, 1])
    assert r.eff_norm_sq[k] == pytest.approx(4.0, abs=1e-12)


def test_antenna_selection_tie_takes_lowest_antenna():
    h = np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex)
    cb = book([[1.0, 0.0], [0.0, 1.0]])
    _, _, k = select_antenna(h, np.stack([cb, cb]))
    assert k == 0


def test_antenna_selection_matches_per_column_best():
    gen = RngStream(67).generator()
    for t in range(20):
        h = complex_normal(gen, (4, 3))
        cbs = [generate_codebook(RngStream(71, trial=t, user=j), 3, 4) for j in range(3)]
        r, fault, k = select_antenna(h, np.stack(cbs))
        assert not fault.any()
        singles = [vector_oracle(h[:, j], cbs[j]) for j in range(3)]
        best_k = int(np.argmax([s.cos_sq for s in singles]))
        assert k == best_k
        assert r.cos_sq[k] == pytest.approx(singles[best_k].cos_sq, abs=1e-12)
        # the effective channel is the winning column, turned by a unit phase
        assert abs(abs(r.gamma[k, 0]) - 1.0) < 1e-12
        assert np.allclose(r.h_eff[k], h[:, best_k] * r.gamma[k, 0])
        assert r.eff_norm_sq[k] == pytest.approx(np.linalg.norm(h[:, best_k]) ** 2, rel=1e-12)


def test_antenna_selection_needs_one_codebook_per_antenna():
    # the codebooks' leading axis broadcasts against the antennas': one
    # codebook is shared by every antenna, but three cannot serve two
    cb = generate_codebook(RngStream(1), 2, 4)
    with pytest.raises(ValueError):
        select_antenna(np.ones((4, 2), dtype=complex), np.stack([cb] * 3))


# ----------------------------------------------- quantization error of a vector
# A unit vector's quantization error is the sin^2 quantize_stack reports for
# it as a one-row codebook.


def test_error_of_in_span_and_orthogonal_vectors():
    h = np.eye(4, dtype=complex)[:, :2]  # span of e1, e2
    rows = np.array([[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 3.0], [1.0, 0.0, 1.0, 0.0]])
    books = (rows / np.linalg.norm(rows, axis=1, keepdims=True))[:, None, :]
    r, fault = quantize_stack(np.stack([h] * 3), books)
    assert (1 - r.cos_sq) == pytest.approx([0.0, 1.0, 0.5], abs=1e-14)
    assert list(fault) == [0, FAULT_ORTHOGONAL, 0]  # nothing in the span to orient by
