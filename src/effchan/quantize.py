"""Random codebooks and the subspace quantizer.

``quantize_stack`` quantizes the column span of a stack of channels in two
stages: ``_select`` picks the codebook vector closest to each span, and
``_orient`` reports its projection onto the span as the direction and computes
a receive combining vector whose scalar effective channel points exactly along
that in-span shadow.  Single-vector quantization and per-antenna selection are
the same kernel run on one-column channels.  ``_select_drawn`` runs ``_select``
on random codebooks as it draws them, for validation.

``_select`` scores one Q for several widths at once: a width n quantizes the
span of Q's first n columns, which is the span of H's first n columns when
H = QR.  So a sweep whose N are column prefixes of one channel factors it
once and scans each codebook once for every N.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    RANK_TOL,
    DegenerateChannelError,
    RngStream,
    complex_from_parts,
    is_stream_id,
    slice_items,
)

# Refuse codebooks that would not fit in memory; 2^24 vectors is already
# ~2 GiB at M = 8.
MAX_CODEBOOK_BITS = 24

# Per-channel fault codes of quantize_stack (0: valid), with the error
# raise_fault raises for each.
FAULT_RANK, FAULT_ORTHOGONAL, FAULT_COMBINER = 1, 2, 3
_FAULT_ERRORS = {
    FAULT_RANK: (DegenerateChannelError, "channel is numerically rank deficient"),
    FAULT_ORTHOGONAL: (ValueError, "codebook vector orthogonal to the channel span; cannot orient"),
    FAULT_COMBINER: (DegenerateChannelError, "combiner breaks |H gamma|^2 = 1/|v|^2"),
}


@dataclass(frozen=True)
class QuantizationResult:
    """Outcome of quantizing a stack of channels, one entry per channel.

    Every field is an array with the stack's leading axes in front; a single
    (M, N) channel gives 0-d arrays and unstacked vectors.

    Attributes
    ----------
    index : np.ndarray
        Selected codebook row of each channel (lowest index on ties).
    q_hat : np.ndarray
        The selected unit-norm codebook vectors (..., M).
    cos_sq : np.ndarray
        Squared cosine of the angle between q_hat and the channel's column
        span; in [0, 1].  The quantization error is 1 - cos_sq.
    s_proj : np.ndarray
        Unit vectors (..., M) in the channel span closest to q_hat.
    gamma : np.ndarray
        Unit-norm receive combining weights (..., N).
    h_eff : np.ndarray
        Effective channels seen after combining, H @ gamma (..., M).
    eff_norm_sq : np.ndarray
        Squared norms of h_eff.
    """

    index: np.ndarray
    q_hat: np.ndarray
    cos_sq: np.ndarray
    s_proj: np.ndarray
    gamma: np.ndarray
    h_eff: np.ndarray
    eff_norm_sq: np.ndarray


def check_bits(bits, name: str = "bits") -> None:
    """Refuse a codebook size that is not an integer in [1, MAX_CODEBOOK_BITS] bits."""
    if not is_stream_id(bits) or not 1 <= bits <= MAX_CODEBOOK_BITS:
        raise ValueError(f"{name} must be an integer in [1, {MAX_CODEBOOK_BITS}], got {bits!r}")


def generate_codebook(stream: RngStream, bits: int, dim: int) -> np.ndarray:
    """Draw a fresh random codebook: 2**bits isotropic unit rows in C^dim, (2^B, dim)."""
    check_bits(bits)
    if dim < 2:
        raise ValueError(f"dim must be >= 2, got {dim}")
    return _unit_rows(stream.generator().standard_normal((2, 2 ** bits, dim)))


def _unit_rows(parts: np.ndarray) -> np.ndarray:
    """Unit-norm complex rows (..., M) from standard-normal parts (2, ..., M)."""
    rows = complex_from_parts(parts)
    return rows / np.linalg.norm(rows, axis=-1, keepdims=True)


def quantize_stack(channels: np.ndarray, books) -> tuple[QuantizationResult, np.ndarray]:
    """Subspace quantization of a stack of (M, N) channels, one codebook each.

    channels is (..., M, N); books is a complex codebook (..., 2^B, M) with
    unit-norm rows, whose leading axes broadcast against the channels' (a shared
    codebook is passed once, not tiled).  Returns _orient(_select(...)) on H = QR:
    the result (fields stacked) and a fault code per channel, faulty entries
    holding finite placeholders.  Raises ValueError unless the channels are
    M x N, 1 <= N <= M, for the books' M.
    """
    m = books.shape[-1]
    if channels.ndim < 2 or channels.shape[-2] != m or not 1 <= channels.shape[-1] <= m:
        raise ValueError(f"expected (..., {m}, N) channels with 1 <= N <= {m}, "
                         f"got shape {channels.shape}")
    q, r = np.linalg.qr(channels)  # reduced: (..., M, N), orthonormal columns
    [picks] = _select(q, books, (channels.shape[-1],))
    return _orient(channels, q, r, *picks)


def _select(q: np.ndarray, books, widths) -> list:
    """Score every codebook row against the span of Q's first n columns, for each n
    of ``widths``; returns one (index, q_hat, cos_sq) per width.

    books is a complex codebook, or the pair (re, im) of real standard normals a
    random codebook is drawn from.  Rows are scored from their real parts by
    |<w, span(Q_n)>|^2 / ||w||^2, which ignores their scale, and only the winning
    row q_hat is formed (as generate_codebook forms it).  The overlap with all of
    Q is computed once; a narrower width scores a contiguous copy of its columns,
    so every width's picks are byte for byte those of a call on Q[..., :n] alone.
    Entries are scored apart, so a stack may be sliced.
    """
    parts = isinstance(books, tuple)
    re, im = books if parts else (books.real, books.imag)
    width = q.shape[-1]
    # [Re | Im] of conj(<w_j, q_k>): books @ q.conj() in its real embedding
    overlap = re @ np.concatenate([q.real, -q.imag], axis=-1)
    overlap += im @ np.concatenate([q.imag, q.real], axis=-1)
    norm_sq = np.einsum("...jm,...jm->...j", re, re) + np.einsum("...jm,...jm->...j", im, im)
    picks = []
    for n in widths:
        # a fancy-indexed gather would not be contiguous, and would round differently
        own = overlap if n == width else np.concatenate(
            [overlap[..., :n], overlap[..., width:width + n]], axis=-1)
        metric = np.einsum("...jk,...jk->...j", own, own) / norm_sq
        index = np.argmax(metric, axis=-1)  # lowest index on ties
        cos_sq = np.clip(metric.max(axis=-1), 0.0, 1.0)
        rows = (*np.indices(index.shape, sparse=True), index)

        def winner(book):  # row index of a book broadcast to the stack's leading shape
            return np.broadcast_to(book, index.shape + book.shape[-2:])[rows]
        q_hat = _unit_rows(np.stack([winner(re), winner(im)])) if parts else winner(books)
        picks.append((index, q_hat, cos_sq))
    return picks


def _select_drawn(gen: np.random.Generator, q: np.ndarray, bits: int, widths,
                  picks: list) -> None:
    """_select on a random codebook per entry of the (k, *lead, M, N) stack ``q``.

    Each entry's codebook is a (2, 2^B, M) run of ``gen``'s normals, in entry
    order, as generate_codebook draws it.  A SLICE_BYTES slice of k is drawn,
    scored for every width into its ``picks`` (index, q_hat, cos_sq) arrays,
    and dropped before the next.
    """
    k, *lead, m, _ = q.shape
    step = slice_items(int(np.prod(lead)) * 2 ** bits * m * 16)
    for lo in range(0, k, step):
        normals = gen.standard_normal((min(step, k - lo), *lead, 2, 2 ** bits, m))
        books, part = (normals[..., 0, :, :], normals[..., 1, :, :]), slice(lo, lo + len(normals))
        for (index, q_hat, cos_sq), pick in zip(picks, _select(q[part], books, widths)):
            index[part], q_hat[part], cos_sq[part] = pick
        del normals, books  # a chunk or block holds one slice at a time


def _scan_bytes(m: int, n: int, drawn: bool) -> int:
    """Bytes a codeword holds while ``_select`` scores it against an (M, N) Q: its
    normals if ``drawn`` (16 M), ``overlap`` twice (32 N, for the ``+=``) and the metric (8).
    A narrower width's copy of its overlap columns, its metric and the rows' squared
    norms fit in the second ``overlap``."""
    return 16 * m * drawn + 32 * n + 8


def _orient(channels, q, r, index, q_hat, cos_sq) -> tuple[QuantizationResult, np.ndarray]:
    """Orient each channel H = QR by its pick q_hat; returns quantize_stack's pair.

    With c = Q^H q_hat, the in-span direction is s_proj = Q c / ||c||, and
    H v = s_proj is the triangular system R v = c / ||c||, solved exactly (no
    normal equations, whose squared condition number would turn a full-rank
    channel singular).  The combiner gamma = v / ||v|| makes H gamma a
    positive multiple of s_proj with squared norm 1 / ||v||^2.
    """
    rank_loss = (np.abs(np.diagonal(r, axis1=-2, axis2=-1)) < RANK_TOL).any(axis=-1)
    coords = np.einsum("...mk,...m->...k", q.conj(), q_hat)
    coords_norm = np.linalg.norm(coords, axis=-1)
    orthogonal = coords_norm < RANK_TOL  # no direction left to orient by
    unusable = (rank_loss | orthogonal)[..., None]
    eye = np.eye(r.shape[-1])
    coords = np.where(unusable, eye[0], coords / np.where(unusable, 1.0, coords_norm[..., None]))
    s_proj = np.einsum("...mk,...k->...m", q, coords)
    # a rank-deficient channel is solved on I, so that it cannot make the
    # whole stack's solve singular (the trailing axis keeps solve stacked)
    r = np.where(rank_loss[..., None, None], eye, r)
    v = np.linalg.solve(r, coords[..., None])[..., 0]
    v_norm_sq = np.einsum("...i,...i->...", v, v.conj()).real
    gamma = v / np.sqrt(v_norm_sq)[..., None]
    h_eff = np.einsum("...mi,...i->...m", channels, gamma)
    eff_norm_sq = 1.0 / v_norm_sq
    identity_err = np.abs(eff_norm_sq - np.einsum("...m,...m->...", h_eff, h_eff.conj()).real)
    fault = np.select(
        [rank_loss, orthogonal, identity_err > 1e-8 * np.maximum(1.0, eff_norm_sq)],
        [FAULT_RANK, FAULT_ORTHOGONAL, FAULT_COMBINER], 0)
    return QuantizationResult(index=index, q_hat=q_hat, cos_sq=cos_sq, s_proj=s_proj,
                              gamma=gamma, h_eff=h_eff, eff_norm_sq=eff_norm_sq), fault


def raise_fault(fault: np.ndarray) -> None:
    """Raise the error of the first faulty entry of a quantize_stack fault array."""
    bad = np.flatnonzero(fault)
    if bad.size:
        error, message = _FAULT_ERRORS[int(np.ravel(fault)[bad[0]])]
        raise error(f"{message} ({bad.size} of {np.size(fault)} channels)")

