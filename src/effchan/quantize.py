"""Codebook generation and channel-direction quantization.

Three quantizers share one result type:

* ``quantize_single``: classic single-vector quantization of one channel
  vector against a random codebook (squared-cosine metric).
* ``quantize_effective``: quantization of the channel *subspace*.  The
  codebook vector closest to the column span is chosen, its projection onto
  the span is the reported direction, and a receive combining vector is
  computed so that the resulting scalar effective channel points exactly
  along the chosen codebook vector's in-span shadow.  It is the one-channel
  view of the batched kernel ``quantize_stack``.
* ``quantize_antenna_selection``: per-receive-antenna single-vector
  quantization followed by selection of the best antenna.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .linalg import (
    RANK_TOL,
    DegenerateChannelError,
    RngStream,
    complex_from_parts,
    normal_solve,
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
class Codebook:
    """Random vector quantization codebook: 2**bits unit-norm rows of length dim."""

    vectors: np.ndarray
    bits: int

    def __post_init__(self):
        v = self.vectors
        if v.ndim != 2 or v.shape[0] != 2 ** self.bits:
            raise ValueError(f"codebook shape {v.shape} does not match bits={self.bits}")
        norms = np.linalg.norm(v, axis=1)
        if not np.allclose(norms, 1.0, atol=1e-9):
            raise ValueError("codebook rows must be unit norm")

    @property
    def size(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


@dataclass(frozen=True)
class QuantizationResult:
    """Outcome of quantizing one user's channel.

    ``quantize_stack`` returns the same fields for a stack of channels, each
    with the stack's leading axes in front.

    Attributes
    ----------
    index : int
        Selected codebook entry (lowest index on ties).
    q_hat : np.ndarray
        The selected unit-norm codebook vector (length M).
    cos_sq : float
        Squared cosine of the angle between q_hat and the channel direction
        or subspace; in [0, 1].
    sin_sq : float
        1 - cos_sq, the quantization error.
    s_proj : np.ndarray
        Unit vector in the channel span closest to q_hat (equals the channel
        direction itself for single-vector quantization).
    gamma : np.ndarray
        Unit-norm receive combining weights (length N).
    h_eff : np.ndarray
        Effective channel seen after combining, H @ gamma (length M).
    eff_norm_sq : float
        Squared norm of h_eff.
    """

    index: int
    q_hat: np.ndarray
    cos_sq: float
    sin_sq: float
    s_proj: np.ndarray
    gamma: np.ndarray
    h_eff: np.ndarray
    eff_norm_sq: float


def generate_codebook(stream: RngStream, bits: int, dim: int) -> Codebook:
    """Draw a fresh random codebook of 2**bits isotropic unit vectors in C^dim."""
    if not 1 <= bits <= MAX_CODEBOOK_BITS:
        raise ValueError(f"bits must be in [1, {MAX_CODEBOOK_BITS}], got {bits}")
    if dim < 2:
        raise ValueError(f"dim must be >= 2, got {dim}")
    return Codebook(_unit_rows(stream.generator().standard_normal((2, 2 ** bits, dim))), bits)


def _unit_rows(parts: np.ndarray) -> np.ndarray:
    """Unit-norm complex rows (..., M) from standard-normal parts (2, ..., M)."""
    rows = complex_from_parts(parts)
    return rows / np.linalg.norm(rows, axis=-1, keepdims=True)


def quantize_single(h: np.ndarray, codebook: Codebook) -> QuantizationResult:
    """Quantize one channel vector to the codebook entry of largest |<w, h>|^2."""
    h = np.asarray(h, dtype=np.complex128)
    if h.ndim != 1 or h.shape[0] != codebook.dim:
        raise ValueError(f"channel shape {h.shape} does not match codebook dim {codebook.dim}")
    norm_sq = float(np.real(np.vdot(h, h)))
    if norm_sq <= 0.0:
        raise ValueError("cannot quantize a zero channel vector")
    dots = codebook.vectors.conj() @ h  # entry j = <w_j, h>
    metric = np.abs(dots) ** 2
    index = int(np.argmax(metric))  # argmax takes the lowest index on ties
    cos_sq = float(np.clip(metric[index] / norm_sq, 0.0, 1.0))
    q_hat = codebook.vectors[index]
    # in-span shadow of q_hat; for a single vector the span is the h line
    coeff = np.vdot(h, q_hat) / norm_sq
    shadow = h * coeff
    shadow_norm = np.linalg.norm(shadow)
    if shadow_norm > 0.0:
        s_proj = shadow / shadow_norm
    else:
        s_proj = h / np.sqrt(norm_sq)  # q_hat orthogonal to h: direction is arbitrary
    return QuantizationResult(
        index=index,
        q_hat=q_hat,
        cos_sq=cos_sq,
        sin_sq=1.0 - cos_sq,
        s_proj=s_proj,
        gamma=np.ones(1, dtype=np.complex128),
        h_eff=h,
        eff_norm_sq=norm_sq,
    )


def quantize_stack(channels: np.ndarray, books) -> tuple[QuantizationResult, np.ndarray]:
    """Subspace quantization of a stack of (M, N) channels, one codebook each.

    channels is (..., M, N).  books is a complex codebook (..., 2^B, M) with
    unit-norm rows, or the pair (re, im) of real (..., 2^B, M) standard
    normals a random codebook is drawn from; its leading axes broadcast
    against the channels' (a shared codebook is passed once, not tiled).
    Rows are scored from their real parts by |<w, span(H)>|^2 / ||w||^2, which
    ignores their scale, and only the winning row q_hat is formed (as
    generate_codebook forms it).  Its projection onto span(H), normalized, is
    the in-span direction s_proj; H v = s_proj solved in the least-squares
    sense gives the combiner: H gamma is a positive multiple of s_proj with
    squared norm 1 / ||v||^2.  Returns the result (fields stacked) and a fault
    code per channel; faulty entries hold finite placeholders.
    """
    q, r = np.linalg.qr(channels)  # reduced: (..., M, N), orthonormal columns
    rank_loss = (np.abs(np.diagonal(r, axis1=-2, axis2=-1)) < RANK_TOL).any(axis=-1)
    parts = isinstance(books, tuple)
    re, im = books if parts else (books.real, books.imag)
    # [Re | Im] of conj(<w_j, q_k>): books @ q.conj() in its real embedding
    overlap = re @ np.concatenate([q.real, -q.imag], axis=-1)
    overlap += im @ np.concatenate([q.imag, q.real], axis=-1)
    metric = np.einsum("...jk,...jk->...j", overlap, overlap) / (
        np.einsum("...jm,...jm->...j", re, re) + np.einsum("...jm,...jm->...j", im, im))
    index = np.argmax(metric, axis=-1)  # lowest index on ties
    cos_sq = np.clip(np.take_along_axis(metric, index[..., None], axis=-1)[..., 0], 0.0, 1.0)

    def winner(book):  # row index of a book broadcast to the stack's leading shape
        book = np.broadcast_to(book, index.shape + book.shape[-2:])
        return np.take_along_axis(book, index[..., None, None], axis=-2)[..., 0, :]
    q_hat = _unit_rows(np.stack([winner(re), winner(im)])) if parts else winner(books)

    shadow = np.einsum("...mk,...k->...m", q, np.einsum("...mk,...m->...k", q.conj(), q_hat))
    shadow_norm = np.linalg.norm(shadow, axis=-1)
    orthogonal = shadow_norm < RANK_TOL  # no direction left to orient by
    unusable = (rank_loss | orthogonal)[..., None]
    s_proj = np.where(unusable, q[..., 0], shadow / np.where(unusable, 1.0, shadow_norm[..., None]))
    # a rank-deficient channel is solved on its unitary Q, so that it cannot
    # make the whole stack's solve singular
    h = np.where(rank_loss[..., None, None], q, channels)
    v = normal_solve(h, s_proj)
    v_norm_sq = np.einsum("...i,...i->...", v, v.conj()).real
    gamma = v / np.sqrt(v_norm_sq)[..., None]
    h_eff = np.einsum("...mi,...i->...m", h, gamma)
    eff_norm_sq = 1.0 / v_norm_sq
    identity_err = np.abs(eff_norm_sq - np.einsum("...m,...m->...", h_eff, h_eff.conj()).real)
    fault = np.select(
        [rank_loss, orthogonal, identity_err > 1e-8 * np.maximum(1.0, eff_norm_sq)],
        [FAULT_RANK, FAULT_ORTHOGONAL, FAULT_COMBINER], 0)
    return QuantizationResult(index=index, q_hat=q_hat, cos_sq=cos_sq, sin_sq=1.0 - cos_sq,
                              s_proj=s_proj, gamma=gamma, h_eff=h_eff,
                              eff_norm_sq=eff_norm_sq), fault


def raise_fault(fault: np.ndarray) -> None:
    """Raise the error of the first faulty entry of a quantize_stack fault array."""
    bad = np.flatnonzero(fault)
    if bad.size:
        error, message = _FAULT_ERRORS[int(np.ravel(fault)[bad[0]])]
        raise error(f"{message} ({bad.size} of {np.size(fault)} channels)")


def quantize_effective(h_matrix: np.ndarray, codebook: Codebook) -> QuantizationResult:
    """Quantize the column span of one M x N channel and derive the combiner.

    The one-channel view of ``quantize_stack``.  Raises
    DegenerateChannelError for a rank-deficient channel and ValueError when
    the chosen codeword is orthogonal to the span.
    """
    h = np.asarray(h_matrix, dtype=np.complex128)
    m = codebook.dim
    if h.ndim != 2 or h.shape[0] != m or not 1 <= h.shape[1] <= m:
        raise ValueError(f"expected an {m} x N channel matrix with 1 <= N <= {m}, "
                         f"got shape {h.shape}")
    r, fault = quantize_stack(h, codebook.vectors)
    raise_fault(fault)
    return replace(r, index=int(r.index))


def quantize_antenna_selection(h_matrix: np.ndarray,
                               codebooks: list[Codebook]) -> QuantizationResult:
    """Quantize each receive antenna's vector channel and keep the best one.

    Column k of the channel is quantized against codebooks[k]; the antenna
    with the largest squared cosine wins (lowest antenna index on ties).  The
    combiner is the corresponding standard basis vector, so the effective
    channel is the winning column itself.
    """
    h_matrix = np.asarray(h_matrix, dtype=np.complex128)
    if h_matrix.ndim != 2:
        raise ValueError(f"expected an M x N channel matrix, got shape {h_matrix.shape}")
    m, n = h_matrix.shape
    if len(codebooks) != n:
        raise ValueError(f"need one codebook per receive antenna ({n}), got {len(codebooks)}")
    best_k = -1
    best: QuantizationResult | None = None
    for k in range(n):
        cand = quantize_single(h_matrix[:, k], codebooks[k])
        if best is None or cand.cos_sq > best.cos_sq:
            best, best_k = cand, k
    gamma = np.zeros(n, dtype=np.complex128)
    gamma[best_k] = 1.0
    return QuantizationResult(
        index=best.index,
        q_hat=best.q_hat,
        cos_sq=best.cos_sq,
        sin_sq=best.sin_sq,
        s_proj=best.s_proj,
        gamma=gamma,
        h_eff=h_matrix[:, best_k],
        eff_norm_sq=best.eff_norm_sq,
    )
