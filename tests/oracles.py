"""Independent references that the tests check ``quantize_stack`` against.

Neither shares code with the kernel: both score codewords by complex inner
products, where the kernel uses the real embedding of the same products.
"""

import numpy as np

from effchan.quantize import QuantizationResult


def vector_oracle(h, vectors):
    """Quantize one channel vector h (M,) to the unit row of vectors (2^B, M)
    with the largest |<w, h>|^2, lowest index on ties.

    The N = 1 reference: the combiner is the scalar 1, so h_eff is h itself
    (the kernel may rotate it by a unit phase).
    """
    h = np.asarray(h, dtype=np.complex128)
    if h.ndim != 1 or h.shape[0] != vectors.shape[1]:
        raise ValueError(f"channel shape {h.shape} does not match codebook dim {vectors.shape[1]}")
    norm_sq = float(np.real(np.vdot(h, h)))
    if norm_sq <= 0.0:
        raise ValueError("cannot quantize a zero channel vector")
    dots = vectors.conj() @ h  # entry j = <w_j, h>
    metric = np.abs(dots) ** 2
    index = int(np.argmax(metric))  # argmax takes the lowest index on ties
    cos_sq = float(np.clip(metric[index] / norm_sq, 0.0, 1.0))
    q_hat = vectors[index]
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


def span_metric(channels, books):
    """|<w_j, span(H)>|^2 of unit rows, from the complex product books @ Q*.

    channels (..., M, N) and books (..., 2^B, M) broadcast as in quantize_stack;
    the result is (..., 2^B).
    """
    q = np.linalg.qr(channels)[0]
    return (np.abs(books @ q.conj()) ** 2).sum(axis=-1)
