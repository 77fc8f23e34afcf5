"""Zero-forcing beamforming, per-user SINR, and sum-rate evaluation.

Power convention: total transmit power P is split equally, P/M per user, and
the receiver noise is unit variance, so P is also the transmit SNR.  Rates
are in bits per channel use (log base 2).

``zero_force`` and ``sinr_stack`` work on stacks of (M, M) matrices,
leading axes first, column i serving user i (one matrix is a stack with no
leading axes).  A stack zero-forcing cannot invert reliably is reported
through ``refused`` instead of raising, so one bad fading block never stops
the others.
"""

from __future__ import annotations

import numpy as np

from .linalg import COND_LIMIT, RANK_TOL

# Post-inversion residual cross-gain above this means the inverse was not
# trustworthy; treat like an ill-conditioned stack.
_ORTHO_TOL = 1e-8


def zero_force(directions: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unit-norm zero-forcing beams for a stack of (..., M, M) direction matrices.

    Column i is user i's direction d_i; beam v_j is orthogonal to every
    d_i, i != j.  Returns (vectors, cond, residual): the max/min ratio of
    the QR pivots |R_kk| of the rows d_i^H (inf below RANK_TOL), and the
    largest cross gain |<d_i, v_j>| left after the inverse.  See ``refused``.
    """
    rows = np.swapaxes(directions, -1, -2).conj()  # row i = d_i^H
    m = rows.shape[-1]
    pivots = np.abs(np.diagonal(np.linalg.qr(rows, mode="r"), axis1=-2, axis2=-1))
    low, high = pivots.min(axis=-1), pivots.max(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = np.where(low < RANK_TOL, np.inf, high / low)
    # a refused stack is inverted as the identity, so that no singular
    # stack can stop the inverse of the others
    rows = np.where((cond <= COND_LIMIT)[..., None, None], rows, np.eye(m))
    inverse = np.linalg.inv(rows)
    vectors = inverse / np.linalg.norm(inverse, axis=-2, keepdims=True)
    cross = np.where(np.eye(m, dtype=bool), 0.0, np.abs(rows @ vectors))
    return vectors, cond, cross.max(axis=(-2, -1))


def refused(cond: np.ndarray, residual: np.ndarray) -> np.ndarray:
    """Stacks to refuse: cond above COND_LIMIT or residual above _ORTHO_TOL (or NaN)."""
    return ~((cond <= COND_LIMIT) & (residual <= _ORTHO_TOL))


def sinr_stack(h_eff: np.ndarray, vectors: np.ndarray,
               power: float | np.ndarray) -> np.ndarray:
    """SINR of every user for a stack of (..., M, M) channel and beam matrices.

    Column i of h_eff is user i's effective channel, column j of vectors
    user j's beam; power P/M per user, unit noise.  An array of powers
    leads the result's axes: one stack of SINRs per power, from one set of
    gains.
    """
    m = vectors.shape[-1]
    gains = np.abs(np.swapaxes(vectors, -1, -2).conj() @ h_eff) ** 2  # (j, i) = |<v_j, h_i>|^2
    signal = np.diagonal(gains, axis1=-2, axis2=-1)
    scale = np.reshape(power, np.shape(power) + (1,) * signal.ndim) / m
    return scale * signal / (1.0 + scale * (gains.sum(axis=-2) - signal))


def sum_rate(sinrs: np.ndarray) -> float | np.ndarray:
    """Sum rate sum_i log2(1 + SINR_i) in bits per channel use, over the last axis."""
    s = np.asarray(sinrs, dtype=float)
    if np.any(s < 0):
        raise ValueError("SINR values must be nonnegative")
    return np.sum(np.log2(1.0 + s), axis=-1)

