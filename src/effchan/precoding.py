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

from .linalg import COND_LIMIT

# A cross gain left above this after the inverse means it is not trustworthy: refuse the stack.
_ORTHO_TOL = 1e-8


def zero_force(directions: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unit-norm zero-forcing beams for a stack of (..., M, M) direction matrices.

    Column i is user i's direction d_i; beam v_j is orthogonal to every d_i, i != j.  Returns
    (vectors, cond, residual): ||D||_F ||D^-1||_F of the rows D = (d_i^H), inf if exactly singular,
    which is at least their QR pivot ratio (so a ratio just under COND_LIMIT may be refused), and
    the largest cross gain |<d_i, v_j>| left after the inverse.  See ``refused``.
    """
    rows = np.swapaxes(directions, -1, -2).conj()  # row i = d_i^H
    m, singular = rows.shape[-1], np.zeros(rows.shape[:-2], dtype=bool)
    try:
        inverse = np.linalg.inv(rows)
    except np.linalg.LinAlgError:  # an exactly singular stack stops the whole batch
        singular = np.linalg.slogdet(rows)[0] == 0
        rows = np.where(singular[..., None, None], np.eye(m), rows)
        inverse = np.linalg.inv(rows)
    norms = np.linalg.norm(inverse, axis=-2, keepdims=True)
    cond = np.linalg.norm(rows, axis=(-2, -1)) * np.linalg.norm(norms, axis=(-2, -1))
    vectors = np.divide(inverse, norms, out=inverse)  # beam j: column j of the inverse
    cross = np.where(np.eye(m, dtype=bool), 0.0, np.abs(rows @ vectors))
    return vectors, np.where(singular, np.inf, cond), cross.max(axis=(-2, -1))


def refused(cond: np.ndarray, residual: np.ndarray) -> np.ndarray:
    """Stacks to refuse: cond above COND_LIMIT, which a pivot ratio just under it may read,
    or residual above _ORTHO_TOL (or NaN)."""
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

