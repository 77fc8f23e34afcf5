"""Zero-forcing beamforming, per-user SINR, and sum-rate evaluation.

Power convention: total transmit power P is split equally, P/M per user, and
the receiver noise is unit variance, so P is also the transmit SNR.  Rates
are in bits per channel use (log base 2).

``zero_force``, ``sinr_stack`` and ``perfect_csit_rates`` work on stacks of
(M, M) matrices and report refusals instead of raising; ``zfbf_vectors``,
``sinr`` and ``perfect_csit_rate`` are their one-matrix views.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import COND_LIMIT, RANK_TOL, IllConditionedError

# Post-inversion residual cross-gain above this means the inverse was not
# trustworthy; treat like an ill-conditioned stack.
_ORTHO_TOL = 1e-8


@dataclass(frozen=True)
class BeamformerSet:
    """Unit-norm beamforming vectors, one per user (column i serves user i)."""

    vectors: np.ndarray

    def __post_init__(self):
        v = self.vectors
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValueError(f"expected a square vector stack, got shape {v.shape}")
        if not np.allclose(np.linalg.norm(v, axis=0), 1.0, atol=1e-9):
            raise ValueError("beamformers must be unit norm")

    @property
    def users(self) -> int:
        return self.vectors.shape[1]


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


def _raise_if_refused(cond: float, residual: float) -> None:
    if not cond <= COND_LIMIT:
        raise IllConditionedError("matrix too ill-conditioned to invert", cond)
    if not residual <= _ORTHO_TOL:
        raise IllConditionedError(
            f"zero-forcing residual {residual:.3e} exceeds {_ORTHO_TOL:.0e}",
            residual / _ORTHO_TOL)


def zfbf_vectors(directions: np.ndarray) -> BeamformerSet:
    """Zero-forcing beamformers for M unit-norm user directions.

    directions is (M, M) with column i the reported direction of user i.  The
    returned beamformer v_j is orthogonal to every other user's direction:
    <d_i, v_j> = 0 for i != j.  Raises IllConditionedError when the direction
    stack is too close to singular (the caller drops the trial).
    """
    d = np.asarray(directions, dtype=np.complex128)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValueError(f"expected M x M direction stack, got shape {d.shape}")
    vectors, cond, residual = zero_force(d)
    _raise_if_refused(cond, residual)
    return BeamformerSet(vectors=vectors)


def sinr_stack(h_eff: np.ndarray, vectors: np.ndarray, power: float) -> np.ndarray:
    """SINR of every user for a stack of (..., M, M) channel and beam matrices.

    Column i of h_eff is user i's effective channel, column j of vectors
    user j's beam; power P/M per user, unit noise.
    """
    m = vectors.shape[-1]
    gains = np.abs(np.swapaxes(vectors, -1, -2).conj() @ h_eff) ** 2  # (j, i) = |<v_j, h_i>|^2
    signal = np.diagonal(gains, axis1=-2, axis2=-1)
    scale = power / m
    return scale * signal / (1.0 + scale * (gains.sum(axis=-2) - signal))


def sinr(h_eff: np.ndarray, beams: BeamformerSet, user: int, power: float) -> float:
    """SINR of one user under equal power allocation P/M and unit noise.

    h_eff is that user's true effective channel; interference comes from the
    other users' beams evaluated on the same channel.
    """
    h_eff = np.asarray(h_eff, dtype=np.complex128)
    m = beams.users
    if not 0 <= user < m:
        raise ValueError(f"user index {user} out of range for {m} users")
    if power < 0:
        raise ValueError(f"power must be nonnegative, got {power}")
    # every user's column holds h_eff: entry ``user`` is the SINR asked for
    channels = np.broadcast_to(h_eff[:, None], (h_eff.shape[0], m))
    return float(sinr_stack(channels, beams.vectors, power)[user])


def sum_rate(sinrs: np.ndarray) -> float | np.ndarray:
    """Sum rate sum_i log2(1 + SINR_i) in bits per channel use, over the last axis."""
    s = np.asarray(sinrs, dtype=float)
    if np.any(s < 0):
        raise ValueError("SINR values must be nonnegative")
    return np.sum(np.log2(1.0 + s), axis=-1)


def perfect_csit_rates(channels: np.ndarray,
                       power: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``perfect_csit_rate`` for a stack of (..., M, M) channels: (rates, cond, residual)."""
    directions = channels / np.linalg.norm(channels, axis=-2, keepdims=True)
    vectors, cond, residual = zero_force(directions)
    return sum_rate(sinr_stack(channels, vectors, power)), cond, residual


def perfect_csit_rate(channels: np.ndarray, power: float) -> float:
    """Zero-forcing sum rate with perfect channel knowledge at the transmitter.

    channels is (M, M) with column i the true channel vector of user i (one
    receive antenna each).  Beams are zero-forced on the true directions, so
    interference vanishes and the rate is sum_i log2(1 + P/M |<h_i, v_i>|^2).
    Raises IllConditionedError when the directions are too close to singular.
    """
    h = np.asarray(channels, dtype=np.complex128)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"expected M x M channel stack, got shape {h.shape}")
    if power < 0:
        raise ValueError(f"power must be nonnegative, got {power}")
    if np.any(np.linalg.norm(h, axis=0) <= 0):
        raise ValueError("zero channel column")
    rate, cond, residual = perfect_csit_rates(h, power)
    _raise_if_refused(cond, residual)
    return float(rate)
