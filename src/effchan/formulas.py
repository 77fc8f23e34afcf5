"""Closed-form rate-gap and feedback-scaling expressions.

These are the analytic counterparts of the Monte Carlo pipeline: the
asymptotic rate offset of combining across N receive antennas, the expected
residual quantization error of a B-bit random codebook, the resulting upper
bound on the sum-rate gap to perfect channel knowledge, and the inversion of
that bound into a feedback-bit budget that scales with SNR.

Conventions: rates and rate gaps are per user in bits per channel use, powers
in dB are "P_dB", linear powers "power".  The bit budget uses the standard
3 dB-per-bit slope approximation 10*log10(2) ~ 3, so its exact algebraic
inverse converts dB with 2**(P_dB/3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

LOG2E = math.log2(math.e)


class InfeasibleTargetError(ValueError):
    """Requested rate-gap target is below the asymptotic floor for (M, N)."""


def _check_antennas(m: int, n: int) -> None:
    if not all(isinstance(k, Integral) and not isinstance(k, bool) for k in (m, n)):
        raise ValueError(f"antenna counts must be integers, got M={m!r}, N={n!r}")
    if m < 2:
        raise ValueError(f"need at least 2 transmit antennas, got M={m}")
    if not 1 <= n <= m - 1:
        raise ValueError(f"need 1 <= N <= M-1, got N={n} with M={m}")


def _check_snr(p_db: float) -> None:
    if not math.isfinite(p_db):
        raise ValueError(f"SNR must be finite, got p_db={p_db}")


def delta_a(m: int, n: int) -> float:
    """Asymptotic per-user rate offset of using N receive antennas.

    Equals log2(e) * sum_{l=M-N+1}^{M-1} 1/l; zero for N = 1.  This is the
    high-SNR rate cost (per user) of the shrunken effective-channel gain,
    before any quantization error enters.
    """
    _check_antennas(m, n)
    return LOG2E * sum(1.0 / l for l in range(m - n + 1, m))


def log2_binomial(n: int, k: int) -> float:
    """log2 of the binomial coefficient C(n, k), computed exactly for small args."""
    if k < 0 or n < 0 or k > n:
        raise ValueError(f"invalid binomial C({n}, {k})")
    return math.log2(math.comb(n, k))


def quant_error_approx(bits: float, m: int, n: int) -> float:
    """Extreme-value approximation of the expected residual quantization error.

    E[sin^2] ~ 2**(-B/(M-N)) * C(M-1, N-1)**(-1/(M-N)) for a B-bit random
    codebook quantizing an N-dimensional subspace of C^M.  Accurate to within
    roughly ten percent for moderate B; exact in mean for M - N = 1.
    """
    _check_antennas(m, n)
    if not 0 <= bits < math.inf:  # NaN fails too
        raise ValueError(f"bits must be nonnegative and finite, got {bits}")
    order = m - n
    return 2.0 ** (-bits / order) * math.comb(m - 1, n - 1) ** (-1.0 / order)


def rate_gap_bound(power: float, bits: float, m: int, n: int) -> float:
    """Upper bound on the per-user rate gap to perfect channel knowledge.

    delta_a(M, N) + log2(1 + P * ((M-N+1)/M) * E[sin^2]) with the
    extreme-value approximation for E[sin^2].  power is linear (not dB).
    """
    _check_antennas(m, n)
    if not 0 <= power < math.inf:  # NaN fails too
        raise ValueError(f"power must be nonnegative and finite, got {power}")
    loading = (m - n + 1) / m
    return delta_a(m, n) + math.log2(1.0 + power * loading * quant_error_approx(bits, m, n))


@dataclass(frozen=True)
class ScalingInputs:
    """Inputs to the feedback-bit budget: array sizes, operating SNR, gap target.

    Building one raises ValueError for inputs outside the formula's domain.
    """

    m: int
    n: int
    p_db: float
    target_gap: float

    def __post_init__(self):
        _check_antennas(self.m, self.n)
        _check_snr(self.p_db)
        if not 0 < self.target_gap < math.inf:  # NaN fails too
            raise ValueError(f"target gap must be positive and finite, got {self.target_gap}")

    def gap_headroom(self) -> float:
        """c = 2**r * exp(-sum 1/l) - 1; must be positive for the target to be reachable."""
        harmonic = sum(1.0 / l for l in range(self.m - self.n + 1, self.m))
        return 2.0 ** self.target_gap * math.exp(-harmonic) - 1.0


def bits_required(inputs: ScalingInputs) -> float:
    """Feedback bits needed to hold the rate-gap bound at the target.

    B = ((M-N)/3) P_dB - (M-N) log2(c) - (M-N) log2(M/(M-N+1)) - log2 C(M-1, N-1)
    with c the gap headroom.  Raises InfeasibleTargetError when the target
    gap is at or below the asymptotic floor delta_a (c <= 0), in which case
    no finite codebook reaches it.  The returned value is real (not rounded)
    and clamped to be nonnegative.
    """
    c = inputs.gap_headroom()
    if c <= 0:
        raise InfeasibleTargetError(
            f"target gap {inputs.target_gap} is not reachable for M={inputs.m}, "
            f"N={inputs.n}: asymptotic floor delta_a={delta_a(inputs.m, inputs.n):.4f}")
    m, n = inputs.m, inputs.n
    order = m - n
    bits = (order / 3.0) * inputs.p_db \
        - order * math.log2(c) \
        - order * math.log2(m / (m - n + 1)) \
        - log2_binomial(m - 1, n - 1)
    return max(bits, 0.0)


def feedback_savings(m: int, n: int, p_db: float) -> float:
    """Approximate feedback-bit reduction of N receive antennas vs N = 1.

    ((N-1)/3) P_dB + log2 C(M-1, N-1) - (N-1) log2(e), the leading-order
    difference of the bit budgets at equal gap target.  Zero for N = 1.
    Within about 1.5 bits of the exact budget difference at moderate SNR.
    """
    _check_antennas(m, n)
    _check_snr(p_db)
    return (n - 1) / 3.0 * p_db + log2_binomial(m - 1, n - 1) - (n - 1) * LOG2E
