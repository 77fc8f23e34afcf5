"""Closed-form reference distributions and sample-vs-law comparison helpers.

The reference laws needed here (Beta and Gamma with small integer parameters,
and maxima of iid Beta draws) all have exact finite-sum CDFs, so no special
functions are required.  Comparisons are one-sample Kolmogorov-Smirnov plus
simple moment checks, reported through a common FitReport record.  Each
threshold is the larger of a fixed value and its critical value at n samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import PURPOSE_PROBE, RngStream, complex_from_parts, is_stream_id

# stream seed of the isotropy probe direction; fixed so reports are
# reproducible without configuration
_PROBE_SEED = 715517
_KS_MAX = 0.02  # least threshold on any KS statistic
_ISOTROPY_COV_MAX = 0.01  # isotropy_verdict's least threshold on the covariance deviation
_ALPHA = 1e-4  # chance a statistic's critical value fails correct code
_ROWS = 2 ** 13  # rows a law check reads at a time: 64 KiB a float temporary

# conventional two-sided 95 percent normal quantile
_Z95 = 1.96


@dataclass(frozen=True)
class FitReport:
    """Outcome of comparing a sample against a reference law.

    ``passed`` is the conjunction of every threshold listed in ``thresholds``
    (each maps a named statistic to its allowed maximum).  ``details`` holds
    auxiliary values useful for inspection; both serialize to JSON directly.
    """

    name: str
    n_samples: int
    ks_statistic: float
    mean_obs: float
    mean_ref: float
    passed: bool
    thresholds: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)


def _beta_coefs(a: int, b: int) -> list:
    """C(a+b-1, a+k), k < b: I_x(a, b) = sum_k C(a+b-1, a+k) x^(a+k) (1-x)^(b-1-k), exactly."""
    return [math.comb(a + b - 1, a + k) for k in range(b)]


def beta_cdf(x, a: int, b: int):
    """CDF of Beta(a, b) for integer a, b >= 1.

    Sums the binomial identity (``_beta_coefs``), so the result carries no
    quadrature error.  Accepts scalars or arrays in [0, 1].
    """
    if not all(is_stream_id(k) and k >= 1 for k in (a, b)):
        raise ValueError(f"beta_cdf needs integer a, b >= 1, got a={a!r}, b={b!r}")
    xs = np.asarray(x, dtype=float)
    if np.any(xs < 0) or np.any(xs > 1):
        raise ValueError("beta_cdf domain is [0, 1]")
    out = np.zeros_like(xs)
    for k, c in enumerate(_beta_coefs(a, b)):
        out += c * xs ** (a + k) * (1.0 - xs) ** (b - 1 - k)
    out = np.clip(out, 0.0, 1.0)
    return float(out) if np.isscalar(x) else out


def max_beta_cdf(x, a: int, b: int, count: int):
    """CDF of the maximum of ``count`` iid Beta(a, b) draws: beta_cdf**count."""
    if not is_stream_id(count) or count < 1:
        raise ValueError(f"count must be an integer >= 1, got {count!r}")
    return beta_cdf(x, a, b) ** count


def gamma_cdf(x, shape: int):
    """CDF of Gamma(shape, 1) for integer shape >= 1 (Erlang form).

    1 - exp(-x) * sum_{k<shape} x^k / k!, exact for integer shape.  Accepts
    scalars or arrays with x >= 0.
    """
    if not is_stream_id(shape) or shape < 1:
        raise ValueError(f"gamma_cdf needs integer shape >= 1, got {shape!r}")
    xs = np.asarray(x, dtype=float)
    if np.any(xs < 0):
        raise ValueError("gamma_cdf domain is x >= 0")
    partial = np.zeros_like(xs)
    term = np.ones_like(xs)
    for k in range(shape):
        if k > 0:
            term = term * xs / k
        partial += term
    out = np.clip(1.0 - np.exp(-xs) * partial, 0.0, 1.0)
    return float(out) if np.isscalar(x) else out


def ks_statistic(samples: np.ndarray, cdf) -> float:
    """One-sample Kolmogorov-Smirnov statistic sup_x |F_n(x) - F(x)|.

    cdf must be vectorized over a 1-D array.  Uses the sorted-sample form
    max(i/n - F(x_(i)), F(x_(i)) - (i-1)/n) on one sorted copy of the
    samples; cdf and the gap run on ``_ROWS`` of them at a time.
    """
    s = np.sort(np.asarray(samples, dtype=float))
    n = s.size
    if n == 0:
        raise ValueError("need at least one sample")
    gap = -np.inf
    for lo in range(0, n, _ROWS):
        block = s[lo:lo + _ROWS]
        ref = np.asarray(cdf(block), dtype=float)
        if ref.shape != block.shape:
            raise ValueError("cdf must return one value per sample")
        grid = np.arange(lo + 1, lo + block.size + 1) / n
        gap = np.maximum(gap, np.max(np.maximum(grid - ref, ref - (grid - 1.0 / n))))
    return float(gap)


def _critical(n: int, sd: float, count: int = 1) -> float:
    """Distance any of ``count`` means of n draws of standard deviation sd exceeds with chance
    <= _ALPHA (2 Q(z) <= exp(-z^2 / 2)); sd = 1/2, count = 2 is the DKW bound on a KS distance."""
    return sd * math.sqrt(2 * math.log(count / _ALPHA) / n)


def ks_test(samples: np.ndarray, cdf, *, name: str = "ks", mean_ref: float | None = None,
            mean_rtol: float | None = None) -> FitReport:
    """Compare a sample against a reference CDF; optionally also check the mean.

    Passes when the KS statistic is at or below the larger of _KS_MAX (0.02)
    and its critical value at n and, if mean_ref and mean_rtol are given,
    the sample mean is within the larger of mean_rtol and its critical value
    (from the sample's standard deviation) relative of mean_ref.
    """
    s = np.asarray(samples, dtype=float)
    stat = ks_statistic(s, cdf)
    mean_obs = float(s.mean())
    thresholds = {"ks_statistic": max(_KS_MAX, _critical(s.size, 0.5, 2))}
    passed = stat <= thresholds["ks_statistic"]
    details = {}
    if mean_ref is not None and mean_rtol is not None:
        rel = abs(mean_obs - mean_ref) / abs(mean_ref)
        rtol = max(float(mean_rtol), _critical(s.size, float(s.std())) / abs(mean_ref))
        thresholds["mean_rel_error"] = rtol
        details["mean_rel_error"] = rel
        passed = passed and rel <= rtol
    return FitReport(
        name=name,
        n_samples=s.size,
        ks_statistic=stat,
        mean_obs=mean_obs,
        mean_ref=float(mean_ref) if mean_ref is not None else float("nan"),
        passed=bool(passed),
        thresholds=thresholds,
        details=details,
    )


def isotropy_probe(m: int) -> np.ndarray:
    """The isotropy check's unit probe direction in C^m, drawn once from a dedicated stream."""
    gen = RngStream(_PROBE_SEED, purpose=PURPOSE_PROBE).generator()
    probe = complex_from_parts(gen.standard_normal((2, m)))
    return probe / np.linalg.norm(probe)


def isotropy_moments(vectors: np.ndarray) -> tuple:
    """Unit rows v (n, m): each |<isotropy_probe(m), v>|^2, the sum of v and the sum of v v^H."""
    if not np.allclose(np.linalg.norm(vectors, axis=1), 1.0, atol=1e-6):
        raise ValueError("vectors must be unit norm")
    proj_sq = np.abs(vectors.conj() @ isotropy_probe(vectors.shape[1])) ** 2
    return proj_sq, vectors.sum(axis=0), vectors.T @ vectors.conj()  # (j, k) sums v_j conj(v_k)


def isotropy_verdict(proj_sq: np.ndarray, vector_sum: np.ndarray, gram: np.ndarray, *,
                     name: str = "isotropy") -> FitReport:
    """Check that n unit vectors in C^m look uniform on the sphere, from their isotropy_moments.

    Three diagnostics: the mean vector's norm (threshold 5/sqrt(n)), the
    covariance against I/m in max absolute entry (at most 0.01 or its
    critical value at n), and a KS test of the probe projections against
    Beta(1, m-1) (at most 0.02 or its critical value).  The probe is recorded.
    """
    n, m = proj_sq.size, len(vector_sum)
    if n < 1000:
        raise ValueError(f"isotropy diagnostics need at least 1000 vectors, got {n}")
    if m < 2:
        raise ValueError(f"need vectors of dim >= 2, got dim {m}")
    mean_norm = float(np.linalg.norm(vector_sum / n))
    mean_limit = 5.0 / math.sqrt(n)
    cov_dev = float(np.abs(gram / n - np.eye(m) / m).max())
    # a diagonal entry, the mean of |v_j|^2 ~ Beta(1, m-1), varies the most; at most m^2 entries
    cov_max = max(_ISOTROPY_COV_MAX, _critical(n, math.sqrt(m - 1) / (m * math.sqrt(m + 1)), m * m))
    ks_max = max(_KS_MAX, _critical(n, 0.5, 2))
    stat = ks_statistic(proj_sq, lambda x: beta_cdf(x, 1, m - 1))

    passed = mean_norm <= mean_limit and cov_dev <= cov_max and stat <= ks_max
    return FitReport(
        name=name,
        n_samples=n,
        ks_statistic=stat,
        mean_obs=mean_norm,
        mean_ref=0.0,
        passed=bool(passed),
        thresholds={
            "mean_vector_norm": mean_limit,
            "cov_max_deviation": cov_max,
            "ks_statistic": ks_max,
        },
        details={
            "cov_max_deviation": cov_dev,
            "probe": [[float(z.real), float(z.imag)] for z in isotropy_probe(m)],
        },
    )


def mean_ci(samples: np.ndarray) -> tuple[float, float]:
    """Sample mean and 95 percent normal-approximation half-width 1.96 s / sqrt(n).

    Uses the unbiased (ddof = 1) standard deviation.  A single sample gets a
    zero half-width.
    """
    s = np.asarray(samples, dtype=float)
    if s.size == 0:
        raise ValueError("need at least one sample")
    mean = float(s.mean())
    if s.size < 2:
        return mean, 0.0
    half = _Z95 * float(s.std(ddof=1)) / math.sqrt(s.size)
    return mean, half
