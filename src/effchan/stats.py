"""Closed-form reference distributions and sample-vs-law comparison helpers.

The reference laws needed here (Beta and Gamma with small integer parameters,
and maxima of iid Beta draws) all have exact finite-sum CDFs, so no special
functions are required.  Comparisons are one-sample Kolmogorov-Smirnov plus
simple moment checks, reported through a common FitReport record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import PURPOSE_PROBE, RngStream

# stream seed of the isotropy probe direction; fixed so reports are
# reproducible without configuration
_PROBE_SEED = 715517
# isotropy_report's thresholds on the covariance deviation and the KS statistic
_ISOTROPY_COV_MAX = 0.01
_ISOTROPY_KS_MAX = 0.02

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


def beta_cdf(x, a: int, b: int):
    """CDF of Beta(a, b) for integer a, b >= 1.

    Uses the exact binomial identity I_x(a, b) = sum_{j=a}^{a+b-1} C(a+b-1, j)
    x^j (1-x)^(a+b-1-j), so the result carries no quadrature error.  Accepts
    scalars or arrays in [0, 1].
    """
    if a < 1 or b < 1 or int(a) != a or int(b) != b:
        raise ValueError(f"beta_cdf needs integer a, b >= 1, got a={a}, b={b}")
    xs = np.asarray(x, dtype=float)
    if np.any(xs < 0) or np.any(xs > 1):
        raise ValueError("beta_cdf domain is [0, 1]")
    n = a + b - 1
    out = np.zeros_like(xs)
    for j in range(a, n + 1):
        out += math.comb(n, j) * xs**j * (1.0 - xs) ** (n - j)
    out = np.clip(out, 0.0, 1.0)
    return float(out) if np.isscalar(x) else out


def max_beta_cdf(x, a: int, b: int, count: int):
    """CDF of the maximum of ``count`` iid Beta(a, b) draws: beta_cdf**count."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    return beta_cdf(x, a, b) ** count


def gamma_cdf(x, shape: int):
    """CDF of Gamma(shape, 1) for integer shape >= 1 (Erlang form).

    1 - exp(-x) * sum_{k<shape} x^k / k!, exact for integer shape.  Accepts
    scalars or arrays with x >= 0.
    """
    if shape < 1 or int(shape) != shape:
        raise ValueError(f"gamma_cdf needs integer shape >= 1, got {shape}")
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
    max(i/n - F(x_(i)), F(x_(i)) - (i-1)/n).
    """
    s = np.sort(np.asarray(samples, dtype=float))
    n = s.size
    if n == 0:
        raise ValueError("need at least one sample")
    ref = np.asarray(cdf(s), dtype=float)
    if ref.shape != s.shape:
        raise ValueError("cdf must return one value per sample")
    grid = np.arange(1, n + 1) / n
    return float(np.max(np.maximum(grid - ref, ref - (grid - 1.0 / n))))


def ks_test(samples: np.ndarray, cdf, *, name: str = "ks",
            ks_threshold: float = 0.02, mean_ref: float | None = None,
            mean_rtol: float | None = None) -> FitReport:
    """Compare a sample against a reference CDF; optionally also check the mean.

    Passes when the KS statistic is at or below ks_threshold and, if mean_ref
    and mean_rtol are given, the sample mean is within mean_rtol relative of
    mean_ref.
    """
    s = np.asarray(samples, dtype=float)
    stat = ks_statistic(s, cdf)
    mean_obs = float(s.mean())
    thresholds = {"ks_statistic": float(ks_threshold)}
    passed = stat <= ks_threshold
    details = {}
    if mean_ref is not None and mean_rtol is not None:
        rel = abs(mean_obs - mean_ref) / abs(mean_ref)
        thresholds["mean_rel_error"] = float(mean_rtol)
        details["mean_rel_error"] = rel
        passed = passed and rel <= mean_rtol
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


def isotropy_report(vectors: np.ndarray, *, name: str = "isotropy") -> FitReport:
    """Check that unit vectors in C^m look uniform on the sphere.

    Three diagnostics: the empirical mean vector norm (should shrink like
    1/sqrt(n); threshold 5/sqrt(n)), the empirical covariance against I/m in
    max absolute entry (at most 0.01), and a KS test of squared projections
    onto one fixed probe direction against Beta(1, m-1) (statistic at most
    0.02).  The probe is drawn once from a dedicated stream and recorded in
    the report details.
    """
    v = np.asarray(vectors, dtype=np.complex128)
    if v.ndim != 2:
        raise ValueError(f"expected (n, m) vector stack, got shape {v.shape}")
    n, m = v.shape
    if n < 1000:
        raise ValueError(f"isotropy diagnostics need at least 1000 vectors, got {n}")
    if m < 2:
        raise ValueError(f"need vectors of dim >= 2, got shape {v.shape}")
    if not np.allclose(np.linalg.norm(v, axis=1), 1.0, atol=1e-6):
        raise ValueError("vectors must be unit norm")

    mean_norm = float(np.linalg.norm(v.mean(axis=0)))
    mean_limit = 5.0 / math.sqrt(n)

    cov = (v.T @ v.conj()) / n  # entry (j, k) = E[v_j conj(v_k)]
    cov_dev = float(np.abs(cov - np.eye(m) / m).max())

    gen = RngStream(_PROBE_SEED, purpose=PURPOSE_PROBE).generator()
    probe = (gen.standard_normal(m) + 1j * gen.standard_normal(m)) * np.sqrt(0.5)
    probe = probe / np.linalg.norm(probe)
    proj_sq = np.abs(v.conj() @ probe) ** 2
    stat = ks_statistic(proj_sq, lambda x: beta_cdf(x, 1, m - 1))

    passed = mean_norm <= mean_limit and cov_dev <= _ISOTROPY_COV_MAX and stat <= _ISOTROPY_KS_MAX
    return FitReport(
        name=name,
        n_samples=n,
        ks_statistic=stat,
        mean_obs=mean_norm,
        mean_ref=0.0,
        passed=bool(passed),
        thresholds={
            "mean_vector_norm": mean_limit,
            "cov_max_deviation": _ISOTROPY_COV_MAX,
            "ks_statistic": _ISOTROPY_KS_MAX,
        },
        details={
            "cov_max_deviation": cov_dev,
            "probe": [[float(z.real), float(z.imag)] for z in probe],
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
