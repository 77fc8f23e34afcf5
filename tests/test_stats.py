import math

import numpy as np
import pytest
import scipy.stats

from effchan.linalg import RngStream, complex_normal
from effchan.stats import (
    FitReport,
    beta_cdf,
    gamma_cdf,
    isotropy_report,
    ks_statistic,
    ks_test,
    max_beta_cdf,
    mean_ci,
)


# ------------------------------------------------------------------ beta_cdf


def test_beta_cdf_endpoints_and_uniform():
    assert beta_cdf(0.0, 2, 3) == 0.0
    assert beta_cdf(1.0, 2, 3) == 1.0
    for x in (0.1, 0.5, 0.9):
        assert beta_cdf(x, 1, 1) == pytest.approx(x, abs=1e-14)


def test_beta_cdf_closed_forms():
    x = np.linspace(0.0, 1.0, 11)
    assert np.allclose(beta_cdf(x, 1, 3), 1.0 - (1.0 - x) ** 3, atol=1e-14)
    assert np.allclose(beta_cdf(x, 3, 1), x**3, atol=1e-14)
    assert beta_cdf(0.5, 2, 2) == pytest.approx(0.5, abs=1e-14)


def test_beta_cdf_against_scipy():
    x = np.linspace(0.0, 1.0, 101)
    for a, b in [(1, 1), (2, 2), (2, 3), (3, 2), (1, 5), (4, 1)]:
        assert np.allclose(beta_cdf(x, a, b), scipy.stats.beta.cdf(x, a, b), atol=1e-12)


def test_beta_cdf_scalar_vs_array_types():
    assert isinstance(beta_cdf(0.3, 2, 2), float)
    out = beta_cdf(np.array([0.3, 0.7]), 2, 2)
    assert isinstance(out, np.ndarray) and out.shape == (2,)


def test_beta_cdf_guards():
    with pytest.raises(ValueError):
        beta_cdf(0.5, 0, 2)
    with pytest.raises(ValueError):
        beta_cdf(0.5, 1.5, 2)
    with pytest.raises(ValueError):
        beta_cdf(1.5, 2, 2)


# -------------------------------------------------------------- max_beta_cdf


def test_max_beta_cdf_is_power_of_base():
    x = np.linspace(0.0, 1.0, 21)
    assert np.allclose(max_beta_cdf(x, 2, 2, 16), beta_cdf(x, 2, 2) ** 16, atol=1e-14)
    with pytest.raises(ValueError):
        max_beta_cdf(0.5, 2, 2, 0)


def test_max_beta_cdf_against_sampled_maxima():
    rng = np.random.default_rng(11)
    best = rng.beta(2.0, 2.0, size=(50_000, 16)).max(axis=1)
    assert ks_statistic(best, lambda x: max_beta_cdf(x, 2, 2, 16)) < 0.01


# ----------------------------------------------------------------- gamma_cdf


def test_gamma_cdf_closed_forms():
    assert gamma_cdf(math.log(2.0), 1) == pytest.approx(0.5, abs=1e-14)
    x = np.linspace(0.0, 8.0, 33)
    assert np.allclose(gamma_cdf(x, 2), 1.0 - np.exp(-x) * (1.0 + x), atol=1e-13)


def test_gamma_cdf_against_scipy():
    x = np.linspace(0.0, 20.0, 101)
    for shape in (1, 2, 3, 4, 6):
        assert np.allclose(gamma_cdf(x, shape), scipy.stats.gamma.cdf(x, shape), atol=1e-12)


def test_gamma_cdf_guards():
    with pytest.raises(ValueError):
        gamma_cdf(1.0, 0)
    with pytest.raises(ValueError):
        gamma_cdf(-0.5, 2)


# -------------------------------------------------------------- ks_statistic


def test_ks_statistic_hand_case():
    # 5 uniform samples all at or below 0.5: the empirical CDF reaches 1.0
    # there while the reference sits at 0.5, so the distance is 0.5
    samples = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
    assert ks_statistic(samples, lambda x: x) == pytest.approx(0.5, abs=1e-14)


def test_ks_statistic_perfect_grid():
    # midpoints of n equal bins minimize the distance at 1/(2n)
    n = 10
    samples = (np.arange(n) + 0.5) / n
    assert ks_statistic(samples, lambda x: x) == pytest.approx(0.05, abs=1e-14)


def test_ks_statistic_matches_scipy():
    rng = np.random.default_rng(13)
    samples = rng.gamma(3.0, 1.0, 500)
    ours = ks_statistic(samples, lambda x: gamma_cdf(x, 3))
    ref = scipy.stats.kstest(samples, lambda x: gamma_cdf(x, 3)).statistic
    assert ours == pytest.approx(ref, abs=1e-12)


def test_ks_statistic_detects_wrong_law():
    rng = np.random.default_rng(17)
    samples = rng.gamma(3.0, 1.0, 2000)
    assert ks_statistic(samples, lambda x: gamma_cdf(x, 3)) < 0.03
    assert ks_statistic(samples, lambda x: gamma_cdf(x, 4)) > 0.1


def test_ks_statistic_guards():
    with pytest.raises(ValueError):
        ks_statistic(np.array([]), lambda x: x)
    with pytest.raises(ValueError):
        ks_statistic(np.array([0.5]), lambda x: np.zeros(3))


# ------------------------------------------------------------------- ks_test


def test_ks_test_pass_and_fail():
    rng = np.random.default_rng(19)
    samples = rng.uniform(0.0, 1.0, 20_000)
    good = ks_test(samples, lambda x: beta_cdf(x, 1, 1), name="uniform")
    assert good.passed and good.name == "uniform"
    assert good.n_samples == 20_000
    assert good.thresholds == {"ks_statistic": 0.02}
    bad = ks_test(samples, lambda x: beta_cdf(x, 2, 1), name="wrong")
    assert not bad.passed and bad.ks_statistic > 0.2


def test_ks_test_mean_check():
    rng = np.random.default_rng(23)
    samples = rng.uniform(0.0, 1.0, 20_000)
    ok = ks_test(samples, lambda x: x, mean_ref=0.5, mean_rtol=0.02)
    assert ok.passed
    assert ok.mean_ref == 0.5
    assert ok.details["mean_rel_error"] < 0.02
    assert set(ok.thresholds) == {"ks_statistic", "mean_rel_error"}
    # a wrong reference mean must sink the verdict even though the KS part fits
    off = ks_test(samples, lambda x: x, mean_ref=0.6, mean_rtol=0.02)
    assert not off.passed


def test_fit_report_serializes():
    import json

    r = FitReport(name="t", n_samples=5, ks_statistic=0.1, mean_obs=1.0,
                  mean_ref=1.0, passed=True, thresholds={"ks_statistic": 0.2},
                  details={"x": 1.0})
    import dataclasses
    assert json.loads(json.dumps(dataclasses.asdict(r)))["name"] == "t"


# ------------------------------------------------------------ isotropy_report


def isotropic_stack(seed, n, m):
    v = complex_normal(RngStream(seed).generator(), (n, m))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def test_isotropy_passes_on_uniform_directions():
    report = isotropy_report(isotropic_stack(29, 20_000, 4))
    assert report.passed
    assert report.ks_statistic < 0.02
    assert report.details["cov_max_deviation"] < 0.01
    assert report.mean_obs <= 5.0 / math.sqrt(20_000)


def test_isotropy_fails_on_biased_directions():
    v = complex_normal(RngStream(31).generator(), (5000, 4))
    v[:, 0] += 2.0  # push every direction toward the first axis
    v = v / np.linalg.norm(v, axis=1, keepdims=True)
    report = isotropy_report(v)
    assert not report.passed
    assert report.details["cov_max_deviation"] > 0.1


def test_isotropy_probe_is_deterministic_and_recorded():
    a = isotropy_report(isotropic_stack(37, 2000, 3))
    b = isotropy_report(isotropic_stack(43, 2000, 3))
    assert a.details["probe"] == b.details["probe"]
    probe = np.array([complex(re, im) for re, im in a.details["probe"]])
    assert probe.shape == (3,)
    assert abs(np.linalg.norm(probe) - 1.0) < 1e-9


def test_isotropy_guards():
    with pytest.raises(ValueError):
        isotropy_report(isotropic_stack(47, 999, 4))
    v = complex_normal(RngStream(53).generator(), (2000, 4))
    with pytest.raises(ValueError):
        isotropy_report(v)  # not unit norm


# ------------------------------------------------------------------- mean_ci


def test_mean_ci_alternating_hand_case():
    samples = np.tile([0.0, 1.0], 5000)
    mean, half = mean_ci(samples)
    assert mean == 0.5
    expected = 1.96 * math.sqrt(2500.0 / 9999.0) / 100.0
    assert half == pytest.approx(expected, abs=1e-12)


def test_mean_ci_single_sample_and_constant():
    assert mean_ci(np.array([3.5])) == (3.5, 0.0)
    mean, half = mean_ci(np.full(100, 2.0))
    assert mean == 2.0 and half == 0.0


def test_mean_ci_guards():
    with pytest.raises(ValueError):
        mean_ci(np.array([]))


def test_mean_ci_coverage_near_nominal():
    # 500 independent means of 400 uniforms: the 95% interval should cover
    # the true mean 0.5 about 475 times
    rng = np.random.default_rng(59)
    covered = 0
    for _ in range(500):
        mean, half = mean_ci(rng.uniform(0.0, 1.0, 400))
        covered += bool(abs(mean - 0.5) <= half)
    assert 455 <= covered <= 492
