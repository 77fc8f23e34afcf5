import numpy as np
import pytest

import effchan.validate as validate
from effchan.linalg import PURPOSE_VALIDATION, RngStream, complex_normal
from effchan.quantize import Codebook, quantize_antenna_selection, quantize_effective, quantize_single
from effchan.validate import (
    collect_best_cosine_samples,
    collect_effective_samples,
    direction_isotropy_report,
    effective_gain_report,
    quant_error_mean_report,
    quantization_angle_report,
    run_validation_suite,
)


def replay_effective_draw(seed, count, m, n, bits):
    """Replicate the batched collector's draw order with the scalar operators."""
    gen = RngStream(seed, purpose=PURPOSE_VALIDATION).generator()
    channels = complex_normal(gen, (count, m, n))
    raw = complex_normal(gen, (count, 2**bits, m))
    books = raw / np.linalg.norm(raw, axis=2, keepdims=True)
    return channels, books


# -------------------------------------------------- batched/scalar equivalence


def test_effective_collector_matches_scalar_operator():
    m, n, bits, count, seed = 4, 2, 3, 50, 9191
    pooled = collect_effective_samples(m, n, bits, count, seed)
    channels, books = replay_effective_draw(seed, count, m, n, bits)
    for i in range(count):
        r = quantize_effective(channels[i], Codebook(vectors=books[i], bits=bits))
        assert pooled.cos_sq[i] == pytest.approx(r.cos_sq, abs=1e-12)
        assert pooled.eff_norm_sq[i] == pytest.approx(r.eff_norm_sq, rel=1e-9)
        assert np.allclose(pooled.directions[i], r.s_proj, atol=1e-9)


def test_antenna_collector_matches_scalar_operator():
    m, n, bits, count, seed = 4, 2, 3, 40, 9292
    pooled = collect_best_cosine_samples(m, n, bits, count, seed, per_antenna=True)
    gen = RngStream(seed, purpose=PURPOSE_VALIDATION).generator()
    channels = complex_normal(gen, (count, m, n))
    raw = complex_normal(gen, (count, n, 2**bits, m))
    books = raw / np.linalg.norm(raw, axis=3, keepdims=True)
    for i in range(count):
        cbs = [Codebook(vectors=books[i, k], bits=bits) for k in range(n)]
        r = quantize_antenna_selection(channels[i], cbs)
        assert pooled[i] == pytest.approx(r.cos_sq, abs=1e-12)


def test_flat_collector_matches_scalar_operator():
    m, n, bits, count, seed = 4, 2, 3, 40, 9393
    pooled = collect_best_cosine_samples(m, n, bits, count, seed, per_antenna=False)
    gen = RngStream(seed, purpose=PURPOSE_VALIDATION).generator()
    channels = complex_normal(gen, (count, m))
    raw = complex_normal(gen, (count, n * 2**bits, m))
    books = raw / np.linalg.norm(raw, axis=2, keepdims=True)
    for i in range(count):
        r = quantize_single(channels[i], Codebook(vectors=books[i], bits=bits + 1))
        assert pooled[i] == pytest.approx(r.cos_sq, abs=1e-12)


# ----------------------------------------------------------------- collectors


def test_collector_memoizes_repeated_requests():
    a = collect_effective_samples(4, 2, 4, 120, 555)
    b = collect_effective_samples(4, 2, 4, 120, 555)
    assert a is b


def test_collector_returns_read_only_arrays():
    pooled = collect_effective_samples(4, 2, 4, 120, 555)
    for array in (pooled.cos_sq, pooled.eff_norm_sq, pooled.directions):
        with pytest.raises(ValueError):
            array[0] = 0.0


def test_collector_chunked_path(monkeypatch):
    # shrink the chunk budget so a small request spans many chunks
    monkeypatch.setattr(validate, "_CHUNK_TARGET", 2000)
    pooled = collect_effective_samples.__wrapped__(4, 2, 6, 300, 616)
    assert pooled.cos_sq.shape == (300,)
    assert pooled.eff_norm_sq.shape == (300,)
    assert pooled.directions.shape == (300, 4)
    assert np.all((pooled.cos_sq >= 0.0) & (pooled.cos_sq <= 1.0))
    assert np.all(pooled.eff_norm_sq > 0.0)
    assert np.allclose(np.linalg.norm(pooled.directions, axis=1), 1.0, atol=1e-9)


def test_collector_guards():
    with pytest.raises(ValueError):
        collect_effective_samples(4, 2, 4, 0, 1)
    with pytest.raises(ValueError):
        collect_best_cosine_samples(4, 2, 4, 0, 1, per_antenna=True)


# -------------------------------------------------------------------- reports


def test_angle_report_reference_mean_closed_form():
    # (2,1): cos_sq is the max of 2^B uniforms, whose mean is K/(K+1)
    report = quantization_angle_report(2, 1, 4, 2000, 717)
    assert report.mean_ref == pytest.approx(16.0 / 17.0, abs=1e-5)


def test_angle_report_guards():
    with pytest.raises(ValueError):
        quantization_angle_report(4, 4, 4, 1000, 1)


def test_gain_report_rejects_invalid_offset():
    with pytest.raises(ValueError):
        effective_gain_report(2, 1, 3, 2000, 1, shape_offset=-2)


def test_laws_hold_at_moderate_sample_size():
    m, n, bits, count, seed = 4, 2, 6, 20_000, 4242
    angle = quantization_angle_report(m, n, bits, count, seed)
    iso = direction_isotropy_report(m, n, bits, count, seed)
    gain = effective_gain_report(m, n, bits, count, seed)
    err = quant_error_mean_report(m, n, bits, count, seed)
    for report in (angle, iso, gain, err):
        assert report.passed, report
    assert gain.mean_ref == 3.0


def test_exact_gain_law_for_single_receive_antenna():
    # N=1 keeps the full channel norm, so the gain law is exact Gamma(M, 1)
    report = effective_gain_report(4, 1, 4, 20_000, 4343)
    assert report.passed
    assert report.mean_ref == 4.0


def test_wrong_reference_suite_fails_everywhere():
    reports = run_validation_suite(4, 2, 6, 10_000, 4444, wrong_reference=True)
    assert len(reports) == 2
    for report in reports:
        assert not report.passed
        assert report.name.endswith("_wrong_ref")


def test_suite_names_and_pass(tmp_path):
    reports = run_validation_suite(4, 2, 6, 20_000, 4242)
    names = [r.name for r in reports]
    assert names == [
        "angle_law_m4_n2_b6",
        "direction_isotropy_m4_n2_b6",
        "effective_gain_m4_n2_b6",
        "quant_error_m4_n2_b6",
    ]
    assert all(r.passed for r in reports)
