import re
from dataclasses import astuple

import numpy as np
import pytest

import effchan.linalg as linalg
import effchan.validate as validate
from effchan.linalg import PURPOSE_VALIDATION, DegenerateChannelError, RngStream
from effchan.quantize import quantize_stack
from effchan.stats import isotropy_moments, isotropy_probe
from effchan.quantize import MAX_CODEBOOK_BITS
from effchan.validate import (
    ValidationConfig,
    collect_effective_samples,
    direction_isotropy_report,
    effective_gain_report,
    quant_error_mean_report,
    quantization_angle_report,
    run_validation_suite,
)
from oracles import (best_cosines, collect_best_cosine_samples, complex_normal, quantize_parts,
                     vector_oracle)

REPORTS = (quantization_angle_report, direction_isotropy_report, effective_gain_report,
           quant_error_mean_report)


def pool(config):
    """The sample pool run_validation_suite(config) draws."""
    return collect_effective_samples(*astuple(config))


def replay_blocks(seed, count, size, channel_shape, book_shape):
    """Replay the collectors' sample blocks with complex_normal, one sample at a time.

    Block b holds samples [b*size, (b+1)*size) and draws from
    RngStream(seed, b, 0, purpose) its channels (take, *channel_shape), then
    each sample's codebooks of book_shape (*copies, rows, M), one
    complex_normal(gen, (rows, M)) each, in sample order.
    """
    for block, start in enumerate(range(0, count, size)):
        gen = RngStream(seed, block, 0, PURPOSE_VALIDATION).generator()
        for channel in complex_normal(gen, (min(size, count - start), *channel_shape)):
            books = [complex_normal(gen, book_shape[-2:]) for _ in np.ndindex(book_shape[:-2])]
            yield channel, np.reshape(books, book_shape)


def unit_rows(raw):
    return raw / np.linalg.norm(raw, axis=-1, keepdims=True)


def split_into_blocks(monkeypatch, count, gaussians_per_sample, size):
    """Shrink the block target so count samples span several blocks, the last ragged."""
    monkeypatch.setattr(validate, "_BLOCK_GAUSSIANS", size * gaussians_per_sample)
    assert count // size >= 3 and count % size
    return size


# -------------------------------------------------- batched/scalar equivalence


def test_effective_collector_matches_scalar_operator(monkeypatch):
    m, n, bits, count, seed = 4, 2, 3, 50, 9191
    size = split_into_blocks(monkeypatch, count, (2**bits + n) * m, 16)
    pooled = collect_effective_samples(m, n, bits, count, seed)
    samples = replay_blocks(seed, count, size, (m, n), (2**bits, m))
    probe, vector_sum, gram = isotropy_probe(m), 0, 0
    for i, (channel, raw) in enumerate(samples):
        r, fault = quantize_stack(channel, unit_rows(raw))
        assert fault == 0
        assert pooled.cos_sq[i] == pytest.approx(r.cos_sq, abs=1e-12)
        assert pooled.eff_norm_sq[i] == pytest.approx(r.eff_norm_sq, rel=1e-9)
        assert pooled.probe_proj_sq[i] == pytest.approx(abs(np.vdot(probe, r.s_proj)) ** 2,
                                                        abs=1e-9)
        vector_sum, gram = vector_sum + r.s_proj, gram + np.outer(r.s_proj, r.s_proj.conj())
    assert i == count - 1
    # each direction within 1e-9 of the kernel's puts each sum within count x 1e-9
    # (twice that for v v^H)
    assert np.allclose(pooled.direction_sum, vector_sum, rtol=0, atol=count * 1e-9)
    assert np.allclose(pooled.direction_gram, gram, rtol=0, atol=2 * count * 1e-9)


def test_antenna_collector_matches_scalar_operator(monkeypatch):
    m, n, bits, count, seed = 4, 2, 3, 40, 9292
    size = split_into_blocks(monkeypatch, count, n * 2**bits * m, 12)
    pooled = collect_best_cosine_samples(m, n, bits, count, seed, per_antenna=True)
    samples = replay_blocks(seed, count, size, (m, n), (n, 2**bits, m))
    for i, (channel, raw) in enumerate(samples):
        # antenna selection: the best column of the N = 1 oracle
        books = unit_rows(raw)
        best = max(vector_oracle(channel[:, k], books[k]).cos_sq for k in range(n))
        assert pooled[i] == pytest.approx(best, abs=1e-12)
    assert i == count - 1


def test_flat_collector_matches_scalar_operator(monkeypatch):
    m, n, bits, count, seed = 4, 2, 3, 40, 9393
    size = split_into_blocks(monkeypatch, count, n * 2**bits * m, 12)
    pooled = collect_best_cosine_samples(m, n, bits, count, seed, per_antenna=False)
    samples = replay_blocks(seed, count, size, (m,), (n * 2**bits, m))
    for i, (channel, raw) in enumerate(samples):
        r = vector_oracle(channel, unit_rows(raw))
        assert pooled[i] == pytest.approx(r.cos_sq, abs=1e-12)
    assert i == count - 1


# ----------------------------------------------------------------- collectors


def test_equal_requests_draw_distinct_equal_pools():
    # every call draws afresh: a second pool is a new object, byte for byte the first
    a = collect_effective_samples(4, 2, 4, 120, 555)
    b = collect_effective_samples(4, 2, 4, 120, 555)
    assert a is not b
    for name, array in vars(a).items():
        assert array is not getattr(b, name)
        assert array.tobytes() == getattr(b, name).tobytes(), name


def test_best_cosine_ignores_a_column_orthogonal_to_its_codewords():
    # columns e1 and e2 of C^3, each against the codebook {e2}: e1's cos^2 of 0
    # is a valid sample that selection simply does not pick
    e1, e2 = np.eye(3)[:2]
    columns = np.stack([e1, e2]).astype(complex)[None, :, :, None]  # (1, 2, 3, 1)
    raw = np.zeros((2, 1, 2, 1, 3))
    raw[0] = e2
    assert best_cosines(columns, raw).tolist() == [1.0]
    # a zero column is rank deficient, which still raises
    with pytest.raises(DegenerateChannelError):
        best_cosines(columns * np.array([0.0, 1.0])[:, None, None], raw)


def test_collector_chunked_path(monkeypatch):
    # shrink the block target so a small request spans many blocks
    monkeypatch.setattr(validate, "_BLOCK_GAUSSIANS", 2000)
    pooled = collect_effective_samples(4, 2, 6, 300, 616)
    assert pooled.cos_sq.shape == (300,)
    assert pooled.eff_norm_sq.shape == (300,)
    assert pooled.probe_proj_sq.shape == (300,)
    assert pooled.direction_sum.shape == (4,) and pooled.direction_gram.shape == (4, 4)
    assert np.all((pooled.cos_sq >= 0.0) & (pooled.cos_sq <= 1.0))
    assert np.all(pooled.eff_norm_sq > 0.0)
    assert np.all((pooled.probe_proj_sq >= 0.0) & (pooled.probe_proj_sq <= 1.0 + 1e-9))
    # unit directions: sum v v^H is Hermitian and its trace is the sample count
    assert np.allclose(pooled.direction_gram, pooled.direction_gram.conj().T, rtol=0, atol=1e-12)
    assert np.trace(pooled.direction_gram) == pytest.approx(300, abs=300 * 2e-9)


def test_collectors_identical_across_worker_counts(monkeypatch, pools):
    # (16 + 2) * 4 = 72 normals a sample: 300 samples are 10 blocks of 30
    monkeypatch.setattr(validate, "_BLOCK_GAUSSIANS", 30 * 72)
    runs = []
    for cores in (1, 3):
        monkeypatch.setattr(linalg, "_cores", lambda: cores)
        pooled = collect_effective_samples(4, 2, 4, 300, 818)
        runs.append([pooled.cos_sq, pooled.eff_norm_sq, pooled.probe_proj_sq,
                     pooled.direction_sum, pooled.direction_gram])
    assert pools == [3]  # the 1-worker run starts no pool
    for serial, threaded in zip(*runs):
        assert serial.tobytes() == threaded.tobytes()


def test_sliced_blocks_equal_the_kernel_on_whole_blocks(monkeypatch, pools):
    # (8 + 2) * 4 normals a sample: 100 samples are 4 blocks of 23 and one of
    # 8, and a slice of 5 samples' codebooks splits them 5 x 4 + 3 and 5 + 3
    m, n, bits, count, seed, size = 4, 2, 3, 100, 4242, 23
    split_into_blocks(monkeypatch, count, (2**bits + n) * m, size)
    monkeypatch.setattr(linalg, "SLICE_BYTES", 5 * 2**bits * m * 16)
    parts = []
    for block, start in enumerate(range(0, count, size)):
        gen = RngStream(seed, block, 0, PURPOSE_VALIDATION).generator()
        take = min(size, count - start)
        channels = complex_normal(gen, (take, m, n))
        # each sample's codebook: the normals complex_normal(gen, (2^B, M)) draws
        raw = np.stack([gen.standard_normal((2, 2**bits, m)) for _ in range(take)], axis=1)
        parts.append(quantize_parts(channels, raw[0], raw[1])[0])
    probe_proj_sq = np.concatenate([np.abs(p.s_proj.conj() @ isotropy_probe(m)) ** 2
                                    for p in parts])
    vector_sum, gram = np.zeros(m, complex), np.zeros((m, m), complex)
    for part in parts:  # each block's sums, added in block order
        _, part_sum, part_gram = isotropy_moments(part.s_proj)
        vector_sum += part_sum
        gram += part_gram
    for cores in (1, 3):
        monkeypatch.setattr(linalg, "_cores", lambda: cores)
        pooled = collect_effective_samples(m, n, bits, count, seed)
        for name in ("cos_sq", "eff_norm_sq"):
            expected = np.concatenate([getattr(part, name) for part in parts])
            assert getattr(pooled, name).tobytes() == expected.tobytes()
        assert pooled.probe_proj_sq.tobytes() == probe_proj_sq.tobytes()
        assert pooled.direction_sum.tobytes() == vector_sum.tobytes()
        assert pooled.direction_gram.tobytes() == gram.tobytes()
    assert pools == [3]


def test_pooled_samples_do_not_depend_on_the_slice_bytes(monkeypatch):
    # (256 + 2) * 4 normals a sample: 330 samples are 3 blocks of 100 and one
    # of 30, in slices of one sample, 64 samples (the default) or every sample
    m, n, bits, count, seed = 4, 2, 8, 330, 8686
    split_into_blocks(monkeypatch, count, (2**bits + n) * m, 100)
    runs = []
    for slice_bytes in (2**bits * m * 16, linalg.SLICE_BYTES, 2**30):
        monkeypatch.setattr(linalg, "SLICE_BYTES", slice_bytes)
        pooled = collect_effective_samples(m, n, bits, count, seed)
        runs.append([array.tobytes() for array in vars(pooled).values()])
    assert runs[0] == runs[1] == runs[2]


@pytest.mark.parametrize("m, n, bits, take", [
    (4, 2, 8, 508),  # validate_b8's block: eight 64-sample slices
    (4, 1, 12, 31),  # a whole block: 31 one-sample slices
    (8, 4, 10, 30),  # 8-sample slices, the last of 6
    (4, 2, 17, 1),  # B >= 17 at M = 4: a block is one sample and one slice
])
def test_block_bytes_counts_a_blocks_traced_peak(monkeypatch, traced_peak, m, n, bits, take):
    monkeypatch.setattr(linalg, "_cores", lambda: 1)
    collect_effective_samples(m, n, bits, 1, 1)  # numpy's one-time set-up
    assert validate._plan(m, n, bits, take) == ([range(take)], 1)
    peak = traced_peak(collect_effective_samples, m, n, bits, take, 1)
    assert 0.75 * peak <= validate._block_bytes(m, n, bits, take) <= 1.25 * peak


@pytest.mark.parametrize("n_samples", [20_000, 80_000])
def test_reports_add_one_sorted_copy_and_one_block(traced_peak, n_samples):
    # a KS report sorts one copy of its samples (8 bytes each) and reads the
    # rest in row blocks; the isotropy report's projections are that copy
    config = ValidationConfig(4, 2, 4, n_samples, 3)
    samples = pool(config)
    for report in REPORTS:
        assert traced_peak(report, config, samples) <= 8 * n_samples + 2**20, report


def test_pool_grows_by_24_bytes_a_sample(monkeypatch, traced_peak):
    # 500-sample blocks on one worker: past one block's peak, the pool grows
    # by its cosine, gain and probe projection (24 bytes a sample) and by each
    # block's direction sums (under 1 KiB a block) until they are added; whole
    # directions would add 16 M bytes a sample more
    monkeypatch.setattr(linalg, "_cores", lambda: 1)
    monkeypatch.setattr(validate, "_BLOCK_GAUSSIANS", 500 * (2**4 + 2) * 4)
    collect_effective_samples(4, 2, 4, 1, 1)  # numpy's one-time set-up
    small, large = (traced_peak(collect_effective_samples, 4, 2, 4, count, 1)
                    for count in (2000, 10_000))
    assert large - small <= 24 * 8000 + 1024 * 16


def test_workers_capped_by_cores_blocks_and_memory(monkeypatch):
    monkeypatch.setattr(linalg, "_cores", lambda: 64)
    # validate_b8's shape: (256 + 2) * 4 normals a sample, 508 samples a
    # block.  A block holds 508 x (16 x (2 x 8 + 4 + 4) + 8) bytes of
    # channels, QR factors and picks, and a 64-sample slice holds 64 x 256 x
    # (16 x 4 + 32 x 2 + 8) bytes of normals, overlap and metric: 2,427,360
    # bytes, of which 27 fit in 64 MiB
    assert validate._block_bytes(4, 2, 8, 508) == 508 * 392 + 64 * 256 * 136 == 2_427_360
    blocks, workers = validate._plan(4, 2, 8, 100_000)
    takes = [len(rows) for rows in blocks]
    assert len(takes) == 197 and set(takes[:-1]) == {508} and sum(takes) == 100_000
    assert workers == 27 == validate.suite_workers(ValidationConfig(4, 2, 8, 100_000, 1))
    monkeypatch.setattr(linalg, "_cores", lambda: 2)
    assert validate.suite_workers(ValidationConfig(4, 2, 8, 100_000, 1)) == 2
    monkeypatch.setattr(linalg, "_cores", lambda: 64)
    assert validate.suite_workers(ValidationConfig(4, 2, 8, 1000, 1)) == 2  # two blocks
    # B >= 17 at M = 4: a block is one sample, which slicing by sample cannot
    # shrink.  At B = 17 it holds 392 + 2^17 x 136 bytes (17 MiB), so 3 fit;
    # at B = 24 one sample is over the cap
    assert validate._plan(4, 2, 17, 50) == ([range(k, k + 1) for k in range(50)], 3)
    assert validate._block_bytes(4, 2, 17, 1) == 392 + 2**17 * 136
    assert validate.suite_workers(ValidationConfig(4, 2, 24, 100_000, 1)) == 1


def test_validation_config_guards():
    assert ValidationConfig(2, 1, 1, 1000, 0) == ValidationConfig(2, 1, 1, 1000, 0)
    ValidationConfig(4, 3, MAX_CODEBOOK_BITS, 1000, 0)  # every bound is inclusive
    ValidationConfig(np.int64(4), np.int64(2), np.int64(8), np.int64(1000), np.int64(5))
    bad = [
        (dict(m=1, n_rx=1), "at least 2 transmit antennas"),
        (dict(n_rx=4), "1 <= N <= M-1"),  # N = M
        (dict(n_rx=0), "1 <= N <= M-1"),
        (dict(m=4.0), "antenna counts must be integers"),
        (dict(n_rx=True), "antenna counts must be integers"),
        (dict(bits=0), "bits must be an integer in [1, 24]"),
        (dict(bits=MAX_CODEBOOK_BITS + 1), "bits must be an integer in [1, 24]"),
        (dict(bits=2.0), "bits must be an integer in [1, 24]"),
        (dict(bits=True), "bits must be an integer in [1, 24]"),
        (dict(samples=999), "at least 1000 samples"),
        (dict(samples=1000.0), "at least 1000 samples"),
        (dict(samples=True), "at least 1000 samples"),
        (dict(seed=-1), "seed must be nonnegative"),
        (dict(seed=1.5), "seed must be nonnegative"),
        (dict(seed=False), "seed must be nonnegative"),
    ]
    for fields, fragment in bad:
        with pytest.raises(ValueError, match=re.escape(fragment)):
            ValidationConfig(**{"m": 4, "n_rx": 2, "bits": 4, "samples": 1000, "seed": 0,
                                **fields})


def test_collector_guards():
    bad = [
        ((4, 2, 0, 10, 1), "bits must be an integer in [1, 24], got 0"),
        ((4, 2, -1, 10, 1), "bits must be an integer in [1, 24], got -1"),
        ((4, 2, True, 10, 1), "bits must be an integer in [1, 24], got True"),
        ((4, 2, MAX_CODEBOOK_BITS + 1, 10, 1), "bits must be an integer in [1, 24], got 25"),
        ((1, 1, 4, 10, 1), "at least 2 transmit antennas, got M=1"),
        ((4, 5, 4, 10, 1), "1 <= N <= M-1, got N=5"),
        ((4, 0, 4, 10, 1), "1 <= N <= M-1, got N=0"),
        ((4, 2, 4, 0, 1), "n_samples must be a positive integer, got 0"),
        ((4, 2, 4, 10.0, 1), "n_samples must be a positive integer, got 10.0"),
    ]
    for args, fragment in bad:
        with pytest.raises(ValueError, match=re.escape(fragment)):
            collect_effective_samples(*args)
    with pytest.raises(ValueError):
        collect_best_cosine_samples(4, 2, 4, 0, 1, per_antenna=True)


# -------------------------------------------------------------------- reports


def test_angle_report_reference_mean_closed_form():
    # (2,1): cos_sq is the max of 2^B uniforms, whose mean is K/(K+1)
    config = ValidationConfig(2, 1, 4, 2000, 717)
    report = quantization_angle_report(config, pool(config))
    assert report.mean_ref == pytest.approx(16.0 / 17.0, abs=1e-5)


def test_angle_report_guards():
    # a report takes a ValidationConfig, which refuses N = M before any sample is drawn
    with pytest.raises(ValueError, match=re.escape("1 <= N <= M-1")):
        quantization_angle_report(ValidationConfig(4, 4, 4, 1000, 1), None)


def test_laws_hold_at_moderate_sample_size():
    config = ValidationConfig(4, 2, 6, 20_000, 4242)
    samples = pool(config)
    angle, iso, gain, err = (report(config, samples) for report in REPORTS)
    for report in (angle, iso, gain, err):
        assert report.passed, report
    assert gain.mean_ref == 3.0


def test_exact_gain_law_for_single_receive_antenna():
    # N=1 keeps the full channel norm, so the gain law is exact Gamma(M, 1)
    config = ValidationConfig(4, 1, 4, 20_000, 4343)
    report = effective_gain_report(config, pool(config))
    assert report.passed
    assert report.mean_ref == 4.0


def test_wrong_reference_suite_fails_everywhere():
    reports = run_validation_suite(ValidationConfig(4, 2, 6, 10_000, 4444), wrong_reference=True)
    assert len(reports) == 2
    for report in reports:
        assert not report.passed
        assert report.name.endswith("_wrong_ref")


def test_suite_verdicts_hold_at_small_sample_counts():
    # each threshold rises to its statistic's critical value at n (a 1e-4
    # chance of failing correct code), so chance fails at most one of 60 seeds
    # at 4,000 samples (31 did with thresholds fixed at their 1e5 values), and
    # the wrong laws still fail; each seed's pool is drawn once for both suites
    failed = []
    for seed in range(60):
        config = ValidationConfig(4, 2, 5, 4000, seed)
        samples = pool(config)
        if not all(report(config, samples).passed for report in REPORTS):
            failed.append(seed)
        wrong = validate._wrong_reference_reports(config, samples)
        assert not any(r.passed for r in wrong), seed
    assert len(failed) <= 1, failed


def test_suite_names_and_pass(tmp_path):
    reports = run_validation_suite(ValidationConfig(4, 2, 6, 20_000, 4242))
    names = [r.name for r in reports]
    assert names == [
        "angle_law_m4_n2_b6",
        "direction_isotropy_m4_n2_b6",
        "effective_gain_m4_n2_b6",
        "quant_error_m4_n2_b6",
    ]
    assert all(r.passed for r in reports)
