"""Independent references that the tests check ``quantize_stack`` against, and test samplers.

``vector_oracle`` and ``span_metric`` share no code with the kernel: both
score codewords by complex inner products, where the kernel uses the real
embedding of the same products.  ``Replay`` hands given normals to
``generate_codebook``, so that a test can form the codebook a stream drew;
``quantize_parts`` runs the kernel's stages on a codebook's normal parts.
``collect_best_cosine_samples`` runs the kernel on validation's sample blocks,
serially, for the antenna-selection acceptance test.  ``whole_ks_statistic`` and
``whole_isotropy`` compute the law checks on whole arrays, as references for
``stats``, whose KS statistic reads the samples in row blocks.
``complex_normal`` draws the complex Gaussians the tests build channels from.
``perfect_csit_rates`` is the Monte Carlo perfect-CSIT benchmark, zero-forced
through ``precoding``, and ``zf_rate_mean`` takes its mean by quadrature: both
are references for ``formulas.zf_rate_mean``, the closed form the sweep
reports.  ``explicit_per_block`` is the per-block scorer that draws and scans
every codebook (the sweep's per_block policy up to stream contract v5), the
reference for the sweep's scorer that draws each pick from its law.
"""

import numpy as np

from effchan import precoding, validate
from effchan.experiment import _BLOCK, ExperimentConfig
from effchan.formulas import LOG2E
from effchan.linalg import (PURPOSE_CODEBOOK, PURPOSE_PROBE, PURPOSE_VALIDATION, RngStream,
                            complex_from_parts)
from effchan.quantize import (FAULT_ORTHOGONAL, QuantizationResult, _orient, _select,
                              _select_drawn, raise_fault)
from effchan.stats import _PROBE_SEED, beta_cdf


def complex_normal(gen, shape):
    """iid circularly-symmetric complex Gaussian entries, unit variance.

    Real and imaginary parts are N(0, 1/2), so E|h|^2 = 1.  The real block is
    drawn before the imaginary block, as the sweep and validation draw theirs.
    """
    shape = (shape,) if isinstance(shape, (int, np.integer)) else tuple(shape)
    return complex_from_parts(gen.standard_normal((2, *shape)))


def perfect_csit_rates(channels, power):
    """Zero-forcing sum rate with perfect channel knowledge at the transmitter.

    channels is (..., M, M) with column i the true channel vector of user i
    (one receive antenna each).  Beams are zero-forced on the true
    directions, so interference vanishes and the rate is
    sum_i log2(1 + P/M |<h_i, v_i>|^2).  Returns (rates, cond, residual) as
    ``zero_force`` does; see ``refused``.  An array of powers leads the
    rates' axes, as in ``sinr_stack``: the stack is zero-forced once.
    ``precoding.zero_force`` and ``precoding.sinr_stack`` are looked up at call
    time, so that a test can plant a bug in either.
    """
    directions = channels / np.linalg.norm(channels, axis=-2, keepdims=True)
    vectors, cond, residual = precoding.zero_force(directions)
    return precoding.sum_rate(precoding.sinr_stack(channels, vectors, power)), cond, residual


def zf_rate_mean(m, power):
    """E[rate_zf] = M log2(e) e^{M/P} E1(M/P), the mean perfect-CSIT zero-forcing sum rate of
    M single-antenna users on M antennas at linear power P, each user's gain |<h_i, v_i>|^2
    being Exp(1).

    e^a E1(a) = int_0^inf e^{-u} / (a + u) du is taken by the trapezoid rule in s = log u,
    where the integrand is smooth and falls off fast at both ends.
    """
    s = np.linspace(-50.0, 5.0, 2 ** 14 + 1)
    u = np.exp(s)
    integrand = u * np.exp(-u) / (m / power + u)
    return m * LOG2E * float(np.sum(integrand[1:] + integrand[:-1]) * (s[1] - s[0]) / 2)


def explicit_per_block(config: ExperimentConfig, pairs: list):
    """Per-block scorer: for each bit count of ``pairs``, a chunk's stream blocks draw their
    codebooks as generate_codebook would, trial after trial, and ``_select_drawn`` scores each
    slice for every N that spends it, on the columns of Q the largest of them spans."""
    widths = {}  # bits -> the Ns that spend it
    for n, bits in pairs:
        widths.setdefault(bits, []).append(n)

    def score(first_block: int, q: np.ndarray):
        lead = q.shape[:-2]
        for bits, ns in widths.items():
            picks = [(np.empty(lead, np.intp), np.empty((*lead, config.m), complex),
                      np.empty(lead)) for _ in ns]
            for lo in range(0, len(q), _BLOCK):
                stream = RngStream(config.seed, first_block + lo // _BLOCK, 0, PURPOSE_CODEBOOK)
                rows = slice(lo, lo + _BLOCK)
                _select_drawn(stream.generator(), q[rows, ..., :max(ns)], bits, ns,
                              [[p[rows] for p in pick] for pick in picks])
            yield from zip(((n, bits) for n in ns), picks)
    return score


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


def quantize_parts(channels, re, im):
    """quantize_stack's pair for the random codebooks whose real and imaginary
    standard normals are re and im: _orient(_select(...)) on numpy's QR."""
    q, r = np.linalg.qr(channels)
    [picks] = _select(q, (re, im), (channels.shape[-1],))
    return _orient(channels, q, r, *picks)


def whole_ks_statistic(samples, cdf):
    """sup_x |F_n(x) - F(x)| of a 1-D sample, cdf evaluated on the whole sorted sample at once."""
    s = np.sort(np.asarray(samples, dtype=float))
    n = s.size
    ref = np.asarray(cdf(s), dtype=float)
    grid = np.arange(1, n + 1) / n
    return float(np.max(np.maximum(grid - ref, ref - (grid - 1.0 / n))))


def whole_isotropy(vectors):
    """isotropy_verdict's (mean_obs, cov_max_deviation, probe, ks_statistic), each from one
    whole-array expression."""
    v = np.asarray(vectors, dtype=np.complex128)
    n, m = v.shape
    cov = (v.T @ v.conj()) / n  # entry (j, k) = E[v_j conj(v_k)]
    gen = RngStream(_PROBE_SEED, purpose=PURPOSE_PROBE).generator()
    probe = (gen.standard_normal(m) + 1j * gen.standard_normal(m)) * np.sqrt(0.5)
    probe = probe / np.linalg.norm(probe)
    proj_sq = np.abs(v.conj() @ probe) ** 2
    return (float(np.linalg.norm(v.mean(axis=0))), float(np.abs(cov - np.eye(m) / m).max()),
            probe, whole_ks_statistic(proj_sq, lambda x: beta_cdf(x, 1, m - 1)))


class Replay:
    """Stand-in stream whose generator hands out given normals once."""

    def __init__(self, normals):
        self.normals = normals

    def generator(self):
        return self

    def standard_normal(self, shape):
        assert shape == self.normals.shape
        return self.normals.copy()


def collect_best_cosine_samples(m, n, bits, n_samples, seed, per_antenna):
    """Squared cosines from vector quantization of single-antenna channels.

    per_antenna=True: each of the N columns gets its own 2^bits codebook and
    the best antenna is kept (antenna-selection upper layer).  False: one
    channel vector against a single codebook of N * 2^bits entries, the
    matched-size flat quantizer.  Samples are drawn serially in validation's
    block layout, a block counted as its whole draw of N 2^B M normals a
    sample, and validation's streams: the block's channels, then each
    sample's codebooks, each one (2, rows, M) run.  Each column is a
    one-column channel for the kernel.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    best = np.empty(n_samples)
    size = max(1, validate._BLOCK_GAUSSIANS // (n * 2 ** bits * m))
    for block, start in enumerate(range(0, n_samples, size)):
        gen = RngStream(seed, block, 0, PURPOSE_VALIDATION).generator()
        take = min(size, n_samples - start)
        if per_antenna:  # column k of each channel against its own codebook
            columns = np.swapaxes(complex_normal(gen, (take, m, n)), 1, 2)[..., None]
            raw = gen.standard_normal((take, n, 2, 2 ** bits, m))
        else:
            columns = complex_normal(gen, (take, 1, m, 1))
            raw = gen.standard_normal((take, 1, 2, n * 2 ** bits, m))
        best[start:start + take] = best_cosines(columns, np.moveaxis(raw, 2, 0))
    return best


def best_cosines(columns, raw):
    """Each sample's best cos^2; an orthogonal column's 0 is a valid sample, not a fault."""
    r, fault = quantize_parts(columns, raw[0], raw[1])
    raise_fault(np.where(fault == FAULT_ORTHOGONAL, 0, fault))
    return r.cos_sq.max(axis=1)
