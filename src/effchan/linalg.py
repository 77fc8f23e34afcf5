"""Complex linear-algebra kernel and seeded random sampling.

Everything here operates on plain numpy complex128 arrays: vectors are 1-D,
matrices are 2-D (rows, cols), and a stack of matrices carries its leading
axes first.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

# A QR pivot |R_kk| below this is treated as a rank drop.
RANK_TOL = 1e-12
# A max/min QR pivot ratio above this refuses inversion.
COND_LIMIT = 1e8

# Stream purposes (fourth component of a stream id).  Keeping them in one
# registry guarantees distinct draws never share a (seed, trial, user, purpose).
PURPOSE_CHANNEL = 0
PURPOSE_CODEBOOK = 1
PURPOSE_BENCHMARK = 2
PURPOSE_FIXED_CODEBOOK = 3
PURPOSE_PROBE = 4
PURPOSE_VALIDATION = 5

# numpy's SeedSequence hash constants (stream_keys) and the zero Philox
# counter and buffer a stream starts from (rewind).
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PHILOX_ZEROS = np.zeros(4, dtype=np.uint64)
_PHILOX_ZEROS.setflags(write=False)


class DegenerateChannelError(ValueError):
    """Matrix is numerically rank deficient where full rank is required."""


def is_stream_id(value) -> bool:
    """Whether value may be a stream id component: a nonnegative integer."""
    return isinstance(value, (int, np.integer)) and value >= 0


@dataclass(frozen=True)
class RngStream:
    """Deterministic random stream keyed by (seed, trial, user, purpose).

    Equal ids reproduce identical samples; distinct ids give statistically
    independent streams.  Backed by numpy's Philox counter-based generator
    seeded through SeedSequence, which is stable across platforms and is part
    of this package's reproducibility contract.
    """

    seed: int
    trial: int = 0
    user: int = 0
    purpose: int = 0

    def __post_init__(self):
        for field in ("seed", "trial", "user", "purpose"):
            value = getattr(self, field)
            if not is_stream_id(value):
                raise ValueError(f"stream {field} must be a nonnegative integer, got {value!r}")

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        ss = np.random.SeedSequence([self.seed, self.trial, self.user, self.purpose])
        return np.random.Generator(np.random.Philox(ss))

    def derive(self, *, trial: int | None = None, user: int | None = None,
               purpose: int | None = None) -> "RngStream":
        """Copy of this stream with some id components replaced."""
        updates = {}
        if trial is not None:
            updates["trial"] = trial
        if user is not None:
            updates["user"] = user
        if purpose is not None:
            updates["purpose"] = purpose
        return replace(self, **updates)


def _hasher(const: int, mult: int):
    """SeedSequence's hashmix with its running hash constant, on uint32 arrays."""
    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        return _xorshift(value * np.uint32(const))
    return hashmix


def _xorshift(value):
    return value ^ (value >> np.uint32(16))


def _mix(x, y):
    return _xorshift(_MIX_L * x - _MIX_R * y)


def stream_keys(seed: int, trial, user, purpose) -> np.ndarray:
    """Philox keys (..., 2) of the streams (seed, trial, user, purpose).

    seed is a nonnegative integer and the ids are integer arrays (or ints)
    in [0, 2**32) that broadcast together.  Each key equals
    ``SeedSequence([seed, trial, user, purpose]).generate_state(2, np.uint64)``,
    the key ``RngStream(...).generator()`` starts from: this redoes numpy's
    entropy mixing (a pool of four words) and generate_state on whole arrays.
    """
    ids = [np.asarray(v) for v in (trial, user, purpose)]
    if not is_stream_id(seed) or any(
            v.dtype.kind not in "iu" or np.any((v < 0) | (v > _MASK32)) for v in ids):
        raise ValueError(f"need a nonnegative integer seed and integer ids in [0, 2**32), got "
                         f"{seed!r}, {trial!r}, {user!r}, {purpose!r}")
    seed = int(seed)  # split into 32-bit words, low word first
    entropy = [np.uint32(seed >> shift & _MASK32)
               for shift in range(0, max(seed.bit_length(), 1), 32)]
    entropy += [v.astype(np.uint32) for v in ids]
    hashmix = _hasher(_INIT_A, _MULT_A)
    with np.errstate(over="ignore"):  # uint32 arithmetic wraps mod 2**32
        pool = [hashmix(word) for word in entropy[:4]]
        for src, dst in itertools.permutations(range(4), 2):  # src outer, dst inner
            pool[dst] = _mix(pool[dst], hashmix(pool[src]))
        for word in entropy[4:]:
            pool = [_mix(value, hashmix(word)) for value in pool]
        state = np.stack(np.broadcast_arrays(*map(_hasher(_INIT_B, _MULT_B), pool)), axis=-1)
    return state.astype("<u4").view("<u8").astype(np.uint64)


def rewind(gen: np.random.Generator, key: np.ndarray) -> np.random.Generator:
    """Put Philox-backed ``gen`` at the start of the stream with this key: it
    then draws what ``RngStream(...).generator()`` draws for that key."""
    gen.bit_generator.state = {
        "bit_generator": "Philox", "state": {"counter": _PHILOX_ZEROS, "key": key},
        "buffer": _PHILOX_ZEROS, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return gen


def complex_normal(gen: np.random.Generator, shape) -> np.ndarray:
    """iid circularly-symmetric complex Gaussian entries, unit variance.

    Real and imaginary parts are N(0, 1/2) so E|h|^2 = 1.  Draw order (real
    block then imaginary block) is fixed; it is part of the determinism
    contract relied on by tests that replay streams.
    """
    shape = (shape,) if isinstance(shape, (int, np.integer)) else tuple(shape)
    return complex_from_parts(gen.standard_normal((2, *shape)))


def complex_from_parts(parts: np.ndarray) -> np.ndarray:
    """(parts[0] + i parts[1]) / sqrt(2) as a new contiguous complex array.

    ``parts`` (leading axis of length 2, any strides) holds standard normals
    and is scaled in place.
    """
    parts *= np.sqrt(0.5)
    out = np.empty(parts.shape[1:], dtype=np.complex128)
    out.real = parts[0]
    out.imag = parts[1]
    return out


def normal_solve(h: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Solve the normal equations (H^H H) v = H^H s, for one system or a stack.

    h is (..., M, N) and s is (..., M).  For full-column-rank H this is the
    least-squares coefficient vector of s in the columns of H; when s lies in
    the column span, H v reconstructs s exactly.
    """
    h = np.asarray(h, dtype=np.complex128)
    s = np.asarray(s, dtype=np.complex128)
    if h.ndim < 2 or s.shape != h.shape[:-1]:
        raise ValueError(f"shape mismatch: H {h.shape}, s {s.shape}")
    gram = np.einsum("...mi,...mj->...ij", h.conj(), h)
    rhs = np.einsum("...mi,...m->...i", h.conj(), s)
    try:
        # trailing singleton keeps solve in stacked-matrix mode on every numpy
        v = np.linalg.solve(gram, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise DegenerateChannelError(f"normal equations are singular: {exc}") from exc
    if not np.all(np.isfinite(v)):
        raise DegenerateChannelError("normal equations produced non-finite solution")
    return v
