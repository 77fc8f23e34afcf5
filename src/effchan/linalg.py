"""Seeded random sampling, the numerical tolerances and the worker rule the kernels share.

Random streams and complex Gaussian draws live here, with the rank and
conditioning tolerances.  No solver does: the receive combiner is solved on
the channel's own QR factor inside ``quantize._orient``, and the
zero-forcing inverse is ``precoding.zero_force``.

The sweep's chunks and validation's sample blocks run on one thread per core
the process may run on (the normal sampler, the BLAS products, ``einsum`` and
``np.linalg`` release the GIL), through ``worker_count`` and ``ordered_map``,
and validation scores its drawn codebooks in slices of ``SLICE_BYTES``
(``quantize._select_drawn``), which also sizes the sweep's chunks.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

# A QR pivot |R_kk| below this is treated as a rank drop.
RANK_TOL = 1e-12
# A max/min QR pivot ratio above this refuses inversion.
COND_LIMIT = 1e8

# Stream purposes (fourth component of a stream id).  Keeping them in one
# registry guarantees distinct draws never share a (seed, trial, user, purpose).
PURPOSE_CHANNEL = 0
# 1 is retired in the sweep, whose streams up to v5 drew per-block codebooks there;
# library callers still draw codebooks from it.  Never reuse it for a sweep draw.
PURPOSE_CODEBOOK = 1
# 2 is retired: sweep streams up to v4 drew a Monte Carlo benchmark there.  Never reuse it.
PURPOSE_FIXED_CODEBOOK = 3
PURPOSE_PROBE = 4
PURPOSE_VALIDATION = 5
PURPOSE_LAW = 6

# Cap on the bytes all workers' items hold at once (2^22 complex normals).
IN_FLIGHT_BYTES = 2 ** 26
# Bytes of drawn codebook normals one ``quantize._select`` call scores in a
# validation block (64 samples' at M = 4, B = 8), and the trials a sweep chunk holds.
SLICE_BYTES = 2 ** 20


class DegenerateChannelError(ValueError):
    """Matrix is numerically rank deficient where full rank is required."""


def is_stream_id(value) -> bool:
    """Whether value may be a stream id component: a nonnegative integer, not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= 0


@dataclass(frozen=True)
class RngStream:
    """Deterministic random stream keyed by (seed, trial, user, purpose).

    Equal ids reproduce identical samples; distinct ids give statistically
    independent streams.  Backed by numpy's SFC64 generator seeded through
    SeedSequence, which is stable across platforms and is part of this
    package's reproducibility contract.
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
        return np.random.Generator(np.random.SFC64(ss))


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


def _cores() -> int:
    """Cores this process may run on (``taskset`` limits them)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def worker_count(items: int, item_bytes: int) -> int:
    """Worker threads for ``items`` items of ``item_bytes`` bytes each.

    One per core, no more than there are items, and together holding at most
    IN_FLIGHT_BYTES, or one item when an item is larger.
    """
    return min(_cores(), items, max(1, IN_FLIGHT_BYTES // item_bytes))


def slice_items(item_bytes: int) -> int:
    """Items of ``item_bytes`` bytes each that one SLICE_BYTES slice holds, at least one."""
    return max(1, SLICE_BYTES // item_bytes)


def ordered_map(fn, items, workers: int) -> list:
    """``[fn(item) for item in items]`` on ``workers`` threads; one runs serially, no pool."""
    if workers == 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
