"""Deterministic, seedable random streams.

The generator is counter based: draw ``j`` of a stream is a pure function
of ``(seed, j)``, so any subsequence can be produced independently and the
output is bit-identical for a given seed regardless of call pattern or
platform word size.  The mixing function is the splitmix64 finalizer over
the counter, and normal variates come from the Box-Muller transform of
consecutive uniform pairs.

``raw64``, ``uniforms`` and ``normals`` take one seed or a sequence of
seeds.  A sequence gives a ``(len(seeds), count)`` block whose row ``i``
is bit-identical to the call with ``seeds[i]`` alone, so a block of trials
draws its noise in one pass.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def mix_seed(*parts: int) -> int:
    """Fold integer parts into one 64-bit seed.

    Used to derive independent sub-streams, e.g. one per benchmark trial:
    ``mix_seed(master_seed, sweep_index, trial_index)``.  Distinct part
    tuples map to distinct seeds for all practical purposes.
    """
    h = 0
    for p in parts:
        p = int(p) & _MASK
        h = (h ^ ((p + _GOLDEN) & _MASK)) & _MASK
        # splitmix64 finalizer on plain Python ints
        h = (h ^ (h >> 30)) * _MIX1 & _MASK
        h = (h ^ (h >> 27)) * _MIX2 & _MASK
        h = h ^ (h >> 31)
    return h


def _mix64(z: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer, in place."""
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    return z


def raw64(seed, count: int, offset: int = 0) -> np.ndarray:
    """64-bit words ``offset .. offset+count-1`` of the stream, one row
    per seed when ``seed`` is a sequence."""
    if count < 0:
        raise ValueError("count must be non-negative")
    idx = np.arange(offset + 1, offset + count + 1, dtype=np.uint64)
    if np.ndim(seed) == 0:
        base = np.uint64(int(seed) & _MASK)
    else:
        base = np.array([int(s) & _MASK for s in seed], dtype=np.uint64)[:, None]
    with np.errstate(over="ignore"):
        state = base + idx * np.uint64(_GOLDEN)
        return _mix64(state)


def uniforms(seed, count: int, offset: int = 0) -> np.ndarray:
    """Uniform variates in the half-open interval (0, 1].

    The open-at-zero convention keeps ``log(u)`` finite, which the
    Box-Muller transform relies on.
    """
    bits = raw64(seed, count, offset)
    bits >>= np.uint64(11)
    u = bits.astype(np.float64)
    u += 1.0
    u *= 2.0 ** -53
    return u


def normals(seed, count: int) -> np.ndarray:
    """Standard normal variates via Box-Muller over the uniform stream.

    Draw ``k`` consumes uniforms ``2*floor(k/2)`` and ``2*floor(k/2)+1``,
    so a longer request extends a shorter one without changing its prefix.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    pairs = (count + 1) // 2
    u = uniforms(seed, 2 * pairs)
    r = np.log(u[..., 0::2])
    r *= -2.0
    np.sqrt(r, out=r)
    theta = 2.0 * np.pi * u[..., 1::2]
    out = u  # each uniform pair is read before its normals overwrite it
    for half, trig in ((0, np.cos), (1, np.sin)):
        values = trig(theta)
        values *= r
        out[..., half::2] = values
    return out[..., :count]
