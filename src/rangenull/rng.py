"""Deterministic, portable random streams.

The generator is SplitMix64: output word ``i`` of a stream is
``mix64(seed + i * 0x9E3779B97F4A7C15)`` where ``mix64`` is the standard
two-round xor-shift/multiply finalizer with constants
``0xBF58476D1CE4E5B9`` and ``0x94D049BB133111EB`` and final shift 31.
Uniform doubles take the top 53 bits of a word; Gaussian samples apply
the Box-Muller transform to consecutive word pairs.  Every draw is a pure
function of (seed, position), so streams reproduce bit-for-bit across
runs and can be generated in vectorized blocks.  Words and uniforms are
also bit-portable across platforms; Gaussians go through numpy's
vectorized ``log``, ``sin`` and ``cos``, whose last bits may differ
between machines.
"""

from __future__ import annotations

import numpy as np

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_DERIVE_SALT = np.uint64(0xD1B54A32D192ED03)
_U53 = 2.0**-53


def _mix64(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def derive(seed: int, index: int) -> int:
    """Child seed for sub-stream ``index``; salted so children never collide
    with the parent's own output words."""
    mask = 0xFFFFFFFFFFFFFFFF
    base = (seed & mask) ^ int(_DERIVE_SALT)
    z = (base + (index + 1) * int(_GAMMA)) & mask
    word = _mix64(np.asarray([z], dtype=np.uint64))
    return int(word[0])


class Stream:
    """Sequential view over a SplitMix64 output sequence."""

    def __init__(self, seed: int):
        self._seed = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
        self._pos = 0

    def words(self, n: int) -> np.ndarray:
        """Next ``n`` raw 64-bit words."""
        idx = np.arange(self._pos + 1, self._pos + n + 1, dtype=np.uint64)
        self._pos += n
        return _mix64(self._seed + idx * _GAMMA)

    def uniform(self, shape: int | tuple[int, ...]) -> np.ndarray:
        """Uniform doubles in [0, 1)."""
        n = int(np.prod(shape))
        out = (self.words(n) >> np.uint64(11)).astype(np.float64) * _U53
        return out.reshape(shape)

    def gaussian(self, shape: int | tuple[int, ...]) -> np.ndarray:
        """Standard normal doubles via Box-Muller on word pairs."""
        n = int(np.prod(shape))
        pairs = (n + 1) // 2
        w = self.words(2 * pairs)
        # u1 in (0, 1] keeps the log finite; u2 in [0, 1).
        u1 = ((w[:pairs] >> np.uint64(11)).astype(np.float64) + 1.0) * _U53
        u2 = (w[pairs:] >> np.uint64(11)).astype(np.float64) * _U53
        radius = np.sqrt(-2.0 * np.log(u1))
        angle = 2.0 * np.pi * u2
        out = np.empty(2 * pairs)
        out[0::2] = radius * np.cos(angle)
        out[1::2] = radius * np.sin(angle)
        return out[:n].reshape(shape)
