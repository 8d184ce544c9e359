"""Portable deterministic random streams.

Everything random in this package flows through two primitives built on the
SplitMix64 mixing function, so any run is reproducible bit-for-bit from its
seed and re-implementable in another language from this file alone:

* ``SplitMix64`` -- a sequential 64-bit stream used by the instance generator.
* ``keyed_uniforms`` -- stateless counter-based streams used by the solver.
  The uniform consumed by (agent ordinal, particle, iteration, draw slot) is a
  pure function of the key tuple, which is what lets the distributed runtime
  and the centralized reference consume identical randomness.

All arithmetic is modulo 2**64. Uniform doubles take the top 53 bits of a
mixed word, giving values in [0, 1).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15  # 2**64 / golden ratio, the SplitMix64 increment
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# draw slots for the solver's keyed streams
DRAW_INIT = 0  # initial particle positions
DRAW_R1 = 1    # personal-best attraction factor
DRAW_R2 = 2    # global-best attraction / perturbation factor


def mix64(z: int) -> int:
    """SplitMix64 output function: a bijective avalanche mix of one word."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return z ^ (z >> 31)


def absorb(h: int, word: int) -> int:
    """Fold one key word into a running hash: mix64(h + GOLDEN + word)."""
    return mix64((h + GOLDEN + word) & MASK64)


def stream_key(seed: int, *words: int) -> int:
    """Derive a 64-bit stream key by absorbing words in order into the seed."""
    h = seed & MASK64
    for w in words:
        h = absorb(h, w)
    return h


def derive_seed(seed: int, index: int) -> int:
    """Per-instance sub-seed for batch generation: stream_key(seed, index)."""
    return stream_key(seed, index)


_S30, _S27, _S31, _U53 = (np.uint64(s) for s in (30, 27, 31, 11))
_M1, _M2 = np.uint64(_MIX1), np.uint64(_MIX2)


def _mix64_inplace(z: np.ndarray) -> np.ndarray:
    """mix64 of every word of a uint64 array, written back into it."""
    z ^= z >> _S30
    z *= _M1
    z ^= z >> _S27
    z *= _M2
    z ^= z >> _S31
    return z


@lru_cache(maxsize=16)
def _counter_steps(n: int) -> np.ndarray:
    """GOLDEN*(k+1) mod 2**64 for k = 0..n-1, read-only: one per K in use."""
    steps = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(GOLDEN)
    steps.setflags(write=False)
    return steps


# Up to this many rows, a key grid hashes each row's key with Python ints
# (about 2 us a row on a 2-vCPU machine) rather than as one array (the ~25
# array operations cost 15-20 us whatever the rows).
_ROWS_HASHED_ONE_BY_ONE = 8


def _row_keys(seed: int, ordinals: np.ndarray, iteration: int, draw: int) -> np.ndarray:
    """stream_key(seed, ordinal, iteration, draw) of each ordinal, as uint64."""
    if ordinals.size <= _ROWS_HASHED_ONE_BY_ONE:
        return np.array([stream_key(seed, o, iteration, draw) for o in ordinals.tolist()],
                        dtype=np.uint64)
    # absorb(h, w) = mix64(h + (GOLDEN + w)), applied to every ordinal's h at once
    h = ordinals.astype(np.uint64) + np.uint64((seed + GOLDEN) & MASK64)
    for word in (iteration, draw):
        h = _mix64_inplace(h) + np.uint64((GOLDEN + word) & MASK64)
    return _mix64_inplace(h)


def keyed_uniforms(seed: int, ordinal: int | np.ndarray, iteration: int, draw: int,
                   n: int) -> np.ndarray:
    """Return n doubles in [0, 1) for a (seed, agent, iteration, draw) stream.

    Output k is mix64(h + GOLDEN*(k+1)) scaled to [0, 1), where
    h = stream_key(seed, ordinal, iteration, draw). Stateless: the same key
    tuple always yields the same vector, regardless of evaluation order.

    `ordinal` may also be a 1-D numpy array of ordinals: the result then has
    one row of n doubles per ordinal, each bit-identical to the scalar call,
    mixed as one key grid.
    """
    if not isinstance(ordinal, np.ndarray):
        z = _counter_steps(n) + np.uint64(stream_key(seed, ordinal, iteration, draw))
    else:
        z = _row_keys(seed, ordinal, iteration, draw)[:, None] + _counter_steps(n)
    bits = _mix64_inplace(z)
    bits >>= _U53
    return np.multiply(bits, 2.0**-53)


class SplitMix64:
    """Sequential SplitMix64 stream (state += GOLDEN; output mix64(state))."""

    def __init__(self, seed: int):
        self._state = seed & MASK64

    def next_u64(self) -> int:
        self._state = (self._state + GOLDEN) & MASK64
        return mix64(self._state)

    def random(self) -> float:
        """Uniform double in [0, 1): top 53 bits of the next word."""
        return (self.next_u64() >> 11) * 2.0**-53

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.random()

    def below(self, n: int) -> int:
        """Uniform integer in [0, n): next_u64() % n (bias < n / 2**64)."""
        if n <= 0:
            raise ValueError("below() needs n >= 1")
        return self.next_u64() % n
