"""Portable deterministic random streams.

Everything random in this package flows through two primitives built on the
SplitMix64 mixing function, so any run is reproducible bit-for-bit from its
seed and re-implementable in another language from this file alone:

* ``SplitMix64`` -- a sequential 64-bit stream used by the instance generator.
* ``keyed_uniforms`` -- stateless counter-based streams used by the solver.
  The uniform consumed by (agent ordinal, particle, iteration, draw slot) is a
  pure function of the key tuple, which is what lets the distributed runtime
  and the centralized reference consume identical randomness. It is the
  composition of two vectorized halves: ``stream_keys`` derives each stream's
  key, and ``uniforms`` mixes a key's counters into doubles. A caller can
  derive keys ahead of the draws that use them, as the swarm's key schedule
  does, and draw the same bits.

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


# 0-d arrays rather than numpy scalars: as the operand of an operation on a
# few words, a 0-d array cost 0.5 us a call against 0.7-0.9 us for a numpy
# scalar (timeit, numpy 2.4, 2 vCPUs)
_S30, _S27, _S31, _U53, _M1, _M2, _GOLDEN = (np.array(c, dtype=np.uint64) for c in
                                             (30, 27, 31, 11, _MIX1, _MIX2, GOLDEN))


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


def stream_keys(seed: int, ordinals, iterations, draws) -> np.ndarray:
    """stream_key(seed, ordinal, iteration, draw) of every element of the
    broadcast of `ordinals`, `iterations` and `draws`, as uint64 words.

    Each absorb runs over the broadcast of the words absorbed so far: the
    seed's once per ordinal, the iteration's once per (iteration, ordinal)
    pair, so a (span, 2, n) grid of iterations (span, 1, 1), draws (2, 1)
    and ordinals (n,) absorbs the seed into n words only.
    """
    ordinals = np.asarray(ordinals)
    shape = np.broadcast(ordinals, iterations, draws).shape
    # at least one word, so that every operation below is an in-place array one
    h = np.atleast_1d(ordinals.astype(np.uint64))
    h += _addend(seed)
    _mix64_inplace(h)
    for words in (iterations, draws):
        h = _mix64_inplace(h + _addend(words))
    return h.reshape(shape)


def _addend(words) -> np.ndarray:
    """GOLDEN + words mod 2**64 as uint64: what absorbing `words` adds."""
    if isinstance(words, np.ndarray):
        w = words.astype(np.uint64)
        w += _GOLDEN
        return w
    return np.array((GOLDEN + words) & MASK64, dtype=np.uint64)


def uniforms(keys: np.ndarray, n: int) -> np.ndarray:
    """n doubles in [0, 1) per stream key: output k of key h is
    mix64(h + GOLDEN*(k+1)) scaled to [0, 1), of shape keys.shape + (n,)."""
    z = keys[..., None] + _counter_steps(n)
    bits = _mix64_inplace(z)
    bits >>= _U53
    return np.multiply(bits, 2.0**-53)


def keyed_uniforms(seed: int, ordinal: int | np.ndarray, iteration: int, draw: int,
                   n: int) -> np.ndarray:
    """Return n doubles in [0, 1) for a (seed, agent, iteration, draw) stream.

    Output k is mix64(h + GOLDEN*(k+1)) scaled to [0, 1), where
    h = stream_key(seed, ordinal, iteration, draw). Stateless: the same key
    tuple always yields the same vector, regardless of evaluation order.

    `ordinal` may also be a 1-D numpy array of ordinals: the result then has
    one row of n doubles per ordinal, each bit-identical to the scalar call.
    It is `uniforms(stream_keys(...), n)`, the key and the counter halves of
    one definition.
    """
    return uniforms(stream_keys(seed, ordinal, iteration, draw), n)


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
