"""Counter-based random streams.

Every stochastic routine draws from a Philox generator keyed by
``(seed, replica, channel)``.  Streams are independent across keys and
bit-reproducible across runs, which lets coupled processes share one
noise stream while auxiliary randomness (extra Brownian motions,
bootstrap resampling) lives on its own channel.
"""

from __future__ import annotations

import numpy as np

# channel ids
NOISE = 0
AUX_NOISE = 1
RESERVOIR = 2        # keys the ergodicity bootstrap's resampling stream

_MASK = (1 << 64) - 1


def stream(seed: int, replica: int = 0, channel: int = NOISE) -> np.random.Generator:
    """Independent generator for one (seed, replica, channel) triple."""
    sub = ((replica & 0xFFFFFFFFFFFF) << 8) | (channel & 0xFF)
    key = np.array([seed & _MASK, sub & _MASK], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def normal_increments(seed: int, n: int, replica: int = 0,
                      channel: int = NOISE, out: np.ndarray | None = None) -> np.ndarray:
    """n standard-normal draws from the keyed stream, written into ``out``
    (a contiguous float64 array of n entries) when given.  Returns the
    draws; they are the same numbers either way."""
    return stream(seed, replica, channel).standard_normal(n, out=out)
