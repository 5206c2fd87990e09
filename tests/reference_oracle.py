"""Reference first-block routing and error patterns for the exhaustive adversary's tests.

The gather the adversary first used: each key's first group-I block as an
explicit bit row, cut from the stream by the positions the key routes.
`noisekey.oracle._first_block_tags` has to give the parity tags of these
rows, and `split_stream` has to give the rows themselves.

The generator the adversary first listed its error patterns with, one
symbol tuple at a time: `noisekey.oracle._pattern_rows` has to give these
patterns as bit rows, in this order.

Both are slow on purpose and must not be optimised.
"""

from __future__ import annotations

import itertools

import numpy as np

from noisekey.rs import CodeSpec

SHORT = "stream too short to fill one block for every key"


def first_block_bits(n_bits: int, x: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Group-I bits of the first n_bits-bit block under each key row, one row per key.

    A key with w ones at positions pos[0..w-1] of its period routes its j-th
    group-I bit from stream position (j // w) * key_length + pos[j % w], so
    each class of keys with the same w is one gather of n_bits bits per key.
    """
    count, klen = keys.shape
    keys = keys.astype(bool)
    ones = keys.sum(axis=1)
    j = np.arange(n_bits)
    out = np.empty((count, n_bits), dtype=x.dtype)
    for w in np.unique(ones):
        if w == 0:
            raise ValueError(SHORT)
        rows = np.flatnonzero(ones == w)
        # Row-major nonzero lists each row's w one-positions in order.
        pos = np.nonzero(keys[rows])[1].reshape(len(rows), w)
        idx = (j // w) * klen + pos[:, j % w]
        if idx[:, -1].max() >= len(x):
            raise ValueError(SHORT)
        out[rows] = x[idx]
    return out


def _error_patterns(code: CodeSpec, max_weight: int, unit: str):
    """Yield symbol-space error vectors up to the requested weight.

    unit='symbol' ranges nonzero symbols over the whole alphabet;
    unit='bit' flips individual bits inside the block's information bits.
    """
    k, m = code.k, code.m
    yield (0,) * k
    if unit == "symbol":
        for weight in range(1, max_weight + 1):
            for positions in itertools.combinations(range(k), weight):
                for values in itertools.product(range(1, 1 << m), repeat=weight):
                    vec = [0] * k
                    for pos, val in zip(positions, values):
                        vec[pos] = val
                    yield tuple(vec)
    elif unit == "bit":
        nbits = k * m
        for weight in range(1, max_weight + 1):
            for positions in itertools.combinations(range(nbits), weight):
                vec = [0] * k
                for bit in positions:
                    vec[bit // m] ^= 1 << (m - 1 - bit % m)
                yield tuple(vec)
    else:
        raise ValueError(f"unknown pattern unit {unit!r}")
