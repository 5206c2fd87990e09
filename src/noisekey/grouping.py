"""Key-driven stream grouping.

A pre-shared binary key routes each bit of a random stream into group I
(key bit 1) or group II (key bit 0), repeating the key cyclically. Only
keys whose 1-count stays within `balance_limit` standard deviations of
half the key length are admissible, which guarantees that coding one
block consumes every key bit at least once (see `block_fits_key_period`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._rules import as_integer, bit_row

def balanced(ones, length: int, balance_limit: float):
    """The balance window: |ones - length/2| <= balance_limit * sqrt(length/4),
    for one 1-count or elementwise over an array of them."""
    # np.abs, not abs(): with the builtin, a 16-bit attack after analyzer calls
    # took ~1000 more page faults (~3 ms) per call, measured with getrusage.
    return np.abs(ones - length / 2.0) <= balance_limit * math.sqrt(length / 4.0)


def require_key_length(length: int) -> int:
    """`length` as a Python int; ValueError unless it is an integer of at least 2, the shortest key."""
    length = as_integer(length, "key length")
    if length < 2:
        raise ValueError("key must have at least 2 bits")
    return length


@dataclass(frozen=True, eq=False)
class CommonKey:
    """An N-bit grouping key plus the balance limit it was sampled under."""

    bits: np.ndarray
    balance_limit: float

    @classmethod
    def from_bits(cls, bits, balance_limit: float) -> "CommonKey":
        arr = bit_row(bits, "key bits").copy()
        require_key_length(len(arr))
        arr.setflags(write=False)
        return cls(bits=arr, balance_limit=balance_limit)

    @property
    def length(self) -> int:
        return len(self.bits)

    @property
    def ones(self) -> int:
        return int(self.bits.sum())

    @property
    def zeros(self) -> int:
        return self.length - self.ones

    @functools.cached_property
    def columns(self) -> tuple[np.ndarray, np.ndarray]:
        """Group I's and group II's key columns, where the key holds 1 and 0
        (read-only). A group's bits in one key period sit at its columns, so
        routed bit q of a group with w columns cols sits at stream position
        (q // w) * length + cols[q % w]."""
        cols = np.flatnonzero(self.bits), np.flatnonzero(self.bits == 0)
        for c in cols:
            c.setflags(write=False)
        return cols

    @property
    def admissible(self) -> bool:
        return bool(balanced(self.ones, self.length, self.balance_limit))

    def to_hex(self) -> str:
        return bits_to_hex(self.bits)


def bits_to_hex(bits) -> str:
    """Lowercase hex, most significant bit first, left-padded with zero bits to a whole nibble."""
    value = int("".join("1" if b else "0" for b in bits), 2)
    return f"{value:0{-(-len(bits) // 4)}x}"


def require_window(length: int, balance_limit: float) -> int:
    """`require_key_length`'s int; ValueError unless the balance window admits some `length`-bit key."""
    length = require_key_length(length)
    # length // 2 ones lies nearest length/2: if it is refused, every count is.
    if not balanced(length // 2, length, balance_limit):
        raise ValueError(f"no {length}-bit key fits a balance limit of {balance_limit} sigmas")
    return length


def sample_key(length: int, balance_limit: float, rng: np.random.Generator) -> CommonKey:
    """Uniform draw over the admissible set by rejection from all bitstrings.

    Raises ValueError, before drawing, when the balance window admits no
    1-count at all.
    """
    length = require_window(length, balance_limit)
    while True:
        bits = rng.integers(0, 2, size=length, dtype=np.uint8)
        if balanced(int(bits.sum()), length, balance_limit):
            return CommonKey.from_bits(bits, balance_limit)


@dataclass(frozen=True, eq=False)
class GroupStreams:
    """The two routed sub-streams of bits."""

    group1: np.ndarray
    group2: np.ndarray

    def blocks(self, size: int) -> tuple[np.ndarray, np.ndarray]:
        """Each group's bits cut into whole consecutive size-bit blocks, one
        (blocks, size) array per group; a trailing partial block is dropped."""
        return tuple(g[: len(g) // size * size].reshape(-1, size) for g in (self.group1, self.group2))


def _key_mask(key: CommonKey, length: int) -> np.ndarray:
    # np.resize would concatenate one copy per period: ~10x slower at 1000 periods.
    return np.tile(key.bits, -(-length // key.length))[:length].astype(bool)


def route(x: np.ndarray, key: CommonKey) -> GroupStreams:
    """`split_stream` unchecked: each group is the 1-d 0/1 stream x padded
    to whole key periods, read as a (periods, key.length) grid and gathered
    at the group's key columns, cut where x ends."""
    size, length = len(x), key.length
    grid = np.empty((-(-size // length), length), dtype=np.uint8)
    grid.reshape(-1)[:size] = x  # grid.flat[:size] = x is over 100x slower
    return GroupStreams(*(
        grid[:, cols].reshape(-1)[: size // length * len(cols) + np.count_nonzero(cols < size % length)]
        for cols in key.columns
    ))


def split_stream(x, key: CommonKey) -> GroupStreams:
    """Route bit x[i] to group1 iff key bit i mod key.length is 1; a key
    shifted by o positions is the key rotated left, np.roll(key.bits, -o).
    Raises ValueError unless x is a 1-d array of 0s and 1s."""
    return route(bit_row(x, "stream bits"), key)


def block_fits_key_period(key_length: int, balance_limit: float, m: int, k: int) -> bool:
    """True when any admissible key's larger group fits inside one m*k-bit block.

    The largest group an admissible key can produce per key period is
    length/2 + ceil(balance_limit * sigma) bits; requiring that to be at most
    m*k means a single block always consumes the full key. It is tested as
    balance_limit * sigma <= floor(m*k - length/2), False for inf and NaN.
    """
    return balance_limit * math.sqrt(key_length / 4.0) <= math.floor(m * k - key_length / 2.0)
