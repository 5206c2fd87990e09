"""Key-driven stream grouping.

A pre-shared binary key routes each bit of a random stream into group I
(key bit 1) or group II (key bit 0), repeating the key cyclically. Only
keys whose 1-count stays within `balance_limit` standard deviations of
half the key length are admissible, which guarantees that coding one
block consumes every key bit at least once (see `block_fits_key_period`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rs import all_bits

def balanced(ones, length: int, balance_limit: float):
    """The balance window: |ones - length/2| <= balance_limit * sqrt(length/4),
    for one 1-count or elementwise over an array of them."""
    # np.abs, not abs(): with the builtin, a 16-bit attack after analyzer calls
    # took ~1000 more page faults (~3 ms) per call, measured with getrusage.
    return np.abs(ones - length / 2.0) <= balance_limit * math.sqrt(length / 4.0)


def require_key_length(length: int) -> None:
    """Raise ValueError unless `length` reaches 2, the shortest key."""
    if length < 2:
        raise ValueError("key must have at least 2 bits")


@dataclass(frozen=True, eq=False)
class CommonKey:
    """An N-bit grouping key plus the balance limit it was sampled under."""

    bits: np.ndarray
    balance_limit: float

    @classmethod
    def from_bits(cls, bits, balance_limit: float) -> "CommonKey":
        arr = np.asarray(bits)
        if arr.ndim != 1 or not all_bits(arr):
            raise ValueError("key bits must be a 1-d array holding only 0 and 1")
        require_key_length(len(arr))
        arr = arr.astype(np.uint8)
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

    @property
    def admissible(self) -> bool:
        return bool(balanced(self.ones, self.length, self.balance_limit))

    def to_hex(self) -> str:
        return bits_to_hex(self.bits)


def bits_to_hex(bits) -> str:
    """Lowercase hex, most significant bit first, left-padded with zero bits to a whole nibble."""
    value = int("".join("1" if b else "0" for b in bits), 2)
    return f"{value:0{-(-len(bits) // 4)}x}"


def require_window(length: int, balance_limit: float) -> None:
    """Raise ValueError unless the balance window admits some `length`-bit key."""
    require_key_length(length)
    # length // 2 ones lies nearest length/2: if it is refused, every count is.
    if not balanced(length // 2, length, balance_limit):
        raise ValueError(f"no {length}-bit key fits a balance limit of {balance_limit} sigmas")


def sample_key(length: int, balance_limit: float, rng: np.random.Generator) -> CommonKey:
    """Uniform draw over the admissible set by rejection from all bitstrings.

    Raises ValueError, before drawing, when the balance window admits no
    1-count at all.
    """
    require_window(length, balance_limit)
    while True:
        bits = rng.integers(0, 2, size=length, dtype=np.uint8)
        if balanced(int(bits.sum()), length, balance_limit):
            return CommonKey.from_bits(bits, balance_limit)


@dataclass(frozen=True, eq=False)
class GroupStreams:
    """The two routed sub-streams, of bits or of stream positions."""

    group1: np.ndarray
    group2: np.ndarray

    def blocks(self, size: int) -> tuple[np.ndarray, np.ndarray]:
        """Each group's entries cut into whole consecutive size-entry blocks, one
        (blocks, size) array per group; a trailing partial block is dropped."""
        return tuple(g[: len(g) // size * size].reshape(-1, size) for g in (self.group1, self.group2))


def _key_mask(key: CommonKey, length: int) -> np.ndarray:
    # np.resize would concatenate one copy per period: ~10x slower at 1000 periods.
    return np.tile(key.bits, -(-length // key.length))[:length].astype(bool)


def split_stream(x, key: CommonKey) -> GroupStreams:
    """Route bit x[i] to group1 iff key bit i mod key.length is 1; a key
    shifted by o positions is the key rotated left, np.roll(key.bits, -o).
    Raises ValueError unless x is a 1-d array of 0s and 1s."""
    x = np.asarray(x)
    if x.ndim != 1 or not all_bits(x):
        raise ValueError("stream bits must be a 1-d array holding only 0 and 1")
    x = x.astype(np.uint8, copy=False)
    mask = _key_mask(key, len(x))
    return GroupStreams(group1=x[mask], group2=x[~mask])


def block_fits_key_period(key_length: int, balance_limit: float, m: int, k: int) -> bool:
    """True when any admissible key's larger group fits inside one m*k-bit block.

    The largest group an admissible key can produce per key period is
    length/2 + ceil(balance_limit * sigma) bits; requiring that to be at most
    m*k means a single block always consumes the full key. It is tested as
    balance_limit * sigma <= floor(m*k - length/2), False for inf and NaN.
    """
    return balance_limit * math.sqrt(key_length / 4.0) <= math.floor(m * k - key_length / 2.0)
