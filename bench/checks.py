"""Output checks and the slow oracles they compare against.

Every check counts one checked operation; a failed check is a program
fault. Protocol outcomes (detected decode failures, silent miscorrections)
are counted elsewhere and never land here. Large oracle checks are
deferred until after the timed loop so their memory does not inflate the
workload's peak RSS.
"""

from __future__ import annotations

import math

import numpy as np

from noisekey import amplify

# Oracle matrices up to this many entries are checked without deferral.
SMALL_ORACLE = 1 << 16


class Ledger:
    """Counts checked operations and the labels of those that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self._deferred: list[tuple[str, object, np.ndarray, np.ndarray]] = []

    def check(self, label: str, ok) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(label)
        return bool(ok)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def check_key(self, label: str, seed, bits, key) -> None:
        """Check `key == toeplitz_oracle(seed, bits, len(key))`.

        Small oracles run at once; large ones wait for `settle`, so neither
        their matrices nor a growing queue of small inputs raise peak RSS.
        """
        bits = np.asarray(bits, dtype=np.uint8)
        if key is not None and len(bits) * len(key) > SMALL_ORACLE:
            self._deferred.append((label, seed, bits, key))
        else:
            self._check_key(label, seed, bits, key, {})

    def settle(self) -> None:
        """Run the deferred oracle checks; identical inputs share one oracle call."""
        cache: dict[tuple, np.ndarray] = {}
        for job in self._deferred:
            self._check_key(*job, cache)
        self._deferred.clear()

    def _check_key(self, label, seed, bits, key, cache) -> None:
        ok = key is not None
        if ok:
            tag = (seed.entropy, len(key), bits.tobytes())
            if tag not in cache:
                cache[tag] = toeplitz_oracle(seed, bits, len(key))
            ok = np.array_equal(np.asarray(key), cache[tag])
        self.check(label, ok)


def toeplitz_oracle(seed, bits: np.ndarray, key_bits: int) -> np.ndarray:
    """The explicit Toeplitz matrix times the input bits, mod 2."""
    matrix = amplify.toeplitz_matrix(seed, len(bits), key_bits)
    return ((matrix.astype(np.int64) @ bits.astype(np.int64)) & 1).astype(np.uint8)


def unpack_symbols(symbols, m: int) -> np.ndarray:
    """m-bit symbols to a flat MSB-first bit array, written apart from the package."""
    out = np.zeros((len(symbols), m), dtype=np.uint8)
    for bit in range(m):
        out[:, m - 1 - bit] = (np.asarray(symbols) >> bit) & 1
    return out.reshape(-1)


def admissible_count(key_length: int, balance_limit: float) -> int:
    """Number of keys whose 1-count is within balance_limit sigmas of half."""
    sigma = math.sqrt(key_length / 4.0)
    return sum(
        math.comb(key_length, w)
        for w in range(key_length + 1)
        if abs(w - key_length / 2.0) <= balance_limit * sigma
    )


def truncated_binomial(trials: int, p: float, limit: int) -> tuple[float, float]:
    """Mean and standard deviation of Binomial(trials, p) conditioned on X <= limit."""
    ws = np.arange(limit + 1)
    pmf = np.array([math.comb(trials, w) * p**w * (1.0 - p) ** (trials - w) for w in ws])
    pmf = pmf / pmf.sum()
    mean = float((ws * pmf).sum())
    return mean, math.sqrt(float(((ws - mean) ** 2 * pmf).sum()))


def z_score(observed: float, predicted: float, sd: float) -> float:
    return (observed - predicted) / sd if sd > 0.0 else 0.0
