"""Privacy amplification and the secure-rate accounting around it.

Secret keys are distilled from the information bits of `unit_blocks`
decoded blocks through Toeplitz-matrix universal hashing (Krawczyk's
family). Output bit i of a hash of n_in bits is the GF(2) inner product of
the reversed input with the diagonal bits i .. i + n_in - 1; only the
outputs kept are computed, by one exact kernel over a batch of units, each
with its own seed: it ANDs 64-bit words of the input against 64 shifted
copies of the diagonal and takes one parity per 64-bit accumulator. The
admissible output size per unit comes from a lower bound on the conditional
secrecy rate:

    rate = (k - t_max)/n * h(p_adj) - safety_bits/(unit_blocks * m * n)

where h is the binary entropy function and p_adj discounts the
eavesdropper's bit-error rate for downward noise fluctuations across one
hashing unit:

    p_adj = ber * (mean_errors - fluctuation_sigmas * std_errors) / mean_errors

with mean_errors = unit_blocks * m * k * ber. The residual information an
eavesdropper holds about an extracted key is bounded by
2^-safety_bits / (key_bits * ln 2).
"""

from __future__ import annotations

import math
import operator
import warnings
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .channel import entropy_words, pcg64_raw, raw_bits, raw_count
from .rs import CodeSpec, all_bits


def binary_entropy(p: float) -> float:
    """h(p) = -p log2 p - (1-p) log2 (1-p), with h(0) = h(1) = 0."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("probability out of range")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def as_integer(value, name: str, minimum: int | None = None) -> int:
    """`value` as a Python int, read through operator.index so that a numpy
    integer scalar does its arithmetic unbounded; ValueError naming `name` for
    a bool, anything else that is not an integer, or one below `minimum`."""
    try:
        number = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        number = None
    if number is None or minimum is not None and number < minimum:
        floor = "" if minimum is None else f" >= {minimum}"
        raise ValueError(f"{name} must be an integer{floor}, got {value!r}")
    return number


@dataclass(frozen=True, eq=False)
class CapacityParams:
    """Inputs of the secure-rate bound for one code/channel operating point."""

    code: CodeSpec
    eve_ber: float
    unit_blocks: int = 1            # blocks hashed together per key
    fluctuation_sigmas: float = 3.0 # how far below the mean error count we guard
    safety_bits: int = 10           # hashing bits sacrificed to suppress leakage

    def __post_init__(self):
        for name in ("unit_blocks", "safety_bits"):
            object.__setattr__(self, name, as_integer(getattr(self, name), name, 1))
        if not 0.0 < self.eve_ber <= 0.5:
            raise ValueError("eve_ber must lie in (0, 1/2]")
        if not self.fluctuation_sigmas >= 0.0:  # NaN included
            raise ValueError("fluctuation_sigmas must be >= 0")

    @property
    def unit_info_bits(self) -> int:
        """Input size of one hashing unit, unit_blocks * m * k."""
        return self.unit_blocks * self.code.info_bits

    @property
    def mean_unit_errors(self) -> float:
        return self.unit_info_bits * self.eve_ber

    @property
    def std_unit_errors(self) -> float:
        return math.sqrt(self.unit_info_bits * self.eve_ber * (1.0 - self.eve_ber))


def fluctuation_adjusted_ber(params: CapacityParams) -> float:
    """Eve's BER discounted by `fluctuation_sigmas` standard deviations.

    Clamped at 0 (with a warning) when the guard band swallows the whole
    mean, which happens only at degenerate small-scale parameters.
    """
    mean = params.mean_unit_errors
    low = mean - params.fluctuation_sigmas * params.std_unit_errors
    if low <= 0.0:
        warnings.warn(
            "fluctuation guard exceeds the mean error count; adjusted BER clamped to 0",
            stacklevel=2,
        )
        return 0.0
    return params.eve_ber * low / mean


@dataclass(frozen=True)
class CapacityBound:
    """Lower bound on the secure rate and the key size it licenses."""

    rate: float                 # secret bits per transmitted bit
    adjusted_ber: float
    adjusted_entropy: float
    key_bits_real: float        # unit_blocks * m * n * rate, before flooring
    key_bits_max: int           # floor of the above; 0 floor when insecure
    secure: bool                # False when the bound is not positive


def capacity_lower_bound(params: CapacityParams) -> CapacityBound:
    """Evaluate the secure-rate bound; a non-positive rate means no secure key."""
    code = params.code
    p_adj = fluctuation_adjusted_ber(params)
    h_adj = binary_entropy(p_adj)
    rate = (code.k - code.t_max) / code.n * h_adj - params.safety_bits / (
        params.unit_blocks * code.m * code.n
    )
    real = params.unit_blocks * code.m * code.n * rate
    return CapacityBound(
        rate=rate,
        adjusted_ber=p_adj,
        adjusted_entropy=h_adj,
        key_bits_real=real,
        key_bits_max=max(0, math.floor(real)),
        secure=rate > 0.0,
    )


def leakage_bound(safety_bits: int, key_bits: float) -> float:
    """Upper bound on Eve's per-bit information about an extracted key."""
    if not safety_bits >= 1:  # NaN included
        raise ValueError("safety_bits must be >= 1")
    if not key_bits > 0:
        raise ValueError("key_bits must be positive")
    return 2.0 ** (-safety_bits) / (key_bits * math.log(2.0))


@dataclass(frozen=True)
class HashSeed:
    """Public seed selecting one member of the Toeplitz hash family."""

    entropy: tuple

    @classmethod
    def of(cls, *parts: int) -> "HashSeed":
        return cls(entropy=parts)


def _diagonals(seeds, size: int) -> np.ndarray:
    """(U, size) uint8 diagonal bits, row u those of seeds[u]: one `pcg64_raw`
    read for all seeds, converted to bits in one pass."""
    raw = pcg64_raw([entropy_words(seed.entropy) for seed in seeds], raw_count(1, size))
    return raw_bits(raw, 1, size)[:, 0]


def expand_seed(seed: HashSeed, n_in: int, n_out: int) -> np.ndarray:
    """Expand the seed into the n_in + n_out - 1 Toeplitz diagonal bits: those of
    default_rng(SeedSequence(entropy)).integers(0, 2, n, uint8)."""
    return _diagonals([seed], n_in + n_out - 1)[0]


def toeplitz_matrix(seed: HashSeed, n_in: int, n_out: int) -> np.ndarray:
    """The explicit n_out x n_in binary matrix; row i column j is diag[n_in-1+i-j]."""
    diag = expand_seed(seed, n_in, n_out)
    i = np.arange(n_out)[:, None]
    j = np.arange(n_in)[None, :]
    return diag[n_in - 1 + i - j]


# One kernel step ANDs at most this many 64-bit words (512 KiB), counted
# across units, lanes, rows and words, or one row of 64 outputs of one unit
# if that is more. Unblocked, a 1000-block paper-255-167 unit (1.34M bits
# to 62406) would AND ~10 GB at once.
_BLOCK_WORDS = 1 << 16

_SHIFTS = np.arange(64, dtype=np.uint64)[:, None]
_ONE = np.uint64(1)
# 1-bits per byte value (np.bitwise_count needs numpy 2); a byte's parity is
# its popcount & 1.
BYTE_POPCOUNT = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)


def _words(bits: np.ndarray, n_words: int) -> np.ndarray:
    """(U, n_words) uint64: each row of the (U, n) bits packed little-endian, zero-padded."""
    buf = np.zeros((len(bits), 64 * n_words), dtype=np.uint8)
    buf[:, : bits.shape[1]] = bits
    return np.packbits(buf, axis=1, bitorder="little").view("<u8")


def _hash_words(info_bits: np.ndarray, seeds, key_bits: int) -> np.ndarray:
    """(U, key_bits) outputs of the (U, n_in) inputs, row u hashed with seeds[u].

    With y the reversed input packed into words Y[w], and lane s the
    diagonal shifted right by s bits and packed into words, output bit
    i = 64r + s is the parity of XOR_w(lane_s[r + w] & Y[w]): the set bits
    of lane_s[r + w] & Y[w] are the p with diag[p+i] = x[n_in-1-p] = 1.
    Each 64-bit accumulator is folded to one bit by XOR-ing its eight bytes
    and taking the byte's popcount & 1. A step builds the input words and
    diagonals of as many units as fit a row of 64 outputs in _BLOCK_WORDS
    words, one unit at least, and ANDs them a row at a time.
    """
    units, n_in = info_bits.shape
    n_words = -(-n_in // 64)
    rows = -(-key_bits // 64)
    n_lanes = min(64, key_bits)
    shifts = _SHIFTS[:n_lanes]
    unit_step = max(1, _BLOCK_WORDS // (n_lanes * n_words))
    out = np.empty((units, n_lanes, rows), dtype=np.uint8)
    for u in range(0, units, unit_step):
        y = _words(info_bits[u : u + unit_step, ::-1], n_words)[:, None, :]
        d = _words(_diagonals(seeds[u : u + unit_step], n_in + key_bits - 1), rows + n_words)[:, None, :]
        # The left shift is split in two so that lane 0 never shifts by 64.
        lanes = (d[..., :-1] >> shifts) | ((d[..., 1:] << _ONE) << (np.uint64(63) - shifts))
        acc = np.empty(lanes.shape[:-1] + (rows,), dtype=np.uint64)
        for r in range(rows):
            acc[..., r] = np.bitwise_xor.reduce(lanes[..., r : r + n_words] & y, axis=-1)
        folded = np.bitwise_xor.reduce(acc.view(np.uint8).reshape(*acc.shape, 8), axis=-1)
        out[u : u + unit_step] = BYTE_POPCOUNT[folded] & 1
    return out.transpose(0, 2, 1).reshape(units, rows * n_lanes)[:, :key_bits]


def extract_key(info_bits, key_bits: int, seed, key_bits_max: int | None = None) -> np.ndarray:
    """Hash one unit's information bits down to key_bits secret bits, or a batch of units.

    A 1-d row of n_in bits and one HashSeed give the (key_bits,) outputs of
    toeplitz_matrix(seed, n_in, key_bits) @ x mod 2; a (U, n_in) batch and a
    sequence of U seeds give (U, key_bits), row u that of row u and seed[u].
    Computed with 64-bit word operations only and no n_in x key_bits
    matrix: ANDs of the reversed input's words against 64 shifted copies of
    the diagonal, XOR-reduced over the input and folded to one parity per
    output bit.

    Refuses to exceed key_bits_max when given; that cap must come from
    capacity_lower_bound for the extraction to be rate-safe. Raises
    ValueError for an empty input row, a value outside {0, 1}, a
    non-integer key_bits, a seed that is neither a HashSeed nor a sequence
    of them, or a batch without one HashSeed per row.
    """
    info_bits = np.asarray(info_bits)
    one = isinstance(seed, HashSeed)
    if not one and not isinstance(seed, Sequence):
        raise ValueError(f"seed must be a HashSeed or a sequence of HashSeeds, got {type(seed).__name__}")
    if info_bits.ndim != (1 if one else 2) or info_bits.shape[-1] == 0:
        raise ValueError("info_bits must be a non-empty 1-d bit array with one HashSeed, or a 2-d batch")
    if not one and len(seed) != len(info_bits):
        raise ValueError(f"a batch of {len(info_bits)} rows needs as many seeds, got {len(seed)}")
    if not one and not all(isinstance(s, HashSeed) for s in seed):
        raise ValueError("a batch's seeds must all be HashSeeds")
    if not all_bits(info_bits):
        raise ValueError("info_bits must hold only 0 and 1")
    key_bits = as_integer(key_bits, "key_bits", 1)
    if key_bits_max is not None and key_bits > key_bits_max:
        raise ValueError(f"requested {key_bits} key bits but the rate bound allows {key_bits_max}")
    if one:
        return _hash_words(info_bits[None], [seed], key_bits)[0]
    return _hash_words(info_bits, seed, key_bits)
