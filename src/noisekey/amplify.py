"""Privacy amplification and the secure-rate accounting around it.

Secret keys are distilled from the information bits of `unit_blocks`
decoded blocks through Toeplitz-matrix universal hashing (Krawczyk's
family). Output bit i of a hash of n_in bits is the GF(2) inner product of
the reversed input with the diagonal bits i .. i + n_in - 1; only the
outputs kept are computed, by one of two exact kernels chosen by size:
small units take one big-int AND/popcount per output bit, large units
AND 64-bit words of the input against 64 shifted copies of the diagonal
and take one parity per 64-bit accumulator. The admissible output size per
unit comes from a lower bound on the conditional secrecy rate:

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
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .channel import bit_chunks, entropy_words
from .rs import CodeSpec, all_bits


def binary_entropy(p: float) -> float:
    """h(p) = -p log2 p - (1-p) log2 (1-p), with h(0) = h(1) = 0."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("probability out of range")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


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
            if not isinstance(getattr(self, name), (int, np.integer)) or getattr(self, name) < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {getattr(self, name)!r}")
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


def expand_seed(seed: HashSeed, n_in: int, n_out: int) -> np.ndarray:
    """Expand the seed into the n_in + n_out - 1 Toeplitz diagonal bits: those of
    default_rng(SeedSequence(entropy)).integers(0, 2, n, uint8)."""
    return bit_chunks(entropy_words(seed.entropy), 1, n_in + n_out - 1)[0]


def toeplitz_matrix(seed: HashSeed, n_in: int, n_out: int) -> np.ndarray:
    """The explicit n_out x n_in binary matrix; row i column j is diag[n_in-1+i-j]."""
    diag = expand_seed(seed, n_in, n_out)
    i = np.arange(n_out)[:, None]
    j = np.arange(n_in)[None, :]
    return diag[n_in - 1 + i - j]


# From this many input x output bits on, the word kernel is used. Timed
# against the big-int loop over n_in in 95..13360 and key_bits in 1..506 on
# a 2-core Xeon VM, the word kernel won every shape at or above 2^18 and the
# loop every shape below 2^15; between, the winner depends on the shape
# (95 x 506: 91 against 120 us for the loop; 4000 x 65: 89 against 69 us).
# The kernel costs ~45 us however small its input; the loop ~5 us plus, per
# output bit, ~0.2 us and an AND/popcount of n_in bits.
WORD_KERNEL_MIN = 1 << 18

# The word kernel ANDs at most this many 64-bit words (512 KiB) at once, or
# one row of 64 outputs if that is more. Unblocked, a 1000-block
# paper-255-167 unit (1.34M bits to 62406) would AND ~10 GB at once.
_BLOCK_WORDS = 1 << 16

_SHIFTS = np.arange(64, dtype=np.uint64)[:, None]
_ONE = np.uint64(1)
_PARITY = np.array([bin(b).count("1") & 1 for b in range(256)], dtype=np.uint8)


def _hash_int(info_bits: np.ndarray, diag: np.ndarray, key_bits: int) -> np.ndarray:
    """Big-int kernel: output bit i is the parity of (D >> i) & X.

    Bit p of X is info_bits[n_in-1-p] and bit q of D is diag[q], so the
    set bits of (D >> i) & X are the p with diag[p+i] = x[n_in-1-p] = 1.
    """
    n_in = len(info_bits)
    packed = np.packbits(info_bits.astype(np.uint8)).tobytes()
    x = int.from_bytes(packed, "big") >> (8 * len(packed) - n_in)
    d = int.from_bytes(np.packbits(diag, bitorder="little").tobytes(), "little")
    return np.array([((d >> i) & x).bit_count() & 1 for i in range(key_bits)], dtype=np.uint8)


def _words(bits: np.ndarray, n_words: int) -> np.ndarray:
    """Bits packed little-endian into n_words uint64 words, zero-padded."""
    buf = np.zeros(64 * n_words, dtype=np.uint8)
    buf[: len(bits)] = bits
    return np.packbits(buf, bitorder="little").view("<u8")


def _hash_words(info_bits: np.ndarray, diag: np.ndarray, key_bits: int) -> np.ndarray:
    """Word kernel: the same outputs as `_hash_int` from 64-bit AND/XOR.

    With y the reversed input packed into words Y[w], and lane s the
    diagonal shifted right by s bits and packed into words, output bit
    i = 64r + s is the parity of XOR_w(lane_s[r + w] & Y[w]). Each 64-bit
    accumulator is folded to one bit by XOR-ing its eight bytes and looking
    the byte's parity up in a table.
    """
    n_words = -(-len(info_bits) // 64)
    rows = -(-key_bits // 64)
    n_lanes = min(64, key_bits)
    y = _words(info_bits[::-1], n_words)
    d = _words(diag, rows + n_words)
    # The left shift is split in two so that lane 0 never shifts by 64.
    shifts = _SHIFTS[:n_lanes]
    lanes = (d[:-1] >> shifts) | ((d[1:] << _ONE) << (np.uint64(63) - shifts))
    windows = sliding_window_view(lanes, n_words, axis=1)
    acc = np.empty((n_lanes, rows), dtype=np.uint64)
    step = max(1, _BLOCK_WORDS // (n_lanes * n_words))
    for r in range(0, rows, step):
        acc[:, r : r + step] = np.bitwise_xor.reduce(windows[:, r : r + step] & y, axis=2)
    folded = np.bitwise_xor.reduce(acc.view(np.uint8).reshape(n_lanes, rows, 8), axis=2)
    return _PARITY[folded].T.ravel()[:key_bits]


def extract_key(info_bits, key_bits: int, seed: HashSeed, key_bits_max: int | None = None) -> np.ndarray:
    """Hash one unit's information bits down to key_bits secret bits.

    Computes exactly the key_bits outputs of toeplitz_matrix(seed, n_in,
    key_bits) @ x mod 2, with integer operations only and no n_in x
    key_bits matrix. Below WORD_KERNEL_MIN input x output bits it takes one
    big-int AND/popcount of n_in bits per output bit; from there on, ANDs of
    64-bit words against 64 shifted copies of the diagonal, XOR-reduced
    over the input and folded to one parity per output bit. Both give the
    same bits.

    Refuses to exceed key_bits_max when given; that cap must come from
    capacity_lower_bound for the extraction to be rate-safe. Raises
    ValueError for an empty input, a value outside {0, 1} or a non-integer
    key_bits.
    """
    info_bits = np.asarray(info_bits)
    if info_bits.ndim != 1 or len(info_bits) == 0:
        raise ValueError("info_bits must be a non-empty 1-d bit array")
    if not all_bits(info_bits):
        raise ValueError("info_bits must hold only 0 and 1")
    if not isinstance(key_bits, (int, np.integer)) or key_bits < 1:
        raise ValueError(f"key_bits must be an integer >= 1, got {key_bits!r}")
    if key_bits_max is not None and key_bits > key_bits_max:
        raise ValueError(f"requested {key_bits} key bits but the rate bound allows {key_bits_max}")
    n_in = len(info_bits)
    diag = expand_seed(seed, n_in, key_bits)
    kernel = _hash_words if n_in * key_bits >= WORD_KERNEL_MIN else _hash_int
    return kernel(info_bits, diag, key_bits)
