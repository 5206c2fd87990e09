"""Privacy amplification and the secure-rate accounting around it.

Secret keys are distilled from the information bits of `unit_blocks`
decoded blocks through Toeplitz-matrix universal hashing (Krawczyk's
family). Hashing n_in bits to n_out bits packs the input and the matrix
diagonal into two Python ints and takes n_out big-int AND/popcounts of
n_in bits each; it computes only the outputs it keeps. The admissible
output size per unit comes from a lower bound on the conditional secrecy
rate:

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

from .rs import CodeSpec


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
        if self.unit_blocks < 1:
            raise ValueError("unit_blocks must be >= 1")
        if self.safety_bits < 1:
            raise ValueError("safety_bits must be >= 1")
        if not 0.0 < self.eve_ber <= 0.5:
            raise ValueError("eve_ber must lie in (0, 1/2]")
        if self.fluctuation_sigmas < 0.0:
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
    if safety_bits < 1:
        raise ValueError("safety_bits must be >= 1")
    if key_bits <= 0:
        raise ValueError("key_bits must be positive")
    return 2.0 ** (-safety_bits) / (key_bits * math.log(2.0))


@dataclass(frozen=True)
class HashSeed:
    """Public seed selecting one member of the Toeplitz hash family."""

    entropy: tuple

    @classmethod
    def of(cls, *parts: int) -> "HashSeed":
        return cls(entropy=tuple(int(p) for p in parts))


def expand_seed(seed: HashSeed, n_in: int, n_out: int) -> np.ndarray:
    """Expand the seed into the n_in + n_out - 1 Toeplitz diagonal bits."""
    rng = np.random.default_rng(np.random.SeedSequence(list(seed.entropy)))
    return rng.integers(0, 2, size=n_in + n_out - 1, dtype=np.uint8)


def toeplitz_matrix(seed: HashSeed, n_in: int, n_out: int) -> np.ndarray:
    """The explicit n_out x n_in binary matrix; row i column j is diag[n_in-1+i-j]."""
    diag = expand_seed(seed, n_in, n_out)
    i = np.arange(n_out)[:, None]
    j = np.arange(n_in)[None, :]
    return diag[n_in - 1 + i - j]


def extract_key(info_bits, key_bits: int, seed: HashSeed, key_bits_max: int | None = None) -> np.ndarray:
    """Hash one unit's information bits down to key_bits secret bits.

    Computes exactly the key_bits outputs of toeplitz_matrix(seed, n_in,
    key_bits) @ x mod 2, with integers only. The input, reversed, and the
    diagonal are each packed into one Python int, X and D; output bit i is
    the parity of (D >> i) & X. The cost is key_bits big-int AND/popcounts
    of n_in bits, with no n_in x key_bits matrix and no full convolution.

    Refuses to exceed key_bits_max when given; that cap must come from
    capacity_lower_bound for the extraction to be rate-safe. Raises
    ValueError for an empty input or a value outside {0, 1}.
    """
    info_bits = np.asarray(info_bits)
    if info_bits.ndim != 1 or len(info_bits) == 0:
        raise ValueError("info_bits must be a non-empty 1-d bit array")
    if ((info_bits != 0) & (info_bits != 1)).any():
        raise ValueError("info_bits must hold only 0 and 1")
    if key_bits < 1:
        raise ValueError("key_bits must be >= 1")
    if key_bits_max is not None and key_bits > key_bits_max:
        raise ValueError(f"requested {key_bits} key bits but the rate bound allows {key_bits_max}")
    n_in = len(info_bits)
    diag = expand_seed(seed, n_in, key_bits)
    # out[i] = parity over j of diag[n_in-1+i-j] * x[j]. With bit p of X equal
    # to x[n_in-1-p] and bit q of D equal to diag[q], that is the parity of
    # the bits p where both X and D >> i are set.
    packed = np.packbits(info_bits.astype(np.uint8)).tobytes()
    x = int.from_bytes(packed, "big") >> (8 * len(packed) - n_in)
    d = int.from_bytes(np.packbits(diag, bitorder="little").tobytes(), "little")
    return np.array([((d >> i) & x).bit_count() & 1 for i in range(key_bits)], dtype=np.uint8)
