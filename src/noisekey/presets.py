"""Built-in parameter presets and the published reference figures.

`paper-255-167` is the reference design point this toolkit is validated
against: a (255, 167) code over GF(2^8), symbol error rate 0.1 at the tap
(bit error rate 1 - 0.9^(1/8)), a 2496-bit grouping key with a 3.5-sigma
balance window, and an error-free public parity channel. REFERENCE_TABLE
holds the published analyzer outputs for three hashing configurations;
upper-bound rows are published rounded up in the third significant digit.
"""

from __future__ import annotations

import math

from .gf import build_field
from .rs import make_code


def design_point() -> dict:
    return {
        "name": "paper-255-167",
        "m": 8,
        "primitive_poly": 0x11D,
        "n": 255,
        "k": 167,
        "key_length": 2496,
        "balance_limit": 3.5,
        "symbol_error_rate": 0.1,
        "eve_ber": 1.0 - 0.9 ** (1.0 / 8.0),
        "method": 1,
    }


def design_code():
    p = design_point()
    return make_code(build_field(p["m"], p["primitive_poly"]), p["n"], p["k"])


# (unit_blocks, fluctuation_sigmas, safety_bits) per analyzer column.
TABLE_COLUMNS = [(1, 3.0, 10), (10, 3.0, 10), (10, 5.0, 16)]

# Published values per column, one row per analysis.GammaBudget field;
# rows marked upper_bound were rounded up.
REFERENCE_TABLE = {
    "decode_failure": {"values": [4.70e-10, 4.70e-9, 4.70e-9], "upper_bound": True},
    "low_noise_tail": {"values": [4.48e-4, 9.63e-4, 5.07e-8], "upper_bound": True},
    "leakage": {"values": [1.13e-4, 2.79e-6, 5.29e-8], "upper_bound": True},
    "gamma": {"values": [4.48e-4, 9.63e-4, 5.29e-8], "upper_bound": True},
    "capacity_rate": {"values": [0.00615, 0.0248, 0.0204], "upper_bound": False},
    "key_bits_per_block": {"values": [12.5, 50.6, 41.6], "upper_bound": False},
}


def matches_reference(computed: float, published: float, upper_bound: bool) -> bool:
    """Exact three-significant-figure reproduction of the published figure.

    Upper-bound rows were published rounded up in the third digit, and the
    computed value must additionally not exceed them; the other rows are
    rounded to nearest.
    """
    if upper_bound and computed > published * (1.0 + 1e-9):
        return False
    rounded = computed
    if computed > 0.0:
        scale = 10.0 ** (math.floor(math.log10(computed)) - 2)
        steps = computed / scale
        rounded = (math.ceil(steps - 1e-9) if upper_bound else round(steps)) * scale
    return abs(rounded - published) <= abs(published) * 1e-9
