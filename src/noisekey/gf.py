"""GF(2^m) arithmetic via one pair of exponent/logarithm tables.

Tables are generated from a primitive polynomial by repeated multiplication
with the generator element alpha = x. Construction fails if the polynomial
does not generate the full multiplicative cycle of 2^m - 1 elements.

The tables take products without branches or modulo: the log of 0 is the
sentinel 2(2^m - 1), and the exp table runs twice round the cycle and then
reads 0 up to twice the sentinel. So exp_ext[log_ext[a] + log_ext[b]] is
a * b for any a, b, and so is exp_ext[log_ext[a] - log_ext[b] + (2^m - 1)]
for a quotient a / b, b != 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

# Conventional primitive polynomial per extension degree (integer bit encoding,
# e.g. 0x11D = x^8 + x^4 + x^3 + x^2 + 1). All are verified at table build time.
PRIMITIVE_POLYS = {
    2: 0x7,
    3: 0xB,
    4: 0x13,
    5: 0x25,
    6: 0x43,
    7: 0x89,
    8: 0x11D,
    9: 0x211,
    10: 0x409,
    11: 0x805,
    12: 0x1053,
    13: 0x201B,
    14: 0x4443,
    15: 0x8003,
    16: 0x1100B,
}


@dataclass(frozen=True, eq=False)
class FieldSpec:
    """An instantiated GF(2^m): immutable, safe to share across threads."""

    m: int
    primitive_poly: int
    # The sentinel tables (see the module docstring), as arrays and as tuples
    # for scalar loops, shared by every build_field caller.
    exp_ext: np.ndarray = field(repr=False)
    log_ext: np.ndarray = field(repr=False)
    exp_list: tuple = field(repr=False)
    log_list: tuple = field(repr=False)

    @property
    def order(self) -> int:
        """Number of field elements, 2^m."""
        return 1 << self.m

    @property
    def mul_order(self) -> int:
        """Size of the multiplicative group, 2^m - 1."""
        return (1 << self.m) - 1

    def mul(self, a: int, b: int) -> int:
        return self.exp_list[self.log_list[a] + self.log_list[b]]

    def pow_alpha(self, e: int) -> int:
        """alpha^e for any integer exponent (negative exponents wrap)."""
        return self.exp_list[e % self.mul_order]

    def mul_vec(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise product of two symbol arrays (broadcasting allowed)."""
        return self.exp_ext[self.log_ext[a] + self.log_ext[b]]

    def eval_poly_at_powers(self, coeffs, power_table: np.ndarray) -> np.ndarray:
        """Evaluate a polynomial at points x_j: sum over i of coeffs[i] * x_j^(d_i).

        Row i of power_table is log(x_j^(d_i)) in [0, 2^m - 1) for each column
        j: one coefficient at its own degree d_i, so the rows may come in any
        order (ascending degrees for the Chien table, a word's positions for
        the syndrome table). Rows past the c coefficients are ignored; returns
        one field element per column, or (..., columns) for a (..., c) stack
        of polynomials. Zero coefficients read the sentinel, so terms are 0.
        """
        logs = self.log_ext[np.asarray(coeffs, dtype=np.int64)]
        return np.bitwise_xor.reduce(self.exp_ext[power_table[: logs.shape[-1]] + logs[..., None]], axis=-2)


@lru_cache(maxsize=32)
def build_field(m: int, primitive_poly: int | None = None) -> FieldSpec:
    """Build exp/log tables for GF(2^m), once per (m, primitive_poly).

    Raises ValueError, on every call, when the polynomial has the wrong
    degree or is not primitive (the generated cycle is shorter than 2^m - 1).
    """
    if not 2 <= m <= 16:
        raise ValueError(f"extension degree must be in 2..16, got {m}")
    if primitive_poly is None:
        primitive_poly = PRIMITIVE_POLYS[m]
    if primitive_poly.bit_length() != m + 1:
        raise ValueError(
            f"polynomial 0x{primitive_poly:X} does not have degree {m}"
        )
    q = 1 << m
    sentinel = 2 * (q - 1)
    exp_ext = np.zeros(2 * sentinel + 1, dtype=np.int64)
    log_ext = np.full(q, sentinel, dtype=np.int64)
    x = 1
    for i in range(q - 1):
        if log_ext[x] != sentinel:
            raise ValueError(
                f"0x{primitive_poly:X} is not primitive: cycle shorter than {q - 1}"
            )
        exp_ext[i] = exp_ext[i + q - 1] = x
        log_ext[x] = i
        x <<= 1
        if x & q:
            x ^= primitive_poly
    if x != 1:
        raise ValueError(f"0x{primitive_poly:X} is not primitive: cycle does not close")
    for table in (exp_ext, log_ext):
        table.setflags(write=False)
    return FieldSpec(
        m=m,
        primitive_poly=primitive_poly,
        exp_ext=exp_ext,
        log_ext=log_ext,
        exp_list=tuple(exp_ext.tolist()),
        log_list=tuple(log_ext.tolist()),
    )

