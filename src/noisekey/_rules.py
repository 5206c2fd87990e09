"""The rules every layer shares: what an integer argument is, what a bit
array is, and how many bytes of temporaries one step of a stepped kernel
holds. Counts may be Python or numpy integers, never bool, and are kept as
Python ints: a numpy scalar's arithmetic wraps in its own width.
"""

from __future__ import annotations

import operator

import numpy as np

# Bytes of temporaries per step of a stepped kernel, which takes one row at
# least. Unstepped, 100 000 design blocks would gather 2.9 GB in the encode.
STEP_BYTES = 1 << 20


def step_rows(row_bytes: int) -> int:
    """Rows per step of a kernel that holds `row_bytes` per row."""
    return max(1, STEP_BYTES // row_bytes)


def as_integer(value, name: str, minimum: int | None = None, maximum: int | None = None) -> int:
    """`value` as a Python int, read through operator.index; ValueError
    naming `name` for a bool, anything else that is not an integer, or one
    outside [minimum, maximum] where those are given."""
    try:
        number = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        number = None
    if number is None or (minimum is not None and number < minimum) or (maximum is not None and number > maximum):
        bound = f" in [{minimum}, {maximum}]" if maximum is not None else "" if minimum is None else f" >= {minimum}"
        raise ValueError(f"{name} must be an integer{bound}, got {value!r}")
    return number


def as_method(value) -> int:
    """A delivery method, 1 or 2, as a Python int; ValueError for anything else, a bool included."""
    try:
        return as_integer(value, "method", 1, 2)
    except ValueError:
        raise ValueError(f"method must be 1 or 2, got {value!r}") from None


def all_bits(x: np.ndarray) -> bool:
    """True iff every entry of x is 0 or 1; exact for any dtype, and without a copy for integers."""
    if x.dtype.kind in "biu":
        return bool(x.max(initial=0) <= 1 and (x.dtype.kind != "i" or x.min(initial=0) >= 0))
    return not (x.astype(bool) != x).any()


def bit_row(x, name: str) -> np.ndarray:
    """x as a 1-d uint8 array; ValueError naming it unless it is 1-d and
    holds only 0 and 1."""
    x = np.asarray(x)
    if x.ndim != 1 or not all_bits(x):
        raise ValueError(f"{name} must be a 1-d array holding only 0 and 1")
    return x.astype(np.uint8, copy=False)
