"""Systematic (n, k) Reed-Solomon codes over GF(2^m).

Shortened codes (n < 2^m - 1) come for free: the parity map is built from
x^d mod g(x) for the degrees actually used, which is the full-length code
with implicit leading zeros.

Encoding works on bits: the parity is a GF(2)-linear map of the m*k
information bits, which `_linear_map` applies four bits at a time (the
"method of four Russians", Arlazarov et al. 1970): a per-code nibble table
holds, for every group of four input bits and each of its 16 values, the XOR
of the bit-matrix rows that value selects. Blocks travel as bits everywhere
outside the decoder, and `bits_to_symbols` / `symbols_to_bits` hold the one
symbol bit order, MSB first. A code's tables are built on first use and
live as long as the code object: a caller keeps the code to reuse them.

The decoder is hard-decision, errors-only: syndromes, Berlekamp-Massey
locator synthesis, Chien search over the n used positions, Forney values,
then a syndrome re-check of the corrected word so miscorrected words that
fail the parity check are reported as failures rather than silent wrong
answers. A codeword's syndromes are zero, so a word's are those of its
parity mismatch, received parity ^ encode_parity(info), which `syndromes`
maps through a second nibble table. One `FieldSpec.eval_poly_at_powers` call
serves Chien and Forney, and one the re-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from ._rules import all_bits, as_integer, step_rows
from .gf import FieldSpec


@dataclass(frozen=True, eq=False)
class CodeSpec:
    """One (n, k) code over `field`; each table is built, read-only, on first use."""

    field: FieldSpec
    n: int
    k: int

    @cached_property
    def parity_table(self) -> np.ndarray:
        """`encode_parity`'s nibble table, of the m*k x ceil(m*(n-k)/8) packed
        bit matrix whose row i is the parity of info bit i alone."""
        # One expression, so the int64 parity rows and their logs are freed
        # before the nibble table is built beside the bit matrix.
        fld, gen = self.field, _generator_poly(self.field, self.n - self.k)
        return _nibble_table(_bit_matrix(fld, fld.log_ext[_parity_rows(fld, gen, self.n, self.k)]))

    @cached_property
    def mismatch_table(self) -> np.ndarray:
        """`syndromes`' nibble table; syndrome_table's row p logs the syndromes of a 1 at p."""
        return _nibble_table(_bit_matrix(self.field, self.syndrome_table[self.k :]))

    @cached_property
    def syndrome_table(self) -> np.ndarray:
        """n x (n-k) logs in the symbol dtype, [p, d] = (d+1) * (n-1-p) mod 2^m - 1:
        row p weighs the symbol at p, of degree n-1-p, in each syndrome S_1..S_(n-k)."""
        return _exponent_table(self.field, self.n - 1 - np.arange(self.n), np.arange(1, self.n - self.k + 1))

    @cached_property
    def chien_table(self) -> np.ndarray:
        """(n-k) x n logs in the symbol dtype, [d, j] = d * -j mod 2^m - 1: the d-th
        power of alpha^-j, where Chien and Forney evaluate their polynomials."""
        return _exponent_table(self.field, np.arange(self.n - self.k), -np.arange(self.n))

    @property
    def d(self) -> int:
        """Minimum distance, n - k + 1."""
        return self.n - self.k + 1

    @property
    def t(self) -> int:
        """Guaranteed-correctable symbol errors, (n - k) // 2."""
        return (self.n - self.k) // 2

    @property
    def t_max(self) -> int:
        """Upper correction limit, n - k."""
        return self.n - self.k

    @property
    def m(self) -> int:
        return self.field.m

    @property
    def info_bits(self) -> int:
        """Information bits per block, m*k."""
        return self.field.m * self.k

    @property
    def parity_bits(self) -> int:
        """Parity bits per block, m*(n-k)."""
        return self.field.m * (self.n - self.k)


@dataclass(frozen=True)
class DecodeResult:
    """Outcome of one block decode. `ok` is False on any signaled failure."""

    ok: bool
    info: np.ndarray | None
    corrected: int
    reason: str | None = None


def _generator_poly(fld: FieldSpec, nsym: int) -> list[int]:
    # g(x) = prod_{i=1..nsym} (x - alpha^i); first root fixed at alpha^1
    g = [1]
    for i in range(1, nsym + 1):
        root = fld.pow_alpha(i)
        nxt = [0] * (len(g) + 1)
        for j, a in enumerate(g):
            nxt[j] ^= a
            nxt[j + 1] ^= fld.mul(a, root)
        g = nxt
    return g


def _parity_rows(fld: FieldSpec, gen: list[int], n: int, k: int) -> np.ndarray:
    # Row for info position i is x^(n-1-i) mod g(x), built by iterating
    # multiply-by-x from x^nsym mod g. Stored with the wire symbol order
    # (entry j = coefficient of degree nsym-1-j).
    nsym = n - k
    rem = np.array(gen[1:][::-1], dtype=np.int64)  # ascending coefficients of x^nsym mod g
    red_logs = fld.log_ext[rem]
    out = np.empty((k, nsym), dtype=np.int64)
    out[k - 1] = rem[::-1]
    for deg in range(nsym + 1, n):
        top = rem[-1]
        rem = np.concatenate(([0], rem[:-1]))
        rem ^= fld.exp_ext[fld.log_ext[top] + red_logs]
        out[n - 1 - deg] = rem[::-1]
    return out


def _bit_matrix(fld: FieldSpec, logs: np.ndarray) -> np.ndarray:
    # Row m*i + b is the packed bits of symbol row i (given as logs, in any
    # integer dtype) times alpha^(m-1-b), bit b's value, MSB first: the image
    # of that bit alone. Planes are read a step of rows at a time, each row
    # of a plane m*width int64 bits.
    (count, width), m = logs.shape, fld.m
    out = np.empty((count, m, -(-m * width // 8)), dtype=np.uint8)
    step = step_rows(8 * m * width)
    for start in range(0, count, step):
        here = logs[start : start + step].astype(np.int64) + (m - 1)
        for b in range(m):
            plane = symbols_to_bits(fld.exp_ext[here - b], m)
            # packbits takes ~15x longer on the int64 bits than on uint8 ones.
            out[start : start + step, b] = np.packbits(plane.astype(np.uint8), axis=-1)
    out.setflags(write=False)
    return out.reshape(count * m, -1)


def _nibble_table(matrix: np.ndarray) -> np.ndarray:
    # ceil(rows/4) x 16 x ceil(row bits/64) '<u8': entry [g, v] is the XOR of
    # the packed matrix rows 4g..4g+3 that nibble v sets, MSB first, each row
    # zero-padded to whole 64-bit words. Doubling step s = 1, 2, 4, 8 writes
    # entries s..2s-1 as entries 0..s-1 XOR the group's row of nibble bit s.
    groups, words = -(-len(matrix) // 4), -(-matrix.shape[1] // 8)
    rows = np.zeros((4 * groups, 8 * words), dtype=np.uint8)
    rows[: len(matrix), : matrix.shape[1]] = matrix
    rows = rows.view("<u8").reshape(groups, 4, words)
    table = np.zeros((groups, 16, words), dtype="<u8")
    for bit in range(4):
        s = 1 << bit
        np.bitwise_xor(table[:, :s], rows[:, 3 - bit, None], out=table[:, s : 2 * s])
    table.setflags(write=False)
    return table


def _exponent_table(fld: FieldSpec, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    # rows[:, None] * cols mod 2^m - 1, read-only in the symbol dtype. The
    # products are exact in int32, taken in place: each is below MAX_N^2 < 2^31.
    table = np.multiply.outer(rows.astype(np.int32), cols.astype(np.int32))
    table %= fld.mul_order
    table = table.astype(np.uint8 if fld.m <= 8 else np.uint16)
    table.setflags(write=False)
    return table


# Longest code make_code accepts. The exponent tables grow as n^2, the nibble
# tables as m^2 (n-k) max(k, n-k): a first decode at (1023, 1) over GF(2^10)
# holds 56.5 MB, 52.3 MB of it the mismatch table, and peaks at ~81 MB; a
# (65535, 1) code over GF(2^16) would need ~17 GB.
MAX_N = 1023


def make_code(fld: FieldSpec, n: int, k: int) -> CodeSpec:
    """The (n, k) code over fld; it builds no table, and each table the code
    builds on first use lives as long as the code object. Raises ValueError
    unless n and k are integers with 1 <= k < n <= 2^m - 1 and n <= MAX_N."""
    n, k = as_integer(n, "n"), as_integer(k, "k")
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got ({n}, {k})")
    if n > fld.mul_order:
        raise ValueError(f"code length {n} exceeds 2^{fld.m} - 1 = {fld.mul_order}")
    if n > MAX_N:
        raise ValueError(f"code length {n} exceeds the supported maximum {MAX_N}")
    return CodeSpec(fld, n, k)


def _linear_map(table: np.ndarray, bits: np.ndarray, out_bits: int) -> np.ndarray:
    # A `_nibble_table`'s map of (..., in_bits) 0/1 rows: (..., out_bits)
    # uint8 bits, the XOR of the one entry per nibble that each row selects.
    # A step of rows holds their gathered entries, groups x words per row.
    groups, _, words = table.shape
    octets = np.packbits(bits.reshape(-1, bits.shape[-1]).astype(np.uint8, copy=False), axis=-1)
    # Entry v of group g is row 16g + v of the flat table.
    flat, offset = table.reshape(-1, words), np.arange(0, 16 * groups, 16)
    step = step_rows(groups * words * 8)
    packed = np.empty((len(octets), words), dtype="<u8")
    for start in range(0, len(octets), step):
        here = octets[start : start + step]
        nibbles = np.empty((len(here), 2 * here.shape[1]), dtype=np.intp)
        np.right_shift(here, 4, out=nibbles[:, 0::2])
        np.bitwise_and(here, 15, out=nibbles[:, 1::2])
        nibbles = nibbles[:, :groups]
        nibbles += offset
        np.bitwise_xor.reduce(flat[nibbles], axis=1, out=packed[start : start + step])
    return np.unpackbits(packed.view(np.uint8), axis=-1, count=out_bits).reshape(*bits.shape[:-1], out_bits)


def encode_parity(code: CodeSpec, info_bits) -> np.ndarray:
    """Systematic parity bits of one information bit vector or a batch of them.

    Takes a (..., m*k) array of 0/1 (symbols MSB first, as on the wire) and
    returns the (..., m*(n-k)) parity bits as uint8; any number of rows
    takes one call. Raises ValueError for a wrong trailing length or a value
    outside {0, 1}.
    """
    bits = np.asarray(info_bits)
    if bits.shape[-1:] != (code.info_bits,) or not all_bits(bits):
        raise ValueError(f"info must end in {code.info_bits} bits of 0 or 1, got shape {bits.shape}")
    return _linear_map(code.parity_table, bits, code.parity_bits)


def syndromes(code: CodeSpec, word_bits) -> np.ndarray:
    """Syndromes S_1..S_(n-k), (..., n-k) int64 symbols, of (..., m*n) word
    bits (info, then parity, as on the wire), from their parity mismatch.
    Raises ValueError unless the rows are m*n bits of 0 or 1."""
    bits = np.asarray(word_bits)
    if bits.shape[-1:] != (code.m * code.n,) or not all_bits(bits):
        raise ValueError(f"a word must end in {code.m * code.n} bits of 0 or 1, got shape {bits.shape}")
    mismatch = bits[..., code.info_bits :] ^ encode_parity(code, bits[..., : code.info_bits])
    return bits_to_symbols(_linear_map(code.mismatch_table, mismatch, code.parity_bits), code.m)


def _symbols(code: CodeSpec, word, name: str, length: int) -> np.ndarray:
    """The word as int64 symbols; ValueError unless it is `length` integers in [0, 2^m)."""
    word = np.asarray(word)
    if word.shape != (length,):
        raise ValueError(f"{name} length must be {length}, got {word.shape}")
    # The range test is False for NaN and inf, so neither meets the remainder or the cast.
    if word.dtype.kind in "biu" or (((word >= 0) & (word < code.field.order)).all() and not (word % 1).any()):
        word = word.astype(np.int64, copy=False)
        if not (word >> code.m).any():
            return word
    raise ValueError(f"{name} symbols must be integers in [0, {code.field.order})")


def codeword(code: CodeSpec, info) -> np.ndarray:
    """Information symbols followed by their parity symbols; info must be k integers in [0, 2^m)."""
    info = _symbols(code, info, "info", code.k)
    parity = encode_parity(code, symbols_to_bits(info, code.m))
    return np.concatenate([info, bits_to_symbols(parity, code.m)])


@lru_cache(maxsize=64)
def _shifts(nsym: int) -> np.ndarray:
    # Row j, column i is nsym - 1 + i - j: a read-only view of one arange.
    return np.lib.stride_tricks.sliding_window_view(np.arange(2 * nsym - 1), nsym)[::-1]


def _times_syndromes(fld: FieldSpec, poly, synd: np.ndarray) -> np.ndarray:
    # Coefficients 0..n-k-1 of poly(x) * S(x), with S(x) = sum S_(i+1) x^i:
    # coefficient i is Berlekamp-Massey's discrepancy at step i for this
    # locator, and the whole vector is Forney's omega. Term (j < n-k, i) is
    # poly_j * S_(i-j+1), read from sentinel logs at the cached shifts; the
    # n-k-1 leading sentinels stand for the S_(i-j+1) with i < j.
    nsym = len(synd)
    coeff_logs = fld.log_ext[np.asarray(poly[:nsym])]
    synd_logs = np.concatenate([np.full(nsym - 1, fld.log_ext[0]), fld.log_ext[synd]])
    rows = _shifts(nsym)[: len(coeff_logs)]
    return np.bitwise_xor.reduce(fld.exp_ext[synd_logs[rows] + coeff_logs[:, None]], axis=0)


def _berlekamp_massey(fld: FieldSpec, synd: np.ndarray) -> tuple[list[int], int, np.ndarray]:
    """Massey's locator synthesis with an exact early exit; returns the
    locator, its length L and Forney's omega = locator(x) * S(x) mod x^(n-k).

    At a zero discrepancy with 2L <= i, one product locator(x) * S(x) gives
    every remaining discrepancy of the current locator: if all are zero the
    locator is final and the product is omega; otherwise the steps up to the
    first nonzero one only lengthen the shift.
    """
    exp, log, qm1 = fld.exp_list, fld.log_list, fld.mul_order
    synd_list = synd.tolist()
    nsym = len(synd_list)
    cur = [1]
    prev = [1]
    length = 0
    shift = 1
    prev_disc = 1
    omega = None
    i = 0
    while i < nsym:
        disc = synd_list[i]
        top = min(length, len(cur) - 1)
        for cj, sij in zip(cur[1 : top + 1], reversed(synd_list[i - top : i])):
            disc ^= exp[log[cj] + log[sij]]
        if disc == 0:
            if 2 * length > i:
                shift += 1
                i += 1
                continue
            product = _times_syndromes(fld, cur, synd)
            rest = product[i + 1 :].nonzero()[0]
            if len(rest) == 0:
                omega = product
                break
            shift += int(rest[0]) + 1
            i += int(rest[0]) + 1
            disc = int(product[i])
        # cur(x) -= (disc / prev_disc) x^shift prev(x), growing cur if needed.
        coef_log = (log[disc] - log[prev_disc]) % qm1
        saved = list(cur) if 2 * length <= i else None
        cur += [0] * (shift + len(prev) - len(cur))
        for idx, b in enumerate(prev, shift):
            cur[idx] ^= exp[coef_log + log[b]]
        if saved is not None:
            length = i + 1 - length
            prev = saved
            prev_disc = disc
            shift = 1
        else:
            shift += 1
        i += 1
    while len(cur) > 1 and cur[-1] == 0:
        cur.pop()
    if omega is None:
        omega = _times_syndromes(fld, cur, synd)
    return cur, length, omega


def decode_block(code: CodeSpec, received, synd=None) -> DecodeResult:
    """Correct up to t symbol errors; anything unrecoverable is a failure.

    `synd` is the word's `syndromes`, computed here if not given. A failure
    is a normal outcome of a noisy block, not an exception. A word within
    distance t of a *different* codeword decodes to that codeword; such
    miscorrections are indistinguishable from success at this layer. Raises
    ValueError for a wrong length or a symbol not an integer in [0, 2^m).
    """
    received = _symbols(code, received, "received", code.n)
    fld = code.field
    if synd is None:
        synd = syndromes(code, symbols_to_bits(received, code.m))
    if not synd.any():
        return DecodeResult(ok=True, info=received[: code.k].copy(), corrected=0)

    locator, length, omega = _berlekamp_massey(fld, synd)
    if length > code.t or length != len(locator) - 1:
        return DecodeResult(ok=False, info=None, corrected=0, reason="locator degree")

    # One evaluation at the Chien points alpha^-j of the n positions in use
    # (degree j) serves Chien and Forney: the position is in error iff the
    # locator is 0 there, and its error value is omega / locator' (odd terms
    # only) for first root alpha^1. The length-L locator generates every
    # syndrome, so omega's coefficients from L on are zero (Massey 1969).
    polys = np.zeros((3, length + 1), dtype=np.int64)
    polys[0], polys[1, :length], polys[2, :length:2] = locator, omega[:length], locator[1::2]
    values = fld.eval_poly_at_powers(polys, code.chien_table)
    err_degrees = (values[0] == 0).nonzero()[0]
    if len(err_degrees) != length:
        return DecodeResult(ok=False, info=None, corrected=0, reason="root count")
    omega_vals, deriv_vals = values[1:, err_degrees]
    if not deriv_vals.all():
        return DecodeResult(ok=False, info=None, corrected=0, reason="zero derivative")
    magnitudes = fld.exp_ext[fld.log_ext[omega_vals] - fld.log_ext[deriv_vals] + fld.mul_order]
    if not magnitudes.all():
        return DecodeResult(ok=False, info=None, corrected=0, reason="zero magnitude")

    # The corrected word's syndromes are S(received) ^ S(error) by linearity,
    # so it is a codeword iff the error alone, read at its positions' table
    # rows, has the received word's syndromes.
    positions = code.n - 1 - err_degrees
    if (fld.eval_poly_at_powers(magnitudes, code.syndrome_table[positions]) != synd).any():
        return DecodeResult(ok=False, info=None, corrected=0, reason="reverify")
    info = received[: code.k].copy()
    in_info = positions < code.k
    info[positions[in_info]] ^= magnitudes[in_info]
    return DecodeResult(ok=True, info=info, corrected=int(length))


def bits_to_symbols(bits, m: int) -> np.ndarray:
    """Pack bits into m-bit symbols, MSB first, along the last axis: (..., L*m)
    bits give (..., L) int64 symbols."""
    bits = np.asarray(bits, dtype=np.int64)
    if bits.shape[-1] % m != 0:
        raise ValueError(f"bit count {bits.shape[-1]} is not a multiple of {m}")
    weights = np.int64(1) << np.arange(m - 1, -1, -1, dtype=np.int64)
    return bits.reshape(*bits.shape[:-1], bits.shape[-1] // m, m) @ weights


def symbols_to_bits(symbols, m: int) -> np.ndarray:
    """Unpack m-bit symbols into bits, MSB first, along the last axis: (..., L)
    symbols give (..., L*m) int64 bits."""
    symbols = np.asarray(symbols, dtype=np.int64)
    shifts = np.arange(m - 1, -1, -1)
    return ((symbols[..., None] >> shifts) & 1).reshape(*symbols.shape[:-1], symbols.shape[-1] * m)
