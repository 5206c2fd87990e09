"""Systematic (n, k) Reed-Solomon codes over GF(2^m).

Shortened codes (n < 2^m - 1) come for free: the parity map is built from
x^d mod g(x) for the degrees actually used, which is the full-length code
with implicit leading zeros.

Encoding works on bits: the parity is a GF(2)-linear map of the m*k
information bits, applied as the XOR of the rows of a packed binary parity
matrix. Blocks travel as bits everywhere outside the decoder.

The decoder is hard-decision, errors-only: syndromes, Berlekamp-Massey
locator synthesis, Chien search over the n used positions, Forney values,
then a re-encode verification so miscorrected words that fail the parity
check are reported as failures rather than silent wrong answers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .gf import FieldSpec, build_field


@dataclass(frozen=True, eq=False)
class CodeSpec:
    """Parameters and derived tables of one (n, k) code instance."""

    field: FieldSpec
    n: int
    k: int
    d: int                      # minimum distance, n - k + 1
    t: int                      # guaranteed-correctable symbol errors
    t_max: int                  # upper correction limit, n - k
    generator_poly: tuple       # descending coefficients, leading 1
    parity_map: np.ndarray = field(repr=False)      # k x (n-k) symbol matrix
    # m*k x ceil(m*(n-k)/8) packed bits; row i is the parity of info bit i alone
    parity_matrix: np.ndarray = field(repr=False)

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
    gd = np.array(gen, dtype=np.int64)
    rem = gd[1:][::-1].copy()       # ascending coefficients of x^nsym mod g
    reduction = gd[1:][::-1]
    red_nz = np.nonzero(reduction)[0]
    red_logs = fld.log_table[reduction[red_nz]]
    rows = {nsym: rem.copy()}
    for deg in range(nsym + 1, n):
        top = rem[-1]
        rem = np.concatenate(([0], rem[:-1]))
        if top:
            rem[red_nz] ^= fld.exp_table[(fld.log_table[top] + red_logs) % fld.mul_order]
        rows[deg] = rem.copy()
    out = np.zeros((k, nsym), dtype=np.int64)
    for i in range(k):
        out[i] = rows[n - 1 - i][::-1]
    return out


def _parity_matrix(fld: FieldSpec, pmap: np.ndarray) -> np.ndarray:
    # Row m*i + b is the parity of bit b (MSB first) of info symbol i alone,
    # the symbol value alpha^(m-1-b): parity_map[i] times alpha^(m-1-b). Walk
    # b down from m-1 (the value 1), multiplying the plane by alpha = x each
    # step; a plane's symbols unpack from the top m bits of big-endian uint16s.
    k, nsym = pmap.shape
    m = fld.m
    out = np.empty((k, m, -(-m * nsym // 8)), dtype=np.uint8)
    plane = pmap.astype(np.uint32)
    for b in range(m - 1, -1, -1):
        top = (plane << (16 - m)).astype(">u2").view(np.uint8).reshape(k, nsym, 2)
        bits = np.unpackbits(top, axis=-1, count=m)
        out[:, b] = np.packbits(bits.reshape(k, m * nsym), axis=-1)
        plane = (plane << 1) ^ ((plane >> (m - 1)) & 1) * fld.primitive_poly
    return out.reshape(k * m, -1)


@lru_cache(maxsize=32)
def _make_code_cached(m: int, primitive_poly: int, n: int, k: int) -> CodeSpec:
    fld = build_field(m, primitive_poly)
    gen = _generator_poly(fld, n - k)
    pmap = _parity_rows(fld, gen, n, k)
    pmap.setflags(write=False)
    pmat = _parity_matrix(fld, pmap)
    pmat.setflags(write=False)
    return CodeSpec(
        field=fld,
        n=n,
        k=k,
        d=n - k + 1,
        t=(n - k) // 2,
        t_max=n - k,
        generator_poly=tuple(gen),
        parity_map=pmap,
        parity_matrix=pmat,
    )


def make_code(fld: FieldSpec, n: int, k: int) -> CodeSpec:
    """Construct the code, its derived limits, and the parity map."""
    if not k < n:
        raise ValueError(f"need k < n, got ({n}, {k})")
    if n > fld.mul_order:
        raise ValueError(f"code length {n} exceeds 2^{fld.m} - 1 = {fld.mul_order}")
    return _make_code_cached(fld.m, fld.primitive_poly, n, k)


def encode_parity(code: CodeSpec, info_bits) -> np.ndarray:
    """Systematic parity bits of one information bit vector or a batch of them.

    Takes a (..., m*k) array of 0/1 (symbols MSB first, as on the wire) and
    returns the (..., m*(n-k)) parity bits as uint8: the XOR of the parity
    matrix rows the set bits select. A batch of B rows briefly takes B
    times the matrix's memory. Raises ValueError for a wrong trailing length or a
    value outside {0, 1}.
    """
    bits = np.asarray(info_bits)
    if bits.shape[-1:] != (code.info_bits,):
        raise ValueError(f"info must end in {code.info_bits} bits, got shape {bits.shape}")
    if ((bits != 0) & (bits != 1)).any():
        raise ValueError("info bits must hold only 0 and 1")
    rows = code.parity_matrix * bits.astype(np.uint8)[..., None]
    return np.unpackbits(np.bitwise_xor.reduce(rows, axis=-2), axis=-1, count=code.parity_bits)


def codeword(code: CodeSpec, info) -> np.ndarray:
    """Information symbols followed by their parity symbols."""
    info = np.asarray(info, dtype=np.int64)
    if ((info < 0) | (info >= code.field.order)).any():
        raise ValueError(f"info symbols must lie in [0, {code.field.order})")
    parity = encode_parity(code, symbols_to_bits(info, code.m))
    return np.concatenate([info, bits_to_symbols(parity, code.m)])


def parity_rows(code: CodeSpec) -> np.ndarray:
    """The k x (n-k) matrix mapping info vectors to parity vectors."""
    return code.parity_map.copy()


def _syndromes(code: CodeSpec, word: np.ndarray) -> np.ndarray:
    fld = code.field
    nsym = code.n - code.k
    nz = np.nonzero(word)[0]
    if len(nz) == 0:
        return np.zeros(nsym, dtype=np.int64)
    degs = (code.n - 1 - nz) % fld.mul_order
    coeff_logs = fld.log_table[word[nz]]
    js = np.arange(1, nsym + 1)
    expo = (coeff_logs[None, :] + js[:, None] * degs[None, :]) % fld.mul_order
    return np.bitwise_xor.reduce(fld.exp_table[expo], axis=1)


def _berlekamp_massey(fld: FieldSpec, synd: list[int]) -> tuple[list[int], int]:
    exp, log, qm1 = fld.exp_list, fld.log_list, fld.mul_order
    cur = [1]
    prev = [1]
    length = 0
    shift = 1
    prev_disc = 1
    for i, s in enumerate(synd):
        disc = s
        for j in range(1, min(length, len(cur) - 1) + 1):
            cj = cur[j]
            sij = synd[i - j]
            if cj and sij:
                disc ^= exp[log[cj] + log[sij]]
        if disc == 0:
            shift += 1
            continue
        coef_log = (log[disc] - log[prev_disc]) % qm1
        delta = [0] * shift + [exp[coef_log + log[b]] if b else 0 for b in prev]
        if 2 * length <= i:
            saved = list(cur)
            if len(delta) > len(cur):
                cur = cur + [0] * (len(delta) - len(cur))
            for idx, v in enumerate(delta):
                cur[idx] ^= v
            length = i + 1 - length
            prev = saved
            prev_disc = disc
            shift = 1
        else:
            if len(delta) > len(cur):
                cur = cur + [0] * (len(delta) - len(cur))
            for idx, v in enumerate(delta):
                cur[idx] ^= v
            shift += 1
    while len(cur) > 1 and cur[-1] == 0:
        cur.pop()
    return cur, length


def decode_block(code: CodeSpec, received) -> DecodeResult:
    """Correct up to t symbol errors; anything unrecoverable is a failure.

    A returned failure is a normal outcome of a noisy block, not an
    exception. Note that a received word landing within distance t of a
    *different* codeword decodes to that codeword; such miscorrections are
    indistinguishable from success at this layer.
    """
    received = np.asarray(received, dtype=np.int64)
    if received.shape != (code.n,):
        raise ValueError(f"received length must be {code.n}, got {received.shape}")
    fld = code.field
    nsym = code.n - code.k
    synd = _syndromes(code, received)
    if not synd.any():
        return DecodeResult(ok=True, info=received[: code.k].copy(), corrected=0)

    locator, length = _berlekamp_massey(fld, synd.tolist())
    if length > code.t or length != len(locator) - 1:
        return DecodeResult(ok=False, info=None, corrected=0, reason="locator degree")

    # Chien search over the n positions in use; position at degree j is in
    # error iff locator(alpha^-j) = 0.
    degrees = np.arange(code.n)
    vals = fld.eval_poly_at_powers(locator, (-degrees) % fld.mul_order)
    err_degrees = degrees[vals == 0]
    if len(err_degrees) != length:
        return DecodeResult(ok=False, info=None, corrected=0, reason="root count")

    # Forney: omega = synd(x) * locator(x) mod x^nsym, error value at X_l is
    # omega(X_l^-1) / locator'(X_l^-1) for first root alpha^1.
    omega = np.zeros(nsym, dtype=np.int64)
    for j, c in enumerate(locator):
        if c:
            omega[j:] ^= fld.mul_vec(synd[: nsym - j], c)
    loc_arr = np.array(locator, dtype=np.int64)
    inv_logs = (-err_degrees) % fld.mul_order
    omega_vals = fld.eval_poly_at_powers(omega, inv_logs)
    deriv = loc_arr[1:].copy()
    deriv[1::2] = 0                       # formal derivative keeps odd terms only
    deriv_vals = fld.eval_poly_at_powers(deriv, inv_logs)
    if (deriv_vals == 0).any():
        return DecodeResult(ok=False, info=None, corrected=0, reason="zero derivative")
    magnitudes = np.where(
        omega_vals == 0,
        0,
        fld.exp_table[(fld.log_table[omega_vals] - fld.log_table[deriv_vals]) % fld.mul_order],
    )
    if (magnitudes == 0).any():
        return DecodeResult(ok=False, info=None, corrected=0, reason="zero magnitude")

    corrected = received.copy()
    corrected[code.n - 1 - err_degrees] ^= magnitudes
    if _syndromes(code, corrected).any():
        return DecodeResult(ok=False, info=None, corrected=0, reason="reverify")
    return DecodeResult(ok=True, info=corrected[: code.k].copy(), corrected=int(length))


def bits_to_symbols(bits, m: int) -> np.ndarray:
    """Pack a bit array (MSB first within each symbol) into m-bit symbols."""
    bits = np.asarray(bits, dtype=np.int64)
    if len(bits) % m != 0:
        raise ValueError(f"bit count {len(bits)} is not a multiple of {m}")
    weights = 1 << np.arange(m - 1, -1, -1)
    return bits.reshape(-1, m) @ weights


def symbols_to_bits(symbols, m: int) -> np.ndarray:
    """Unpack m-bit symbols into a flat bit array, MSB first."""
    symbols = np.asarray(symbols, dtype=np.int64)
    shifts = np.arange(m - 1, -1, -1)
    return ((symbols[:, None] >> shifts) & 1).reshape(-1)
