"""Reference Reed-Solomon encoder and decoder for the equivalence tests.

A frozen copy of the decoder as first written: Berlekamp-Massey indexes the
numpy exp/log tables one scalar at a time with a modulo per product, and
Forney builds omega by looping over all nsym syndromes. It is slow on
purpose and must not be optimised; `noisekey.rs.decode_block` has to return
identical `DecodeResult`s. The encoder is polynomial long division by the
generator, one symbol at a time; `noisekey.rs.encode_parity` has to give the
same parity.

It shares no arithmetic with the package: its exp/log tables are built here
by shift-and-reduce from the field's m and primitive polynomial, and its
evaluator takes one point log per point, with a modulo per term and a mask
for zero coefficients. Of a `FieldSpec` it reads only m and primitive_poly.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from noisekey.gf import FieldSpec
from noisekey.rs import CodeSpec, DecodeResult


@lru_cache(maxsize=None)
def tables(fld: FieldSpec) -> tuple[np.ndarray, np.ndarray, int]:
    """exp (2^m - 1 entries), log (2^m entries, log 0 unused) and 2^m - 1."""
    m, primitive_poly = fld.m, fld.primitive_poly
    qm1 = (1 << m) - 1
    exp = np.zeros(qm1, dtype=np.int64)
    log = np.zeros(qm1 + 1, dtype=np.int64)
    x = 1
    for i in range(qm1):
        exp[i] = x
        log[x] = i
        x <<= 1
        if x >> m:
            x ^= primitive_poly
    assert x == 1 and sorted(exp.tolist()) == list(range(1, qm1 + 1))
    return exp, log, qm1


def eval_poly_at_powers(fld: FieldSpec, coeffs, power_logs) -> np.ndarray:
    """The polynomial (ascending coefficients) at alpha^power_logs[i], one
    field element per entry of power_logs."""
    exp, log, qm1 = tables(fld)
    coeffs = np.asarray(coeffs, dtype=np.int64)
    power_logs = np.asarray(power_logs)
    degrees = np.arange(len(coeffs))[:, None]
    terms = exp[(log[coeffs][:, None] + degrees * power_logs) % qm1]
    return np.bitwise_xor.reduce(np.where(coeffs[:, None] != 0, terms, 0), axis=0)


def mul(fld: FieldSpec, a: int, b: int) -> int:
    exp, log, qm1 = tables(fld)
    return int(exp[(log[a] + log[b]) % qm1]) if a and b else 0


def generator_poly(fld: FieldSpec, nsym: int) -> list[int]:
    """g(x) = prod_{i=1..nsym} (x - alpha^i), highest degree first."""
    exp, _, qm1 = tables(fld)
    g = [1]
    for i in range(1, nsym + 1):
        root = int(exp[i % qm1])
        g = [a ^ mul(fld, b, root) for a, b in zip(g + [0], [0] + g)]
    return g


def remainder_parity(code: CodeSpec, info) -> list[int]:
    """Parity symbols, highest degree first: info(x) * x^(n-k) mod g(x) by
    long division, one info symbol at a time."""
    nsym = code.n - code.k
    gen = generator_poly(code.field, nsym)
    rem = [0] * nsym
    for sym in info:
        feedback = int(sym) ^ rem[0]
        rem = rem[1:] + [0]
        for i in range(nsym):
            rem[i] ^= mul(code.field, gen[i + 1], feedback)
    return rem


def syndromes(code: CodeSpec, word: np.ndarray) -> np.ndarray:
    exp, log, qm1 = tables(code.field)
    nsym = code.n - code.k
    nz = np.nonzero(word)[0]
    if len(nz) == 0:
        return np.zeros(nsym, dtype=np.int64)
    degs = (code.n - 1 - nz) % qm1
    coeff_logs = log[word[nz]]
    js = np.arange(1, nsym + 1)
    expo = (coeff_logs[None, :] + js[:, None] * degs[None, :]) % qm1
    return np.bitwise_xor.reduce(exp[expo], axis=1)


def berlekamp_massey(fld: FieldSpec, synd: list[int]) -> tuple[list[int], int]:
    exp, log, qm1 = tables(fld)
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
                disc ^= int(exp[(log[cj] + log[sij]) % qm1])
        if disc == 0:
            shift += 1
            continue
        coef_log = (log[disc] - log[prev_disc]) % qm1
        delta = [0] * shift + [
            int(exp[(coef_log + log[b]) % qm1]) if b else 0 for b in prev
        ]
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
    received = np.asarray(received, dtype=np.int64)
    if received.shape != (code.n,):
        raise ValueError(f"received length must be {code.n}, got {received.shape}")
    fld = code.field
    exp, log, qm1 = tables(fld)
    nsym = code.n - code.k
    synd = syndromes(code, received)
    if not synd.any():
        return DecodeResult(ok=True, info=received[: code.k].copy(), corrected=0)

    locator, length = berlekamp_massey(fld, [int(s) for s in synd])
    if length > code.t or length != len(locator) - 1:
        return DecodeResult(ok=False, info=None, corrected=0, reason="locator degree")

    degrees = np.arange(code.n)
    vals = eval_poly_at_powers(fld, locator, (-degrees) % qm1)
    err_degrees = degrees[vals == 0]
    if len(err_degrees) != length:
        return DecodeResult(ok=False, info=None, corrected=0, reason="root count")

    omega = np.zeros(nsym, dtype=np.int64)
    loc_arr = np.array(locator, dtype=np.int64)
    for i, s in enumerate(synd):
        if s == 0:
            continue
        seg = loc_arr[: nsym - i]
        nzc = np.nonzero(seg)[0]
        omega[i + nzc] ^= exp[(log[s] + log[seg[nzc]]) % qm1]
    inv_logs = (-err_degrees) % qm1
    omega_vals = eval_poly_at_powers(fld, omega, inv_logs)
    deriv = loc_arr[1:].copy()
    deriv[1::2] = 0
    deriv_vals = eval_poly_at_powers(fld, deriv, inv_logs)
    if (deriv_vals == 0).any():
        return DecodeResult(ok=False, info=None, corrected=0, reason="zero derivative")
    magnitudes = np.where(
        omega_vals == 0,
        0,
        exp[(log[omega_vals] - log[deriv_vals]) % qm1],
    )
    if (magnitudes == 0).any():
        return DecodeResult(ok=False, info=None, corrected=0, reason="zero magnitude")

    corrected = received.copy()
    corrected[code.n - 1 - err_degrees] ^= magnitudes
    if syndromes(code, corrected).any():
        return DecodeResult(ok=False, info=None, corrected=0, reason="reverify")
    return DecodeResult(ok=True, info=corrected[: code.k].copy(), corrected=int(length))
