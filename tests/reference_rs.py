"""Reference Reed-Solomon decoder for the equivalence tests.

A frozen copy of the decoder as first written: Berlekamp-Massey indexes the
numpy exp/log tables one scalar at a time with a modulo per product, and
Forney builds omega by looping over all nsym syndromes. It is slow on
purpose and must not be optimised; `noisekey.rs.decode_block` has to return
identical `DecodeResult`s.
"""

from __future__ import annotations

import numpy as np

from noisekey.gf import FieldSpec
from noisekey.rs import CodeSpec, DecodeResult


def syndromes(code: CodeSpec, word: np.ndarray) -> np.ndarray:
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


def berlekamp_massey(fld: FieldSpec, synd: list[int]) -> tuple[list[int], int]:
    exp, log, qm1 = fld.exp_table, fld.log_table, fld.mul_order
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
    nsym = code.n - code.k
    synd = syndromes(code, received)
    if not synd.any():
        return DecodeResult(ok=True, info=received[: code.k].copy(), corrected=0)

    locator, length = berlekamp_massey(fld, [int(s) for s in synd])
    if length > code.t or length != len(locator) - 1:
        return DecodeResult(ok=False, info=None, corrected=0, reason="locator degree")

    degrees = np.arange(code.n)
    vals = fld.eval_poly_at_powers(locator, (-degrees) % fld.mul_order)
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
        omega[i + nzc] ^= fld.exp_table[(fld.log_table[s] + fld.log_table[seg[nzc]]) % fld.mul_order]
    inv_logs = (-err_degrees) % fld.mul_order
    omega_vals = fld.eval_poly_at_powers(omega, inv_logs)
    deriv = loc_arr[1:].copy()
    deriv[1::2] = 0
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
    if syndromes(code, corrected).any():
        return DecodeResult(ok=False, info=None, corrected=0, reason="reverify")
    return DecodeResult(ok=True, info=corrected[: code.k].copy(), corrected=int(length))
