import itertools
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from noisekey import rs
from noisekey.gf import build_field
from noisekey.rs import (
    MAX_N,
    _generator_poly,
    _make_code_cached,
    _parity_rows,
    bits_to_symbols,
    codeword,
    decode_block,
    encode_parity,
    make_code,
    symbols_to_bits,
)
from conftest import random_codeword_with_errors
from reference_rs import generator_poly, remainder_parity


def parity_symbols(code, info):
    """encode_parity on symbols: the bit-level encoder between the conversions."""
    bits = symbols_to_bits(np.asarray(info), code.m)
    return bits_to_symbols(encode_parity(code, bits), code.m)


def test_derived_limits(code_255_167, code_7_5):
    assert (code_255_167.t, code_255_167.t_max, code_255_167.d) == (44, 88, 89)
    assert (code_7_5.t, code_7_5.t_max, code_7_5.d) == (1, 2, 3)


def test_bad_parameters(gf256):
    with pytest.raises(ValueError):
        make_code(gf256, 255, 255)
    with pytest.raises(ValueError):
        make_code(gf256, 256, 100)


@pytest.mark.parametrize("k", [0, -1])
def test_make_code_refuses_k_below_one(gf8, k):
    # k = 0 used to raise IndexError while building the tables, and k = -1
    # numpy's "negative dimensions are not allowed".
    with pytest.raises(ValueError, match=rf"need 1 <= k < n, got \(5, {k}\)"):
        make_code(gf8, 5, k)


def test_make_code_refuses_long_codes_before_building_tables():
    fld = build_field(11, 0x805)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=str(MAX_N)):
            make_code(fld, MAX_N + 1, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_make_code_builds_the_longest_supported_code():
    code = make_code(build_field(10, 0x409), MAX_N, 1)
    try:
        assert (code.n, code.k, code.t, code.m) == (1023, 1, 511, 10)
        info = np.array([5])
        assert (codeword(code, info) == 5).all()  # the repetition code
    finally:
        _make_code_cached.cache_clear()  # ~4 MB of tables


def traced(call, *args):
    """call(*args), then tracemalloc's held and peak bytes over the call."""
    tracemalloc.start()
    try:
        return call(*args), *tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


def encode_one(code):
    encode_parity(code, np.arange(code.info_bits) % 3 == 0)


def decode_one(code):
    word = codeword(code, np.arange(code.k) % code.field.order)
    word[[0, code.n // 2, code.n - 1]] ^= 7
    assert decode_block(code, word).corrected == 3


def test_the_longest_supported_code_holds_its_tables_within_bounds():
    # make_code builds no table. A first encode builds the small parity
    # matrix and its nibble table (74 KB); a first decode the two 1023 x 1022
    # uint16 exponent tables (2.1 MB each) and the 52.3 MB mismatch table,
    # which peaks beside its 12.8 MB bit matrix and the matrix's padded copy.
    # Measured with numpy 2.4 on Python 3.11: 576 B held and 648 B peak in
    # make_code; 87 KB held and 344 KB peak in the encode; 56.5 MB held and
    # 80.9 MB peak in the decode.
    fld = build_field(10, 0x409)
    _make_code_cached.cache_clear()
    try:
        code, held, peak = traced(make_code, fld, MAX_N, 1)
        assert code.n == MAX_N and code.nbytes == 0 and held <= 4 << 10 and peak <= 16 << 10
        _, held, peak = traced(encode_one, code)
        assert held <= 128 << 10 and peak <= 512 << 10
        _, held, peak = traced(decode_one, code)
        assert code.mismatch_table.nbytes == 2555 * 16 * 160 * 8
        assert held <= 57e6 and peak <= 83e6
    finally:
        _make_code_cached.cache_clear()


def test_the_widest_supported_code_holds_its_parity_table_within_bounds():
    # make_code builds no table. A first encode builds the 13.1 MB nibble
    # table beside the 3.3 MB parity matrix, whose parity planes' int64 bits
    # it reads a 1 MiB step at a time; a first decode two 1 MB exponent
    # tables and the 13.1 MB mismatch table. Measured with numpy 2.4 on
    # Python 3.11: 536 B held and 608 B peak in make_code; 16.4 MB held and
    # 19.9 MB peak in the encode; 15.2 MB held and 21.0 MB peak in the decode.
    fld = build_field(10, 0x409)
    _make_code_cached.cache_clear()
    try:
        code, held, peak = traced(make_code, fld, MAX_N, 512)
        assert code.nbytes == 0 and held <= 4 << 10 and peak <= 16 << 10
        _, held, peak = traced(encode_one, code)
        assert code.parity_table.nbytes == 1280 * 16 * 80 * 8
        assert held <= 16.5e6 and peak <= 20.5e6
        _, held, peak = traced(decode_one, code)
        assert code.mismatch_table.nbytes == 1278 * 16 * 80 * 8
        assert held <= 15.5e6 and peak <= 22e6
    finally:
        _make_code_cached.cache_clear()


def test_the_code_cache_evicts_its_least_recently_used_codes_past_its_byte_bound(monkeypatch):
    # Each new code evicts the least recently used ones while the tables the
    # cached codes have built total more than the bound; three decoded
    # (255, k) codes, then a bound that holds two of them.
    fld = build_field(8)
    _make_code_cached.cache_clear()
    try:
        codes = [make_code(fld, 255, k) for k in (167, 191, 223)]
        for code in codes:
            decode_one(code)
        assert all(make_code(fld, 255, code.k) is code for code in codes)
        assert make_code(fld, 255, 167) is codes[0]   # now the most recently used
        monkeypatch.setattr(rs, "_CACHE_BYTES", codes[0].nbytes + codes[2].nbytes)
        make_code(fld, 255, 239)                       # evicts (255, 191)
        assert make_code(fld, 255, 167) is codes[0] and make_code(fld, 255, 223) is codes[2]
        assert make_code(fld, 255, 191) is not codes[1]
        # The newest code stays whatever its size.
        monkeypatch.setattr(rs, "_CACHE_BYTES", 0)
        newest = make_code(fld, 255, 247)
        decode_one(newest)
        assert make_code(fld, 255, 247) is newest
        assert make_code(fld, 255, 167) is not codes[0]
    finally:
        _make_code_cached.cache_clear()


def test_the_code_cache_holds_under_threads_that_build_and_evict(monkeypatch):
    # More threads than cores ask for codes, build their tables and force
    # evictions at a tiny byte bound; each must get its own code, decoding.
    monkeypatch.setattr(rs, "_CACHE_BYTES", 1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    errors = []

    def worker(seed):
        try:
            for i in range(400):
                m, n, k = [(4, 15, 9), (5, 31, 19), (6, 63, 51)][(seed + i) % 3]
                code = make_code(build_field(m), n, k)
                assert (code.n, code.k) == (n, k)
                decode_one(code)
        except Exception as error:   # asserted on in the main thread
            errors.append(error)

    _make_code_cached.cache_clear()
    threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(8)]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
        _make_code_cached.cache_clear()
    assert errors == []


def walked_parity_matrix(fld, rows):
    """Parity planes by multiplying each row by alpha = x, m - 1 times, with
    the shift-and-reduce walk: plane b is the row times alpha^(m-1-b)."""
    k, nsym = rows.shape
    m = fld.m
    out = np.empty((k, m, -(-m * nsym // 8)), dtype=np.uint8)
    plane = rows
    for b in range(m - 1, -1, -1):
        out[:, b] = np.packbits(symbols_to_bits(plane, m).astype(np.uint8), axis=-1)
        plane = (plane << 1) ^ ((plane >> (m - 1)) & 1) * fld.primitive_poly
    return out.reshape(k * m, -1)


@pytest.mark.parametrize(
    "m,n,k",
    [(3, 7, 5), (4, 15, 9), (5, 31, 19), (8, 255, 167), (10, 1023, 1), (10, 1023, 512), (16, 1023, 1000)],
)
def test_code_tables_match_the_walk_and_the_int64_products(m, n, k):
    fld = build_field(m)
    code = _make_code_cached.__wrapped__(m, fld.primitive_poly, n, k)   # kept out of the cache
    rows = _parity_rows(fld, _generator_poly(fld, n - k), n, k)
    assert np.array_equal(code.parity_matrix, walked_parity_matrix(fld, rows))
    # Entry [g, v] of the nibble table is the XOR of the padded matrix rows
    # 4g..4g+3 that v's bits select, MSB first.
    groups, _, words = code.parity_table.shape
    padded = np.zeros((4 * groups, 8 * words), dtype=np.uint8)
    padded[: code.info_bits, : code.parity_matrix.shape[1]] = code.parity_matrix
    padded = padded.reshape(groups, 4, 8 * words)
    assert code.parity_table.dtype == np.dtype("<u8") and not code.parity_table.flags.writeable
    assert groups == -(-code.info_bits // 4) and words == -(-code.parity_bits // 64)
    table_bytes = code.parity_table.view(np.uint8)
    for v in range(16):
        chosen = [j for j in range(4) if v >> (3 - j) & 1]
        assert np.array_equal(table_bytes[:, v], np.bitwise_xor.reduce(padded[:, chosen], axis=1))
    dtype = np.uint8 if m <= 8 else np.uint16
    syndrome = ((n - 1 - np.arange(n))[:, None] * np.arange(1, n - k + 1) % fld.mul_order).astype(dtype)
    chien = (-np.arange(n - k)[:, None] * np.arange(n) % fld.mul_order).astype(dtype)
    for table, expected in ((code.syndrome_table, syndrome), (code.chien_table, chien)):
        assert table.dtype == dtype and np.array_equal(table, expected)
        assert not table.flags.writeable


def test_zero_info_zero_parity(code_7_5):
    assert (parity_symbols(code_7_5, np.zeros(5, dtype=np.int64)) == 0).all()


def test_parity_matches_remainder_oracle(code_7_5, code_255_167):
    for code in (code_7_5, code_255_167):
        nsym = code.n - code.k
        assert _generator_poly(code.field, nsym) == generator_poly(code.field, nsym)
    rng = np.random.default_rng(10)
    for _ in range(50):
        info = rng.integers(0, 8, size=5)
        assert parity_symbols(code_7_5, info).tolist() == remainder_parity(code_7_5, info)
    for _ in range(5):
        info = rng.integers(0, 256, size=167)
        assert parity_symbols(code_255_167, info).tolist() == remainder_parity(code_255_167, info)


def test_parity_linearity(code_7_5):
    rng = np.random.default_rng(11)
    for _ in range(50):
        a = rng.integers(0, 8, size=5)
        b = rng.integers(0, 8, size=5)
        lhs = parity_symbols(code_7_5, a ^ b)
        rhs = parity_symbols(code_7_5, a) ^ parity_symbols(code_7_5, b)
        assert (lhs == rhs).all()


def test_parity_rows_definition(code_7_5):
    # The parity of unit info vector e_i is row i of the parity map,
    # x^(n-1-i) mod g(x); every parity is the GF-weighted XOR of those rows.
    k = code_7_5.k
    rows = [codeword(code_7_5, unit)[k:] for unit in np.eye(k, dtype=np.int64)]
    for unit, row in zip(np.eye(k, dtype=np.int64), rows):
        assert row.tolist() == remainder_parity(code_7_5, unit)
    assert (codeword(code_7_5, np.zeros(k, dtype=np.int64))[k:] == 0).all()
    rng = np.random.default_rng(12)
    for _ in range(50):
        b = rng.integers(0, 8, size=k)
        via_rows = np.zeros(2, dtype=np.int64)
        for i in range(k):
            via_rows ^= code_7_5.field.mul_vec(np.full(2, b[i]), rows[i])
        assert (via_rows == codeword(code_7_5, b)[k:]).all()


def test_decode_clean(code_7_5):
    rng = np.random.default_rng(13)
    _, word, info = random_codeword_with_errors(rng, code_7_5, 0)
    res = decode_block(code_7_5, word)
    assert res.ok and res.corrected == 0 and (res.info == info).all()


def test_decode_at_limit(code_7_5, code_255_167):
    rng = np.random.default_rng(14)
    for _ in range(200):
        _, bad, info = random_codeword_with_errors(rng, code_7_5, code_7_5.t)
        res = decode_block(code_7_5, bad)
        assert res.ok and (res.info == info).all()
    for _ in range(20):
        _, bad, info = random_codeword_with_errors(rng, code_255_167, code_255_167.t)
        res = decode_block(code_255_167, bad)
        assert res.ok and res.corrected == 44 and (res.info == info).all()


def test_exhaustive_single_errors(code_7_5):
    rng = np.random.default_rng(15)
    info = rng.integers(0, 8, size=5)
    clean = codeword(code_7_5, info)
    for pos in range(7):
        for val in range(1, 8):
            bad = clean.copy()
            bad[pos] ^= val
            res = decode_block(code_7_5, bad)
            assert res.ok and res.corrected == 1 and (res.info == info).all()


def test_beyond_limit_never_silently_original(code_7_5):
    # t+3 = 4 errors leave the received word at distance 4 from the original,
    # so a bounded-distance decoder can fail or miscorrect but never return it.
    rng = np.random.default_rng(16)
    outcomes = {"fail": 0, "miscorrect": 0}
    for _ in range(300):
        _, bad, info = random_codeword_with_errors(rng, code_7_5, code_7_5.t + 3)
        res = decode_block(code_7_5, bad)
        if not res.ok:
            outcomes["fail"] += 1
        else:
            assert not (res.info == info).all()
            outcomes["miscorrect"] += 1
    assert outcomes["fail"] > 0


def test_wrong_lengths(code_7_5):
    with pytest.raises(ValueError):
        encode_parity(code_7_5, np.zeros(4, dtype=np.int64))
    with pytest.raises(ValueError, match="received length must be 7"):
        decode_block(code_7_5, np.zeros(6, dtype=np.int64))
    for length in (4, 6):
        with pytest.raises(ValueError, match="info length must be 5"):
            codeword(code_7_5, np.zeros(length, dtype=np.int64))


# A float symbol used to be truncated: 0.5 and 1.9 read as 0 and 1, and NaN
# reached the int64 cast.
NOT_SYMBOLS = [-1, 8, 0.5, 1.9, np.nan, np.inf, -np.inf]


@pytest.mark.parametrize("bad", NOT_SYMBOLS)
def test_codeword_rejects_symbols_outside_field(code_7_5, bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=r"info symbols must be integers in \[0, 8\)"):
            codeword(code_7_5, np.array([0, 1, bad, 3, 4]))


@pytest.mark.parametrize("bad", NOT_SYMBOLS + [1 << 20])
def test_decode_rejects_symbols_outside_field(code_7_5, bad):
    word = codeword(code_7_5, np.array([0, 1, 2, 3, 4])).astype(type(bad))
    word[2] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=r"received symbols must be integers in \[0, 8\)"):
            decode_block(code_7_5, word)


@pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.uint64, np.float32, np.float64, object])
def test_integer_valued_symbols_of_any_dtype_decode_alike(code_7_5, dtype):
    rng = np.random.default_rng(20)
    _, word, info = random_codeword_with_errors(rng, code_7_5, 1)
    assert np.array_equal(codeword(code_7_5, info.astype(dtype)), codeword(code_7_5, info))
    result = decode_block(code_7_5, word.astype(dtype))
    assert result.ok and result.info.dtype == np.int64 and np.array_equal(result.info, info)


def test_shortened_code_round_trip(gf8):
    code = make_code(gf8, 5, 3)
    assert (code.d, code.t) == (3, 1)
    rng = np.random.default_rng(17)
    for _ in range(100):
        _, bad, info = random_codeword_with_errors(rng, code, rng.integers(0, 2))
        res = decode_block(code, bad)
        assert res.ok and (res.info == info).all()


def test_any_k_coordinates_determine_codeword(code_3_2):
    # Singleton equality: two codewords agreeing on k coordinates are equal.
    words = [codeword(code_3_2, np.array(pair)) for pair in itertools.product(range(4), repeat=2)]
    for wa, wb in itertools.combinations(words, 2):
        for coords in itertools.combinations(range(3), 2):
            assert not all(wa[c] == wb[c] for c in coords)


def test_preimage_count_per_parity(code_3_2):
    # Each of the 4 parity values has exactly 2^(m(2k-n)) = 4 info preimages.
    buckets = {}
    for pair in itertools.product(range(4), repeat=2):
        parity = tuple(parity_symbols(code_3_2, np.array(pair)).tolist())
        buckets.setdefault(parity, []).append(pair)
    assert len(buckets) == 4
    assert all(len(v) == 4 for v in buckets.values())


def test_golden_wire_bytes(code_255_167, code_7_5):
    # regression pins: systematic parity bytes are part of the wire contract
    # (root offset alpha^1, highest-degree-first symbol order)
    assert _generator_poly(code_7_5.field, 2) == [1, 6, 3]
    assert parity_symbols(code_7_5, np.array([3, 1, 4, 1, 5])).tolist() == [5, 6]
    parity = parity_symbols(code_255_167, np.arange(167) % 256)
    assert parity[:8].tolist() == [0x51, 0xA9, 0xC5, 0x99, 0x74, 0x9B, 0x34, 0xBF]
    assert parity[-8:].tolist() == [0xC0, 0x6D, 0xEA, 0x9F, 0xBE, 0x68, 0xDE, 0xAF]
    assert int(np.bitwise_xor.reduce(parity)) == 0x51


def test_bits_symbols_round_trip():
    rng = np.random.default_rng(18)
    for m in (2, 3, 8):
        symbols = rng.integers(0, 1 << m, size=40)
        bits = symbols_to_bits(symbols, m)
        assert (bits_to_symbols(bits, m) == symbols).all()
    with pytest.raises(ValueError):
        bits_to_symbols(np.zeros(7, dtype=np.int64), 2)


@pytest.mark.parametrize("m", [1, 3, 8, 10, 62])
def test_bits_symbols_work_row_by_row_along_the_last_axis(m):
    rng = np.random.default_rng(19 + m)
    symbols = rng.integers(0, 1 << m, size=(4, 6), dtype=np.int64)
    bits = symbols_to_bits(symbols, m)
    assert bits.shape == (4, 6 * m) and bits.dtype == np.int64
    assert (bits == np.stack([symbols_to_bits(row, m) for row in symbols])).all()
    packed = bits_to_symbols(bits, m)
    assert packed.shape == (4, 6) and packed.dtype == np.int64
    assert (packed == np.stack([bits_to_symbols(row, m) for row in bits])).all()
    assert (packed == symbols).all()
    # A 1-d call gives a flat int64 array, MSB first within each symbol.
    flat = symbols_to_bits(symbols[0], m)
    assert flat.shape == (6 * m,) and flat.dtype == np.int64
    assert flat[:m].tolist() == [int(c) for c in format(int(symbols[0, 0]), f"0{m}b")]
    assert bits_to_symbols(flat.astype(np.uint8), m).dtype == np.int64
    assert symbols_to_bits(np.zeros((0, 6), dtype=np.int64), m).shape == (0, 6 * m)
    assert bits_to_symbols(np.zeros((0, 6 * m), dtype=np.uint8), m).shape == (0, 6)
