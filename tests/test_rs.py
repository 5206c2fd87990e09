import dataclasses
import gc
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


@pytest.mark.parametrize("k", [True, 2.0, "2"])
def test_make_code_refuses_a_k_that_is_not_an_integer(gf8, k):
    # True used to build the (5, 1) code.
    with pytest.raises(ValueError, match="k must be an integer"):
        make_code(gf8, 5, k)


def test_numpy_integer_lengths_make_the_python_int_code(gf256):
    # uint8 n and k used to give info_bits 8 * 167 mod 256 = 56.
    code = make_code(gf256, np.uint8(255), np.uint8(167))
    assert (code.info_bits, code.parity_bits) == (1336, 704)
    assert all(type(v) is int for v in (code.n, code.k, code.d, code.t, code.t_max))


def test_a_code_is_its_field_n_and_k(gf8):
    # make_code keeps nothing: each call gives a new code over the field it
    # was given, and the limits follow from n and k.
    code = make_code(gf8, 7, 3)
    assert [f.name for f in dataclasses.fields(code)] == ["field", "n", "k"]
    assert code.field is gf8 and make_code(gf8, 7, 3) is not code
    assert (code.d, code.t, code.t_max) == (5, 2, 4)


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
    assert (code.n, code.k, code.t, code.m) == (1023, 1, 511, 10)
    info = np.array([5])
    assert (codeword(code, info) == 5).all()  # the repetition code


@pytest.fixture
def tracing():
    tracemalloc.start()
    yield
    tracemalloc.stop()


def traced(call, *args):
    """call(*args), then the traced bytes it left held and its traced peak,
    each above the bytes held before it; tracemalloc must be running."""
    before = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    result = call(*args)
    held, peak = tracemalloc.get_traced_memory()
    return result, held - before, peak - before


def no_tables(code):
    return not any(isinstance(v, np.ndarray) for v in vars(code).values())


def encode_one(code):
    encode_parity(code, np.arange(code.info_bits) % 3 == 0)


def decode_one(code):
    info = np.arange(code.k) % code.field.order
    word = codeword(code, info)
    word[[0, code.n // 2, code.n - 1]] ^= 7
    result = decode_block(code, word)
    assert result.corrected == 3 and np.array_equal(result.info, info)


def test_the_longest_supported_code_holds_its_tables_within_bounds(tracing):
    # make_code builds no table. A first encode builds the parity nibble
    # table (61 KB) beside its small bit matrix; a first decode the two
    # 1023 x 1022 uint16 exponent tables (2.1 MB each) and the 52.3 MB
    # mismatch table, which peaks beside its 12.8 MB bit matrix and the
    # matrix's padded copy. The tables go with the code. Measured with numpy
    # 2.4 on Python 3.11: 344 B held and peak in make_code; 62 KB held and
    # 343 KB peak in the encode; 56.5 MB held and 80.9 MB peak in the
    # decode; nothing held once the code is dropped.
    fld = build_field(10, 0x409)
    decode_one(make_code(fld, 7, 1))   # warms numpy's first-use caches
    before = tracemalloc.get_traced_memory()[0]
    code, held, peak = traced(make_code, fld, MAX_N, 1)
    assert code.n == MAX_N and no_tables(code) and held <= 4 << 10 and peak <= 16 << 10
    _, held, peak = traced(encode_one, code)
    assert held <= 128 << 10 and peak <= 512 << 10
    _, held, peak = traced(decode_one, code)
    assert code.mismatch_table.nbytes == 2555 * 16 * 160 * 8
    assert held <= 57e6 and peak <= 83e6
    del code
    gc.collect()
    assert tracemalloc.get_traced_memory()[0] - before <= 4 << 10


def test_the_widest_supported_code_holds_its_parity_table_within_bounds(tracing):
    # make_code builds no table. A first encode builds the 13.1 MB nibble
    # table beside the 3.3 MB bit matrix, whose parity planes' int64 bits it
    # reads a 1 MiB step at a time, and keeps only the nibble table; a first
    # decode two 1 MB exponent tables and the 13.1 MB mismatch table.
    # Measured with numpy 2.4 on Python 3.11: 392 B held and peak in
    # make_code; 13.1 MB held and 19.9 MB peak in the encode; 15.2 MB held
    # and 21.0 MB peak in the decode.
    fld = build_field(10, 0x409)
    code, held, peak = traced(make_code, fld, MAX_N, 512)
    assert no_tables(code) and held <= 4 << 10 and peak <= 16 << 10
    _, held, peak = traced(encode_one, code)
    assert code.parity_table.nbytes == 1280 * 16 * 80 * 8
    assert held <= 13.5e6 and peak <= 20.5e6
    _, held, peak = traced(decode_one, code)
    assert code.mismatch_table.nbytes == 1278 * 16 * 80 * 8
    assert held <= 15.5e6 and peak <= 22e6


def test_threads_that_first_use_a_fresh_code_at_once_all_decode_with_it():
    # Each round makes one fresh code, and more threads than cores decode with
    # it at once, so their first uses of its tables race; from Python 3.12 on
    # cached_property takes no lock, and a raced table may be built twice.
    shapes = [(4, 15, 9), (5, 31, 19), (6, 63, 51)]
    codes, errors = [], []

    def fresh_code():
        m, n, k = shapes[len(codes) % len(shapes)]
        codes.append(make_code(build_field(m), n, k))

    barrier = threading.Barrier(8, action=fresh_code)

    def worker():
        try:
            for _ in range(150):
                barrier.wait(timeout=60)
                decode_one(codes[-1])
        except Exception as error:   # asserted on in the main thread
            barrier.abort()
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    threads = [threading.Thread(target=worker) for _ in range(8)]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert errors == [] and len(codes) == 150


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
    code = make_code(fld, n, k)
    rows = _parity_rows(fld, _generator_poly(fld, n - k), n, k)
    matrix = rs._bit_matrix(fld, fld.log_ext[rows])
    assert np.array_equal(matrix, walked_parity_matrix(fld, rows))
    # Entry [g, v] of the nibble table is the XOR of the padded matrix rows
    # 4g..4g+3 that v's bits select, MSB first.
    groups, _, words = code.parity_table.shape
    padded = np.zeros((4 * groups, 8 * words), dtype=np.uint8)
    padded[: code.info_bits, : matrix.shape[1]] = matrix
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
