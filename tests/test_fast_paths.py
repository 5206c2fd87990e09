"""Each fast path against an independent slow oracle.

`extract_key`, on one row and on batches of units with a seed each, is
checked against the explicit Toeplitz matrix and a batch against its rows
hashed one at a time,
`decode_block`, with and without a batch's syndromes, its early-exit
Berlekamp-Massey and the one polynomial evaluator on both exponent tables
(syndromes and Chien points) against the frozen reference decoder in
`reference_rs`, which builds its own field tables, the batched `syndromes`
against that evaluator on the syndrome table, the
bit-level `encode_parity` against polynomial long division, the bit router
against the key mask, the session's block layout, its cut rows and the block
cut `GroupStreams.blocks` against the chunk-by-chunk completion walk in
`reference_layout`, `make_scenario`'s leaked parity
against the explicit first-block gather in `reference_oracle`,
the exhaustive adversary's parity tags against the explicit first-block
gather in `reference_oracle` (itself checked against per-key
`split_stream`) and its parity buckets against a plain dict loop,
`expand_seed` and the one-read source draw `channel.bit_chunks` against
`Generator.integers`, the log-space sum against
`scipy.special.logsumexp`, and the analyzer's log-gamma against
`scipy.special.gammaln`.
"""

import functools
import math
import sys
import tracemalloc

import numpy as np
import pytest
import scipy
from scipy.special import gammaln, logsumexp
from hypothesis import assume, example, given, settings, strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from noisekey import rs
from noisekey.amplify import HashSeed, expand_seed, extract_key, toeplitz_matrix
from noisekey.analysis import _LOG_FACTORIALS, _log_gamma, log_sum_exp
from noisekey.channel import bit_chunks, entropy_words
from noisekey.gf import build_field
from noisekey.grouping import (
    CommonKey,
    GroupStreams,
    _key_mask,
    route,
    split_stream,
)
from noisekey.oracle import (
    TinyScenario,
    _first_block_tags,
    _parity_tags,
    admissible_keys,
    make_scenario,
    partition_by_parity,
)
from noisekey.rs import (
    _berlekamp_massey,
    _times_syndromes as times_syndromes,
    bits_to_symbols,
    codeword,
    decode_block,
    encode_parity,
    make_code,
    symbols_to_bits,
)
from noisekey.session import _block_layout, _block_rows

import reference_rs
from reference_layout import completed_blocks
from reference_oracle import SHORT, first_block_bits
from conftest import CODES, random_codeword_with_errors
from reference_rs import remainder_parity

# Above this many matrix entries the oracle builds the rows from the diagonal
# directly instead of through toeplitz_matrix's int64 index array.
MATRIX_LIMIT = 1 << 23


def toeplitz_oracle(seed, x, key_bits):
    """(T @ x) mod 2 for the explicit n_out x n_in Toeplitz matrix T."""
    n_in = len(x)
    if n_in * key_bits <= MATRIX_LIMIT:
        mat = toeplitz_matrix(seed, n_in, key_bits)
    else:
        # Row i, column j is diag[n_in-1+i-j]: row i is diag[i : i+n_in] reversed.
        mat = sliding_window_view(expand_seed(seed, n_in, key_bits), n_in)[:, ::-1]
    # A uint8 accumulator wraps mod 256, which keeps the parity.
    return ((mat @ x.astype(np.uint8)) & 1).astype(np.uint8)


def test_windowed_rows_are_the_toeplitz_matrix():
    seed = HashSeed.of(7, 7)
    for n_in, n_out in [(1, 1), (9, 12), (95, 98)]:
        rows = sliding_window_view(expand_seed(seed, n_in, n_out), n_in)[:, ::-1]
        assert np.array_equal(rows, toeplitz_matrix(seed, n_in, n_out))


@pytest.mark.parametrize("entropy", [(0,), (5, 6), (2**32, 1, 7), (2**64 + 1,)])
def test_expand_seed_is_the_generator_bit_draw(entropy):
    seed = HashSeed.of(*entropy)
    rng_bits = lambda n: np.random.default_rng(np.random.SeedSequence(list(entropy))).integers(
        0, 2, size=n, dtype=np.uint8
    )
    for n in [*range(1, 131), 13_865]:
        bits = expand_seed(seed, n, 1)
        assert bits.dtype == np.uint8 and np.array_equal(bits, rng_bits(n))


# Sizes around the 4-byte word, odd word counts, the toy and design chunks.
@pytest.mark.parametrize("size", [3, 4, 5, 7, 8, 9, 13, 95, 100, 1001, 1336])
def test_bit_chunks_are_successive_generator_bit_draws(size):
    words = entropy_words(size, (7,))
    for chunks in (0, 1, 2, 5, 37):
        rng = np.random.Generator(np.random.PCG64(words))
        expected = [rng.integers(0, 2, size, dtype=np.uint8) for _ in range(chunks)]
        got = bit_chunks(words, chunks, size)
        assert got.dtype == np.uint8 and got.shape == (chunks, size)
        assert np.array_equal(got, np.reshape(expected, (chunks, size)))


@pytest.mark.parametrize("n_in", [1, 7, 8, 9, 95, 1000, 13360])
@pytest.mark.parametrize("key_bits", [1, 2, 12, 506, "n_in+3"])
def test_extract_key_matches_matrix(n_in, key_bits):
    key_bits = n_in + 3 if key_bits == "n_in+3" else key_bits
    rng = np.random.default_rng(n_in * 1000 + key_bits)
    inputs = [
        np.zeros(n_in, dtype=np.uint8),
        np.ones(n_in, dtype=np.uint8),
        rng.integers(0, 2, n_in, dtype=np.uint8),
        rng.integers(0, 2, n_in).astype(np.int64),
        rng.integers(0, 2, n_in).astype(bool),
    ]
    for trial, x in enumerate(inputs):
        seed = HashSeed.of(n_in, key_bits, trial)
        key = extract_key(x, key_bits, seed)
        assert key.dtype == np.uint8 and key.shape == (key_bits,)
        assert np.array_equal(key, toeplitz_oracle(seed, x, key_bits))


@pytest.mark.parametrize("bad", [[0, 1, 2], [1, -1, 0], [0.5, 1.0], np.array([0, 256])])
def test_extract_key_rejects_non_bits(bad):
    with pytest.raises(ValueError):
        extract_key(bad, 1, HashSeed.of(1))


def test_extract_key_rejects_empty_input():
    with pytest.raises(ValueError):
        extract_key(np.zeros(0, dtype=np.uint8), 1, HashSeed.of(1))
    with pytest.raises(ValueError):
        extract_key(np.zeros((2, 4), dtype=np.uint8), 1, HashSeed.of(1))


def assert_batch_matches_matrix(x, key_bits, seeds):
    keys = extract_key(x, key_bits, seeds)
    assert keys.dtype == np.uint8 and keys.shape == (len(x), key_bits)
    for row, seed, key in zip(x, seeds, keys):
        assert np.array_equal(key, toeplitz_oracle(seed, row, key_bits))
    return keys


# Lane edges (63/64/65 outputs), row edges (128/129) and word padding (n_in
# around multiples of 64) of the word kernel, on a batch of three units.
@pytest.mark.parametrize("n_in", [1, 63, 64, 65, 127, 128, 200])
@pytest.mark.parametrize("key_bits", [1, 63, 64, 65, 128, 129])
def test_word_kernel_matches_matrix(n_in, key_bits):
    rng = np.random.default_rng(n_in * 1000 + key_bits)
    x = np.stack([np.ones(n_in), rng.integers(0, 2, n_in), np.zeros(n_in)]).astype(np.uint8)
    assert_batch_matches_matrix(x, key_bits, [HashSeed.of(n_in, key_bits, trial) for trial in range(3)])


@settings(max_examples=60, deadline=None)
@given(
    units=st.integers(0, 4),
    n_in=st.integers(1, 300),
    key_bits=st.integers(1, 300),
    data=st.data(),
    entropy=st.integers(0, 2**32 - 1),
)
def test_batched_kernel_matches_matrix(units, n_in, key_bits, data, entropy):
    bits = data.draw(st.lists(st.integers(0, 1), min_size=units * n_in, max_size=units * n_in))
    x = np.array(bits, dtype=np.uint8).reshape(units, n_in)
    assert_batch_matches_matrix(x, key_bits, [HashSeed.of(entropy, unit) for unit in range(units)])


# The toy unit, a unit of 48 per kernel step (1336 -> 100: 64 lanes of 21
# words) and the design unit (4 per step); 300 units cross several steps.
@pytest.mark.parametrize("n_in, key_bits", [(95, 2), (1336, 100), (13360, 506)])
@pytest.mark.parametrize("units", [0, 1, 9, 300])
def test_a_batch_is_its_rows_hashed_one_at_a_time(n_in, key_bits, units):
    x = np.random.default_rng(units + n_in).integers(0, 2, (units, n_in), dtype=np.uint8)
    seeds = [HashSeed.of(5, unit) for unit in range(units)]
    keys = extract_key(x, key_bits, seeds)
    assert keys.dtype == np.uint8 and keys.shape == (units, key_bits)
    for row, seed, key in zip(x, seeds, keys):
        assert np.array_equal(key, extract_key(row, key_bits, seed))
    if units:
        assert np.array_equal(keys[-1], toeplitz_oracle(seeds[-1], x[-1], key_bits))


def test_a_batch_mixes_one_and_two_word_unit_seeds():
    # A unit index from 2^32 on adds a word to the seed's entropy, and so
    # changes its SeedSequence; each row keeps its own seed. The batch seeds
    # its 2-, 3- and 4-word rows in one pcg64_raw call, and the oracle seeds
    # each row alone.
    seeds = [HashSeed.of(7, unit) for unit in (5, 2**32 - 1, 2**32, 2**32 + 5, 2**64 + 1, 0)]
    x = np.random.default_rng(3).integers(0, 2, (len(seeds), 95), dtype=np.uint8)
    x[-1] = x[0]
    keys = assert_batch_matches_matrix(x, 12, seeds)
    assert len({key.tobytes() for key in keys}) == len(seeds)


def test_extract_key_rejects_a_batch_without_one_seed_per_row():
    x = np.ones((3, 8), dtype=np.uint8)
    seeds = [HashSeed.of(1, unit) for unit in range(3)]
    for bad in (seeds[:2], seeds + seeds[:1]):
        with pytest.raises(ValueError, match="needs as many seeds"):
            extract_key(x, 1, bad)
    with pytest.raises(ValueError):
        extract_key(x[0], 1, seeds[:1])
    with pytest.raises(ValueError):
        extract_key(np.ones((3, 0), dtype=np.uint8), 1, seeds)
    x[1, 4] = 2
    with pytest.raises(ValueError, match="only 0 and 1"):
        extract_key(x, 1, seeds)


@pytest.mark.parametrize(
    "seeds, why",
    [
        ([1, 2], "seeds must all be HashSeeds"),
        ([HashSeed.of(1), (1, 2)], "seeds must all be HashSeeds"),
        (5, "a HashSeed or a sequence of HashSeeds, got int"),
        (None, "a HashSeed or a sequence of HashSeeds, got NoneType"),
        ((HashSeed.of(1, u) for u in range(2)), "a HashSeed or a sequence of HashSeeds, got generator"),
    ],
    ids=["ints", "one-tuple", "int", "none", "generator"],
)
def test_extract_key_rejects_a_batch_seed_that_is_not_a_hash_seed(seeds, why):
    # [1, 2] used to end in "'int' object has no attribute 'entropy'", and
    # 5, None and a generator in "object of type ... has no len()".
    with pytest.raises(ValueError, match=why):
        extract_key(np.ones((2, 20), dtype=np.uint8), 4, seeds)


# tracemalloc's peak for this unit with the big-int and word kernels: 24.29
# MB (numpy 2.4, Python 3.11); the one batched kernel peaks at 22.96 MB.
UNIT_1000_PEAK_MB = 24.29


def test_a_1000_block_design_unit_peaks_no_higher_than_the_two_kernel_hash():
    # 1000 blocks of (255, 167) hash 1 336 000 bits down to 62 406, a row of
    # 64 outputs per kernel step.
    n_in, key_bits, seed = 1_336_000, 62_406, HashSeed.of(1, 2)
    x = np.random.default_rng(4).integers(0, 2, n_in, dtype=np.uint8)
    tracemalloc.start()
    try:
        key = extract_key(x, key_bits, seed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= UNIT_1000_PEAK_MB * 1e6
    # Output i is the parity of diag[i : i + n_in] against the reversed input.
    diag, reversed_x = expand_seed(seed, n_in, key_bits), x[::-1]
    for i in (0, 1, 63, 64, 65, 30_000, key_bits - 2, key_bits - 1):
        assert key[i] == np.count_nonzero(diag[i : i + n_in] & reversed_x) & 1


def assert_same_decode(code, word, synd=None):
    fast = decode_block(code, word, synd)
    slow = reference_rs.decode_block(code, word)
    assert (fast.ok, fast.corrected, fast.reason) == (slow.ok, slow.corrected, slow.reason)
    if slow.info is None:
        assert fast.info is None
    else:
        assert np.array_equal(fast.info, slow.info)
    return slow.ok


@pytest.mark.parametrize("m,n,k", CODES)
def test_decode_matches_reference(m, n, k):
    code = make_code(build_field(m), n, k)
    rng = np.random.default_rng(1000 * m + n)
    weights = range(code.t + 7)
    outcomes = {True: 0, False: 0}
    for i in range(2000):
        _, word, _ = random_codeword_with_errors(rng, code, min(weights[i % len(weights)], n))
        outcomes[assert_same_decode(code, word)] += 1
    assert outcomes[True] and outcomes[False]
    # The correction limit itself, where the early exit has the fewest steps to skip.
    for weight in (code.t - 1, code.t, code.t + 1):
        for _ in range(60):
            _, word, _ = random_codeword_with_errors(rng, code, weight)
            assert_same_decode(code, word)


def test_reverify_rejects_wrong_error_values(monkeypatch):
    # Scaling omega, and so every Forney error value, by alpha leaves
    # (1 + alpha) * e, a nonzero error of weight <= t, in the corrected word:
    # never a codeword.
    code = make_code(build_field(5), 31, 19)

    def skewed(fld, synd):
        locator, length, omega = _berlekamp_massey(fld, synd)
        return locator, length, fld.mul_vec(omega, 2)

    monkeypatch.setattr(rs, "_berlekamp_massey", skewed)
    rng = np.random.default_rng(31)
    words = [random_codeword_with_errors(rng, code, weight)[1] for weight in range(1, code.t + 1)]
    # decode_rows' path too: each word's row of one batched syndromes call.
    for word, synd in zip(words, rs.syndromes(code, symbols_to_bits(np.array(words), code.m))):
        assert reference_rs.decode_block(code, word).ok   # shares no evaluator with the package
        assert decode_block(code, word).reason == decode_block(code, word, synd).reason == "reverify"


def test_decode_with_given_syndromes_matches_reference():
    # decode_rows hands decode_block one row of a batched `syndromes` call;
    # without them decode_block makes that call on its word alone. Both match
    # the reference at t-1, t, t+1 and beyond t, reason for reason.
    for m, n, k in CODES:
        code = make_code(build_field(m), n, k)
        rng = np.random.default_rng(3000 * m + n)
        weights = [w for w in (code.t - 1, code.t, code.t + 1, code.t + 3, n - k + 1) if 0 <= w <= n]
        words = [random_codeword_with_errors(rng, code, w)[1] for w in weights for _ in range(30)]
        given = rs.syndromes(code, symbols_to_bits(np.array(words), m))
        outcomes = {True: 0, False: 0}
        for word, synd in zip(words, given):
            assert_same_decode(code, word)
            outcomes[assert_same_decode(code, word, synd)] += 1
        assert outcomes[True] and outcomes[False]


@pytest.mark.parametrize("m,n,k", CODES + [(16, 1023, 1000)])
def test_syndromes_are_the_word_evaluated_at_the_syndrome_table(m, n, k):
    # The one syndrome path against the direct evaluation it replaced, kept
    # here as the oracle: a batch, its rows one at a time, and zero words.
    code = make_code(build_field(m), n, k)
    rng = np.random.default_rng(n + m)
    words = rng.integers(0, code.field.order, (40, n))
    words[0] = 0
    words[1] = codeword(code, rng.integers(0, code.field.order, k))
    words[2:6] = random_codeword_with_errors(rng, code, 1)[1]
    bits = symbols_to_bits(words, m)
    batch = rs.syndromes(code, bits)
    assert batch.shape == (40, n - k) and batch.dtype == np.int64
    assert not batch[:2].any()
    for row, word, synd in zip(bits, words, batch):
        expected = code.field.eval_poly_at_powers(word, code.syndrome_table)
        assert np.array_equal(synd, expected)
        assert np.array_equal(rs.syndromes(code, row), expected)
    assert rs.syndromes(code, bits[:0].astype(np.uint8)).shape == (0, n - k)
    with pytest.raises(ValueError):
        rs.syndromes(code, bits[:, 1:])
    with pytest.raises(ValueError):
        rs.syndromes(code, bits * 2)


def one_hot_words(code):
    """One word per (position p, bit b): bit b of the symbol at p alone."""
    words = np.zeros((code.n * code.m, code.n), dtype=np.int64)
    for col in range(code.n * code.m):
        words[col, col // code.m] = 1 << (code.m - 1 - col % code.m)
    return words


@pytest.mark.parametrize("m,n,k", CODES + [(10, 100, 80)])  # and a uint16 table
def test_syndrome_table_matches_reference(m, n, k):
    code = make_code(build_field(m), n, k)
    assert code.syndrome_table.shape == (n, n - k)
    assert code.syndrome_table.dtype == (np.uint8 if m <= 8 else np.uint16)
    rng = np.random.default_rng(m)
    words = [np.zeros(n, dtype=np.int64), *one_hot_words(code)]
    words += [rng.integers(0, code.field.order, size=n) for _ in range(50)]
    for word in words:
        synd = code.field.eval_poly_at_powers(word, code.syndrome_table)
        assert np.array_equal(synd, reference_rs.syndromes(code, word))


@pytest.mark.parametrize("m,n,k", CODES + [(10, 100, 80)])  # and a uint16 table
def test_chien_table_evaluates_every_locator_degree(m, n, k):
    # Every degree Chien (up to t) and Forney (omega, up to n-k-1) reads.
    code = make_code(build_field(m), n, k)
    fld = code.field
    table = code.chien_table
    assert table.shape == (n - k, n)
    assert table.dtype == (np.uint8 if m <= 8 else np.uint16)
    points = -np.arange(n) % fld.mul_order     # alpha^-j, j < n
    rng = np.random.default_rng(11 * m)
    for degree in range(1, n - k):
        for trial in range(5):
            poly = rng.integers(0, fld.order, degree + 1)
            poly[0] = 1
            poly[degree] = rng.integers(1, fld.order)
            if trial == 0:
                poly[1:degree] = 0  # zero inner terms read the sentinel
            expected = reference_rs.eval_poly_at_powers(fld, poly, points)
            assert np.array_equal(fld.eval_poly_at_powers(poly, table), expected)
            assert np.array_equal(fld.eval_poly_at_powers(poly.tolist(), table), expected)


def poly_times_syndromes(fld, poly, synd):
    """Coefficients 0..len(synd)-1 of poly(x) * S(x), one scalar product at a time."""
    out = [0] * len(synd)
    for i in range(len(synd)):
        for j, c in enumerate(poly[: i + 1]):
            out[i] ^= fld.mul(int(c), int(synd[i - j]))
    return out


@pytest.mark.parametrize("m,n,k", CODES)
def test_early_exit_berlekamp_massey_matches_reference(m, n, k, monkeypatch):
    # Each product records the step Massey's loop stood at: below n-k it is
    # the in-loop early exit or its probe, at n-k the fall-through after the
    # last syndrome. The last product is omega either way.
    code = make_code(build_field(m), n, k)
    nsym = n - k
    steps = []

    def recording(fld, poly, synd):
        steps.append(sys._getframe(1).f_locals["i"])
        return times_syndromes(fld, poly, synd)

    monkeypatch.setattr(rs, "_times_syndromes", recording)
    rng = np.random.default_rng(7 * m)
    ends = {"exit": 0, "exit before the last syndrome": 0, "fall-through": 0}
    for weight in range(code.t + 8):
        for _ in range(10):
            _, word, _ = random_codeword_with_errors(rng, code, min(weight, n))
            synd = code.field.eval_poly_at_powers(word, code.syndrome_table)
            steps.clear()
            locator, length, omega = _berlekamp_massey(code.field, synd)
            assert (locator, length) == reference_rs.berlekamp_massey(code.field, synd.tolist())
            assert omega.tolist() == poly_times_syndromes(code.field, locator, synd)
            # Forney reads omega[:length] only: the length-L register
            # generates every syndrome, so the rest is zero (Massey 1969).
            assert not omega[length:].any()
            assert steps and all(i < nsym for i in steps[:-1])
            if steps[-1] == nsym:
                ends["fall-through"] += 1
            else:
                ends["exit"] += 1
                ends["exit before the last syndrome"] += steps[-1] < nsym - 1
    assert all(ends.values()), ends


REASONS = {"locator degree", "root count", "zero derivative", "zero magnitude", "reverify"}


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(CODES), st.data())
def test_decode_returns_failure_or_codeword_within_t(params, data):
    m, n, k = params
    code = make_code(build_field(m), n, k)
    symbols = st.integers(0, code.field.order - 1)
    if data.draw(st.booleans(), label="arbitrary word"):
        word = np.array(data.draw(st.lists(symbols, min_size=n, max_size=n)), dtype=np.int64)
    else:
        word = codeword(code, data.draw(st.lists(symbols, min_size=k, max_size=k)))
        for pos in data.draw(st.lists(st.integers(0, n - 1), max_size=code.t + 3, unique=True)):
            word[pos] ^= data.draw(st.integers(1, code.field.order - 1))
    result = decode_block(code, word)
    if result.ok:
        distance = int((codeword(code, result.info) != word).sum())
        assert distance <= code.t and result.corrected == distance
    else:
        assert result.info is None and result.corrected == 0 and result.reason in REASONS


@pytest.mark.parametrize("m,n,k", CODES)
def test_encode_matches_remainder_oracle(m, n, k):
    code = make_code(build_field(m), n, k)
    rng = np.random.default_rng(2000 * m + n)
    one_hot = np.eye(code.info_bits, dtype=np.uint8)
    if code.info_bits > 100:
        # Long division costs k*(n-k) table products per word; sample the rows.
        one_hot = one_hot[list(range(0, code.info_bits, 89)) + [code.info_bits - 1]]
    inputs = [np.zeros(code.info_bits, dtype=np.uint8), *one_hot]
    inputs += [rng.integers(0, 2, code.info_bits, dtype=np.uint8) for _ in range(5)]
    for bits in inputs:
        parity = encode_parity(code, bits)
        assert parity.dtype == np.uint8 and parity.shape == (code.parity_bits,)
        oracle = remainder_parity(code, bits_to_symbols(bits, m))
        assert np.array_equal(parity, symbols_to_bits(oracle, m))


@pytest.mark.parametrize("m,n,k", [(5, 31, 19), (8, 255, 167)])
def test_batched_encode_equals_rows(m, n, k):
    code = make_code(build_field(m), n, k)
    rng = np.random.default_rng(m)
    batch = rng.integers(0, 2, (3, 4, code.info_bits)).astype(bool)
    out = encode_parity(code, batch)
    assert out.shape == (3, 4, code.parity_bits)
    for i in range(3):
        for j in range(4):
            assert np.array_equal(out[i, j], encode_parity(code, batch[i, j]))
    assert encode_parity(code, batch[:0]).shape == (0, 4, code.parity_bits)


@pytest.mark.parametrize("m,n,k", [(5, 31, 19), (8, 255, 167)])
def test_a_stepped_encode_equals_rows_at_the_step_edges(m, n, k):
    # One row short of, at and one past a whole step of gathered table
    # entries, one (words,) entry per nibble group and row.
    code = make_code(build_field(m), n, k)
    step = rs._STEP_BYTES // (code.parity_table.nbytes // 16)
    assert step == {31: 5461, 255: 35}[n]
    rng = np.random.default_rng(n)
    for rows in (step - 1, step, step + 1):
        batch = rng.integers(0, 2, (rows, code.info_bits), dtype=np.uint8)
        assert np.array_equal(encode_parity(code, batch), [encode_parity(code, row) for row in batch])


def test_a_2000_row_design_encode_peaks_within_one_step_and_its_output():
    # Unstepped, the gather alone would take 2000 rows of 334 table entries
    # (58.8 MB); the kernel peaks at 1.94 MB (numpy 2.4).
    code = make_code(build_field(8), 255, 167)
    groups, _, words = code.parity_table.shape   # built here, outside the measurement
    bits = np.random.default_rng(6).integers(0, 2, (2000, code.info_bits), dtype=np.uint8)
    step = rs._STEP_BYTES // (groups * words * 8)
    assert (step, groups * words * 8) == (35, 29_392)
    tracemalloc.start()
    try:
        parity = encode_parity(code, bits)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert parity.shape == (2000, code.parity_bits)
    # The packed info bytes and parity words, beside the larger of one step's
    # gathered entries with their intp nibble indices and the unpacked parity bits.
    octets = -(-code.info_bits // 8)
    gathered = step * (groups * words * 8 + 2 * octets * np.dtype(np.intp).itemsize)
    packed = 2000 * (octets + words * 8)
    assert peak <= packed + max(gathered, 2000 * code.parity_bits) + (128 << 10)


@pytest.mark.parametrize("bad", [2, -1, 0.5, 255])
def test_encode_rejects_non_bits(code_7_5, bad):
    bits = np.zeros(code_7_5.info_bits, dtype=type(bad))
    bits[3] = bad
    with pytest.raises(ValueError):
        encode_parity(code_7_5, bits)


@pytest.mark.parametrize("shape", [(), (14,), (16,), (15, 1), (2, 16)])
def test_encode_rejects_wrong_length(code_7_5, shape):
    with pytest.raises(ValueError):
        encode_parity(code_7_5, np.zeros(shape, dtype=np.uint8))


def draw_bits(data, count):
    size = -(-count // 8)
    raw = data.draw(st.binary(min_size=size, max_size=size))
    return np.unpackbits(np.frombuffer(raw, dtype=np.uint8), count=count)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(CODES), st.data())
def test_encode_is_linear(params, data):
    m, n, k = params
    code = make_code(build_field(m), n, k)
    a, b = draw_bits(data, code.info_bits), draw_bits(data, code.info_bits)
    assert np.array_equal(encode_parity(code, a ^ b), encode_parity(code, a) ^ encode_parity(code, b))


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(0, 1), min_size=2, max_size=24),
    st.lists(st.integers(0, 1), max_size=200),
)
@example([0, 0, 0], [1, 0, 1, 1, 0])  # no group-I columns
@example([1, 1, 1, 1], [0, 1, 1])     # no group-II columns
@example([1, 0, 1], [])
def test_split_merge_round_trip_any_key(key_bits, stream):
    key = CommonKey.from_bits(key_bits, 0.0)
    x = np.array(stream, dtype=np.uint8)
    groups = split_stream(x, key)
    assert len(groups.group1) + len(groups.group2) == len(x)
    # The router gives each group the stream at the key mask, as a uint8 row.
    mask = _key_mask(key, len(x))
    for routed in (groups, route(x, key)):
        for got, want in ((routed.group1, x[mask]), (routed.group2, x[~mask])):
            assert got.dtype == np.uint8 and np.array_equal(got, want)
    # Scattering the groups back through the key mask restores the stream.
    mask = np.resize(key.bits, len(x)).astype(bool)
    merged = np.empty(len(x), dtype=np.uint8)
    merged[mask], merged[~mask] = groups.group1, groups.group2
    assert np.array_equal(merged, x)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(0, 1), min_size=2, max_size=64),
    st.floats(1.0, 4.0),
    st.integers(1, 40),
    st.integers(0, 30),
)
@example([0, 0, 0, 0], 2.0, 5, 7)  # admissible at 4 bits and 2 sigma, with one empty group
@example([1, 1, 1, 1], 2.0, 5, 7)
def test_block_layout_matches_completion_walk(key_bits, balance_limit, block_bits, blocks):
    # The layout of B blocks is the walk's first B blocks, and the plan sends
    # the chunks through the one holding the last of them.
    key = CommonKey.from_bits(key_bits, balance_limit)
    assume(key.admissible)
    # On the stream 0, 1, 2, ... the walk's routed bits are the positions.
    stream = np.arange((blocks + 1) * block_bits)
    walk = list(completed_blocks(stream, key, block_bits))
    assert len(walk) >= blocks
    group, index, chunks = _block_layout(key, block_bits, blocks)
    assert list(zip(group.tolist(), index.tolist())) == [(g, j) for g, j, _ in walk[:blocks]]
    assert chunks == (int(walk[blocks - 1][2][-1]) // block_bits + 1 if blocks else 0)
    # The cut rows are the walk's bits of the same blocks.
    bits = np.random.default_rng(block_bits).integers(0, 2, len(stream), dtype=np.uint8)
    walk = list(completed_blocks(bits, key, block_bits))
    rows = _block_rows(bits, key, block_bits, group, index)
    assert rows.shape == (blocks, block_bits)
    assert rows.tolist() == [b.tolist() for _, _, b in walk[:blocks]]
    # The stream is whole chunks, so the walk ends with every whole block of
    # each group: the block cut of that group, on positions and on bits.
    mask = _key_mask(key, len(stream))
    for values, groups in (
        (stream, GroupStreams(stream[mask], stream[~mask])),
        (bits, split_stream(bits, key)),
    ):
        walk = list(completed_blocks(values, key, block_bits))
        for g, cut in zip((1, 2), groups.blocks(block_bits)):
            assert cut.shape[1:] == (block_bits,)
            assert cut.tolist() == [b.tolist() for gg, _, b in walk if gg == g]


ORACLE_CODE = (3, 7, 5)
# A rotation of every key row stands for a shifted key alignment; the
# admissible set is closed under rotation, so it only reorders the rows.
ROTATIONS = ["0", "1", "klen-1", "klen", "2klen+3"]


def resolve_rotation(name, klen):
    return {"0": 0, "1": 1, "klen-1": klen - 1, "klen": klen, "2klen+3": 2 * klen + 3}[name]


def fill_points(keys, n_bits):
    """Stream length at which each key's group I first holds n_bits bits."""
    klen = keys.shape[1]
    span = n_bits * klen  # enough for any key with at least one 1
    mask = np.tile(keys, (1, span // klen)).astype(bool)
    return np.argmax(mask.cumsum(axis=1) >= n_bits, axis=1) + 1


@functools.cache
def routing_case(key_length):
    """Every admissible key, a stream exactly as long as the latest fill point,
    and each key's first group-I block cut from split_stream."""
    code = make_code(build_field(ORACLE_CODE[0]), *ORACLE_CODE[1:])
    keys = admissible_keys(key_length, 2.0)
    length = int(fill_points(keys, code.info_bits).max())
    x = np.random.default_rng(key_length * 100).integers(0, 2, length, dtype=np.uint8)
    blocks = np.array([
        split_stream(x, CommonKey.from_bits(row, 2.0))
        .group1[: code.info_bits]
        for row in keys
    ])
    return code, keys, x, blocks


def rotated_case(key_length, rotation):
    """routing_case with every key row rotated left, its rows permuted to
    match: rotated row i is the unrotated row perm[i]."""
    code, keys, x, blocks = routing_case(key_length)
    rotated = np.roll(keys, -resolve_rotation(rotation, key_length), axis=1)
    weights = 1 << np.arange(key_length - 1, -1, -1)
    values, rotated_values = keys @ weights, rotated @ weights
    assert np.array_equal(np.sort(rotated_values), np.sort(values))  # closed under rotation
    perm = np.searchsorted(values, rotated_values)  # keys are listed in increasing value
    assert np.array_equal(keys[perm], rotated)
    return code, rotated, x, blocks[perm]


@pytest.mark.parametrize("rotation", ROTATIONS)
@pytest.mark.parametrize("key_length", [12, 16])
def test_first_block_bits_match_split_stream(key_length, rotation):
    code, keys, x, blocks = rotated_case(key_length, rotation)
    assert blocks.shape == (len(keys), code.info_bits)
    assert np.array_equal(first_block_bits(code.info_bits, x, keys), blocks)
    with pytest.raises(ValueError, match=SHORT):
        first_block_bits(code.info_bits, x[:-1], keys)


TAG_CODES = [(2, 3, 2), (3, 7, 5), (3, 7, 4), (4, 15, 11)]


def reference_tags(code, x, keys):
    return _parity_tags(encode_parity(code, first_block_bits(code.info_bits, x, keys)))


@functools.cache
def tag_keys(key_length):
    """The admissible keys, or an even sample of 4001 of them: the tags are
    per key, so a sample loses no case but the key count."""
    keys = admissible_keys(key_length, 2.0)
    return keys[np.linspace(0, len(keys) - 1, min(len(keys), 4001)).astype(int)]


@pytest.mark.parametrize("rotation", ROTATIONS)
@pytest.mark.parametrize("key_length", [12, 16, 20])
@pytest.mark.parametrize("m, n, k", TAG_CODES)
def test_first_block_tags_match_gathered_blocks(m, n, k, key_length, rotation):
    code = make_code(build_field(m), n, k)
    keys = np.roll(tag_keys(key_length), -resolve_rotation(rotation, key_length), axis=1)
    fill = int(fill_points(keys, code.info_bits).max())
    rng = np.random.default_rng([m, n, k, key_length])
    # The stream that just fills every key's block, and the one make_scenario draws.
    for length in (fill, key_length * code.info_bits):
        x = rng.integers(0, 2, length, dtype=np.uint8)
        assert np.array_equal(_first_block_tags(code, x, keys), reference_tags(code, x, keys))
    for tags in (_first_block_tags, reference_tags):
        with pytest.raises(ValueError, match=SHORT):
            tags(code, x[: fill - 1], keys)


@pytest.mark.parametrize("m, n, k", TAG_CODES)
def test_first_block_tags_reject_keys_without_ones(m, n, k):
    code = make_code(build_field(m), n, k)
    keys = np.zeros((2, 12), dtype=np.uint8)
    keys[1, ::2] = 1
    x = np.ones(12 * code.info_bits, dtype=np.uint8)
    for rows in (keys[1:], keys[:0]):
        assert np.array_equal(_first_block_tags(code, x, rows), reference_tags(code, x, rows))
    for tags in (_first_block_tags, reference_tags):
        with pytest.raises(ValueError, match=SHORT):
            tags(code, x, keys)
        with pytest.raises(ValueError, match=SHORT):
            tags(code, x, keys[:1])


def test_first_block_tags_reject_non_bits_and_long_keys():
    code = make_code(build_field(ORACLE_CODE[0]), *ORACLE_CODE[1:])
    keys = admissible_keys(12, 2.0)[:5]
    x = np.ones(12 * code.info_bits, dtype=np.uint8)
    x[7] = 2
    with pytest.raises(ValueError, match="only 0 and 1"):
        _first_block_tags(code, x, keys)
    # A 2496-bit key row would need a ~60 GB slot table.
    wide = np.tile(keys[:1], (1, 208))
    with pytest.raises(ValueError, match="at most 20 bits"):
        _first_block_tags(code, np.ones(2496 * code.info_bits, dtype=np.uint8), wide)


@pytest.mark.parametrize("m, n, k", TAG_CODES)
def test_make_scenario_leaks_the_true_keys_first_block_parity(m, n, k):
    # The leaked parity is the transmitter's: encode_parity of the true
    # key's first group-I block, as the explicit gather cuts it.
    code = make_code(build_field(m), n, k)
    for seed in range(8):
        scenario, key = make_scenario(code, 12, 2.0, np.random.default_rng(seed))
        block = first_block_bits(code.info_bits, scenario.x, key.bits[None, :])
        assert np.array_equal(scenario.parity, encode_parity(code, block[0]))


def test_make_scenario_leaves_the_zero_key_out_of_the_key_space():
    # At 4 bits and 2 sigmas every key is admissible, the all-zero one too,
    # and that key routes no bit to group I: the scenario lists the other 15.
    code = make_code(build_field(ORACLE_CODE[0]), *ORACLE_CODE[1:])
    keys = admissible_keys(4, 2.0)
    assert len(keys) == 16
    for seed in range(20):
        scenario, key = make_scenario(code, 4, 2.0, np.random.default_rng(seed))
        assert np.array_equal(scenario.key_space, keys[keys.any(axis=1)])
        block = first_block_bits(code.info_bits, scenario.x, key.bits[None, :])
        assert np.array_equal(scenario.parity, encode_parity(code, block[0]))


def test_first_block_bits_rejects_keys_without_ones():
    code = make_code(build_field(ORACLE_CODE[0]), *ORACLE_CODE[1:])
    keys = np.zeros((2, 12), dtype=np.uint8)
    keys[1, ::2] = 1
    x = np.ones(12 * code.info_bits, dtype=np.uint8)
    assert np.array_equal(first_block_bits(code.info_bits, x, keys[1:]), x[None, : code.info_bits])
    with pytest.raises(ValueError, match=SHORT):
        first_block_bits(code.info_bits, x, keys)


# scipy 1.17's logsumexp takes the maximum terms out of the sum, as
# log_sum_exp does; older versions may sum every term, a few ulp away.
LOGSUMEXP_EXACT = tuple(int(p) for p in scipy.__version__.split(".")[:2]) >= (1, 17)


@settings(max_examples=300, deadline=None)
@given(
    values=st.lists(st.floats(-1e4, 1e4), min_size=1, max_size=150),
    ties=st.integers(0, 4),
    data=st.data(),
)
def test_log_sum_exp_is_scipy_logsumexp(values, ties, data):
    # Ties at the maximum and at a drawn value.
    pick = data.draw(st.sampled_from(values))
    a = np.array(values + [max(values)] * ties + [pick] * ties)
    ours, ref = log_sum_exp(a), float(logsumexp(a))
    if LOGSUMEXP_EXACT:
        assert ours == ref
    else:
        assert math.isclose(ours, ref, rel_tol=1e-13, abs_tol=1e-13)


def test_log_gamma_below_13_is_scipy_gammaln():
    # Recurrence, rational fit and math.log: the operations of scipy's lgam.
    grid = np.arange(1000, 13000) / 1000
    assert np.array_equal(_log_gamma(grid), gammaln(grid))
    assert all(_log_gamma(float(x)) == gammaln(x) for x in grid[::97])


def _within_ulps(ours, ref, ulps):
    # numpy's SIMD log may differ from libm's in the last bit.
    return bool(np.all(np.abs(ours - ref) <= ulps * np.spacing(np.abs(ref))))


def test_log_gamma_table_and_series_are_within_2_ulp_of_scipy_gammaln():
    table = np.arange(1, _LOG_FACTORIALS + 1)
    assert _within_ulps(_log_gamma(table), gammaln(table), 2)
    # Integers past the table, reals up to 2**24 and past 1e8, where the
    # series stops, run the chunked series.
    past = np.arange(_LOG_FACTORIALS - 5, _LOG_FACTORIALS + 20_000)
    assert _within_ulps(_log_gamma(past), gammaln(past), 2)
    reals = np.concatenate([
        np.random.default_rng(25).uniform(1.0, 2.0**24, 200_000),
        [999.5, 1000.0, 1e8, 1e8 + 1, 3e12],
    ])
    assert _within_ulps(_log_gamma(reals), gammaln(reals), 2)


@pytest.mark.parametrize("rotation", ROTATIONS)
@pytest.mark.parametrize("key_length", [12, 16])
def test_partition_matches_dict_loop(key_length, rotation):
    code, keys, x, blocks = rotated_case(key_length, rotation)
    scenario = TinyScenario(
        code=code, key_space=keys, x=x, parity=np.zeros(code.parity_bits, dtype=np.uint8),
    )
    reference: dict[int, list] = {}
    for row, parity in zip(keys, encode_parity(code, blocks).tolist()):
        reference.setdefault(int("".join(map(str, parity)), 2), []).append(row)
    buckets = partition_by_parity(scenario)
    assert list(buckets) == sorted(reference)
    for tag, rows in reference.items():
        assert np.array_equal(buckets[tag], np.array(rows))
    seen = np.concatenate(list(buckets.values()))
    assert len(seen) == len(keys)
    values = seen @ (1 << np.arange(key_length - 1, -1, -1))
    assert len(np.unique(values)) == len(keys)  # each key in exactly one bucket
