import itertools
import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from noisekey.grouping import CommonKey
from noisekey.oracle import (
    MAX_WORK,
    TinyScenario,
    _parity_tags,
    _pattern_rows,
    admissible_keys,
    class_size_by_parity,
    enumerate_info_candidates,
    enumerate_with_errors,
    judge_candidate,
    make_scenario,
    partition_by_parity,
)
from noisekey.grouping import split_stream
from noisekey.analysis import symbol_error_rate
from noisekey.rs import bits_to_symbols, encode_parity, make_code, symbols_to_bits
from noisekey.channel import GROUP_NONE, KIND_INFO, KIND_PARITY, Frame, FramingError, bsc_transmit
from noisekey.gf import build_field

from reference_layout import completed_blocks
from reference_oracle import _error_patterns


def all_keys(candidates):
    """Every candidate key row, pattern by pattern."""
    return np.concatenate(list(candidates.per_pattern.values()))


def brute_admissible_count(length, limit):
    sigma = math.sqrt(length / 4.0)
    return sum(
        math.comb(length, ones)
        for ones in range(length + 1)
        if abs(ones - length / 2.0) <= limit * sigma
    )


def test_admissible_key_listing():
    keys = admissible_keys(12, 2.0)
    assert len(keys) == brute_admissible_count(12, 2.0) == 3938
    ones = keys.sum(axis=1)
    assert ones.min() >= 3 and ones.max() <= 9
    with pytest.raises(ValueError):
        admissible_keys(24, 2.0)


@pytest.mark.parametrize(
    "length, match",
    [(0, "at least 2 bits"), (1, "at least 2 bits"), (-1, "at least 2 bits"), (2.5, "must be an integer")],
)
def test_admissible_keys_check_the_key_length_first(length, match):
    # 0 and 1 listed 0- and 1-bit keys, 2.5 raised TypeError and -1
    # "negative shift count".
    with pytest.raises(ValueError, match=match):
        admissible_keys(length, 3.0)


def full_matrix_admissible_keys(key_length, balance_limit):
    # Every key as a bit row first, then the balance filter.
    values = np.arange(1 << key_length, dtype=np.uint32)
    shifts = np.arange(key_length - 1, -1, -1, dtype=np.uint32)
    bits = ((values[:, None] >> shifts[None, :]) & 1).astype(np.uint8)
    sigma = math.sqrt(key_length / 4.0)
    return bits[np.abs(bits.sum(axis=1) - key_length / 2.0) <= balance_limit * sigma]


@pytest.mark.parametrize("key_length", range(4, 17))
@pytest.mark.parametrize("balance_limit", [0.0, 0.5, 1.0, 2.0, 3.5])
def test_admissible_keys_match_full_matrix(key_length, balance_limit):
    keys = admissible_keys(key_length, balance_limit)
    expected = full_matrix_admissible_keys(key_length, balance_limit)
    assert keys.dtype == expected.dtype and keys.shape == expected.shape
    assert np.array_equal(keys, expected)


def test_info_candidates_tiny_code(code_3_2):
    seen = set()
    for parity in range(4):
        pre = enumerate_info_candidates(code_3_2, symbols_to_bits(np.array([parity]), code_3_2.m))
        assert len(pre) == 4  # 2^(m(2k-n))
        for row in pre:
            assert int(bits_to_symbols(encode_parity(code_3_2, row), code_3_2.m)[0]) == parity
            seen.add(tuple(row))
    assert len(seen) == 16  # the preimages partition the info space
    zero = enumerate_info_candidates(code_3_2, np.zeros(code_3_2.parity_bits, dtype=np.uint8))
    assert any((row == 0).all() for row in zero)
    with pytest.raises(ValueError):
        enumerate_info_candidates(code_3_2, np.array([3]))  # a parity symbol, not its bits


@pytest.mark.parametrize("parity", [[2, 0, 0, 0, 0, 0], [0.5] * 6, 0.5], ids=["two", "halves", "scalar"])
def test_info_candidates_refuse_a_parity_that_is_not_bits(code_7_5, parity):
    # A 2 or a 0.5 used to match no encoded parity and give 0 rows in place of 2^(m(2k-n)).
    with pytest.raises(ValueError, match="parity must be 6 bits of 0 or 1"):
        enumerate_info_candidates(code_7_5, np.array(parity))


def test_info_candidates_guard(code_255_167):
    with pytest.raises(ValueError):
        enumerate_info_candidates(code_255_167, np.zeros(code_255_167.parity_bits, dtype=np.uint8))


def test_batch_parities_match_scalar(code_7_5):
    rng = np.random.default_rng(60)
    scenario, _ = make_scenario(code_7_5, 12, 2.0, rng)
    buckets = partition_by_parity(scenario)
    # spot-check a few keys through split_stream and a one-block encode
    for row in scenario.key_space[::500]:
        key = CommonKey.from_bits(row, 2.0)
        block = split_stream(scenario.x, key).group1[: code_7_5.info_bits]
        parity = int("".join(str(b) for b in encode_parity(code_7_5, block)), 2)
        assert any(
            np.array_equal(row, cand) for cand in buckets[parity]
        )


def test_error_free_enumeration(code_7_5):
    rng = np.random.default_rng(61)
    scenario, true_key = make_scenario(code_7_5, 12, 2.0, rng)
    cands = enumerate_with_errors(scenario, 0)
    found = any(np.array_equal(r, true_key.bits) for r in all_keys(cands))
    assert found
    # partition: classes over all parity values sum to the key-set size
    sizes = class_size_by_parity(scenario)
    assert sizes.sum() == len(scenario.key_space)
    assert sizes.mean() == pytest.approx(len(scenario.key_space) / 2 ** code_7_5.parity_bits)


def test_average_class_size_matches_formula(code_3_2):
    rng = np.random.default_rng(62)
    keys = admissible_keys(12, 2.0)
    delta_exact = 1 - len(keys) / 2**12
    formula = 2 ** (12 - code_3_2.parity_bits) * (1 - delta_exact)
    for _ in range(20):
        x = rng.integers(0, 2, 12 * code_3_2.info_bits, dtype=np.uint8)
        scenario = TinyScenario(
            code=code_3_2, key_space=keys, x=x, parity=np.zeros(code_3_2.parity_bits, dtype=np.uint8)
        )
        sizes = class_size_by_parity(scenario)
        assert sizes.mean() == pytest.approx(formula, rel=1e-12)


def test_with_errors_reduces_and_disjoint(code_7_5):
    rng = np.random.default_rng(63)
    scenario, _ = make_scenario(code_7_5, 12, 2.0, rng, ber=0.05)
    plain = enumerate_with_errors(scenario, 0)
    assert plain.patterns == [(0,) * 5]
    cands = enumerate_with_errors(scenario, 1, "symbol")
    assert len(cands.patterns) == 1 + 5 * 7
    mats = [cands.per_pattern[p] for p in cands.patterns]
    tags = [set(map(bytes, (row.tobytes() for row in m))) for m in mats]
    for a, b in itertools.combinations(range(len(tags)), 2):
        assert not (tags[a] & tags[b])
    avg = len(scenario.key_space) / 2 ** code_7_5.parity_bits
    assert cands.total_candidates == pytest.approx(len(cands.patterns) * avg, rel=0.25)


def test_with_errors_weight_guard(code_7_5):
    rng = np.random.default_rng(64)
    scenario, _ = make_scenario(code_7_5, 12, 2.0, rng)
    with pytest.raises(ValueError):
        enumerate_with_errors(scenario, code_7_5.t + 1)


@pytest.mark.parametrize("m, poly, n, k", [(2, 0x7, 3, 2), (3, 0xB, 7, 5), (3, 0xB, 7, 4), (4, 0x13, 15, 11)])
@pytest.mark.parametrize("unit", ["symbol", "bit"])
def test_pattern_rows_match_the_reference_generator(m, poly, n, k, unit):
    code = make_code(build_field(m, poly), n, k)
    width = m if unit == "symbol" else 1
    for max_weight in range(code.t + 1):
        rows = _pattern_rows(code.info_bits // width, width, max_weight)
        assert rows.shape[1] == code.info_bits
        listed = list(map(tuple, bits_to_symbols(rows, m).tolist()))
        assert listed == list(_error_patterns(code, max_weight, unit))


def test_pattern_rows_of_the_31_19_weight_2_symbol_attack_peak_within_40_mb():
    # 164 921 rows of 95 bits (15.7 MB as uint8). Listed as int64 symbols and
    # unpacked in one call they peaked at 175.7 MB (numpy 2.4, Python 3.11);
    # in uint8 and in steps, at 24.6 MB.
    tracemalloc.start()
    try:
        rows = _pattern_rows(19, 5, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows.shape == (164_921, 95) and rows.dtype == np.uint8
    assert peak <= 40e6


def test_work_guard_refuses_before_listing_any_pattern():
    # 291 736 symbol patterns of weight <= 3 over 3938 keys: the guard used to
    # trip only after listing every pattern as a tuple (2.65 s, 35.3 MB).
    code = make_code(build_field(4, 0x13), 15, 9)
    scenario, _ = make_scenario(code, 12, 2.0, np.random.default_rng(1))
    assert len(scenario.key_space) * 291_736 > MAX_WORK
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="enumeration work guard"):
            enumerate_with_errors(scenario, 3, "symbol")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "parity, max_weight, unit, match",
    [([2] * 6, -1, "byte", "parity must be 6 bits"),
     ([0] * 6, -1, "byte", r"max_weight must be an integer in \[0, 1\]"),
     ([0] * 6, 0.5, "byte", r"max_weight must be an integer in \[0, 1\]"),
     ([0] * 6, 2, "byte", r"max_weight must be an integer in \[0, 1\]"),
     ([0] * 6, 1, "byte", "unknown pattern unit 'byte'")],
    ids=["parity-first", "negative-weight", "fractional-weight", "weight-beyond-t", "unit"],
)
def test_enumeration_refusals_come_in_order(code_7_5, parity, max_weight, unit, match):
    # A negative max_weight used to list the zero pattern alone, and 0.5 ended
    # in a TypeError from range(). Each case also breaks every later rule; the
    # key space alone trips the work guard.
    keys = np.broadcast_to(admissible_keys(12, 2.0)[:1], (MAX_WORK + 1, 12))
    scenario = TinyScenario(
        code=code_7_5, key_space=keys,
        x=np.zeros(12 * code_7_5.info_bits, dtype=np.uint8), parity=np.array(parity),
    )
    with pytest.raises(ValueError, match=match):
        enumerate_with_errors(scenario, max_weight, unit)


def test_bit_patterns_are_symbol_patterns(code_7_5):
    rng = np.random.default_rng(65)
    scenario, _ = make_scenario(code_7_5, 12, 2.0, rng)
    cands = enumerate_with_errors(scenario, 1, "bit")
    assert len(cands.patterns) == 1 + code_7_5.info_bits
    for pattern in cands.patterns:
        weight = sum(1 for s in pattern if s)
        assert weight <= 1
        bitcount = sum(bin(s).count("1") for s in pattern)
        assert bitcount <= 1


def test_true_key_remains_under_noise(code_7_5):
    # with bit errors the true key moves to the sublist of the realized pattern
    rng = np.random.default_rng(66)
    scenario, true_key = make_scenario(code_7_5, 12, 2.0, rng, ber=0.01)
    cands = enumerate_with_errors(scenario, 1, "bit")
    assert any(np.array_equal(r, true_key.bits) for r in all_keys(cands))


def test_no_partial_key_derivation(code_7_5):
    # every key bit position is undetermined within the error-free candidate set
    rng = np.random.default_rng(67)
    scenario, _ = make_scenario(code_7_5, 12, 2.0, rng)
    keys = all_keys(enumerate_with_errors(scenario, 0))
    assert len(keys) > 1
    column_sums = keys.sum(axis=0)
    assert (column_sums > 0).all() and (column_sums < len(keys)).all()


def _capture(code, stream, key, blocks=None, method=1):
    """A transmitter's frames for `stream`: its m*k-bit payload frames, then
    the parity frames of the first `blocks` blocks the key completes."""
    chunks = stream.reshape(-1, code.info_bits)
    done = itertools.islice(completed_blocks(stream, key, code.info_bits), blocks)
    return [Frame(method, GROUP_NONE, i, KIND_INFO, c) for i, c in enumerate(chunks)] + [
        Frame(method, group, index, KIND_PARITY, encode_parity(code, bits)) for group, index, bits in done
    ]


def _judge_fixture(code, rng, p_bob, blocks=50, key_length=12, method=1):
    """A key, the clean capture of its first `blocks` blocks, and the same
    capture with its payload frames through a BSC(p_bob)."""
    scenario_keys = admissible_keys(key_length, 2.0)
    true_row = scenario_keys[rng.integers(0, len(scenario_keys))]
    key = CommonKey.from_bits(true_row, 2.0)
    stream = rng.integers(0, 2, size=code.info_bits * blocks * 3, dtype=np.uint8)
    clean = _capture(code, stream, key, blocks, method)
    noisy = bsc_transmit(stream, p_bob, rng).reshape(-1, code.info_bits)
    return key, clean, [replace(f, payload=noisy[f.index]) if f.kind == KIND_INFO else f for f in clean]


def test_judge_accepts_true_key(code_7_5):
    rng = np.random.default_rng(68)
    p = 0.002
    key, _, noisy = _judge_fixture(code_7_5, rng, p)
    p_eff = symbol_error_rate(p, code_7_5.m)
    verdict = judge_candidate(key.bits, noisy, code_7_5, p)
    assert verdict.consistent
    assert verdict.mean_errors <= verdict.threshold
    assert verdict.mean_errors == pytest.approx(code_7_5.k * p_eff, abs=4 * math.sqrt(code_7_5.k * p_eff / 50))


def test_judge_rejects_wrong_key(code_7_5):
    rng = np.random.default_rng(69)
    key, _, noisy = _judge_fixture(code_7_5, rng, 0.002)
    wrong = key.bits.copy()
    wrong = np.roll(wrong, 3)
    assert not np.array_equal(wrong, key.bits)
    verdict = judge_candidate(wrong, noisy, code_7_5, 0.002)
    assert not verdict.consistent
    assert verdict.decode_failures > 0


def test_judge_zero_noise_zero_histogram(code_7_5):
    rng = np.random.default_rng(70)
    key, frames, _ = _judge_fixture(code_7_5, rng, 0.0)
    verdict = judge_candidate(key.bits, frames, code_7_5, 0.003)
    assert verdict.consistent
    assert all(e == 0 for e in verdict.per_block_errors)


def test_scenario_guard():
    # ~1e6 keys x ~7.8e3 bit patterns blows the work budget before any
    # enumeration starts
    fld = build_field(4, 0x13)
    code = make_code(fld, 15, 9)
    keys = admissible_keys(20, 3.5)
    scenario = TinyScenario(
        code=code,
        key_space=keys,
        x=np.zeros(code.info_bits, dtype=np.uint8),
        parity=np.zeros(code.parity_bits, dtype=np.uint8),
    )
    with pytest.raises(ValueError):
        enumerate_with_errors(scenario, 3, "bit")


def test_candidate_narrowing_to_true_key(code_7_5):
    # the full loop: list candidates from one block's parity, then test each
    # against the remaining traffic until a single key survives
    rng = np.random.default_rng(71)
    keys = admissible_keys(12, 2.0)
    true_row = keys[rng.integers(0, len(keys))]
    key = CommonKey.from_bits(true_row, 2.0)
    stream = rng.integers(0, 2, size=code_7_5.info_bits * 60, dtype=np.uint8)
    frames = _capture(code_7_5, stream, key)
    first_parity = next(f.payload for f in frames if (f.kind, f.group, f.index) == (KIND_PARITY, 1, 0))
    scenario = TinyScenario(code=code_7_5, key_space=keys, x=stream, parity=first_parity)
    candidates = all_keys(enumerate_with_errors(scenario, 0))
    assert len(candidates) > 1
    survivors = [
        row
        for row in candidates
        if judge_candidate(row, frames, code_7_5, 0.003).consistent
    ]
    assert len(survivors) == 1
    assert np.array_equal(survivors[0], true_row)


@pytest.mark.parametrize(
    "parity",
    [[0], [3, 0, 0, 0, 0, 0], [0] * 7],
    ids=["one-bit", "non-binary", "seven-bits"],
)
def test_enumeration_rejects_malformed_parity(code_7_5, parity):
    # (7,5) has 6 parity bits; each of these used to broadcast or miss silently
    keys = admissible_keys(12, 2.0)
    scenario = TinyScenario(
        code=code_7_5, key_space=keys, x=np.zeros(12 * code_7_5.info_bits, dtype=np.uint8),
        parity=np.array(parity),
    )
    with pytest.raises(ValueError, match="parity must be 6 bits"):
        enumerate_with_errors(scenario, 1)


def test_class_sizes_refuse_more_than_2_24_classes():
    code = make_code(build_field(5, 0x25), 31, 19)  # 60 parity bits
    keys = admissible_keys(12, 2.0)[:4]
    scenario = TinyScenario(
        code=code, key_space=keys, x=np.ones(12 * code.info_bits, dtype=np.uint8),
        parity=np.zeros(code.parity_bits, dtype=np.uint8),
    )
    with pytest.raises(ValueError, match=r"2\^60 parity classes"):
        class_size_by_parity(scenario)
    assert sum(len(rows) for rows in partition_by_parity(scenario).values()) == 4


@pytest.mark.parametrize("bad", ["two-rows", "non-bit"])
def test_parity_tags_refuse_a_stream_that_is_not_one_row_of_bits(code_7_5, bad):
    # A 2-d stream used to end in numpy's "cannot reshape array of size ...".
    scenario, _ = make_scenario(code_7_5, 12, 2.0, np.random.default_rng(77))
    x = scenario.x.reshape(2, -1) if bad == "two-rows" else scenario.x * 2
    with pytest.raises(ValueError, match="stream bits must be a 1-d array holding only 0 and 1"):
        partition_by_parity(replace(scenario, x=x))


def test_parity_tags_stop_at_62_bits():
    assert _parity_tags(np.ones(62, dtype=np.uint8)) == 2**62 - 1
    bits = np.array([[1] + [0] * 61, [0] * 61 + [1]], dtype=np.uint8)
    assert _parity_tags(bits).tolist() == [2**61, 1]
    with pytest.raises(ValueError, match="63 parity bits"):
        _parity_tags(np.zeros(63, dtype=np.uint8))
    code = make_code(build_field(5, 0x25), 31, 18)  # 65 parity bits
    scenario = TinyScenario(
        code=code, key_space=admissible_keys(12, 2.0)[:4],
        x=np.ones(12 * code.info_bits, dtype=np.uint8),
        parity=np.zeros(code.parity_bits, dtype=np.uint8),
    )
    with pytest.raises(ValueError, match="65 parity bits"):
        partition_by_parity(scenario)


@pytest.mark.parametrize(
    "group, bits, match",
    [(0, 6, "neither a payload frame nor a group I or II parity frame"),
     (3, 6, "neither a payload frame nor a group I or II parity frame"),
     (1, 5, r"payload has shape \(5,\), not \(6,\)"), (2, 7, r"payload has shape \(7,\), not \(6,\)")],
    ids=["group-0", "group-3", "five-bits", "seven-bits"],
)
def test_judge_rejects_malformed_frames(code_7_5, group, bits, match):
    rng = np.random.default_rng(72)
    key, frames, _ = _judge_fixture(code_7_5, rng, 0.0, blocks=4)
    index = sum(f.kind == KIND_PARITY and f.group == group for f in frames)
    frame = Frame(1, group, index, KIND_PARITY, np.zeros(bits, dtype=np.uint8))
    with pytest.raises(ValueError, match=rf"frame \(method 1, kind 1, group {group}, index {index}\).*{match}"):
        judge_candidate(key.bits, frames + [frame], code_7_5, 0.003)


def _first(frames, kind, group=None):
    return next(i for i, f in enumerate(frames) if f.kind == kind and group in (None, f.group))


# Each edit turns a transmitter's capture into one the judge refuses.
CAPTURE_EDITS = {
    "mixed-methods": (
        lambda fs: fs[:-1] + [replace(fs[-1], method=2)],
        r"frame \(method 2, .*\) refused: the stream runs method 1"),
    "skipped-parity": (
        lambda fs: fs[: _first(fs, KIND_PARITY, 1)] + fs[_first(fs, KIND_PARITY, 1) + 1 :],
        r"group 1, index 1\) refused: parity frame 0 of group 1 is due"),
    "repeated-parity": (
        lambda fs: fs[: _first(fs, KIND_PARITY, 2) + 1] + fs[_first(fs, KIND_PARITY, 2) :],
        r"group 2, index 0\) refused: its block already has a parity frame"),
    "payload-out-of-order": (
        lambda fs: [fs[1], fs[0]] + fs[2:],
        r"kind 0, group 0, index 1\) refused: payload frame 0 of group 0 is due"),
    "unknown-kind": (
        lambda fs: fs + [replace(fs[0], kind=2)], r"kind 2, group 0, index 0\) refused: it is neither"),
}


@pytest.mark.parametrize("edit", CAPTURE_EDITS)
def test_judge_refuses_a_malformed_capture(code_7_5, edit):
    # Parity frame (g, j) pairs with block j of group g, so the frames'
    # numbering has to be the transmitter's: no gap, repeat or reordering.
    rng = np.random.default_rng(72)
    key, frames, _ = _judge_fixture(code_7_5, rng, 0.0, blocks=4)
    assert judge_candidate(key.bits, frames, code_7_5, 0.003).consistent
    change, match = CAPTURE_EDITS[edit]
    with pytest.raises(ValueError, match=match):
        judge_candidate(key.bits, change(frames), code_7_5, 0.003)


@pytest.mark.parametrize("kinds", [(), (KIND_INFO,)], ids=["empty", "payload-only"])
def test_judge_refuses_a_capture_without_parity(code_7_5, kinds):
    rng = np.random.default_rng(72)
    key, frames, _ = _judge_fixture(code_7_5, rng, 0.0, blocks=4)
    with pytest.raises(ValueError, match="no complete blocks to judge"):
        judge_candidate(key.bits, [f for f in frames if f.kind in kinds], code_7_5, 0.003)


@pytest.mark.parametrize("eve_ber", [-0.1, 0.7, math.nan])
def test_judge_refuses_an_eve_ber_outside_0_to_one_half(code_7_5, eve_ber):
    # -0.1 raised "math domain error" from the spread's square root, and 0.7
    # was judged as if a tap could hear the channel worse than a coin flip.
    rng = np.random.default_rng(72)
    key, frames, _ = _judge_fixture(code_7_5, rng, 0.0, blocks=4)
    with pytest.raises(ValueError, match=r"eve_ber must lie in \[0, 1/2\]"):
        judge_candidate(key.bits, frames, code_7_5, eve_ber)


@pytest.mark.parametrize("method", [0, 3, None])
def test_judge_refuses_a_method_other_than_1_or_2(code_7_5, method):
    rng = np.random.default_rng(72)
    key, frames, _ = _judge_fixture(code_7_5, rng, 0.0, blocks=4, method=method)
    with pytest.raises(ValueError, match="method must be 1 or 2"):
        judge_candidate(key.bits, frames, code_7_5, 0.003)


def test_judge_refuses_a_payload_frame_of_another_size(code_7_5):
    # The transmitter sends m*k-bit payload frames only; a 7-bit one used to
    # join the stream.
    rng = np.random.default_rng(72)
    key, frames, _ = _judge_fixture(code_7_5, rng, 0.0, blocks=4)
    index = sum(f.kind == KIND_INFO for f in frames)
    frames.append(Frame(1, GROUP_NONE, index, KIND_INFO, np.zeros(7, dtype=np.uint8)))
    with pytest.raises(FramingError, match=rf"index {index}\) refused: its payload has shape \(7,\)"):
        judge_candidate(key.bits, frames, code_7_5, 0.003)


def test_make_scenario_refuses_an_empty_window_before_drawing(code_7_5):
    # |ones - 1.5| <= 0.5 * sqrt(3/4) holds for no 1-count; this used to fail
    # inside rng.integers with numpy's "high <= 0".
    rng = np.random.default_rng(73)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="no 3-bit key fits a balance limit of 0.5 sigmas"):
        make_scenario(code_7_5, 3, 0.5, rng)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("ber", [-0.1, 0.7, math.nan])
def test_make_scenario_refuses_a_ber_outside_half_before_drawing(code_7_5, ber):
    # -0.1 and NaN used to give a noise-free stream, and 0.7 flipped 82 of 120 bits.
    rng = np.random.default_rng(1)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=r"ber must lie in \[0, 1/2\], got"):
        make_scenario(code_7_5, 8, 2.0, rng, ber=ber)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("where", ["stream", "parity"])
@pytest.mark.parametrize("value", [0.5, 1.5, 2])
def test_judge_rejects_non_bit_values(code_7_5, where, value):
    # The stream used to be cast to uint8 (0.5 -> 0, 1.5 -> 1) and judged
    # without a word; a parity 2 reached the decoder's symbol-range error.
    rng = np.random.default_rng(74)
    key, frames, _ = _judge_fixture(code_7_5, rng, 0.0, blocks=4)
    at = _first(frames, KIND_INFO) if where == "stream" else _first(frames, KIND_PARITY) + 1
    payload = frames[at].payload.astype(float)
    payload[2] = value
    frames[at] = replace(frames[at], payload=payload)
    with pytest.raises(ValueError, match="other than 0 and 1"):
        judge_candidate(key.bits, frames, code_7_5, 0.003)


def test_judge_rejects_a_guess_that_is_not_one_row(code_7_5):
    # A 2-d guess used to reach split_stream and raise IndexError.
    rng = np.random.default_rng(75)
    key, frames, _ = _judge_fixture(code_7_5, rng, 0.0, blocks=4)
    with pytest.raises(ValueError, match="1-d"):
        judge_candidate(key.bits.reshape(2, -1), frames, code_7_5, 0.003)


@pytest.mark.parametrize("shape", ["two-rows", "scalar"])
def test_judge_rejects_a_payload_that_is_not_one_row(code_7_5, shape):
    # Only a 1-d payload joins the stream: two rows or a scalar are refused
    # before split_stream sees them.
    rng = np.random.default_rng(76)
    key, frames, _ = _judge_fixture(code_7_5, rng, 0.0, blocks=12)
    payload = frames[0].payload
    bad = np.stack([payload, payload]) if shape == "two-rows" else np.uint8(1)
    frames[0] = replace(frames[0], payload=bad)
    refusal = f"index 0) refused: its payload has shape {bad.shape}, not ({code_7_5.info_bits},)"
    with pytest.raises(ValueError, match=re.escape(refusal)):
        judge_candidate(key.bits, frames, code_7_5, 0.003)
