import math
from fractions import Fraction

import numpy as np
import pytest

from noisekey.analysis import outside_set_probability
from noisekey.grouping import (
    CommonKey,
    bits_to_hex,
    block_fits_key_period,
    sample_key,
    split_stream,
)
from noisekey.oracle import admissible_keys


def make_bits(length, ones, rng):
    bits = np.zeros(length, dtype=np.uint8)
    bits[rng.choice(length, size=ones, replace=False)] = 1
    return bits


def test_admissible_examples():
    rng = np.random.default_rng(20)
    assert CommonKey.from_bits(make_bits(2496, 1248, rng), 3.5).admissible
    # deviation 88 exceeds 3.5 * sqrt(2496/4) = 87.43
    assert not CommonKey.from_bits(make_bits(2496, 1336, rng), 3.5).admissible
    n = 64
    assert not CommonKey.from_bits(np.zeros(n, dtype=np.uint8), math.sqrt(n) - 1e-9).admissible


def test_sample_key_deterministic():
    a = sample_key(64, 3.0, np.random.default_rng(7))
    b = sample_key(64, 3.0, np.random.default_rng(7))
    assert (a.bits == b.bits).all()


class NoDraws:
    """A generator stand-in that fails the test on the first draw."""

    def integers(self, *args, **kwargs):
        raise AssertionError("sample_key drew bits for an empty balance window")


def test_sample_key_refuses_an_empty_window_before_drawing():
    # |ones - 1.5| <= 0.5 * sqrt(3/4) ~ 0.43 holds for no 1-count of 3 bits.
    with pytest.raises(ValueError, match="balance limit"):
        sample_key(3, 0.5, NoDraws())
    # At one sigma the counts 1 and 2 fit.
    key = sample_key(3, 1.0, np.random.default_rng(0))
    assert key.length == 3 and key.ones in (1, 2)


def test_sample_key_statistics():
    rng = np.random.default_rng(21)
    samples = np.stack([sample_key(64, 3.5, rng).bits for _ in range(10_000)])
    assert all(CommonKey.from_bits(row, 3.5).admissible for row in samples)
    freq = samples.mean(axis=0)
    sigma = math.sqrt(0.25 / 10_000)
    assert (np.abs(freq - 0.5) <= 4.5 * sigma).all()


def test_outside_probability_exact_toy():
    # length 8, one sigma: admissible 1-counts are {3, 4, 5}
    expected = 1 - (math.comb(8, 3) + math.comb(8, 4) + math.comb(8, 5)) / 256
    assert outside_set_probability(8, 1.0) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(74 / 256)
    # The same window, counted over the exhaustive adversary's key listing.
    for length in range(2, 17):
        for balance_limit in (1.0, 2.0, 3.5):
            listed = 1 - len(admissible_keys(length, balance_limit)) / 2**length
            got = outside_set_probability(length, balance_limit)
            assert got == pytest.approx(listed, rel=1e-12, abs=1e-15), (length, balance_limit)


def _outside_fraction(length, balance_limit):
    """1 - P(inside) from exact integer binomial sums, rounded once."""
    sigma = math.sqrt(length / 4.0)
    inside = [c for c in range(length + 1) if abs(c - length / 2.0) <= balance_limit * sigma]
    term, total = math.comb(length, inside[0]), 0
    for c in inside:
        total += term
        term = term * (length - c) // (c + 1)
    return float(Fraction((1 << length) - total, 1 << length))


@pytest.mark.parametrize(
    "length, balance_limit",
    [(10_000, 9.0), (65_536, 9.0), (2496, 8.0), (100, 20.0), (8, 1.0), (64, 3.0)],
)
def test_outside_probability_exact_deep_tail(length, balance_limit):
    # Here 1 - P(inside) cancels: to below zero at 9 sigma, and to 3e-14 at
    # (100, 20 sigma), where no count lies outside. Log-gamma near 65537 is
    # ~6.6e5, whose ulp of ~1e-10 sets the tolerance.
    expected = _outside_fraction(length, balance_limit)
    got = outside_set_probability(length, balance_limit)
    assert got == pytest.approx(expected, rel=1e-10, abs=0.0)


def test_outside_probability_exact_empty_window():
    # length 3 at half a sigma: |count - 1.5| <= 0.43 admits no count
    assert outside_set_probability(3, 0.5) == 1.0


def test_exact_converges_to_normal():
    # Discreteness keeps the small sizes off the Gaussian value; the gap
    # shrinks monotonically and is inside 10% once the key passes ~4k bits.
    normal = math.erfc(3.0 / math.sqrt(2.0))  # 2 * Phi(-3)
    rel = [
        abs(outside_set_probability(n, 3.0) - normal) / normal
        for n in (64, 256, 1024, 4096)
    ]
    assert rel == sorted(rel, reverse=True)
    assert rel[-1] <= 0.10


def test_split_first_bit_goes_to_group_one():
    key = CommonKey.from_bits([1, 0, 1, 1, 0, 1, 0, 0], 3.0)
    x = np.arange(16) % 2  # arbitrary recognizable bits
    x[0] = 1
    groups = split_stream(x, key)
    assert groups.group1[0] == x[0]
    assert len(groups.group1) + len(groups.group2) == 16
    assert len(groups.group1) == 8  # four ones per period, two periods


def test_split_all_ones_key():
    key = CommonKey.from_bits(np.ones(8, dtype=np.uint8), 99.0)
    x = np.random.default_rng(22).integers(0, 2, 50, dtype=np.uint8)
    groups = split_stream(x, key)
    assert (groups.group1 == x).all()
    assert len(groups.group2) == 0


def test_split_merge_round_trip():
    # The split is a lossless partition: scattering the groups back through
    # the key mask restores the stream.
    rng = np.random.default_rng(23)
    key = sample_key(32, 3.0, rng)
    for length in (0, 1, 31, 32, 33, 100, 10_000):
        x = rng.integers(0, 2, length, dtype=np.uint8)
        groups = split_stream(x, key)
        mask = np.resize(key.bits, length).astype(bool)
        merged = np.empty(length, dtype=np.uint8)
        merged[mask], merged[~mask] = groups.group1, groups.group2
        assert np.array_equal(merged, x)


def test_split_refuses_non_bit_values():
    # 0.5 used to be routed as a 0 and 2 as a 2.
    key = CommonKey.from_bits([1, 0], 3.0)
    with pytest.raises(ValueError, match="only 0 and 1"):
        split_stream([0.5, 2, 1, 3], key)
    groups = split_stream([0.0, 1.0, 1, 0], key)
    assert groups.group1.tolist() == [0, 1] and groups.group2.tolist() == [1, 0]
    assert groups.group1.dtype == np.uint8


@pytest.mark.parametrize("shape", [(3, 4), (2, 1), ()])
def test_split_refuses_a_stream_that_is_not_1d(shape):
    # A (3, 4) stream used to be routed by whole rows: group1 got shape (2, 4).
    key = CommonKey.from_bits([1, 0], 3.0)
    with pytest.raises(ValueError, match="1-d array holding only 0 and 1"):
        split_stream(np.ones(shape, dtype=np.uint8), key)


def test_block_gate_at_design_point():
    assert block_fits_key_period(2496, 3.5, 8, 167)
    assert not block_fits_key_period(2496, 3.5, 8, 166)


@pytest.mark.parametrize("balance_limit", [math.inf, math.nan], ids=["inf", "nan"])
def test_block_gate_refuses_a_non_finite_limit(balance_limit):
    # math.ceil used to raise OverflowError for inf and ValueError for NaN.
    assert block_fits_key_period(160, balance_limit, 5, 19) is False


@pytest.mark.parametrize("length,balance_limit", [(30, 3.0), (2496, 3.5)])
def test_hex_is_lowercase_and_padded_to_a_nibble(length, balance_limit):
    key = sample_key(length, balance_limit, np.random.default_rng(length))
    text = key.to_hex()
    assert text == bits_to_hex(key.bits) == text.lower()
    assert len(text) == -(-length // 4)
    value = int(text, 16)
    assert [(value >> (length - 1 - i)) & 1 for i in range(length)] == key.bits.tolist()


def test_from_bits_builds_an_inadmissible_key_that_says_so():
    # from_bits checks only what every key needs; the session refuses this one.
    key = CommonKey.from_bits(np.zeros(16, dtype=np.uint8), 3.0)
    assert key.ones == 0 and not key.admissible


def test_counts():
    key = CommonKey.from_bits([1, 0, 1, 1], 99.0)
    assert key.ones == 3 and key.zeros == 1 and key.length == 4


# A 2 would route to group I yet count as two ones, a 0.5 would truncate to
# 0, and a -1 overflows uint8.
@pytest.mark.parametrize("bits", [[0, 2, 1, 0], [0.5, 1, 1, 0], [-1, 1, 0, 1]])
def test_from_bits_rejects_non_bits(bits):
    with pytest.raises(ValueError, match="only 0 and 1"):
        CommonKey.from_bits(bits, 99.0)


# A 1-bit or empty key used to pass, and the judge then divided by zero
# cutting a stream under it.
@pytest.mark.parametrize("bits", [[], [1]], ids=["empty", "one-bit"])
def test_from_bits_rejects_fewer_than_2_bits(bits):
    with pytest.raises(ValueError, match="at least 2 bits"):
        CommonKey.from_bits(bits, 99.0)


@pytest.mark.parametrize("length", [2.5, 8.0, "8"])
def test_sample_key_refuses_a_length_that_is_not_an_integer(length):
    # 2.5 used to pass the length and window checks and end in numpy's TypeError.
    rng = np.random.default_rng(5)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="key length must be an integer"):
        sample_key(length, 3.0, rng)
    assert rng.bit_generator.state == state


def test_sample_key_takes_a_numpy_integer_length():
    key = sample_key(np.int64(8), 3.0, np.random.default_rng(5))
    assert np.array_equal(key.bits, sample_key(8, 3.0, np.random.default_rng(5)).bits)


# A (2, 2) array used to become a key of shape (2, 2), and a 0-d one raised
# TypeError from len().
@pytest.mark.parametrize("bits", [np.ones((2, 2), dtype=np.uint8), np.uint8(1)], ids=["2-d", "0-d"])
def test_from_bits_rejects_a_key_that_is_not_one_row(bits):
    with pytest.raises(ValueError, match="1-d"):
        CommonKey.from_bits(bits, 99.0)
