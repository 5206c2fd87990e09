import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from noisekey.channel import (
    ChannelConfig,
    Frame,
    FrameParseError,
    GROUP_I,
    GROUP_II,
    GROUP_NONE,
    KIND_INFO,
    KIND_PARITY,
    _pcg64,
    bsc_transmit,
    decode_frame,
    deliver,
    encode_frame,
    entropy_words,
    pcg64_raw,
    read_capture,
    write_capture,
)


def test_bsc_identity_and_complement():
    rng = np.random.default_rng(30)
    bits = rng.integers(0, 2, 1000, dtype=np.uint8)
    assert (bsc_transmit(bits, 0.0, rng) == bits).all()
    assert (bsc_transmit(bits, 1.0, rng) == 1 - bits).all()


def test_bsc_flip_rate_concentrates():
    rng = np.random.default_rng(31)
    n, p = 1_000_000, 0.0131
    bits = np.zeros(n, dtype=np.uint8)
    flipped = bsc_transmit(bits, p, rng)
    rate = flipped.mean()
    sigma = math.sqrt(p * (1 - p) / n)
    assert abs(rate - p) <= 4 * sigma


@pytest.mark.parametrize(
    "bits",
    [np.zeros((4, 4), dtype=np.uint8), [0, 2, 1, 3], [-1, 1]],
    ids=["two-d", "non-bit", "negative"],
)
def test_bsc_refuses_anything_but_a_row_of_bits(bits):
    # The (4, 4) array came back with the same column flipped in every row,
    # [0, 2, 1, 3] came back unchanged at p = 0 and [-1, 1] raised numpy's
    # OverflowError.
    with pytest.raises(ValueError, match="channel bits must be a 1-d array holding only 0 and 1"):
        bsc_transmit(bits, 0.0, np.random.default_rng(32))


def test_config_validation():
    with pytest.raises(ValueError):
        ChannelConfig(eve_ber=0.1, bob_ber=0.05)
    with pytest.raises(ValueError):
        ChannelConfig(eve_ber=0.1, bob_ber=0.6)
    with pytest.raises(ValueError):
        ChannelConfig(eve_ber=0.01, bob_ber=0.01, method=3)
    ChannelConfig(eve_ber=0.01, bob_ber=0.01)  # equality allowed


def _frame(kind, payload, group=GROUP_NONE, index=0, method=1):
    return Frame(method=method, group=group, index=index, kind=kind, payload=np.asarray(payload, dtype=np.uint8))


def test_method1_parity_error_free():
    cfg = ChannelConfig(eve_ber=0.2, bob_ber=0.3, method=1, seed=1)
    frame = _frame(KIND_PARITY, np.ones(64, dtype=np.uint8), group=GROUP_I)
    for who in ("bob", "eve"):
        assert (deliver(frame, cfg, who).payload == frame.payload).all()


def test_method2_parity_flips_at_rate():
    cfg = ChannelConfig(eve_ber=0.1, bob_ber=0.1, method=2, seed=2)
    flips = 0
    total = 0
    for idx in range(200):
        frame = _frame(KIND_PARITY, np.zeros(500, dtype=np.uint8), group=GROUP_II, index=idx, method=2)
        out = deliver(frame, cfg, "bob")
        flips += int(out.payload.sum())
        total += 500
    rate = flips / total
    assert abs(rate - 0.1) <= 4 * math.sqrt(0.1 * 0.9 / total)


def test_zero_noise_everything_unchanged():
    cfg = ChannelConfig(eve_ber=0.0, bob_ber=0.0, method=2, seed=3)
    frame = _frame(KIND_INFO, np.ones(40, dtype=np.uint8))
    assert deliver(frame, cfg, "bob") == frame
    assert deliver(frame, cfg, "eve") == frame


def test_delivery_deterministic_and_recipient_independent():
    cfg = ChannelConfig(eve_ber=0.2, bob_ber=0.2, method=1, seed=4)
    frame = _frame(KIND_INFO, np.zeros(2000, dtype=np.uint8), index=7)
    bob1 = deliver(frame, cfg, "bob")
    bob2 = deliver(frame, cfg, "bob")
    eve = deliver(frame, cfg, "eve")
    assert bob1 == bob2
    assert bob1 != eve  # independent noise draws


def assert_seeds_like_numpy(entropy, spawn_key=()):
    """entropy_words(entropy, spawn_key) gives numpy's pool, state and generator."""
    words = entropy_words(entropy, spawn_key)
    assert words.dtype == np.uint32
    seq = np.random.SeedSequence(entropy, spawn_key=spawn_key)
    mixed = np.random.SeedSequence(words)
    assert np.array_equal(mixed.pool, seq.pool)
    assert np.array_equal(mixed.generate_state(4, np.uint64), seq.generate_state(4, np.uint64))
    assert np.array_equal(np.random.default_rng(words).random(8), np.random.default_rng(seq).random(8))


EDGE_ENTROPIES = [0, 2**32 - 1, 2**32, 2**64 + 1]


@pytest.mark.parametrize("entropy", EDGE_ENTROPIES)
@pytest.mark.parametrize("spawn_key", [(), (0,), (1, 1, 7, 2), (2**32, 2**64 + 1, 0)])
def test_entropy_words_at_the_word_edges(entropy, spawn_key):
    assert_seeds_like_numpy(entropy, spawn_key)
    assert_seeds_like_numpy([entropy, 5, entropy], spawn_key)


def test_entropy_words_take_numpy_integers_and_bools():
    assert_seeds_like_numpy(np.uint64(2**63 + 5), (np.int8(3), np.uint32(2**32 - 1), True))
    assert_seeds_like_numpy((np.int64(7), False), ())


@settings(max_examples=200, deadline=None)
@given(
    entropy=st.one_of(
        st.integers(0, 2**130),
        st.lists(st.integers(0, 2**100), max_size=5),
    ),
    spawn_key=st.lists(st.integers(0, 2**100), max_size=5),
)
def test_entropy_words_are_numpys_assembled_entropy(entropy, spawn_key):
    assert_seeds_like_numpy(entropy, tuple(spawn_key))


@pytest.mark.parametrize("entropy,spawn_key,error", [
    (-1, (), ValueError),
    (5, (1, -2), ValueError),
    ([3, -1], (), ValueError),
    (1.5, (), TypeError),
    (5, (1, 2.0), TypeError),
    ([3, 1.0], (), TypeError),
    (np.float64(2), (), TypeError),
])
def test_entropy_words_refuse_what_numpy_refuses(entropy, spawn_key, error):
    with pytest.raises(error):
        np.random.SeedSequence(entropy, spawn_key=spawn_key).generate_state(1)
    with pytest.raises(error):
        entropy_words(entropy, spawn_key)


@pytest.mark.parametrize("entropy", [1.5, np.float64(2)])
def test_entropy_words_name_a_float_seed(entropy):
    # A float used to be iterated: "'float' object is not iterable".
    with pytest.raises(TypeError, match="seed must be integer, got"):
        entropy_words(entropy)


# One row per word count: 0 and 2^32 - 1 (one word), 2^32 (two), 2^64 + 1
# (three), HashSeed.of() (none) and a spawn key's zero-padded five words.
PCG64_ENTROPIES = {
    "0": entropy_words(0),
    "2^32-1": entropy_words(2**32 - 1),
    "2^32": entropy_words(2**32),
    "2^64+1": entropy_words(2**64 + 1),
    "empty": entropy_words(()),
    "spawn-key": entropy_words(7, (2**32 - 1,)),
}


@pytest.mark.parametrize("count", [1, 13, 1733])
@pytest.mark.parametrize("words", PCG64_ENTROPIES.values(), ids=PCG64_ENTROPIES.keys())
def test_pcg64_raw_rows_are_numpys_pcg64_draws(words, count):
    for lanes in (0, 1, 3):
        # Rows of one word count that differ in their first word, wrapped in uint32.
        batch = np.tile(words, (lanes, 1))
        batch[:, :1] += np.arange(lanes, dtype=np.uint32)[:, None]
        raw = pcg64_raw(batch, count)
        assert raw.dtype == np.uint64 and raw.shape == (lanes, count)
        for row, drawn in zip(batch, raw):
            assert np.array_equal(drawn, np.random.PCG64(row).random_raw(count))


@pytest.mark.parametrize("count", [1, 13, 1733])
@pytest.mark.parametrize("words", PCG64_ENTROPIES.values(), ids=PCG64_ENTROPIES.keys())
def test_one_row_pcg64_is_numpys_pcg64(words, count):
    assert np.array_equal(_pcg64(words).random_raw(count), np.random.PCG64(words).random_raw(count))


def test_pcg64_raw_takes_rows_of_different_lengths():
    rows = list(PCG64_ENTROPIES.values())
    raw = pcg64_raw(rows, 13)
    assert raw.shape == (len(rows), 13)
    for row, drawn in zip(rows, raw):
        assert np.array_equal(drawn, np.random.PCG64(row).random_raw(13))


def test_frame_round_trip():
    rng = np.random.default_rng(32)
    for kind, group in ((KIND_INFO, GROUP_NONE), (KIND_PARITY, GROUP_I), (KIND_PARITY, GROUP_II)):
        for nbits in (1, 7, 8, 9, 100):
            frame = Frame(
                method=int(rng.integers(1, 3)),
                group=group,
                index=int(rng.integers(0, 1 << 20)),
                kind=kind,
                payload=rng.integers(0, 2, nbits, dtype=np.uint8),
            )
            assert decode_frame(encode_frame(frame)) == frame


def test_golden_frame_bytes():
    # the byte layout is a published contract; these bytes must never change
    frame = Frame(
        method=2,
        group=GROUP_I,
        index=258,
        kind=KIND_PARITY,
        payload=np.array([1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 0, 1], dtype=np.uint8),
    )
    assert encode_frame(frame).hex() == "4e4b593101020100000102010000000cb2d0"
    assert decode_frame(bytes.fromhex("4e4b593101020100000102010000000cb2d0")) == frame


def test_frame_parse_errors():
    frame = _frame(KIND_INFO, np.ones(16, dtype=np.uint8))
    blob = encode_frame(frame)
    with pytest.raises(FrameParseError):
        decode_frame(blob[:10])
    with pytest.raises(FrameParseError):
        decode_frame(b"XXXX" + blob[4:])
    with pytest.raises(FrameParseError):
        decode_frame(blob + b"\x00")


def test_capture_round_trip(tmp_path):
    rng = np.random.default_rng(33)
    frames = [
        _frame(KIND_INFO, rng.integers(0, 2, 24, dtype=np.uint8), index=i) for i in range(5)
    ] + [_frame(KIND_PARITY, rng.integers(0, 2, 6, dtype=np.uint8), group=GROUP_I, index=0)]
    path = tmp_path / "tap.bin"
    write_capture(path, frames)
    assert read_capture(path) == frames
    with pytest.raises(FrameParseError):
        data = path.read_bytes()
        path.write_bytes(data[:-1])
        read_capture(path)


def test_read_capture_refuses_a_length_prefix_past_the_end_before_reading(tmp_path):
    # A 4-byte file whose prefix claims 16 MiB used to reserve the 16 MiB
    # before it found the body missing.
    frame = encode_frame(_frame(KIND_INFO, np.ones(8, dtype=np.uint8)))
    claim = struct.pack(">I", 1 << 24)
    for data in (claim, struct.pack(">I", len(frame)) + frame + claim + frame):
        path = tmp_path / "tap.bin"
        path.write_bytes(data)
        tracemalloc.start()
        try:
            with pytest.raises(FrameParseError, match="truncated frame body"):
                read_capture(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


@pytest.mark.parametrize(
    "field,value",
    [
        ("index", 2**32),
        ("index", -1),
        ("index", 1.5),
        ("method", 256),
        ("method", -1),
        ("group", 256),
        ("kind", 256),
        ("kind", -1),
    ],
)
def test_encode_frame_rejects_out_of_range_fields(field, value):
    fields = dict(method=1, group=GROUP_NONE, index=0, kind=KIND_INFO)
    fields[field] = value
    frame = Frame(payload=np.ones(8, dtype=np.uint8), **fields)
    with pytest.raises(ValueError, match=field):
        encode_frame(frame)


@pytest.mark.parametrize("value", [2, 0.5, -1])
def test_encode_frame_rejects_non_bit_payloads(value):
    # A 2 used to be packed as a 1, so the frame did not round-trip.
    payload = np.ones(8, dtype=type(value))
    payload[3] = value
    frame = Frame(method=1, group=GROUP_NONE, index=0, kind=KIND_INFO, payload=payload)
    with pytest.raises(ValueError, match="payload"):
        encode_frame(frame)


# A (2, 12) payload used to get a 2-bit header over 3 bytes, which
# read_capture then refused, and a 0-d one raised TypeError from len().
@pytest.mark.parametrize("payload", [np.ones((2, 12), dtype=np.uint8), np.uint8(1)], ids=["2-d", "0-d"])
def test_encode_frame_rejects_a_payload_that_is_not_1d(payload):
    frame = Frame(method=1, group=GROUP_NONE, index=0, kind=KIND_INFO, payload=payload)
    with pytest.raises(ValueError, match="payload must be a 1-d array"):
        encode_frame(frame)


def test_encode_frame_accepts_field_limits():
    frame = Frame(method=255, group=255, index=2**32 - 1, kind=255, payload=np.ones(3, dtype=np.uint8))
    assert encode_frame(frame)[5:12] == b"\xff" * 7


valid_frames = st.builds(
    Frame,
    method=st.sampled_from([1, 2]),
    group=st.sampled_from([GROUP_NONE, GROUP_I, GROUP_II]),
    index=st.integers(0, 2**32 - 1),
    kind=st.sampled_from([KIND_INFO, KIND_PARITY]),
    payload=st.lists(st.integers(0, 1), max_size=80).map(lambda b: np.array(b, dtype=np.uint8)),
)


def _mangled(blob: bytes):
    """The blob with one byte replaced, then cut or extended."""
    return st.tuples(
        st.integers(0, len(blob) - 1), st.integers(0, 255), st.integers(0, len(blob) + 2)
    ).map(lambda t: (blob[: t[0]] + bytes([t[1]]) + blob[t[0] + 1 :] + b"\0\0")[: t[2]])


# Arbitrary bytes rarely get past the magic, so half the inputs are valid frames mangled.
frame_bytes = st.one_of(st.binary(max_size=40), valid_frames.map(encode_frame).flatmap(_mangled))


@settings(max_examples=200, deadline=None)
@given(valid_frames)
def test_frame_codec_round_trips_any_valid_frame(frame):
    assert decode_frame(encode_frame(frame)) == frame


@settings(max_examples=300, deadline=None)
@given(frame_bytes)
def test_decode_frame_raises_only_frame_parse_error(blob):
    try:
        decode_frame(blob)
    except FrameParseError:
        pass


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.one_of(
            frame_bytes.map(lambda b: struct.pack(">I", len(b)) + b),
            st.binary(max_size=12),
        ),
        max_size=4,
    ).map(b"".join)
)
def test_read_capture_raises_only_frame_parse_error(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("capture") / "tap.bin"
    path.write_bytes(data)
    try:
        read_capture(path)
    except FrameParseError:
        pass
