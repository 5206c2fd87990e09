import itertools
import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from noisekey.amplify import HashSeed, extract_key
from noisekey.channel import (
    GROUP_II,
    ChannelConfig,
    Frame,
    FrameParseError,
    KIND_INFO,
    KIND_PARITY,
    bsc_transmit,
    decode_frame,
    deliver,
    encode_frame,
    payload_stream,
    read_capture,
    write_capture,
)
from noisekey.grouping import CommonKey, sample_key, split_stream
from noisekey.oracle import enumerate_with_errors, judge_candidate, make_scenario
from noisekey.rs import bits_to_symbols, decode_block, encode_parity, make_code, symbols_to_bits
from noisekey.gf import build_field
from noisekey import _rules, amplify, session
from noisekey._rules import step_rows
from noisekey.session import (
    BlockOutcome,
    FramingError,
    SessionConfig,
    SessionReport,
    run_receiver,
    run_session,
    run_transmitter,
)

import reference_rs
from reference_layout import completed_blocks

EVE_BER = 1.0 - 0.9 ** 0.125


@pytest.fixture(scope="module")
def toy_code():
    return make_code(build_field(5, 0x25), 31, 19)


@pytest.fixture(scope="module")
def toy_key():
    return sample_key(160, 2.0, np.random.default_rng(80))


def toy_config(toy_code, toy_key, blocks=40, ber=0.016, method=1, seed=5, **kw):
    channel = ChannelConfig(eve_ber=ber, bob_ber=kw.pop("bob_ber", ber), method=method, seed=seed)
    return SessionConfig(
        key=toy_key,
        code=toy_code,
        channel=channel,
        blocks_target=blocks,
        unit_blocks=kw.pop("unit_blocks", 1),
        fluctuation_sigmas=kw.pop("fluctuation_sigmas", 0.5),
        safety_bits=kw.pop("safety_bits", 1),
        source_seed=kw.pop("source_seed", 11),
        hash_seed=kw.pop("hash_seed", 12),
        **kw,
    )


def test_config_rejects_inadmissible_key(toy_code):
    bad = CommonKey.from_bits(np.zeros(160, dtype=np.uint8), 2.0)
    with pytest.raises(ValueError):
        toy_config(toy_code, bad)


def test_config_enforces_key_period_gate(toy_code):
    # a 256-bit key cannot be consumed by one 95-bit block
    key = sample_key(256, 2.0, np.random.default_rng(81))
    with pytest.raises(ValueError):
        toy_config(toy_code, key)


def test_config_refuses_a_key_sampled_under_an_infinite_limit(toy_code):
    # Every key fits an infinite limit, so no block spans the period of all
    # of them; the gate used to end in OverflowError from math.ceil.
    key = sample_key(160, math.inf, np.random.default_rng(83))
    with pytest.raises(ValueError, match="full key period") as refusal:
        toy_config(toy_code, key)
    assert "finite limit" in str(refusal.value) and "enlarge" not in str(refusal.value)


def test_config_enforces_rate_gate(toy_code, toy_key):
    with pytest.raises(ValueError):
        toy_config(toy_code, toy_key, key_bits=1000)


@pytest.mark.parametrize("key_bits", [0, -3])
def test_config_refuses_an_explicit_key_size_below_one(toy_code, toy_key, key_bits):
    # The toy bound allows 1 bit; a size of 0 or -3 used to be told that no
    # secure key bits were available.
    assert toy_config(toy_code, toy_key).key_bits == 1
    with pytest.raises(ValueError, match=f"key_bits must be an integer >= 1, got {key_bits}"):
        toy_config(toy_code, toy_key, key_bits=key_bits)


def test_config_refuses_the_default_key_size_at_a_zero_rate_bound(toy_code, toy_key):
    with pytest.raises(ValueError, match="no secure key bits available at these parameters"):
        toy_config(toy_code, toy_key, safety_bits=1000)
    with pytest.raises(ValueError, match=r"1 key bits per unit exceeds the rate bound \(0\)"):
        toy_config(toy_code, toy_key, safety_bits=1000, key_bits=1)


@pytest.mark.parametrize("field", ["blocks_target", "unit_blocks", "safety_bits", "key_bits"])
def test_config_refuses_a_non_integer_count(toy_code, toy_key, field):
    # blocks_target=2.5 used to fail in numpy, and unit_blocks=1.5 passed the
    # config only for run_session to fail slicing with it. numpy integers pass.
    one = np.int64(1)
    cfg = toy_config(toy_code, toy_key, blocks=np.int64(10), unit_blocks=one, safety_bits=one, key_bits=one)
    with pytest.raises(ValueError, match=rf"{field} must be an integer( >= [01])?, got 1.5"):
        replace(cfg, **{field: 1.5})


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.uint16])
def test_numpy_integer_counts_give_the_report_of_python_ints(toy_code, toy_key, dtype):
    # numpy 2 keeps a scalar's arithmetic in its own width: np.int8 counts
    # used to overflow in the rate bound (unit_blocks * m * n) and in the
    # hashing kernel's step (np.int8(2) key bits).
    counts = {"blocks_target": 120, "unit_blocks": 1, "safety_bits": 1, "key_bits": 2}
    plain = replace(toy_config(toy_code, toy_key, ber=0.019), **counts)
    scalar = replace(plain, **{name: dtype(value) for name, value in counts.items()})
    assert all(type(getattr(scalar, name)) is int for name in counts)
    assert run_session(scalar).to_dict() == run_session(plain).to_dict()
    for name in counts:
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            replace(plain, **{name: True})


@pytest.mark.parametrize(
    "seed", [{"source_seed": 1.5}, {"hash_seed": 1.5}, {"seed": 1.5}], ids=["source", "hash", "channel"]
)
def test_session_refuses_a_non_integer_seed(toy_code, toy_key, seed):
    # A float source or channel seed used to end in "'float' object is not
    # iterable", and a float hash seed was truncated to an integer.
    with pytest.raises(TypeError, match=r"seed must be integer, got 1\.5"):
        run_session(toy_config(toy_code, toy_key, blocks=2, **seed))


def test_one_unit_one_key(toy_code, toy_key):
    cfg = toy_config(toy_code, toy_key, blocks=1)
    tx = run_transmitter(cfg)
    assert len(tx.keys) == 1
    assert len([f for f in tx.frames if f.kind == KIND_PARITY]) == 1
    assert len(tx.keys[0]) == cfg.key_bits


def test_transmitter_deterministic(toy_code, toy_key):
    cfg = toy_config(toy_code, toy_key, blocks=20)
    a = run_transmitter(cfg)
    b = run_transmitter(cfg)
    assert len(a.frames) == len(b.frames)
    assert all(fa == fb for fa, fb in zip(a.frames, b.frames))
    assert all(np.array_equal(ka, kb) for ka, kb in zip(a.keys, b.keys))


@pytest.mark.parametrize("key_length", [24, 160])
@pytest.mark.parametrize("blocks", [1, 2, 7, 40])
def test_transmitter_sends_the_fewest_chunks(toy_code, key_length, blocks):
    # Alice's blocks are the walk's first ones, and one chunk fewer would
    # complete fewer than the target.
    key = sample_key(key_length, 2.0, np.random.default_rng(key_length))
    tx = run_transmitter(toy_config(toy_code, key, blocks=blocks))
    size = toy_code.info_bits
    walk = list(completed_blocks(tx.stream, key, size))
    assert [(b.group, b.index, b.info_bits.tolist()) for b in tx.blocks] == [
        (g, j, bits.tolist()) for g, j, bits in walk[:blocks]
    ]
    fewer = sum(1 for _ in completed_blocks(tx.stream[:-size], key, size))
    assert len(walk) >= blocks > fewer


def test_parity_frames_recomputable_from_capture(toy_code, toy_key):
    # an observer holding the frames and the key can re-derive every parity
    cfg = toy_config(toy_code, toy_key, blocks=100)
    tx = run_transmitter(cfg)
    groups = split_stream(payload_stream(tx.frames), toy_key)
    per_group = {1: groups.group1, 2: groups.group2}
    nb = toy_code.info_bits
    for frame in tx.frames:
        if frame.kind != KIND_PARITY:
            continue
        block = per_group[frame.group][frame.index * nb : (frame.index + 1) * nb]
        assert (frame.payload == encode_parity(toy_code, block)).all()


def test_receiver_on_clean_frames_reproduces_keys(toy_code, toy_key):
    cfg = toy_config(toy_code, toy_key, blocks=30)
    tx = run_transmitter(cfg)
    rx = run_receiver(tx.frames, cfg)
    assert len(rx.keys) == len(tx.keys)
    assert all(kb is not None and np.array_equal(ka, kb) for ka, kb in zip(tx.keys, rx.keys))
    assert all(outcome.ok and outcome.corrected == 0 for outcome in rx.outcomes)


def test_corrupted_block_poisons_only_its_unit(toy_code, toy_key):
    cfg = toy_config(toy_code, toy_key, blocks=10)
    tx = run_transmitter(cfg)
    frames = list(tx.frames)
    parity_positions = [i for i, f in enumerate(frames) if f.kind == KIND_PARITY]
    target = parity_positions[3]
    payload = frames[target].payload.copy()
    for sym in range(toy_code.t + 2):  # unrecoverable damage to one block
        payload[sym * toy_code.m] ^= 1
    frames[target] = Frame(
        method=frames[target].method,
        group=frames[target].group,
        index=frames[target].index,
        kind=frames[target].kind,
        payload=payload,
    )
    rx = run_receiver(frames, cfg)
    assert rx.keys[3] is None
    assert sum(1 for o in rx.outcomes if not o.ok) == 1
    for j, (ka, kb) in enumerate(zip(tx.keys, rx.keys)):
        if j != 3:
            assert kb is not None and np.array_equal(ka, kb)


def test_out_of_order_frames_rejected(toy_code, toy_key):
    cfg = toy_config(toy_code, toy_key, blocks=5)
    tx = run_transmitter(cfg)
    frames = list(tx.frames)
    infos = [i for i, f in enumerate(frames) if f.kind == KIND_INFO]
    frames[infos[0]], frames[infos[1]] = frames[infos[1]], frames[infos[0]]
    with pytest.raises(FramingError, match="payload frame 0 of group 0 is due"):
        run_receiver(frames, cfg)


def _parity_positions(frames):
    return [i for i, f in enumerate(frames) if f.kind == KIND_PARITY]


def test_missing_parity_frame_fails_only_its_unit(toy_code, toy_key):
    cfg = toy_config(toy_code, toy_key, blocks=10)
    tx = run_transmitter(cfg)
    frames = list(tx.frames)
    del frames[_parity_positions(frames)[3]]
    rx = run_receiver(frames, cfg)
    assert len(rx.outcomes) == 10 and len(rx.keys) == 10
    assert not rx.outcomes[3].ok and rx.keys[3] is None
    assert (rx.outcomes[3].group, rx.outcomes[3].index) == (tx.blocks[3].group, tx.blocks[3].index)
    for j, (ka, kb) in enumerate(zip(tx.keys, rx.keys)):
        if j != 3:
            assert kb is not None and np.array_equal(ka, kb)


def test_missing_parity_frame_reason(toy_code, toy_key):
    cfg = toy_config(toy_code, toy_key, blocks=10)
    frames = list(run_transmitter(cfg).frames)
    del frames[_parity_positions(frames)[3]]
    rx = run_receiver(frames, cfg)
    assert rx.outcomes[3].reason == "missing parity"
    assert all(o.ok and o.reason is None for j, o in enumerate(rx.outcomes) if j != 3)


def test_beyond_t_block_reason(toy_code, toy_key):
    # Inverting every parity bit puts n - k = 12 > t symbol errors in block 2.
    cfg = toy_config(toy_code, toy_key, blocks=5)
    tx = run_transmitter(cfg)
    frames = list(tx.frames)
    pos = _parity_positions(frames)[2]
    f = frames[pos]
    frames[pos] = Frame(method=f.method, group=f.group, index=f.index, kind=f.kind,
                        payload=f.payload ^ 1)
    rx = run_receiver(frames, cfg)
    word = np.concatenate([tx.blocks[2].info_bits, f.payload ^ 1])
    expected = decode_block(toy_code, bits_to_symbols(word, toy_code.m))
    assert not expected.ok and expected.reason is not None
    assert not rx.outcomes[2].ok and rx.outcomes[2].reason == expected.reason
    assert rx.keys[2] is None
    assert all(o.ok and o.reason is None for j, o in enumerate(rx.outcomes) if j != 2)


def test_noisy_session_reasons_match_outcomes(toy_code, toy_key):
    report = run_session(toy_config(toy_code, toy_key, blocks=40, bob_ber=0.08))
    failed = [o for o in report.bob_outcomes if not o.ok]
    assert failed
    assert all((o.reason is None) == o.ok for o in report.bob_outcomes)
    blocks = report.to_dict()["bob_blocks"]
    assert [b["reason"] for b in blocks] == [o.reason for o in report.bob_outcomes]


def test_unit_outcomes_and_failure_reason_counts(toy_code, toy_key, monkeypatch):
    # Bob gets block 2's parity inverted (n - k = 12 > t symbol errors, a
    # detected failure) and block 4's replaced by the parity of info bits one
    # symbol away from Alice's (it decodes to those bits, a miscorrection).
    cfg = toy_config(toy_code, toy_key, blocks=6)
    assert run_session(cfg).unit_outcomes == ("agreed",) * 6
    tx = run_transmitter(cfg)
    parity = {(f.group, f.index): f.payload for f in tx.frames if f.kind == KIND_PARITY}
    beyond, wrong = tx.blocks[2], tx.blocks[4]
    neighbour = wrong.info_bits.copy()
    neighbour[0] ^= 1
    forged = {
        (beyond.group, beyond.index): parity[beyond.group, beyond.index] ^ 1,
        (wrong.group, wrong.index): encode_parity(toy_code, neighbour),
    }
    real_deliver = session.deliver

    def deliver(frame, channel, party):
        out = real_deliver(frame, channel, party)
        tag = (frame.group, frame.index)
        if party == "bob" and frame.kind == KIND_PARITY and tag in forged:
            return Frame(method=out.method, group=out.group, index=out.index, kind=out.kind,
                         payload=forged[tag])
        return out

    monkeypatch.setattr(session, "deliver", deliver)
    report = run_session(cfg)
    assert report.unit_outcomes == ("agreed", "agreed", "failed", "agreed", "miscorrected", "agreed")
    # Bob holds a key for the miscorrected unit, and with 1-bit keys it matches
    # Alice's here; agreement still counts only the agreed units.
    assert report.keys_bob[2] is None
    assert report.key_bits == 1 and (report.keys_bob[4] == report.keys_alice[4]).all()
    assert report.agreement_rate == 4 / 6
    reason = report.bob_outcomes[2].reason
    assert reason in {"locator degree", "root count", "zero derivative", "zero magnitude", "reverify"}
    doc = report.to_dict()
    assert doc["unit_outcomes"] == {"agreed": 4, "failed": 1, "miscorrected": 1}
    assert doc["block_failure_reasons"] == {reason: 1}


def test_missing_last_parity_frame_fails_the_last_unit(toy_code, toy_key):
    # The receiver plans the session's 10 blocks from the key, so a lost
    # last parity frame is a failed block, not a shorter session.
    cfg = toy_config(toy_code, toy_key, blocks=10)
    tx = run_transmitter(cfg)
    frames = list(tx.frames)
    del frames[_parity_positions(frames)[-1]]
    rx = run_receiver(frames, cfg)
    assert len(rx.outcomes) == 10 and len(rx.keys) == 10
    assert rx.outcomes[-1].reason == "missing parity" and rx.keys[-1] is None
    assert (rx.outcomes[-1].group, rx.outcomes[-1].index) == (tx.blocks[-1].group, tx.blocks[-1].index)
    assert all(o.ok for o in rx.outcomes[:-1])


def test_no_parity_frames_fail_every_block(toy_code, toy_key):
    cfg = toy_config(toy_code, toy_key, blocks=10)
    frames = [f for f in run_transmitter(cfg).frames if f.kind == KIND_INFO]
    rx = run_receiver(frames, cfg)
    assert [o.reason for o in rx.outcomes] == ["missing parity"] * 10
    assert rx.keys == [None] * 10


def test_extra_payload_frame_rejected(toy_code, toy_key):
    cfg = toy_config(toy_code, toy_key, blocks=10)
    frames = list(run_transmitter(cfg).frames)
    infos = [f for f in frames if f.kind == KIND_INFO]
    last = infos[-1]
    extra = Frame(method=last.method, group=last.group, index=len(infos), kind=KIND_INFO,
                  payload=last.payload)
    with pytest.raises(FramingError):
        run_receiver(frames + [extra], cfg)


def test_missing_payload_tail_rejected(toy_code, toy_key):
    # Dropping the last chunk and the parity of every block it completes
    # leaves a consistent shorter session, which the plan still refuses.
    cfg = toy_config(toy_code, toy_key, blocks=10)
    tx = run_transmitter(cfg)
    size = toy_code.info_bits
    last_chunk = len(tx.stream) // size - 1
    # On the stream 0, 1, 2, ... the walk's routed bits are the positions.
    walk = itertools.islice(completed_blocks(np.arange(len(tx.stream)), toy_key, size), 10)
    lost = {(g, j) for g, j, pos in walk if pos[-1] // size == last_chunk}
    assert lost
    frames = [f for f in tx.frames
              if not (f.kind == KIND_INFO and f.index == last_chunk)
              and not (f.kind == KIND_PARITY and (f.group, f.index) in lost)]
    with pytest.raises(FramingError):
        run_receiver(frames, cfg)


def test_parity_frame_for_uncompleted_block_rejected(toy_code, toy_key):
    cfg = toy_config(toy_code, toy_key, blocks=5)
    tx = run_transmitter(cfg)
    parity_only = [f for f in tx.frames if f.kind == KIND_PARITY]
    with pytest.raises(FramingError):
        run_receiver(parity_only, cfg)


@pytest.mark.parametrize(
    "kind,value",
    [(KIND_PARITY, 3), (KIND_PARITY, 2), (KIND_INFO, 2), (KIND_INFO, 0.5)],
    ids=["parity-3", "parity-2", "payload-2", "payload-half"],
)
def test_non_bit_payload_rejected(toy_code, toy_key, kind, value):
    # Each used to reach the decoder, which raised its symbol-range
    # ValueError for the integers and accepted the 0.5 without a word.
    cfg = toy_config(toy_code, toy_key, blocks=10)
    frames = list(run_transmitter(cfg).frames)
    pos = next(i for i, f in enumerate(frames) if f.kind == kind)
    f = frames[pos]
    payload = f.payload.astype(type(value))
    payload[0] = value
    frames[pos] = Frame(method=f.method, group=f.group, index=f.index, kind=f.kind, payload=payload)
    with pytest.raises(FramingError, match="0 (and|or) 1"):
        run_receiver(frames, cfg)


# One bad frame each: (kind of the frame it starts from, appended rather
# than replacing it, the change). The first six used to pass unnoticed or
# fail inside np.concatenate with numpy's bare ValueError.
FRAME_FAULTS = {
    "payload-group-2": (KIND_INFO, False, lambda f: replace(f, group=GROUP_II)),
    "payload-method-2": (KIND_INFO, False, lambda f: replace(f, method=2)),
    "parity-method-2": (KIND_PARITY, False, lambda f: replace(f, method=2)),
    "extra-kind-7": (KIND_INFO, True, lambda f: replace(f, kind=7)),
    "payload-column": (KIND_INFO, False, lambda f: replace(f, payload=f.payload[:, None])),
    "parity-column": (KIND_PARITY, False, lambda f: replace(f, payload=f.payload[:, None])),
    "orphan-parity": (KIND_PARITY, True, lambda f: replace(f, index=f.index + 100)),
    "duplicate-parity": (KIND_PARITY, True, lambda f: f),
    "short-parity": (KIND_PARITY, False, lambda f: replace(f, payload=f.payload[:-1])),
}


@pytest.mark.parametrize("fault", FRAME_FAULTS)
def test_receiver_refuses_a_bad_frame_by_name(toy_code, toy_key, fault):
    kind, append, change = FRAME_FAULTS[fault]
    cfg = toy_config(toy_code, toy_key, blocks=10)
    frames = list(run_transmitter(cfg).frames)
    pos = next(i for i, f in enumerate(frames) if f.kind == kind)
    bad = change(frames[pos])
    if append:
        frames.append(bad)
    else:
        frames[pos] = bad
    name = f"method {bad.method}, kind {bad.kind}, group {bad.group}, index {bad.index}"
    with pytest.raises(FramingError, match=re.escape(f"frame ({name}) refused")):
        run_receiver(frames, cfg)


@pytest.fixture(scope="module")
def small_session(toy_code, toy_key):
    cfg = toy_config(toy_code, toy_key, blocks=4)
    return cfg, run_transmitter(cfg).frames


OPS = ["drop", "duplicate", "swap", "method", "group", "kind", "index", "resize", "revalue"]
frame_edits = st.lists(
    st.tuples(st.sampled_from(OPS), st.integers(0, 999), st.integers(0, 999),
              st.sampled_from([0, 1, 2, 3, 7, -1, 0.5])),
    max_size=4,
)


def _edited(frames, edits, wire):
    """The frames after each edit in turn; on the wire path every value is
    one `encode_frame` accepts (tags in range, payload bits 0 or 1)."""
    frames = list(frames)
    for op, i, j, value in edits:
        if not frames:
            break
        i, j = i % len(frames), j % len(frames)
        f = frames[i]
        if op == "drop":
            del frames[i]
        elif op == "duplicate":
            frames.insert(j, f)
        elif op == "swap":
            frames[i], frames[j] = frames[j], f
        elif op in ("method", "group", "kind", "index"):
            frames[i] = replace(f, **{op: int(abs(value)) if wire else value})
        elif op == "resize":
            # encode_frame refuses a payload that is not 1-d, so no column on the wire.
            sizes = [f.payload[:-1], np.append(f.payload, 0)] + ([] if wire else [f.payload[:, None]])
            frames[i] = replace(f, payload=sizes[j % len(sizes)])
        elif len(f.payload):
            payload = f.payload.ravel().copy() if wire else f.payload.astype(type(value)).ravel()
            k = j % len(payload)
            payload[k] = 1 - payload[k] if wire else value
            frames[i] = replace(f, payload=payload.reshape(np.shape(f.payload)))
    return frames


@settings(max_examples=300, deadline=None)
@given(frame_edits, st.booleans(), st.integers(0, 999), st.integers(0, 999), st.integers(0, 255))
def test_receiver_gives_every_planned_outcome_or_a_framing_error(small_session, edits, wire, which, at, byte):
    # Dropped, duplicated, reordered, retagged, resized or re-valued frames,
    # directly or through encode_frame, one byte flip and decode_frame.
    cfg, frames = small_session
    frames = _edited(frames, edits, wire)
    if wire and frames:
        blobs = [encode_frame(f) for f in frames]
        blob = blobs[which % len(blobs)]
        k = at % len(blob)
        blobs[which % len(blobs)] = blob[:k] + bytes([byte]) + blob[k + 1 :]
        try:
            frames = [decode_frame(b) for b in blobs]
        except FrameParseError:
            return
    try:
        rx = run_receiver(frames, cfg)
    except FramingError:
        return
    assert len(rx.outcomes) == cfg.blocks_target


def test_judge_accepts_the_session_key_on_the_tap_capture(toy_code, toy_key, tmp_path):
    # The tap's capture, read back from disk, is what the exhaustive
    # adversary judges: the session key explains it, a rotation does not.
    # The tap listens at 0.005, where a (31,19) block exceeds t = 6 errors
    # with p ~ 2e-7, so every block decodes; 5-block units keep a secure key
    # bit at that rate.
    cfg = toy_config(toy_code, toy_key, blocks=50, ber=0.005, bob_ber=0.016, unit_blocks=5)
    write_capture(tmp_path / "tap.bin", run_session(cfg).eve_capture)
    observed = (read_capture(tmp_path / "tap.bin"), toy_code, cfg.channel.eve_ber)
    verdict = judge_candidate(toy_key.bits, *observed)
    assert verdict.consistent
    assert len(verdict.per_block_errors) == 50 and verdict.decode_failures == 0
    assert not judge_candidate(np.roll(toy_key.bits, 1), *observed).consistent


def test_judge_accepts_the_session_key_despite_one_expected_decode_failure(toy_code, toy_key):
    # At the tap rate of 0.016 a (31,19) block exceeds t = 6 errors with
    # p ~ 3.7e-4. Here block 29 of the tap's copy carries 8 symbol errors:
    # one failure in 50 blocks has probability ~0.018, well above the
    # judge's four-sigma level, while a rotated key fails every block.
    cfg = toy_config(toy_code, toy_key, blocks=50)
    observed = (run_session(cfg).eve_capture, toy_code, cfg.channel.eve_ber)
    verdict = judge_candidate(toy_key.bits, *observed)
    assert verdict.decode_failures == 1 and len(verdict.per_block_errors) == 49
    assert verdict.mean_errors <= verdict.threshold
    assert verdict.consistent
    rotated = judge_candidate(np.roll(toy_key.bits, 1), *observed)
    assert rotated.decode_failures == 50 and not rotated.consistent


@pytest.mark.parametrize("seed", range(5))
def test_judge_accepts_the_session_key_on_method_2_captures(toy_code, seed):
    # In method 2 the tap hears the parity through noise too, so a true
    # block carries errors in all n = 31 symbols: ~2.4 on average at 0.016,
    # above the 2.13 a k-symbol count allows over 50 blocks. The judge reads
    # the method off the frames and counts n symbols: the session key is
    # consistent and a rotation is not.
    key = sample_key(160, 2.0, np.random.default_rng(seed))
    cfg = toy_config(toy_code, key, blocks=50, method=2, seed=seed, source_seed=seed, hash_seed=seed)
    observed = (run_session(cfg).eve_capture, toy_code, cfg.channel.eve_ber)
    assert judge_candidate(key.bits, *observed).consistent
    assert not judge_candidate(np.roll(key.bits, 1), *observed).consistent


def test_judge_verdict_does_not_depend_on_the_batch_size(toy_code, toy_key, monkeypatch):
    # 16 blocks per batch split the 50 blocks of a method-2 capture into 4
    # batches; the true key and a rotation get the same verdicts as in one.
    cfg = toy_config(toy_code, toy_key, blocks=50, method=2)
    observed = (run_session(cfg).eve_capture, toy_code, cfg.channel.eve_ber)
    guesses = [toy_key.bits, np.roll(toy_key.bits, 1)]
    whole = [judge_candidate(guess, *observed) for guess in guesses]
    monkeypatch.setattr(_rules, "STEP_BYTES", 16 * 8 * toy_code.m * toy_code.n)
    assert step_rows(8 * toy_code.m * toy_code.n) == 16
    assert [judge_candidate(guess, *observed) for guess in guesses] == whole
    assert whole[0].consistent and not whole[1].consistent


def test_each_end_hashes_all_its_units_in_one_call(toy_code, toy_key, monkeypatch):
    # Each end hashes the 30 units of 60 blocks in one extract_key call, and
    # the receiver's key of a unit with a failed block is None. The keys stay
    # the same when every stepped kernel, the hash's included, takes one row
    # (one unit) per step.
    cfg = toy_config(toy_code, toy_key, blocks=60, ber=0.03, method=2, unit_blocks=2)
    calls, steps = [], []
    original, diagonals = session.extract_key, amplify._diagonals
    monkeypatch.setattr(session, "extract_key", lambda x, *args: calls.append(len(x)) or original(x, *args))
    monkeypatch.setattr(amplify, "_diagonals", lambda words, size: steps.append(len(words)) or diagonals(words, size))

    def keys():
        calls.clear()
        steps.clear()
        tx = run_transmitter(cfg)
        rx = run_receiver([deliver(f, cfg.channel, "bob") for f in tx.frames], cfg)
        assert calls == [30, 30]
        return tx.keys, rx.keys, [not all(o.ok for o in rx.outcomes[u : u + 2]) for u in range(0, 60, 2)]

    tx_keys, rx_keys, failed = keys()
    assert 0 < sum(failed) < 30 and all(key is not None for key in tx_keys)
    assert [key is None for key in rx_keys] == failed
    monkeypatch.setattr(_rules, "STEP_BYTES", 1)
    *stepped, _ = keys()
    assert steps == [1] * 60
    for keys_now, expected in zip(stepped, (tx_keys, rx_keys)):
        assert all(a is b is None or np.array_equal(a, b) for a, b in zip(keys_now, expected))


def test_one_row_steps_in_every_layer_change_no_result(toy_code, toy_key, code_7_5, monkeypatch):
    # STEP_BYTES = 1 makes every stepped kernel take one row at a time: the
    # decode batches, the encode and syndrome gathers, the hash units, the
    # pattern unpacking and the log-gamma series. A 60-block method-2 toy
    # session, the judge of its capture and the (7, 5) 16-bit attack give
    # what they give in one step.
    cfg = toy_config(toy_code, toy_key, blocks=60, ber=0.03, method=2, unit_blocks=2)
    batches, syndromes = [], session.syndromes
    monkeypatch.setattr(session, "syndromes", lambda code, words: batches.append(len(words)) or syndromes(code, words))

    def run():
        batches.clear()
        report = run_session(cfg)
        guesses = [toy_key.bits, np.roll(toy_key.bits, 1)]
        verdicts = [judge_candidate(g, report.eve_capture, toy_code, cfg.channel.eve_ber) for g in guesses]
        scenario, _ = make_scenario(code_7_5, 16, 2.0, np.random.default_rng(7))
        found = enumerate_with_errors(scenario, 1, "bit").per_pattern
        return report, verdicts, found, list(batches)

    report, verdicts, found, whole = run()
    monkeypatch.setattr(_rules, "STEP_BYTES", 1)
    stepped, stepped_verdicts, stepped_found, single = run()
    assert whole == [60] * 3 and single == [1] * 180    # Bob's decode, then the judge's two
    assert stepped.to_dict() == report.to_dict() and stepped.eve_capture == report.eve_capture
    assert stepped_verdicts == verdicts and verdicts[0].consistent
    assert stepped_found.keys() == found.keys()
    assert all(np.array_equal(stepped_found[p], found[p]) for p in found)
    assert sum(map(len, found.values())) > 0


def test_empty_session(toy_code, toy_key):
    report = run_session(toy_config(toy_code, toy_key, blocks=0))
    assert report.blocks_completed == 0
    assert report.keys_alice == [] and report.keys_bob == []
    assert report.agreement_rate is None


def test_session_report_round_trip(toy_code, toy_key):
    report = run_session(toy_config(toy_code, toy_key, blocks=12))
    doc = report.to_dict()
    assert doc["blocks_completed"] == 12
    assert len(doc["keys_alice"]) == doc["units_completed"]
    assert doc["agreement_rate"] == report.agreement_rate


@pytest.mark.parametrize("key_bits", [2, 4, 506])
def test_report_keys_are_padded_hex(key_bits):
    rng = np.random.default_rng(key_bits)
    keys = [rng.integers(0, 2, key_bits, dtype=np.uint8) for _ in range(3)]
    keys.append(np.ones(key_bits, dtype=np.uint8))
    report = SessionReport(
        keys_alice=keys, keys_bob=keys[:2] + [None], agreement_rate=None,
        bob_outcomes=[BlockOutcome(group=1, index=0, ok=True, corrected=0, reason=None)],
        eve_block_flips=[], eve_capture=[], blocks_completed=1, units_completed=len(keys),
        key_bits=key_bits,
    )
    doc = report.to_dict()
    assert doc["key_bits"] == key_bits
    assert doc["keys_bob"][2] is None
    for key, text in zip(keys, doc["keys_alice"]):
        assert len(text) == -(-key_bits // 4)
        assert text == text.lower() and set(text) <= set("0123456789abcdef")
        value = int(text, 16)
        assert value >> key_bits == 0  # the pad is all zero bits
        bits = [(value >> (key_bits - 1 - i)) & 1 for i in range(key_bits)]
        assert bits == key.tolist()


def test_method1_tap_sees_exact_parity(toy_code, toy_key):
    report = run_session(toy_config(toy_code, toy_key, blocks=20, method=1))
    tx = run_transmitter(toy_config(toy_code, toy_key, blocks=20, method=1))
    sent = {(f.group, f.index): f.payload for f in tx.frames if f.kind == KIND_PARITY}
    seen = [f for f in report.eve_capture if f.kind == KIND_PARITY]
    assert len(seen) == 20
    assert all((sent[(f.group, f.index)] == f.payload).all() for f in seen)


def test_method2_tap_parity_noisy(toy_code, toy_key):
    cfg = toy_config(toy_code, toy_key, blocks=300, method=2, ber=0.03)
    tx = run_transmitter(cfg)
    report = run_session(cfg)
    sent = {(f.group, f.index): f.payload for f in tx.frames if f.kind == KIND_PARITY}
    flips = total = 0
    for f in report.eve_capture:
        if f.kind != KIND_PARITY:
            continue
        flips += int((sent[(f.group, f.index)] ^ f.payload).sum())
        total += len(f.payload)
    rate = flips / total
    assert abs(rate - 0.03) <= 4 * math.sqrt(0.03 * 0.97 / total)


def test_eve_no_worse_than_bob(toy_code, toy_key):
    cfg = toy_config(toy_code, toy_key, blocks=200, ber=0.014, bob_ber=0.03)
    tx = run_transmitter(cfg)
    report = run_session(cfg)
    eve_stream = np.concatenate([f.payload for f in report.eve_capture if f.kind == KIND_INFO])
    eve_rate = (tx.stream ^ eve_stream).mean()
    n = len(tx.stream)
    assert abs(eve_rate - 0.014) <= 4 * math.sqrt(0.014 * 0.986 / n)
    assert eve_rate < 0.03
    bob_corrected_bits = sum(o.corrected for o in report.bob_outcomes) * toy_code.m
    assert sum(report.eve_block_flips) < bob_corrected_bits  # tap is cleaner than the receiver


def test_eve_flips_follow_the_completion_walk(toy_code, toy_key):
    cfg = toy_config(toy_code, toy_key, blocks=60, ber=0.05)
    tx = run_transmitter(cfg)
    report = run_session(cfg)
    eve_stream = np.concatenate([f.payload for f in report.eve_capture if f.kind == KIND_INFO])
    walk = completed_blocks(tx.stream ^ eve_stream, toy_key, toy_code.info_bits)
    expected = [int(bits.sum()) for _, _, bits in itertools.islice(walk, 60)]
    assert report.eve_block_flips == expected and sum(expected) > 0
    assert all(type(f) is int for f in report.eve_block_flips)


def test_source_stream_looks_uniform(toy_code, toy_key):
    tx = run_transmitter(toy_config(toy_code, toy_key, blocks=200))
    bits = tx.stream
    n = len(bits)
    ones = int(bits.sum())
    z_freq = (ones - n / 2) / math.sqrt(n / 4)
    assert abs(z_freq) <= 4
    runs = 1 + int((bits[1:] != bits[:-1]).sum())
    n0 = n - ones
    expected = 1 + 2 * ones * n0 / n
    variance = (expected - 1) * (expected - 2) / (n - 1)
    assert abs(runs - expected) <= 4 * math.sqrt(variance)


def test_reference_scale_round_trip(code_255_167):
    # 1000 hashing units at the reference operating point: the decode-failure
    # budget is ~5e-10 per unit, so every key must agree.
    key = sample_key(2496, 3.5, np.random.default_rng(82))
    channel = ChannelConfig(eve_ber=EVE_BER, bob_ber=EVE_BER, method=1, seed=83)
    cfg = SessionConfig(
        key=key,
        code=code_255_167,
        channel=channel,
        blocks_target=1000,
        unit_blocks=1,
        fluctuation_sigmas=3.0,
        safety_bits=10,
        source_seed=84,
        hash_seed=85,
    )
    assert cfg.key_bits == 12
    report = run_session(cfg)
    assert report.units_completed == 1000
    assert report.agreement_rate == 1.0
    assert all(o.ok for o in report.bob_outcomes)
    mean_corrected = np.mean([o.corrected for o in report.bob_outcomes])
    assert mean_corrected == pytest.approx(167 * 0.1, rel=0.05)


def test_multi_block_units(toy_code, toy_key):
    cfg = toy_config(toy_code, toy_key, blocks=21, unit_blocks=5, fluctuation_sigmas=0.5)
    report = run_session(cfg)
    assert report.units_completed == 4  # 21 blocks -> 4 full units, remainder dropped
    assert len(report.keys_alice[0]) == cfg.key_bits


def test_every_sub_stream_is_numpys_seed_sequence(toy_code, toy_key):
    # The channel noise of every frame for each recipient, the source stream
    # and every unit's hash seed, drawn from numpy's own SeedSequence.
    cfg = toy_config(toy_code, toy_key, blocks=40, ber=0.05, method=2, unit_blocks=2)
    tx = run_transmitter(cfg)
    chan = cfg.channel
    for recipient, stream_id, ber in (("bob", 1, chan.bob_ber), ("eve", 2, chan.eve_ber)):
        for frame in tx.frames:
            seq = np.random.SeedSequence(chan.seed, spawn_key=(stream_id, frame.kind, frame.index, frame.group))
            noisy = bsc_transmit(frame.payload, ber, np.random.default_rng(seq))
            assert np.array_equal(deliver(frame, chan, recipient).payload, noisy)
    source = np.random.default_rng(np.random.SeedSequence(cfg.source_seed, spawn_key=(7,)))
    chunks = len(tx.stream) // toy_code.info_bits
    assert np.array_equal(
        tx.stream,
        np.concatenate([source.integers(0, 2, toy_code.info_bits, dtype=np.uint8) for _ in range(chunks)]),
    )
    for unit, key in enumerate(tx.keys):
        x = np.concatenate([tx.blocks[2 * unit + i].info_bits for i in range(2)])
        diag = np.random.default_rng(np.random.SeedSequence([cfg.hash_seed, unit])).integers(
            0, 2, len(x) + cfg.key_bits - 1, dtype=np.uint8
        )
        rows = np.lib.stride_tricks.sliding_window_view(diag, len(x))[:, ::-1]
        assert np.array_equal(key, (rows @ x.astype(np.int64)) % 2)


def per_block_receiver(frames, cfg, tx):
    """The receiver one block at a time, decoded by the reference decoder;
    a failed block's bits are a zero row."""
    code = cfg.code
    stream = np.concatenate([f.payload for f in frames if f.kind == KIND_INFO])
    parity = {(f.group, f.index): f.payload for f in frames if f.kind == KIND_PARITY}
    outcomes, bits = [], []
    for g, j, info in itertools.islice(completed_blocks(stream, cfg.key, code.info_bits), len(tx.blocks)):
        tag = (g, j)
        bits.append(np.zeros(code.info_bits, dtype=np.uint8))
        if tag not in parity:
            outcomes.append(BlockOutcome(*tag, ok=False, corrected=0, reason="missing parity"))
            continue
        word = bits_to_symbols(np.concatenate([info, parity[tag]]), code.m)
        result = reference_rs.decode_block(code, word)
        outcomes.append(BlockOutcome(*tag, ok=result.ok, corrected=result.corrected, reason=result.reason))
        if result.ok:
            bits[-1][:] = symbols_to_bits(result.info, code.m)
    size = cfg.unit_blocks
    keys = []
    for unit in range(len(bits) // size):
        members = range(unit * size, (unit + 1) * size)
        keys.append(None if not all(outcomes[i].ok for i in members) else extract_key(
            np.concatenate([bits[i] for i in members]), cfg.key_bits, HashSeed.of(cfg.hash_seed, unit)
        ))
    return outcomes, np.array(bits), keys


@pytest.mark.parametrize("offset", [-1, 0, 1])
@pytest.mark.parametrize("scale", ["toy", "design"])
def test_batched_receiver_matches_the_per_block_path_at_the_batch_edges(
    toy_code, toy_key, code_255_167, scale, offset
):
    # Blocks one short of, at and one past a whole batch of the real batch
    # size, with one parity frame dropped: the same outcomes, bits and keys
    # as decoding block by block.
    if scale == "toy":
        code, key, ber, method = toy_code, toy_key, 0.03, 2
    else:
        code, key, ber, method = code_255_167, sample_key(2496, 3.5, np.random.default_rng(82)), EVE_BER, 1
    blocks = step_rows(8 * code.m * code.n) + offset
    cfg = SessionConfig(
        key=key, code=code, channel=ChannelConfig(ber, ber, method=method, seed=9),
        blocks_target=blocks, unit_blocks=2, fluctuation_sigmas=0.5, safety_bits=1,
        source_seed=10, hash_seed=11,
    )
    tx = run_transmitter(cfg)
    frames = [deliver(f, cfg.channel, "bob") for f in tx.frames]
    dropped = next(i for i, f in enumerate(frames) if f.kind == KIND_PARITY and f.index == blocks // 4)
    del frames[dropped]
    rx = run_receiver(frames, cfg)
    outcomes, bits, keys = per_block_receiver(frames, cfg, tx)
    assert rx.outcomes == outcomes
    assert sum(o.reason == "missing parity" for o in outcomes) == 1
    assert rx.bits.dtype == np.uint8 and rx.bits.shape == (blocks, code.info_bits)
    assert np.array_equal(rx.bits, bits)
    assert len(rx.keys) == len(keys)
    assert all(a is b is None or np.array_equal(a, b) for a, b in zip(rx.keys, keys))
    if scale == "toy":
        assert any(o.reason not in (None, "missing parity") for o in outcomes)  # decoder failures too


# tracemalloc's peak for this session once both ends cut their blocks as
# bits by (group, index) tag, with no stream-position array: 21.12 MB (numpy
# 2.4, Python 3.11). Cutting through a (blocks, m*k) int64 position array
# peaked at 72.6 MB, and decoding block by block, unbatched, at 99.36 MB.
SESSION_PEAK_MB = 21.12


def test_a_large_session_peaks_no_higher_than_block_by_block(code_255_167):
    key = sample_key(2496, 3.5, np.random.default_rng(1))
    ber = 1.0 - 0.9 ** (1.0 / 8.0)
    cfg = SessionConfig(
        key=key, code=code_255_167, channel=ChannelConfig(ber, ber, method=1, seed=5),
        blocks_target=2000, unit_blocks=10, source_seed=6, hash_seed=7,
    )
    tracemalloc.start()
    try:
        tx = run_transmitter(cfg)
        rx = run_receiver(tx.frames, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rx.outcomes) == 2000 and all(o.ok for o in rx.outcomes)
    # A 15 % margin for other numpy and Python versions: 24.3 MB.
    assert peak <= 1.15 * SESSION_PEAK_MB * 1e6


def test_unit_keys_hold_no_seed_per_unit(toy_code, toy_key):
    # 20 000 toy units hashed under one seed: 6.75 MB (tracemalloc, numpy
    # 2.4, Python 3.11), where a HashSeed per unit peaked at 10.1 MB.
    cfg = toy_config(toy_code, toy_key)
    info = np.random.default_rng(84).integers(0, 2, (20_000, toy_code.info_bits), dtype=np.uint8)
    ok = [True] * len(info)
    session._unit_keys(cfg, info[:10], ok[:10])  # warms numpy's first-use caches
    tracemalloc.start()
    try:
        keys = session._unit_keys(cfg, info, ok)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(keys) == len(info) and np.array_equal(keys[-1], extract_key(info[-1], cfg.key_bits, HashSeed.of(12, 19_999)))
    assert peak <= 8e6


def test_block_layout_peaks_in_proportion_to_its_blocks():
    # The design-point layout at the CLI's 100 000-block cap: 6.4 MB
    # (tracemalloc, numpy 2.4), where a position array of its blocks' bits
    # peaked at ~2.1 GB.
    key = sample_key(2496, 3.5, np.random.default_rng(82))
    tracemalloc.start()
    try:
        group, index, chunks = session._block_layout(key, 1336, 100_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(group) == len(index) == 100_000 and chunks > 100_000
    assert peak <= 16e6
