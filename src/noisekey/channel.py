"""Memory-less binary symmetric channel simulator and the frame wire format.

Two delivery modes exist. In method 1 the parity frames reach both
recipients error-free (an authenticated public side channel); in method 2
they cross the same noisy channel as the payload stream. The eavesdropper
taps at her own (lower or equal) bit-error rate in either mode.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .rs import all_bits, bit_row

MAGIC = b"NKY1"
VERSION = 1
_HEADER = struct.Struct(">4sBBBIBI")

KIND_INFO = 0
KIND_PARITY = 1

GROUP_NONE = 0
GROUP_I = 1
GROUP_II = 2

# Domain separation constants for per-recipient RNG sub-streams.
_RECIPIENT_STREAM = {"bob": 1, "eve": 2}


class FrameParseError(ValueError):
    """Raised when bytes cannot be decoded into a frame."""


class FramingError(ValueError):
    """A frame stream that does not fit what a transmitter sends."""


@dataclass(frozen=True, eq=False)
class ChannelConfig:
    eve_ber: float
    bob_ber: float
    method: int = 1
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.eve_ber <= 0.5 or not 0.0 <= self.bob_ber <= 0.5:
            raise ValueError("bit-error rates must lie in [0, 1/2]")
        if self.bob_ber < self.eve_ber:
            raise ValueError("the tap point sees the channel at least as cleanly as the receiver")
        if self.method not in (1, 2):
            raise ValueError(f"method must be 1 or 2, got {self.method}")


@dataclass(frozen=True, eq=False)
class Frame:
    method: int
    group: int
    index: int
    kind: int
    payload: np.ndarray     # bit array

    def __eq__(self, other):
        if not isinstance(other, Frame):
            return NotImplemented
        return (
            self.method == other.method
            and self.group == other.group
            and self.index == other.index
            and self.kind == other.kind
            and np.array_equal(self.payload, other.payload)
        )

    def __str__(self):
        return f"frame (method {self.method}, kind {self.kind}, group {self.group}, index {self.index})"


def _flip(bits, p: float, rng: np.random.Generator) -> np.ndarray:
    """`bsc_transmit` unchecked, for the payloads `deliver` passes on."""
    bits = np.asarray(bits, dtype=np.uint8)
    return bits ^ (rng.random(len(bits)) < p)


def bsc_transmit(bits, p: float, rng: np.random.Generator) -> np.ndarray:
    """Flip each bit of a 1-d 0/1 array independently with probability p;
    ValueError for a p outside [0, 1] or any other array."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("flip probability must lie in [0, 1]")
    return _flip(bit_row(bits, "channel bits"), p, rng)


def _append_words(words: list, values) -> None:
    # Each value as its little-endian 32-bit words, one word for 0.
    for value in values:
        if type(value) is not int:
            if not isinstance(value, (int, np.integer)):
                raise TypeError(f"seed must be integer, got {value!r}")
            value = int(value)
        if value < 0:
            raise ValueError(f"expected non-negative integer, got {value}")
        words.append(value & 0xFFFFFFFF)
        while value > 0xFFFFFFFF:
            value >>= 32
            words.append(value & 0xFFFFFFFF)


def entropy_words(entropy, spawn_key=()) -> np.ndarray:
    """The uint32 words numpy's SeedSequence(entropy, spawn_key=spawn_key)
    assembles and mixes, so that np.random.PCG64(entropy_words(e, key)) is
    the generator of SeedSequence(e, spawn_key=key) without building it.

    `entropy` is an int or a sequence of ints. Every int becomes its
    little-endian 32-bit words, 0 one word; with a spawn key the run entropy
    is zero-padded to the 4-word pool before the spawn key's words. A
    negative value raises ValueError and a non-integer TypeError, as numpy
    does.
    """
    words: list[int] = []
    _append_words(words, entropy if hasattr(entropy, "__iter__") else (entropy,))
    if spawn_key:
        words += [0] * (4 - len(words))
        _append_words(words, spawn_key)
    return np.array(words, dtype=np.uint32)


# numpy's SeedSequence.generate_state: output word i is pool word i % 4
# XORed with _STATE_MULT[i], times _STATE_MULT[i + 1], its top half then
# XORed into its low half. Each multiplier is the one before times 0x58F38DED.
_STATE_MULT = np.array(
    [0x8B51F9DD * pow(0x58F38DED, i, 1 << 32) % (1 << 32) for i in range(9)], dtype=np.uint32
)
_STATE_XOR, _STATE_TIMES = _STATE_MULT[:-1].reshape(2, 4), _STATE_MULT[1:].reshape(2, 4)
_STATE_INTS = tuple(_STATE_MULT.tolist())


class _State(ISeedSequence):
    """Hands PCG64 a generate_state(4, uint64) result computed elsewhere."""

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        return self.state


def _pcg64(words) -> np.random.PCG64:
    """np.random.PCG64(words), bit for bit, for uint32 entropy words as
    `entropy_words` gives them.

    This is the one-row form of the rule `pcg64_raw` runs across lanes: the
    4-word pool is numpy's own SeedSequence(words).pool, and
    generate_state(4, uint64) is computed from it in Python ints, unrolled,
    rather than by numpy's Python-level loop.
    """
    p0, p1, p2, p3 = np.random.SeedSequence(words).pool.tolist()
    c0, c1, c2, c3, c4, c5, c6, c7, c8 = _STATE_INTS
    low = 0xFFFFFFFF
    w0, w1, w2, w3 = (p0 ^ c0) * c1 & low, (p1 ^ c1) * c2 & low, (p2 ^ c2) * c3 & low, (p3 ^ c3) * c4 & low
    w4, w5, w6, w7 = (p0 ^ c4) * c5 & low, (p1 ^ c5) * c6 & low, (p2 ^ c6) * c7 & low, (p3 ^ c7) * c8 & low
    # Each word's top half XORed into its low half; paired as numpy pairs
    # them, low word first.
    state = np.array(
        [
            (w0 ^ w0 >> 16) | (w1 ^ w1 >> 16) << 32,
            (w2 ^ w2 >> 16) | (w3 ^ w3 >> 16) << 32,
            (w4 ^ w4 >> 16) | (w5 ^ w5 >> 16) << 32,
            (w6 ^ w6 >> 16) | (w7 ^ w7 >> 16) << 32,
        ],
        dtype=np.uint64,
    )
    return np.random.PCG64(_State(state))


def pcg64_raw(words, count: int) -> np.ndarray:
    """(U, count) uint64, row u equal to np.random.PCG64(words[u]).random_raw(count),
    for U rows of uint32 entropy words as `entropy_words` gives them: a (U, W)
    array, or a sequence of rows whose lengths may differ.

    Each row's 4-word pool is numpy's own SeedSequence(words[u]).pool;
    generate_state(4, uint64) then runs across all U pools at once in
    uint32 array arithmetic, and each row's PCG64 seeds itself from that
    state and draws in numpy's C code.
    """
    pool = np.empty((len(words), 4), dtype=np.uint32)
    for row, entropy in zip(pool, words):
        row[:] = np.random.SeedSequence(entropy).pool
    state = pool[:, None, :] ^ _STATE_XOR
    state *= _STATE_TIMES
    state ^= state >> 16
    # Paired as numpy pairs them: little-endian, low word first.
    state = state.reshape(-1, 8).astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)
    raw = np.empty((len(words), count), dtype=np.uint64)
    for row, seed in zip(raw, state):
        row[:] = np.random.PCG64(_State(seed)).random_raw(count)
    return raw


def raw_count(chunks: int, size: int) -> int:
    """The 64-bit `random_raw` outputs that `chunks` successive size-bit draws take."""
    return -(-chunks * -(-size // 4) // 2)


def raw_bits(raw: np.ndarray, chunks: int, size: int) -> np.ndarray:
    """(R, chunks, size) uint8 bits of the (R, raw_count(chunks, size)) raw
    outputs of R generators: row r holds the `chunks` successive
    Generator(g).integers(0, 2, size, uint8) draws of the generator g whose
    random_raw gave raw[r].

    By Lemire's method each draw takes ceil(size/4) 32-bit words, the low
    half of each 64-bit output first, and each bit is the top bit of a byte,
    low byte first; the unused bytes of a draw's last word are dropped, as
    numpy's per-call byte buffer drops them.
    """
    per_chunk = 4 * -(-size // 4)
    octets = raw.astype("<u8", copy=False).view(np.uint8)[:, : chunks * per_chunk]
    return octets.reshape(len(raw), chunks, per_chunk)[:, :, :size] >> 7


def bit_chunks(words: np.ndarray, chunks: int, size: int) -> np.ndarray:
    """(chunks, size) uint8 bits, row i the i-th of `chunks` successive
    Generator(PCG64(words)).integers(0, 2, size, uint8) draws, in one raw read."""
    raw = _pcg64(words).random_raw(raw_count(chunks, size))
    return raw_bits(raw[None], chunks, size)[0]


def _frame_rng(config: ChannelConfig, recipient: str, frame: Frame) -> np.random.Generator:
    words = entropy_words(
        config.seed, (_RECIPIENT_STREAM[recipient], frame.kind, frame.index, frame.group)
    )
    return np.random.Generator(_pcg64(words))


def deliver(frame: Frame, config: ChannelConfig, recipient: str) -> Frame:
    """Pass one frame through the channel as seen by `recipient` (bob or eve).

    Parity frames are untouched in method 1 and treated like payload frames
    in method 2. The noise comes from a sub-stream derived from (seed,
    recipient, frame identity), so deliveries are reproducible and
    independent per recipient.
    """
    if recipient not in _RECIPIENT_STREAM:
        raise ValueError(f"recipient must be 'bob' or 'eve', got {recipient!r}")
    if frame.kind == KIND_PARITY and config.method == 1:
        return frame
    p = config.bob_ber if recipient == "bob" else config.eve_ber
    if p == 0.0:
        return frame
    noisy = _flip(frame.payload, p, _frame_rng(config, recipient, frame))
    return Frame(method=frame.method, group=frame.group, index=frame.index, kind=frame.kind, payload=noisy)


def payload_stream(frames) -> np.ndarray:
    """The bits of the payload frames among `frames`, in their order."""
    payloads = [f.payload for f in frames if f.kind == KIND_INFO]
    return np.concatenate(payloads or [np.zeros(0, dtype=np.uint8)])


def read_frames(frames, payload_bits: int, parity_bits: int, method=None):
    """(method, payload stream, parity) of a frame stream as a transmitter
    sends it: each frame carries `method` (default: the first frame's) and is
    the next payload frame of group 0, of payload_bits bits, or a group I or
    II parity frame of a new tag, of parity_bits bits, all holding only 0 and
    1; else FramingError naming a frame that is not. `parity` maps (group,
    index) to each parity frame in arrival order."""
    frames = list(frames)
    method = frames[0].method if method is None and frames else method
    payloads, parity = 0, {}
    for frame in frames:
        tag = (frame.group, frame.index)
        size = payload_bits if frame.kind == KIND_INFO else parity_bits
        if frame.method != method:
            why = f"the stream runs method {method}"
        elif frame.kind == KIND_INFO and tag != (GROUP_NONE, payloads):
            why = f"payload frame {payloads} of group {GROUP_NONE} is due"
        elif frame.kind != KIND_INFO and (frame.kind != KIND_PARITY or frame.group not in (GROUP_I, GROUP_II)):
            why = "it is neither a payload frame nor a group I or II parity frame"
        elif tag in parity:
            why = "its block already has a parity frame"
        elif np.shape(frame.payload) != (size,):
            why = f"its payload has shape {np.shape(frame.payload)}, not ({size},)"
        elif frame.kind == KIND_INFO:
            payloads += 1
            continue
        else:
            parity[tag] = frame
            continue
        raise FramingError(f"{frame} refused: {why}")
    stream = payload_stream(frames)
    if not all_bits(stream) or parity and not all_bits(np.concatenate([f.payload for f in parity.values()])):
        bad = next(f for f in frames if not all_bits(np.asarray(f.payload)))
        raise FramingError(f"{bad} refused: its payload holds values other than 0 and 1")
    return method, stream, parity


def encode_frame(frame: Frame) -> bytes:
    """Serialize: magic, version, method, group, index, kind, bit length, payload.

    Payload bits are packed MSB first and zero-padded to a byte boundary.
    A header field that is not an integer in its unsigned range raises
    ValueError naming the field, and so does a payload that is not 1-d or
    holds anything but 0 and 1.
    """
    for name, value, limit in (
        ("method", frame.method, 0xFF),
        ("group", frame.group, 0xFF),
        ("index", frame.index, 0xFFFFFFFF),
        ("kind", frame.kind, 0xFF),
    ):
        if not isinstance(value, (int, np.integer)) or not 0 <= value <= limit:
            raise ValueError(f"frame {name} must be an integer in 0..{limit}, got {value!r}")
    payload = bit_row(frame.payload, "frame payload")
    header = _HEADER.pack(
        MAGIC, VERSION, frame.method, frame.group, frame.index, frame.kind, len(payload)
    )
    return header + np.packbits(payload, bitorder="big").tobytes()


def decode_frame(data: bytes) -> Frame:
    """Parse one frame; `read_frames` checks its payload size against the code."""
    if len(data) < _HEADER.size:
        raise FrameParseError("truncated header")
    magic, version, method, group, index, kind, bitlen = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise FrameParseError(f"bad magic {magic!r}")
    if version != VERSION:
        raise FrameParseError(f"unsupported version {version}")
    if method not in (1, 2):
        raise FrameParseError(f"bad method byte {method}")
    if group not in (GROUP_NONE, GROUP_I, GROUP_II):
        raise FrameParseError(f"bad group byte {group}")
    if kind not in (KIND_INFO, KIND_PARITY):
        raise FrameParseError(f"bad kind byte {kind}")
    nbytes = -(-bitlen // 8)
    if len(data) != _HEADER.size + nbytes:
        raise FrameParseError(f"payload size mismatch: {len(data) - _HEADER.size} bytes for {bitlen} bits")
    payload = np.unpackbits(
        np.frombuffer(data, dtype=np.uint8, offset=_HEADER.size), bitorder="big"
    )[:bitlen]
    return Frame(method=method, group=group, index=index, kind=kind, payload=payload)


def write_capture(path, frames) -> None:
    """Length-prefixed concatenation of encoded frames."""
    with open(path, "wb") as fh:
        for frame in frames:
            blob = encode_frame(frame)
            fh.write(struct.pack(">I", len(blob)))
            fh.write(blob)


def read_capture(path) -> list[Frame]:
    """The frames of a `write_capture` file; FrameParseError for a bad one or a short file."""
    with open(path, "rb") as fh:
        data = fh.read()
    frames, pos = [], 0
    while pos < len(data):
        if len(data) - pos < 4:
            raise FrameParseError("truncated length prefix")
        (size,) = struct.unpack_from(">I", data, pos)
        pos += 4
        if size > len(data) - pos:
            raise FrameParseError("truncated frame body")
        frames.append(decode_frame(data[pos : pos + size]))
        pos += size
    return frames
