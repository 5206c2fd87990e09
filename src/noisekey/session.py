"""End-to-end protocol runs: transmitter, channel, receiver, eavesdropper tap.

The transmitter draws a random bit stream, sends it in fixed-size payload
frames, routes a private copy into two groups with the shared key, and
publishes one parity frame per block. Secret keys fall out of hashing
`unit_blocks` consecutive blocks in wire completion order: by the payload
chunk that holds a block's last bit, group I before group II within a
chunk. Both ends lay out the session's `blocks_target` blocks from the key
alone. The receiver regroups its noisy copy into that plan, error-corrects
each block against the published parity, and hashes the corrected bits; a
unit with any failed block yields no key rather than a partial one.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from ._rules import as_integer, step_rows
from .amplify import CapacityParams, HashSeed, capacity_lower_bound, extract_key
from .channel import (
    ChannelConfig,
    Frame,
    FramingError,
    GROUP_NONE,
    KIND_INFO,
    KIND_PARITY,
    bit_chunks,
    deliver,
    entropy_words,
    payload_stream,
    read_frames,
)
# Nothing here calls _key_mask: it is imported for bench/layers.py to wrap.
from .grouping import CommonKey, _key_mask, bits_to_hex, block_fits_key_period, route
from .rs import CodeSpec, DecodeResult, bits_to_symbols, decode_block, encode_parity, symbols_to_bits, syndromes

_SOURCE_STREAM = 7


@dataclass(frozen=True, eq=False)
class SessionConfig:
    key: CommonKey
    code: CodeSpec
    channel: ChannelConfig
    blocks_target: int
    unit_blocks: int = 1
    fluctuation_sigmas: float = 3.0
    safety_bits: int = 10
    key_bits: int | None = None     # defaults to the largest rate-safe size
    source_seed: int = 0
    hash_seed: int = 0

    def __post_init__(self):
        if not self.key.admissible:
            raise ValueError("session key falls outside the admissible set")
        if not block_fits_key_period(
            self.key.length, self.key.balance_limit, self.code.m, self.code.k
        ):
            raise ValueError(
                "no block spans a full key period of every key an infinite balance "
                "limit admits; sample the key under a finite limit"
                if math.isinf(self.key.balance_limit)
                else "one block does not span a full key period; enlarge the block "
                "or shorten the key"
            )
        object.__setattr__(self, "blocks_target", as_integer(self.blocks_target, "blocks_target", 0))
        for name in ("unit_blocks", "safety_bits"):
            object.__setattr__(self, name, as_integer(getattr(self, name), name, 1))
        bound = capacity_lower_bound(self.capacity_params)
        if self.key_bits is None:
            object.__setattr__(self, "key_bits", bound.key_bits_max)
        object.__setattr__(self, "key_bits", as_integer(self.key_bits, "key_bits"))
        if self.key_bits > bound.key_bits_max:
            raise ValueError(
                f"{self.key_bits} key bits per unit exceeds the rate bound "
                f"({bound.key_bits_max})"
            )
        if self.key_bits < 1:
            raise ValueError("no secure key bits available at these parameters")

    @property
    def capacity_params(self) -> CapacityParams:
        return CapacityParams(
            code=self.code,
            eve_ber=self.channel.eve_ber,
            unit_blocks=self.unit_blocks,
            fluctuation_sigmas=self.fluctuation_sigmas,
            safety_bits=self.safety_bits,
        )


@dataclass(frozen=True)
class BlockRecord:
    group: int
    index: int          # per-group ordinal
    info_bits: np.ndarray


@dataclass(frozen=True)
class BlockOutcome:
    group: int
    index: int
    ok: bool
    corrected: int
    reason: str | None  # why a failed block failed: a decoder reason or "missing parity"


@dataclass(frozen=True, eq=False)
class TransmitterRun:
    frames: list
    keys: list
    blocks: list
    stream: np.ndarray
    info: np.ndarray    # (blocks, m*k) info bits of each block, the rows of `blocks`


@dataclass(frozen=True, eq=False)
class ReceiverRun:
    keys: list          # one entry per unit; None marks a failed unit
    outcomes: list
    bits: np.ndarray    # (blocks, m*k) corrected info bits; a zero row where the block failed


@dataclass(frozen=True, eq=False)
class SessionReport:
    keys_alice: list
    keys_bob: list
    agreement_rate: float | None
    bob_outcomes: list
    eve_block_flips: list
    eve_capture: list
    blocks_completed: int
    units_completed: int
    key_bits: int
    unit_outcomes: tuple = ()   # per unit: "agreed", "failed" or "miscorrected"

    def to_dict(self) -> dict:
        """JSON form; keys are `bits_to_hex` strings, None where Bob has no key."""
        return {
            "key_bits": self.key_bits,
            "keys_alice": [bits_to_hex(k) for k in self.keys_alice],
            "keys_bob": [None if k is None else bits_to_hex(k) for k in self.keys_bob],
            "agreement_rate": self.agreement_rate,
            "bob_blocks": [dict(vars(o)) for o in self.bob_outcomes],
            "eve_block_flips": list(map(int, self.eve_block_flips)),
            "blocks_completed": self.blocks_completed,
            "units_completed": self.units_completed,
            "unit_outcomes": {
                o: self.unit_outcomes.count(o) for o in ("agreed", "failed", "miscorrected")
            },
            "block_failure_reasons": dict(
                sorted(Counter(o.reason for o in self.bob_outcomes if not o.ok).items())
            ),
        }


def _block_layout(key: CommonKey, block_bits: int, blocks: int):
    """(group, per-group index) of a session's first `blocks` blocks, in
    wire completion order (by the payload chunk holding a block's last bit,
    group I before group II within a chunk), and the payload chunks the plan
    sends. They are among each group's first `blocks` blocks, located from
    the key's columns alone, so both ends compute the layout independently
    of bit values; a group with no columns has no blocks.
    """
    last = np.arange(1, blocks + 1) * block_bits - 1  # each block's last routed bit
    groups = [(g, cols) for g, cols in zip((1, 2), key.columns) if len(cols)]
    # Rank 2 * chunk in group I and 2 * chunk + 1 in group II; the stable
    # sort keeps each group's blocks in index order.
    ranks = np.concatenate([
        (last // len(cols) * key.length + cols[last % len(cols)]) // block_bits * 2 + g - 1
        for g, cols in groups
    ])
    order = np.argsort(ranks, kind="stable")[:blocks]
    which, index = np.divmod(order, blocks)
    group = np.array([g for g, _ in groups])[which]
    return group, index, int(ranks[order[-1]]) // 2 + 1 if blocks else 0


def _block_rows(stream: np.ndarray, key: CommonKey, block_bits: int, group, index) -> np.ndarray:
    """The (B, block_bits) bit rows of blocks (group[i], index[i]) cut from
    the 1-d 0/1 `stream` as the key routes it."""
    cuts = route(stream, key).blocks(block_bits)
    rows = np.empty((len(group), block_bits), dtype=np.uint8)
    for g, cut in zip((1, 2), cuts):
        here = group == g
        rows[here] = cut[index[here]]
    return rows


def _unit_keys(config: SessionConfig, info: np.ndarray, ok: list) -> list:
    """One key per whole unit of `unit_blocks` consecutive (blocks, m*k) info
    rows, all in one extract_key call; None for a unit with a row not `ok`."""
    size = config.unit_blocks
    units = len(info) // size
    rows = info[: units * size].reshape(units, size * info.shape[1])
    seeds = [HashSeed.of(config.hash_seed, unit) for unit in range(units)]
    whole = np.reshape(ok[: units * size], (units, size)).all(axis=1)
    return [key if fine else None for key, fine in zip(extract_key(rows, config.key_bits, seeds), whole)]


def run_transmitter(config: SessionConfig) -> TransmitterRun:
    """Produce the frame stream and the transmitter-side secret keys."""
    code = config.code
    block_bits = code.info_bits
    group, index, sent = _block_layout(config.key, block_bits, config.blocks_target)
    # Frame payloads and the stream are views of one read-only chunk array.
    chunks = bit_chunks(entropy_words(config.source_seed, (_SOURCE_STREAM,)), sent, block_bits)
    chunks.setflags(write=False)
    frames = [
        Frame(method=config.channel.method, group=GROUP_NONE, index=i, kind=KIND_INFO, payload=c)
        for i, c in enumerate(chunks)
    ]
    stream = chunks.reshape(-1)
    info = _block_rows(stream, config.key, block_bits, group, index)
    parity = encode_parity(code, info)
    blocks = [
        BlockRecord(group=g, index=j, info_bits=bits)
        for g, j, bits in zip(group.tolist(), index.tolist(), info)
    ]
    frames += [
        Frame(method=config.channel.method, group=b.group, index=b.index, kind=KIND_PARITY, payload=p)
        for b, p in zip(blocks, parity)
    ]
    keys = _unit_keys(config, info, [True] * len(info))
    return TransmitterRun(frames=frames, keys=keys, blocks=blocks, stream=stream, info=info)


_MISSING_PARITY = DecodeResult(ok=False, info=None, corrected=0, reason="missing parity")


def decode_rows(code: CodeSpec, info: np.ndarray, parity: list) -> tuple[list, np.ndarray]:
    """(DecodeResults, (B, m*k) corrected bits, a zero row where a block
    failed) of the (B, m*k) `info` rows against their parity rows, a None
    one failing as "missing parity". Each batch takes one `syndromes` call and
    one symbol conversion each way, of its m*n int64 word bits per block;
    decode_block runs once per row with parity."""
    results: list[DecodeResult] = []
    bits = np.zeros((len(info), code.info_bits), dtype=np.uint8)
    rows = step_rows(8 * code.m * code.n)
    for start in range(0, len(info), rows):
        batch = parity[start : start + rows]
        words = np.zeros((len(batch), code.m * code.n), dtype=np.uint8)
        words[:, : code.info_bits] = info[start : start + rows]
        for word, row in zip(words, batch):
            if row is not None:
                word[code.info_bits :] = row
        done = [
            _MISSING_PARITY if row is None else decode_block(code, symbols, synd)
            for symbols, synd, row in zip(bits_to_symbols(words, code.m), syndromes(code, words), batch)
        ]
        decoded = np.reshape([r.info for r in done if r.ok], (-1, code.k))
        bits[start : start + rows][[r.ok for r in done]] = symbols_to_bits(decoded, code.m)
        results += done
    return results, bits


def run_receiver(frames, config: SessionConfig) -> ReceiverRun:
    """Regroup, decode, and hash the delivered frames into secret keys. The
    frames must pass `read_frames` at the session's method, name only planned
    blocks and hold exactly the plan's payload frames, else FramingError; a
    block without its parity frame fails."""
    code = config.code
    groups, indices, chunks = _block_layout(config.key, code.info_bits, config.blocks_target)
    _, stream, parity = read_frames(frames, code.info_bits, code.parity_bits, config.channel.method)
    plan = dict.fromkeys(zip(groups.tolist(), indices.tolist()))
    for tag, frame in parity.items():
        if tag not in plan:
            raise FramingError(f"{frame} refused: it names no planned block")
    if len(stream) != chunks * code.info_bits:
        raise FramingError(f"{len(stream) // code.info_bits} payload frames arrived, not the plan's {chunks}")
    row_parity = [parity[tag].payload if tag in parity else None for tag in plan]
    info = _block_rows(stream, config.key, code.info_bits, groups, indices)
    results, bits = decode_rows(code, info, row_parity)
    outcomes = [BlockOutcome(g, j, r.ok, r.corrected, r.reason) for (g, j), r in zip(plan, results)]
    return ReceiverRun(keys=_unit_keys(config, bits, [r.ok for r in results]), outcomes=outcomes, bits=bits)


def unit_outcomes(tx: TransmitterRun, rx: ReceiverRun, unit_blocks: int) -> tuple:
    """Per unit: "failed" (Bob has no key), "miscorrected" (every block
    decoded but Bob's corrected info bits differ from Alice's) or "agreed"."""
    same = (rx.bits == tx.info).all(axis=1)
    units = len(rx.keys)
    agreed = same[: units * unit_blocks].reshape(units, unit_blocks).all(axis=1)
    return tuple(
        "failed" if key is None else "agreed" if fine else "miscorrected"
        for key, fine in zip(rx.keys, agreed)
    )


def run_session(config: SessionConfig) -> SessionReport:
    """Wire transmitter -> channel -> receiver, with the tap capturing at its own rate."""
    tx = run_transmitter(config)
    bob_frames = [deliver(f, config.channel, "bob") for f in tx.frames]
    eve_frames = [deliver(f, config.channel, "eve") for f in tx.frames]
    rx = run_receiver(bob_frames, config)

    group, index, _ = _block_layout(config.key, config.code.info_bits, config.blocks_target)
    eve_info = _block_rows(payload_stream(eve_frames), config.key, config.code.info_bits, group, index)
    eve_flips = (tx.info ^ eve_info).sum(axis=1).tolist()

    outcomes = unit_outcomes(tx, rx, config.unit_blocks)
    units = len(tx.keys)
    return SessionReport(
        keys_alice=tx.keys,
        keys_bob=rx.keys,
        agreement_rate=outcomes.count("agreed") / units if units else None,
        bob_outcomes=rx.outcomes,
        eve_block_flips=eve_flips,
        eve_capture=eve_frames,
        blocks_completed=len(tx.blocks),
        units_completed=units,
        key_bits=config.key_bits,
        unit_outcomes=outcomes,
    )
