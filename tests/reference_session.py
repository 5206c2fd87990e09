"""Reference protocol session for the end-to-end equivalence tests.

A slow rebuild of `noisekey.session.run_session` from the contracts the
package documents, as plain loops over chunks, frames, blocks and units. It
is slow on purpose and must not be optimised, and it shares none of the
session's code:

- The plan is the first `blocks_target` blocks of
  `reference_layout.completed_blocks`, over the fewest payload chunks that
  complete them.
- Chunk i is the i-th `integers(0, 2, m*k, uint8)` draw of
  `default_rng(SeedSequence(source_seed, spawn_key=(7,)))`.
- A block's parity is `reference_rs.remainder_parity` of its symbols, m
  bits each, most significant bit first.
- The frames are the payload chunks in order, then one parity frame per
  planned block in plan order.
- Recipient r (bob 1, eve 2) gets each frame with bit i flipped where
  `default_rng(SeedSequence(seed, spawn_key=(r, kind, index, group)))
  .random(bits)[i] < ber`; parity frames pass untouched in method 1.
- Bob cuts his payload stream by the same walk and decodes each block with
  `reference_rs.decode_block`. Unit u of `unit_blocks` consecutive blocks
  hashes to `T @ bits % 2`, T the key_bits x n_in Toeplitz matrix with
  T[i, j] = diag[n_in - 1 + i - j] and diag the n_in + key_bits - 1 bits
  `default_rng(SeedSequence([hash_seed, u])).integers(0, 2, n, uint8)`;
  Bob has no key for a unit with a failed block.
- A unit is "failed" when Bob has no key, "agreed" when his corrected bits
  equal Alice's, and "miscorrected" otherwise.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from noisekey.channel import Frame

import reference_rs
from reference_layout import completed_blocks

SOURCE_STREAM = 7
RECIPIENTS = {"bob": 1, "eve": 2}
KIND_INFO, KIND_PARITY = 0, 1
GROUP_NONE = 0
LABELS = ("agreed", "failed", "miscorrected")


def to_symbols(bits, m: int) -> list[int]:
    return [int("".join(str(int(b)) for b in bits[i : i + m]), 2) for i in range(0, len(bits), m)]


def to_bits(symbols, m: int) -> np.ndarray:
    return np.array([(s >> (m - 1 - b)) & 1 for s in symbols for b in range(m)], dtype=np.uint8)


def to_hex(bits) -> str:
    return f"{int(''.join(str(int(b)) for b in bits), 2):0{-(-len(bits) // 4)}x}"


def walk(chunks, key, size: int) -> list:
    """Every (group, index, bits) block the chunks complete, in wire order."""
    stream = np.concatenate(chunks) if chunks else np.zeros(0, dtype=np.uint8)
    return list(completed_blocks(stream, key, size))


def toeplitz(hash_seed: int, unit: int, n_in: int, key_bits: int) -> np.ndarray:
    rng = np.random.default_rng(np.random.SeedSequence([hash_seed, unit]))
    diag = rng.integers(0, 2, n_in + key_bits - 1, dtype=np.uint8)
    i, j = np.arange(key_bits)[:, None], np.arange(n_in)[None, :]
    return diag[n_in - 1 + i - j].astype(np.int64)


def deliver(frame: Frame, channel, recipient: str) -> Frame:
    ber = channel.bob_ber if recipient == "bob" else channel.eve_ber
    if frame.kind == KIND_PARITY and channel.method == 1 or ber == 0.0:
        return frame
    spawn_key = (RECIPIENTS[recipient], frame.kind, frame.index, frame.group)
    rng = np.random.default_rng(np.random.SeedSequence(channel.seed, spawn_key=spawn_key))
    flips = rng.random(len(frame.payload)) < ber
    return Frame(frame.method, frame.group, frame.index, frame.kind, frame.payload ^ flips)


def reference_session(config) -> dict:
    """{"report": the `SessionReport.to_dict` form, "keys_alice", "keys_bob"
    (None for a failed unit), "eve_capture"} of one session."""
    code, key, channel = config.code, config.key, config.channel
    m, size, target = code.m, code.info_bits, config.blocks_target

    source = np.random.default_rng(np.random.SeedSequence(config.source_seed, spawn_key=(SOURCE_STREAM,)))
    chunks = []
    while len(walk(chunks, key, size)) < target:
        chunks.append(source.integers(0, 2, size, dtype=np.uint8))
    plan = walk(chunks, key, size)[:target]

    frames = [Frame(channel.method, GROUP_NONE, i, KIND_INFO, chunk) for i, chunk in enumerate(chunks)]
    for group, index, bits in plan:
        parity = to_bits(reference_rs.remainder_parity(code, to_symbols(bits, m)), m)
        frames.append(Frame(channel.method, group, index, KIND_PARITY, parity))
    bob = [deliver(frame, channel, "bob") for frame in frames]
    eve = [deliver(frame, channel, "eve") for frame in frames]

    bob_parity = {(f.group, f.index): f.payload for f in bob if f.kind == KIND_PARITY}
    bob_blocks, bob_bits = [], []
    for group, index, bits in walk([f.payload for f in bob if f.kind == KIND_INFO], key, size)[:target]:
        word = to_symbols(bits, m) + to_symbols(bob_parity[group, index], m)
        result = reference_rs.decode_block(code, word)
        bob_blocks.append(
            {"group": group, "index": index, "ok": result.ok, "corrected": result.corrected,
             "reason": result.reason}
        )
        bob_bits.append(to_bits(result.info, m) if result.ok else None)

    keys_alice, keys_bob, labels = [], [], []
    for unit in range(target // config.unit_blocks):
        rows = range(unit * config.unit_blocks, (unit + 1) * config.unit_blocks)
        alice = np.concatenate([plan[row][2] for row in rows])
        matrix = toeplitz(config.hash_seed, unit, len(alice), config.key_bits)
        keys_alice.append((matrix @ alice % 2).astype(np.uint8))
        if any(bob_bits[row] is None for row in rows):
            keys_bob.append(None)
            labels.append("failed")
            continue
        corrected = np.concatenate([bob_bits[row] for row in rows])
        keys_bob.append((matrix @ corrected % 2).astype(np.uint8))
        labels.append("agreed" if np.array_equal(corrected, alice) else "miscorrected")

    eve_chunks = [f.payload for f in eve if f.kind == KIND_INFO]
    flips = walk([a ^ e for a, e in zip(chunks, eve_chunks)], key, size)[:target]
    units = len(keys_alice)
    report = {
        "key_bits": config.key_bits,
        "keys_alice": [to_hex(k) for k in keys_alice],
        "keys_bob": [None if k is None else to_hex(k) for k in keys_bob],
        "agreement_rate": labels.count("agreed") / units if units else None,
        "bob_blocks": bob_blocks,
        "eve_block_flips": [int(bits.sum()) for _, _, bits in flips],
        "blocks_completed": len(plan),
        "units_completed": units,
        "unit_outcomes": {label: labels.count(label) for label in LABELS},
        "block_failure_reasons": dict(
            sorted(Counter(b["reason"] for b in bob_blocks if not b["ok"]).items())
        ),
    }
    return {"report": report, "keys_alice": keys_alice, "keys_bob": keys_bob, "eve_capture": eve}
