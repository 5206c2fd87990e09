"""Desk-scale exhaustive eavesdropper.

Everything here enumerates, on deliberately tiny parameters, the candidate
sets the closed-form analysis only counts: information vectors consistent
with a parity vector, grouping keys consistent with an observed stream and
parity, the growth of those sets under hypothesized error patterns, and
the statistical test that separates the true key from impostors.

All enumerations are guarded so a mistyped parameter cannot turn a unit
test into an overnight job.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .amplify import BYTE_POPCOUNT
from .analysis import binomial_tail, block_failure_probability, noisy_symbols, symbol_error_rate
from .channel import GROUP_I, GROUP_II, FramingError, bsc_transmit, read_frames
from .grouping import CommonKey, balanced, require_key_length, require_window, route, split_stream
from .rs import CodeSpec, all_bits, bit_row, bits_to_symbols, encode_parity, symbols_to_bits
from .session import decode_rows

MAX_KEY_LENGTH = 20
MAX_INFO_ENUM_LOG2 = 24
MAX_WORK = 1 << 26
MAX_TAG_BITS = 62
_SHORT = "stream too short to fill one block for every key"
_FOUR_SIGMA = 0.5 * math.erfc(4.0 / math.sqrt(2.0))  # Pr{Z > 4}, the judge's test level
# symbols_to_bits makes ~16 bytes of int64 temporaries per bit it unpacks,
# so a step of 2^18 bits stays near 4 MB.
_UNPACK_STEP = 1 << 18


def admissible_keys(key_length: int, balance_limit: float) -> np.ndarray:
    """All admissible keys as a (count, key_length) bit matrix, MSB first, in
    increasing value order."""
    require_key_length(key_length)
    if key_length > MAX_KEY_LENGTH:
        raise ValueError(f"exhaustive key listing is capped at {MAX_KEY_LENGTH} bits")
    # Filter the values by popcount, then expand only the kept ones to bits.
    octets = np.arange(1 << key_length, dtype=np.uint32).astype(">u4").view(np.uint8).reshape(-1, 4)
    ones = sum(BYTE_POPCOUNT[octets[:, i]] for i in range(4))
    kept = octets[balanced(ones, key_length, balance_limit)]
    return np.ascontiguousarray(np.unpackbits(kept, axis=1)[:, 32 - key_length :])


@dataclass(frozen=True, eq=False)
class TinyScenario:
    """One observed situation handed to the exhaustive eavesdropper."""

    code: CodeSpec
    key_space: np.ndarray       # (count, key_length) admissible keys
    x: np.ndarray               # the tapped stream, possibly with bit errors
    parity: np.ndarray          # clean parity bits of the first group-I block


def make_scenario(
    code: CodeSpec,
    key_length: int,
    balance_limit: float,
    rng: np.random.Generator,
    ber: float = 0.0,
) -> tuple[TinyScenario, CommonKey]:
    """Draw a random stream and true key; leak the parity of the true key's
    first group-I block, as the transmitter computes it.

    The key space holds the admissible keys with at least one 1 (the zero key
    routes nothing to group I), and the stream's key_length * m*k bits fill
    the first block of each. With ber > 0 the scenario's stream carries the
    eavesdropper's bit errors while the parity stays clean. A ber outside
    [0, 1/2], NaN included, raises ValueError before anything is drawn.
    """
    if not 0.0 <= ber <= 0.5:
        raise ValueError(f"ber must lie in [0, 1/2], got {ber!r}")
    require_window(key_length, balance_limit)
    keys = admissible_keys(key_length, balance_limit)
    if balanced(0, key_length, balance_limit):
        keys = keys[1:]  # the all-zero key lists first
    stream_bits = key_length * code.info_bits
    x = rng.integers(0, 2, size=stream_bits, dtype=np.uint8)
    true_row = keys[rng.integers(0, len(keys))]
    true_key = CommonKey.from_bits(true_row, balance_limit)
    parity = encode_parity(code, split_stream(x, true_key).blocks(code.info_bits)[0][0])
    x_seen = bsc_transmit(x, ber, rng) if ber > 0.0 else x
    return TinyScenario(code=code, key_space=keys, x=x_seen, parity=parity), true_key


def _require_tag_width(bits: int) -> None:
    """ValueError unless `bits` parity bits fit one int64 tag."""
    if bits > MAX_TAG_BITS:
        raise ValueError(f"{bits} parity bits exceed the {MAX_TAG_BITS}-bit tag")


def _parity_tags(parity: np.ndarray) -> np.ndarray:
    """Each (…, p)-bit parity row as one int64, most significant bit first."""
    _require_tag_width(parity.shape[-1])
    return bits_to_symbols(parity, parity.shape[-1])[..., 0]


def _first_block_tags(code: CodeSpec, x: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Parity tag of the first group-I block under each key row, by GF(2) linearity.

    A key whose w group-I columns are pos routes block bit j = s*w + i from
    stream position s*key_length + pos[i] (`CommonKey.columns`); the tag
    XORs the unit tags T[j] of the set block bits. So column c, holding the
    key's i-th one, adds slots[w, i, c] = XOR_s x[s*key_length + c] *
    T[s*w + i]. Folding 8 columns' slots gives one table per key byte,
    indexed by (w, ones before the byte, byte value). The key's last block
    bit comes from its one slot (w, (m*k - 1) % w, c), which is flagged with
    bit MAX_TAG_BITS when that bit lies past the stream's end.
    """
    n_bits = code.info_bits
    count, klen = keys.shape
    if klen > MAX_KEY_LENGTH:
        raise ValueError(f"parity tags are listed for keys of at most {MAX_KEY_LENGTH} bits")
    x = bit_row(x, "stream bits")
    # Unit bit j's tag is that of the identity's row j, encoded once the width fits.
    _require_tag_width(code.parity_bits)
    unit_tags = _parity_tags(encode_parity(code, np.eye(n_bits, dtype=np.uint8)))
    # One row per key byte, first column in bit 0; flat packing beats axis=1 ~10x.
    flat = np.pad(keys, ((0, 0), (0, -klen % 8))).ravel()
    octets = np.packbits(flat, bitorder="little").reshape(count, -(-klen // 8)).T
    ones = BYTE_POPCOUNT[octets]
    weights = sum(ones, np.zeros(count, dtype=np.intp))
    top = int(weights.max(initial=0))
    rows = np.pad(x[: n_bits * klen].astype(np.int64), (0, max(0, n_bits * klen - len(x))))
    rows = rows.reshape(n_bits, klen)
    slots = np.zeros((top + 1, klen + 8, 8 * len(octets)), dtype=np.int64)
    for w in np.flatnonzero(np.bincount(weights)[1:]) + 1:
        periods = -(-n_bits // w)
        per_slot = np.pad(unit_tags, (0, periods * w - n_bits)).reshape(periods, w, 1)
        slots[w, :w, :klen] = np.bitwise_xor.reduce(rows[:periods, None] * per_slot, axis=0)
        last, reach = (n_bits - 1) % w, (n_bits - 1) // w * klen
        slots[w, last, :klen] |= (reach + np.arange(klen) >= len(x)).astype(np.int64) << MAX_TAG_BITS
    tags, ones_before = np.zeros(count, dtype=np.int64), np.zeros(count, dtype=np.intp)
    for b in range(len(octets)):
        # Extend the byte's table one column (one higher bit) at a time.
        span = 8 * b + 1
        table = np.zeros((top + 1, span, 1), dtype=np.int64)
        prefix_ones = np.zeros(1, dtype=np.intp)
        for c in range(8 * b, 8 * b + 8):
            step = table ^ slots[:, np.arange(span)[:, None] + prefix_ones, c]
            table = np.concatenate([table, step], axis=-1)
            prefix_ones = np.concatenate([prefix_ones, prefix_ones + 1])
        tags ^= table.ravel()[(weights * span + ones_before) * 256 + octets[b]]
        ones_before += ones[b]
    if (weights == 0).any() or (tags >> MAX_TAG_BITS).any():
        raise ValueError(_SHORT)
    return tags


def partition_by_parity(scenario: TinyScenario) -> dict[int, np.ndarray]:
    """Bucket the admissible keys by the parity tag their first block induces.

    Buckets come in increasing tag order, and each holds its keys in
    key-space order.
    """
    tags = _first_block_tags(scenario.code, scenario.x, scenario.key_space)
    # A stable sort of 8- or 16-bit integers is a radix sort: ~6x faster here.
    order = np.argsort(tags.astype(np.min_scalar_type(tags.max(initial=0))), kind="stable")
    tags = tags[order]
    starts = np.flatnonzero(np.diff(tags, prepend=-1))
    return dict(zip(tags[starts].tolist(), np.split(scenario.key_space[order], starts[1:])))


def _parity_row(code: CodeSpec, parity) -> np.ndarray:
    """The parity as uint8; ValueError unless it is m(n-k) entries, each 0 or 1."""
    parity = np.asarray(parity)
    if parity.shape != (code.parity_bits,) or not all_bits(parity):
        raise ValueError(f"parity must be {code.parity_bits} bits of 0 or 1, got shape {parity.shape}")
    return parity.astype(np.uint8)


def enumerate_info_candidates(code: CodeSpec, parity) -> np.ndarray:
    """All information bit vectors whose parity bits equal the given ones.

    Exhaustive over the 2^(m*k) info space, chunked to bound memory; the
    result always has exactly 2^(m*(2k-n)) rows of m*k bits.
    """
    if code.info_bits > MAX_INFO_ENUM_LOG2:
        raise ValueError(f"info space 2^{code.info_bits} exceeds the enumeration guard")
    parity = _parity_row(code, parity)
    total = 1 << code.info_bits
    hits = []
    chunk = 1 << 16
    for start in range(0, total, chunk):
        values = np.arange(start, min(start + chunk, total), dtype=np.int64)
        bits = symbols_to_bits(values[:, None], code.info_bits).astype(np.uint8)
        hits.append(bits[(encode_parity(code, bits) == parity).all(axis=1)])
    return np.concatenate(hits, axis=0)


@dataclass(frozen=True, eq=False)
class CandidateSet:
    """Key candidates grouped by the error pattern that explains them."""

    per_pattern: dict = field(default_factory=dict)   # pattern tuple -> key bit matrix

    @property
    def patterns(self) -> list[tuple]:
        return list(self.per_pattern.keys())

    @property
    def total_candidates(self) -> int:
        return sum(len(v) for v in self.per_pattern.values())


def _pattern_rows(places: int, width: int, max_weight: int) -> np.ndarray:
    """(P, places * width) bits setting at most max_weight places of width bits
    to nonzero values: by weight, then places, then values, each lexicographic.

    The values are listed in the narrowest unsigned dtype that holds them
    and unpacked to bits _UNPACK_STEP bits at a time."""
    dtype = np.min_scalar_type((1 << width) - 1)
    values = []
    for weight in range(max_weight + 1):
        at = np.array(list(itertools.combinations(range(places), weight)), dtype=np.intp)
        set_to = np.array(list(itertools.product(range(1, 1 << width), repeat=weight)), dtype=dtype)
        rows = np.zeros((len(at), len(set_to), places), dtype=dtype)
        rows[np.arange(len(at))[:, None, None], np.arange(len(set_to))[:, None], at[:, None]] = set_to
        values.append(rows.reshape(-1, places))
    symbols = np.concatenate(values)
    bits = np.empty((len(symbols), places * width), dtype=np.uint8)
    step = max(1, _UNPACK_STEP // (places * width))
    for r in range(0, len(symbols), step):
        bits[r : r + step] = symbols_to_bits(symbols[r : r + step], width)
    return bits


def enumerate_with_errors(scenario: TinyScenario, max_weight: int, unit: str = "symbol") -> CandidateSet:
    """Candidate keys per hypothesized error pattern of weight <= max_weight.

    unit='symbol' sets up to max_weight of the k symbols to nonzero values,
    unit='bit' flips up to max_weight of the m*k bits. The patterns are
    counted before any is listed: ValueError if the keys plus the m*k bits of
    a pattern's row, times the patterns, exceed MAX_WORK. Each pattern e
    shifts the matching parity to observed + parity(e); patterns differing as
    symbol vectors of weight <= t therefore select pairwise disjoint key sets.
    """
    code = scenario.code
    parity = _parity_row(code, scenario.parity)
    if not isinstance(max_weight, (int, np.integer)) or not 0 <= max_weight <= code.t:
        raise ValueError(f"max_weight must be an integer in [0, {code.t}]: heavier patterns are not separable")
    if unit not in ("symbol", "bit"):
        raise ValueError(f"unknown pattern unit {unit!r}")
    width = code.m if unit == "symbol" else 1
    places = code.info_bits // width
    count = sum(math.comb(places, w) * ((1 << width) - 1) ** w for w in range(max_weight + 1))
    if (len(scenario.key_space) + code.info_bits) * count > MAX_WORK:
        raise ValueError("scenario exceeds the enumeration work guard")
    buckets = partition_by_parity(scenario)
    empty = scenario.key_space[:0]
    rows = _pattern_rows(places, width, max_weight)
    patterns = map(tuple, bits_to_symbols(rows, code.m).tolist())
    targets = _parity_tags(encode_parity(code, rows) ^ parity).tolist()
    return CandidateSet(per_pattern={p: buckets.get(t, empty) for p, t in zip(patterns, targets)})


@dataclass(frozen=True)
class Judgement:
    """Outcome of testing one key guess against observed blocks."""

    consistent: bool
    per_block_errors: list
    decode_failures: int
    mean_errors: float
    threshold: float


def judge_candidate(key_bits, frames, code: CodeSpec, eve_ber: float) -> Judgement:
    """Regroup a tapped capture under a key guess and score the decode statistics.

    frames is the capture as `run_session(...).eve_capture` or `read_capture`
    gives it; it must pass `channel.read_frames` with each group's parity
    frames numbered 0, 1, ..., else FramingError. Parity frame (g, j) pairs
    with block j of group g cut from the payload stream under the guess, up
    to the first block the guess does not cut. A guess is consistent when the
    mean corrected error count stays within four standard errors of the
    expected s * p, with p = `symbol_error_rate(eve_ber, m)` and s =
    `noisy_symbols(code, method)` (k, or n when method 2 leaves the parity
    noisy), and the failures are as likely: Pr{Binomial(blocks, p_fail) >=
    failures} >= Pr{Z > 4}, where p_fail is a true block's
    `block_failure_probability`. An eve_ber outside [0, 1/2] raises ValueError.
    """
    if not 0.0 <= eve_ber <= 0.5:
        raise ValueError(f"eve_ber must lie in [0, 1/2], got {eve_ber!r}")
    method, stream, parity = read_frames(frames, code.info_bits, code.parity_bits)
    due = {GROUP_I: 0, GROUP_II: 0}
    for (group, index), frame in parity.items():
        if index != due[group]:
            raise FramingError(f"{frame} refused: parity frame {due[group]} of group {group} is due")
        due[group] += 1
    key = CommonKey.from_bits(key_bits, 0.0)
    cut = route(stream, key).blocks(code.info_bits)
    tags = list(itertools.takewhile(lambda tag: tag[1] < len(cut[tag[0] - GROUP_I]), parity))
    if not tags:
        raise ValueError("no complete blocks to judge")
    trials = noisy_symbols(code, method)
    info = np.array([cut[group - GROUP_I][index] for group, index in tags])
    results, _ = decode_rows(code, info, [parity[tag].payload for tag in tags])
    errors = [r.corrected for r in results if r.ok]
    blocks, failures = len(results), len(results) - len(errors)
    p = symbol_error_rate(eve_ber, code.m)
    threshold = trials * p + 4.0 * math.sqrt(trials * p * (1.0 - p) / blocks)
    mean = sum(errors) / len(errors) if errors else math.inf
    p_fail = block_failure_probability(code, eve_ber, method)
    failures_likely = binomial_tail(blocks, p_fail, failures - 1) >= _FOUR_SIGMA
    return Judgement(
        consistent=mean <= threshold and failures_likely,
        per_block_errors=errors,
        decode_failures=failures,
        mean_errors=mean,
        threshold=threshold,
    )


def class_size_by_parity(scenario: TinyScenario) -> np.ndarray:
    """Candidate-class size for every possible parity value (zeros included)."""
    code, bits = scenario.code, scenario.code.parity_bits
    if bits > MAX_INFO_ENUM_LOG2:
        raise ValueError(f"2^{bits} parity classes exceed the 2^{MAX_INFO_ENUM_LOG2} guard")
    tags = _first_block_tags(code, scenario.x, scenario.key_space)
    return np.bincount(tags, minlength=1 << bits)
