"""Whole sessions against the plain-loop rebuild in `reference_session`.

`run_session(config).to_dict()`, both key lists and the tap's capture must
equal the reference exactly, so any change to the layout, the source draw,
the encoder, the channel's sub-streams, the decoder, the hash seeds or the
unit labels shows here as well as in its own piecewise test.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from noisekey.channel import ChannelConfig
from noisekey.gf import build_field
from noisekey.grouping import CommonKey, sample_key
from noisekey.rs import make_code
from noisekey.session import SessionConfig, run_session

from conftest import CODES
from reference_session import reference_session

EVE_BER = 1.0 - 0.9 ** 0.125


def _key_form(key):
    return None if key is None else (key.dtype.str, key.tolist())


def _frame_form(frame):
    return (frame.method, frame.group, frame.index, frame.kind, frame.payload.dtype.str, frame.payload.tolist())


def assert_same_session(config) -> dict:
    """The session's report, after checking it against the reference."""
    report, ref = run_session(config), reference_session(config)
    doc = report.to_dict()
    assert doc == ref["report"]
    assert json.dumps(doc, sort_keys=True) == json.dumps(ref["report"], sort_keys=True)
    assert list(map(_key_form, report.keys_alice)) == list(map(_key_form, ref["keys_alice"]))
    assert list(map(_key_form, report.keys_bob)) == list(map(_key_form, ref["keys_bob"]))
    assert list(map(_frame_form, report.eve_capture)) == list(map(_frame_form, ref["eve_capture"]))
    return doc


def toy_config(m, n, k, key_bits, eve_ber, bob_ber, method, blocks, unit_blocks, seeds):
    # Any key shorter than a block: the limit sqrt(length) admits every key
    # of its length, and a block still spans its period.
    key = CommonKey.from_bits(key_bits, math.sqrt(len(key_bits)) + 1e-9)
    channel_seed, source_seed, hash_seed = seeds
    return SessionConfig(
        key=key,
        code=make_code(build_field(m), n, k),
        channel=ChannelConfig(eve_ber, bob_ber, method=method, seed=channel_seed),
        blocks_target=blocks,
        unit_blocks=unit_blocks,
        fluctuation_sigmas=0.0,
        safety_bits=1,
        source_seed=source_seed,
        hash_seed=hash_seed,
    )


# Per toy code, an eve_ber from which a one-block unit keeps a key bit:
# m(2k - n)·h(eve_ber) - 1 >= 1 with no fluctuation guard and one safety bit.
LOWEST_EVE_BER = {(3, 7, 5): 0.04, (4, 15, 9): 0.03, (5, 31, 19): 0.01}


@st.composite
def toy_configs(draw):
    m, n, k = draw(st.sampled_from([c for c in CODES if c != (8, 255, 167)]), label="code")
    length = draw(st.integers(2, m * k - 1), label="key length")
    key_bits = draw(st.lists(st.integers(0, 1), min_size=length, max_size=length), label="key")
    # Bob at up to three times the tap's BER: from clean units to every
    # decoder's failure and miscorrection region.
    eve_ber = draw(st.floats(LOWEST_EVE_BER[m, n, k], 0.15), label="eve_ber")
    bob_ber = draw(st.floats(eve_ber, 3 * eve_ber), label="bob_ber")
    return toy_config(
        m, n, k, key_bits, eve_ber, bob_ber,
        method=draw(st.sampled_from([1, 2]), label="method"),
        blocks=draw(st.integers(0, 40), label="blocks_target"),
        unit_blocks=draw(st.integers(1, 5), label="unit_blocks"),
        seeds=draw(st.tuples(*[st.integers(0, 2**64)] * 3), label="seeds"),
    )


@settings(max_examples=60, deadline=None)
@given(toy_configs())
def test_toy_sessions_match_the_reference(config):
    assert_same_session(config)


def test_a_toy_session_with_every_unit_outcome_matches_the_reference():
    # (7,5) corrects one symbol, and most of its words beyond t miscorrect.
    rng = np.random.default_rng(7)
    config = toy_config(3, 7, 5, rng.integers(0, 2, 12).tolist(), 0.05, 0.15, 2, 40, 1, (1, 2, 3))
    outcomes = assert_same_session(config)["unit_outcomes"]
    assert all(outcomes[label] > 0 for label in ("agreed", "failed", "miscorrected")), outcomes


@pytest.mark.parametrize("method,unit_blocks", [(1, 1), (2, 2)])
def test_design_point_sessions_match_the_reference(code_255_167, method, unit_blocks):
    key = sample_key(2496, 3.5, np.random.default_rng(90 + method))
    config = SessionConfig(
        key=key,
        code=code_255_167,
        channel=ChannelConfig(EVE_BER, EVE_BER, method=method, seed=91),
        blocks_target=20,
        unit_blocks=unit_blocks,
        fluctuation_sigmas=3.0,
        safety_bits=10,
        source_seed=92,
        hash_seed=93,
    )
    doc = assert_same_session(config)
    assert doc["units_completed"] == 20 // unit_blocks and doc["agreement_rate"] == 1.0
