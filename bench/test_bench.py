"""Tests of the benchmark itself: span arithmetic, tracer hygiene, output checks."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from noisekey import channel, cli, gf, grouping, oracle, presets, rs, session

import layers
import workloads
from checks import Ledger
from spans import NAME, Tracer, covered, self_times

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def test_self_time_on_hand_built_tree():
    # root [0, 10] with children [1, 4] and [3, 6] (overlapping: union 5) and
    # [8, 9]; the first child has a grandchild [2, 3].
    spans = [
        ["root", 0.0, 10.0, -1, None],
        ["a", 1.0, 4.0, 0, None],
        ["a.x", 2.0, 3.0, 1, None],
        ["b", 3.0, 6.0, 0, None],
        ["c", 8.0, 9.0, 0, None],
        ["other", 20.0, 21.0, -1, None],
    ]
    assert covered([(1.0, 4.0), (3.0, 6.0), (8.0, 9.0)]) == pytest.approx(6.0)
    assert self_times(spans) == pytest.approx([4.0, 2.0, 1.0, 3.0, 1.0, 1.0])


def test_self_time_clips_children_to_their_parent():
    spans = [["p", 0.0, 2.0, -1, None], ["c", 1.0, 5.0, 0, None]]
    assert self_times(spans)[0] == pytest.approx(1.0)


def _targets():
    owners = [session, cli, channel, gf, rs, grouping, oracle]
    state = {(o.__name__, a): getattr(o, a) for o in owners for a in dir(o)}
    state[("FieldSpec", "eval_poly_at_powers")] = gf.FieldSpec.__dict__["eval_poly_at_powers"]
    return state


def test_tracer_restores_every_wrapped_name():
    before = _targets()
    with pytest.raises(RuntimeError):
        with Tracer() as tracer:
            layers.install(tracer)
            assert session.decode_block is not before[("noisekey.session", "decode_block")]
            assert gf.FieldSpec.__dict__["eval_poly_at_powers"] is not before[
                ("FieldSpec", "eval_poly_at_powers")
            ]
            raise RuntimeError("leave the block early")
    after = _targets()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []


def test_tracer_records_nested_spans_and_notes():
    tracer = Tracer()
    layers.install(tracer)
    try:
        code = rs.make_code(gf.build_field(4, 0x13), 15, 11)    # t = 2
        word = rs.codeword(code, np.arange(1, 12))
        word[0] ^= 3
        with tracer.span("pass"):
            result = session.decode_block(code, word)
        session.decode_block(code, word)     # outside any span: not recorded
    finally:
        tracer.restore()
    names = [s[NAME] for s in tracer.spans]
    assert names[:2] == ["pass", "rs.decode_block"]
    assert set(names[2:]) == {"gf.eval_poly_at_powers"}
    decode = tracer.spans[1]
    assert decode[4] == [True, 1, None, 2] and result.corrected == 1
    metrics = layers.layer_metrics(tracer.spans)
    assert metrics["rs.decode_block.calls"][0] == 1
    assert metrics["rs.decode_block.n.low"][0] == 1
    assert metrics["gf.eval_poly_at_powers.calls"][0] == len(names) - 2


def test_layer_metrics_cover_the_traced_metric_names():
    produced = set(layers.layer_metrics([]))
    expected = {m["name"] for m in BENCHMARK["per_layer"]}
    # These three come from the run itself, not from spans.
    assert expected - produced == {
        "session.units_failed", "session.units_miscorrected", "trace.overhead_ratio",
    }


@pytest.fixture
def small_toy(monkeypatch):
    spec = dataclasses.replace(workloads.SESSION_SPECS["toy-session"], blocks=60)
    monkeypatch.setitem(workloads.SESSION_SPECS, "toy-session", spec)
    return workloads.SessionWorkload("toy-session", seed=5)


def _check_pass(wl, ledger):
    p = wl.run(wl.config(1))
    wl.check(p, ledger, full=True)
    ledger.settle()
    return p


def test_clean_session_pass_has_no_failed_checks(small_toy):
    ledger = Ledger()
    p = _check_pass(small_toy, ledger)
    assert ledger.attempted > 100 and ledger.failures == []
    assert small_toy.digest(p) == small_toy.digest(small_toy.run(small_toy.config(1)))


def test_corrupted_key_raises_failed_ratio(small_toy, monkeypatch):
    original = session.extract_key

    def corrupt(info_bits, key_bits, seed, key_bits_max=None):
        key = original(info_bits, key_bits, seed, key_bits_max).copy()
        key[0] ^= 1
        return key

    monkeypatch.setattr(session, "extract_key", corrupt)
    ledger = Ledger()
    _check_pass(small_toy, ledger)
    assert ledger.failed / ledger.attempted > 0
    assert any("alice unit" in label for label in ledger.failures)
    assert any("bob unit" in label for label in ledger.failures)


def test_corrupted_table_cell_raises_failed_ratio(tmp_path, monkeypatch):
    wl = workloads.AnalystWorkload("analyst", seed=3, work_dir=tmp_path)
    calls = [c for c in wl.config(0) if c[0] == "reproduce-table2"][:1]
    ledger = Ledger()
    wl.check(wl.run(calls), ledger)
    assert (ledger.attempted, ledger.failed) == (1, 0)

    cell = dict(presets.REFERENCE_TABLE["capacity_rate"])
    cell["values"] = [0.00616] + cell["values"][1:]
    monkeypatch.setitem(presets.REFERENCE_TABLE, "capacity_rate", cell)
    wl.check(wl.run(calls), ledger)
    assert (ledger.attempted, ledger.failed) == (2, 1)


def test_analyst_attack_is_checked(tmp_path):
    wl = workloads.AnalystWorkload("analyst", seed=3, work_dir=tmp_path)
    calls = [c for c in wl.config(0) if c[0] != "reproduce-table2"][-2:]
    ledger = Ledger()
    out = wl.run(calls)
    wl.check(out, ledger)
    assert [c.command for c in out] == ["analyze", "attack"]
    assert (ledger.attempted, ledger.failed) == (2, 0)
