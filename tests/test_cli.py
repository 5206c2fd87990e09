import argparse
import contextlib
import io
import json
import os
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import noisekey
from noisekey.cli import DEFAULTS, FIELDS, build_parser, main
from noisekey.gf import build_field
from noisekey.oracle import enumerate_with_errors, make_scenario
from noisekey.rs import make_code

ROOT = Path(__file__).resolve().parent.parent
SCHEMAS = ROOT / "schemas"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def check_schema(name, payload):
    schema = json.loads((SCHEMAS / f"{name}.schema.json").read_text())
    jsonschema.validate(payload, schema)


def test_keygen(capsys):
    code, out, _ = run_cli(capsys, "keygen", "--key-length", "64", "--seed", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    check_schema("keygen", doc)
    assert len(doc["key_hex"]) == 16
    assert doc["ones"] + doc["zeros"] == 64


def test_keygen_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "keygen", "--key-length", "64", "--seed", "3", "--format", "json")
    _, out2, _ = run_cli(capsys, "keygen", "--key-length", "64", "--seed", "3", "--format", "json")
    assert out1 == out2


def test_capacity_preset(capsys):
    code, out, _ = run_cli(capsys, "capacity", "--preset", "paper-255-167", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    check_schema("capacity", doc)
    assert abs(doc["capacity_rate"] - 0.00615) <= 1e-4
    assert doc["secure"] is True


def test_analyze_preset(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", "--preset", "paper-255-167", "--unit-blocks", "10",
        "--fluctuation-sigmas", "5", "--safety-bits", "16", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    check_schema("analyze", doc)
    assert doc["report"]["margin_holds"] is True
    assert abs(doc["report"]["effective_key_bits"] - 1926.4) < 0.1


def test_simulate_schema_and_determinism(capsys):
    args = ("simulate", "--seed", "4", "--blocks-target", "25", "--format", "json")
    code, out1, _ = run_cli(capsys, *args)
    assert code == 0
    doc = json.loads(out1)
    check_schema("simulate", doc)
    assert doc["trials"][0]["blocks_completed"] == 25
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_simulate_trials(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--seed", "4", "--blocks-target", "10", "--trials", "3", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["trials"]) == 3


def test_simulate_capture(capsys, tmp_path):
    capture = tmp_path / "tap.bin"
    code, _, _ = run_cli(
        capsys, "simulate", "--seed", "4", "--blocks-target", "8", "--capture", str(capture),
    )
    assert code == 0
    from noisekey.channel import read_capture

    frames = read_capture(capture)
    assert len(frames) > 8


def test_attack_schema(capsys):
    code, out, _ = run_cli(capsys, "attack", "--seed", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    check_schema("attack", doc)
    assert doc["true_key_found"] is True


@pytest.mark.parametrize("seed,found", [(4, True), (5, False)])
def test_attack_key_search_matches_row_loop(capsys, tmp_path, seed, found):
    params = tmp_path / "attack.json"
    params.write_text(json.dumps({"key_length": 16, "eve_ber": 0.05, "max_weight": 1}))
    code, out, _ = run_cli(
        capsys, "attack", "--params", str(params), "--seed", str(seed), "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    # The same scenario and candidates, searched one row at a time.
    rs_code = make_code(build_field(3, 0xB), 7, 5)
    scenario, true_key = make_scenario(rs_code, 16, 2.0, np.random.default_rng(seed), ber=0.05)
    candidates = enumerate_with_errors(scenario, 1, "symbol")
    row_loop = any(
        any(np.array_equal(row, true_key.bits) for row in candidates.per_pattern[p])
        for p in candidates.patterns
    )
    assert doc["true_key_found"] is row_loop is found


def test_attack_runs_where_the_zero_key_is_admissible(capsys, tmp_path):
    # At 4 bits and 2 sigmas every 1-count is admissible; the all-zero key
    # routes nothing to group I, so the key space leaves it out.
    params = tmp_path / "attack.json"
    params.write_text(json.dumps({"key_length": 4}))
    for seed in range(1, 21):
        code, out, _ = run_cli(
            capsys, "attack", "--params", str(params), "--seed", str(seed), "--format", "json"
        )
        assert code == 0, seed
        doc = json.loads(out)
        assert doc["true_key_found"] is True and doc["admissible_keys"] == 15, seed


def test_attack_refuses_a_wide_tag_before_encoding(capsys, tmp_path):
    # (255, 167) leaves 704 parity bits, past the 62-bit tag. The refusal used
    # to come after encoding the m*k unit rows, at a 161.6 MB tracemalloc peak.
    params = tmp_path / "wide.json"
    params.write_text(json.dumps(
        {"m": 8, "primitive_poly": 285, "n": 255, "k": 167, "key_length": 8, "max_weight": 0}
    ))
    tracemalloc.start()
    try:
        code, _, err = run_cli(capsys, "attack", "--params", str(params), "--format", "json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert json.loads(err) == {"error": "704 parity bits exceed the 62-bit tag"}
    assert peak < 5e6, peak


def test_attack_refuses_a_pattern_count_past_the_work_guard_before_listing(capsys, tmp_path):
    # 2 keys times ~2.9e7 symbol patterns of weight <= 3 passed a guard on
    # keys times patterns, and listing the patterns asked for tens of GB; the
    # guard also counts each pattern's m*k = 95 bits and refuses the call.
    params = tmp_path / "heavy.json"
    params.write_text(json.dumps(
        {"m": 5, "primitive_poly": 37, "n": 31, "k": 19, "key_length": 2, "balance_limit": 1.0}
    ))
    argv = ["attack", "--params", str(params), "--max-weight", "3", "--pattern-unit", "symbol", "--format", "json"]
    tracemalloc.start()
    try:
        code, _, err = run_cli(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert json.loads(err) == {"error": "scenario exceeds the enumeration work guard"}
    assert peak < 5e6, peak


def test_table_reproduction(capsys):
    code, out, _ = run_cli(capsys, "reproduce-table2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    check_schema("reproduce-table2", doc)
    assert doc["all_pass"] is True
    assert doc["computed"]["capacity_rate"][0] >= 0.00615 - 1e-5


def test_table_csv(capsys):
    code, out, _ = run_cli(capsys, "reproduce-table2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# params:")
    assert lines[1].startswith("row,")
    assert any(line.startswith("capacity_rate,") for line in lines)


@pytest.mark.parametrize("command", ["keygen", "capacity", "analyze", "simulate", "attack"])
def test_csv_is_refused_where_there_is_no_table(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--format", "csv"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--format" in err and "'csv'" in err


def test_missing_params_exit_code(capsys):
    code, out, err = run_cli(capsys, "capacity")
    assert code == 2
    assert out == ""
    diag = json.loads(err)
    assert "error" in diag and "\n" not in err.strip()


def test_unknown_flag_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["capacity", "--bogus"])
    assert exc.value.code == 2


def test_output_file(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "capacity", "--preset", "paper-255-167", "--format", "json", "--out", str(out_path),
    )
    assert code == 0 and out == ""
    doc = json.loads(out_path.read_text())
    check_schema("capacity", doc)


def test_params_file_overrides(capsys, tmp_path):
    params = tmp_path / "p.json"
    params.write_text(json.dumps({"key_length": 32, "balance_limit": 3.0}))
    code, out, _ = run_cli(capsys, "keygen", "--params", str(params), "--seed", "1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["ones"] + doc["zeros"] == 32


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_back_to_back_calls_share_no_state(capsys, tmp_path):
    report = tmp_path / "attack.json"
    code, out, _ = run_cli(capsys, "attack", "--seed", "2", "--format", "json", "--out", str(report))
    assert code == 0 and out == ""
    assert json.loads(report.read_text())["true_key_found"] is True
    code, out, _ = run_cli(capsys, "reproduce-table2", "--format", "json")
    assert code == 0
    src = str(Path(noisekey.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    fresh = subprocess.run(
        [sys.executable, "-m", "noisekey.cli", "reproduce-table2", "--format", "json"],
        capture_output=True, text=True, env=env, check=True,
    )
    assert out == fresh.stdout


def test_short_keys_print_padded_hex(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "keygen", "--key-length", "30", "--seed", "1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["key_hex"]) == 8 and int(doc["key_hex"], 16) < 2**30
    assert doc["ones"] + doc["zeros"] == 30
    params = tmp_path / "p.json"
    params.write_text(json.dumps({"key_length": 30}))
    code, out, _ = run_cli(
        capsys, "simulate", "--params", str(params), "--blocks-target", "4", "--format", "json"
    )
    assert code == 0
    assert len(json.loads(out)["resolved_params"]["key_hex"]) == 8


def test_params_file_values_equal_flags(capsys, tmp_path):
    # A JSON integer for a float field resolves to the float the flag gives.
    params = tmp_path / "p.json"
    params.write_text(json.dumps({"unit_blocks": 10, "fluctuation_sigmas": 5, "safety_bits": 16}))
    _, from_file, _ = run_cli(
        capsys, "analyze", "--preset", "paper-255-167", "--params", str(params), "--format", "json"
    )
    _, from_flags, _ = run_cli(
        capsys, "analyze", "--preset", "paper-255-167", "--unit-blocks", "10",
        "--fluctuation-sigmas", "5", "--safety-bits", "16", "--format", "json",
    )
    assert from_file == from_flags
    assert json.loads(from_file)["resolved_params"]["fluctuation_sigmas"] == 5.0


PRESET = ("--preset", "paper-255-167")


@pytest.mark.parametrize(
    "argv,params,expected",
    [
        (("capacity",), "[1, 2]", ["--params", "list"]),
        (("capacity",), "{not json", ["--params", "not JSON"]),
        (("attack", "--eve-ber", "0.6"), None, ["eve_ber", "0.6"]),
        (("analyze", *PRESET, "--bob-ber", "0.7"), None, ["bob_ber", "0.7"]),
        (("analyze", *PRESET), {"method": 3}, ["method", "3"]),
        (("capacity", *PRESET), {"unit_blocks": True}, ["unit_blocks", "True"]),
        (("keygen", "--key-length", "64"), {"balance_limit": "2"}, ["balance_limit", "'2'"]),
        (("capacity", *PRESET), {"n": "abc"}, ["n must be", "'abc'"]),
        (("simulate",), {"trials": 0}, ["trials", "0"]),
        (("capacity", *PRESET), {"eve-ber": 0.2}, ["'eve-ber'"]),
        (("capacity", *PRESET), '{"eve_ber": NaN}', ["eve_ber", "nan"]),
        (("reproduce-table2",), "[1, 2]", ["reproduce-table2", "--params"]),
        (("reproduce-table2", *PRESET), None, ["reproduce-table2", "--preset"]),
        (("simulate", "--blocks-target", "10000000000"), None, ["blocks_target", "10000000000"]),
        (("simulate",), {"blocks_target": 100_001}, ["blocks_target", "100001"]),
    ],
)
def test_bad_parameters_exit_2_naming_the_field(capsys, tmp_path, argv, params, expected):
    if params is not None:
        path = tmp_path / "p.json"
        path.write_text(params if isinstance(params, str) else json.dumps(params))
        argv += ("--params", str(path))
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.count("\n") == 1
    message = json.loads(err)["error"]
    assert all(part in message for part in expected), message


# Every subcommand's flags as they were written out by hand before FIELDS
# generated them, less --key-out (no command read its key file).
COMMON_FLAGS = {"--params", "--preset", "--seed", "--format", "--out"}
EXPECTED_FLAGS = {
    "keygen": {"--key-length", "--balance-limit"},
    "capacity": {"--unit-blocks", "--fluctuation-sigmas", "--safety-bits", "--eve-ber"},
    "analyze": {
        "--unit-blocks", "--fluctuation-sigmas", "--safety-bits", "--eve-ber", "--bob-ber",
        "--method",
    },
    "simulate": {"--blocks-target", "--trials", "--method", "--capture"},
    "attack": {"--max-weight", "--pattern-unit", "--eve-ber"},
    "reproduce-table2": set(),
}


def test_flag_set_is_unchanged():
    subs = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    found = {
        (command, flag)
        for command, sub in subs.choices.items()
        for action in sub._actions
        for flag in action.option_strings
        if flag.startswith("--") and flag != "--help"
    }
    expected = {(c, f) for c, flags in EXPECTED_FLAGS.items() for f in flags | COMMON_FLAGS}
    assert found == expected


def _readme_section(title: str) -> str:
    text = (ROOT / "README.md").read_text()
    start = text.index(f"## {title}\n")
    return text[start : text.index("\n## ", start + 1)]


def test_readme_examples_run(tmp_path):
    block = _readme_section("Command line").split("```sh\n")[1].split("```")[0]
    lines = [line for line in block.splitlines() if line.startswith("noisekey ")]
    assert len(lines) == 6
    for i, line in enumerate(lines):
        argv = shlex.split(line, comments=True)[1:]
        if "--capture" in argv:
            at = argv.index("--capture") + 1
            argv[at] = str(tmp_path / argv[at])
        argv += ["--out", str(tmp_path / f"out{i}.txt")]
        assert main(argv) == 0, line


def test_readme_field_table_matches_fields():
    rows = [
        f"| `{name}` | {field.describe()} | "
        f"{', '.join(c for c, d in DEFAULTS.items() if name in d) or '(preset only)'} | "
        f"{', '.join(field.flag_in)} |"
        for name, field in FIELDS.items()
    ]
    section = _readme_section("Command line")
    table = [line for line in section.splitlines() if line.startswith("| `")]
    assert table == rows


# Any JSON value, and objects whose keys mostly name fields.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
field_values = st.one_of(
    json_values, st.integers(-2, 300), st.floats(-1.0, 4.0), st.sampled_from([1, 2, "bit", "exact"])
)
param_docs = json_values | st.dictionaries(
    st.sampled_from(sorted(FIELDS)) | st.text(max_size=6), field_values, max_size=6
).map(
    # keep keygen's rejection sampling and hex encoding small
    lambda doc: {**doc, "key_length": min(doc["key_length"], 4096)}
    if type(doc.get("key_length")) is int else doc
)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["capacity", "keygen"]), st.booleans(), param_docs)
def test_any_params_file_exits_0_or_2(tmp_path_factory, command, preset, doc):
    path = tmp_path_factory.mktemp("params") / "p.json"
    path.write_text(json.dumps(doc))
    argv = [command, "--params", str(path), "--format", "json"] + (list(PRESET) if preset else [])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2)
    if code == 2:
        assert err.getvalue().count("\n") == 1 and "error" in json.loads(err.getvalue())
