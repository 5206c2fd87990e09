import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import noisekey
from noisekey.cli import build_parser, main
from noisekey.gf import build_field
from noisekey.oracle import enumerate_with_errors, make_scenario
from noisekey.rs import make_code

SCHEMAS = Path(__file__).resolve().parent.parent / "schemas"


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


def test_keygen_key_file(capsys, tmp_path):
    path = tmp_path / "key.hex"
    code, out, _ = run_cli(
        capsys, "keygen", "--key-length", "64", "--seed", "3", "--format", "json",
        "--key-out", str(path),
    )
    assert code == 0
    from noisekey.grouping import load_key

    key = load_key(path, 3.0)
    assert key.to_hex() == json.loads(out)["key_hex"]


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


def test_simulate_trials_with_thread_cap(capsys):
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
