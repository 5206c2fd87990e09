"""Pinned outputs: the bytes the CLI prints for fixed seeds, and what it imports.

A change that should leave behaviour alone (a refactor, a speed-up) must
leave these digests alone. `analyze` and `reproduce-table2`'s JSON are not
pinned here: their floats come from numpy and libm transcendentals whose
last digits may vary with CPU dispatch and library version, and the
acceptance suite pins them to three figures instead. `reproduce-table2`'s
CSV and text print 3 and 4 significant figures, so they are pinned. To
re-pin after a deliberate output change, print
`hashlib.sha256(out.encode()).hexdigest()` for each case.
"""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import noisekey
from noisekey import cli

# The attack parameters of the benchmark's analyst workload.
ATTACK_PARAMS = {
    "m": 3, "primitive_poly": 0xB, "n": 7, "k": 5, "key_length": 16,
    "balance_limit": 2.0, "eve_ber": 0.0, "max_weight": 1, "pattern_unit": "bit",
}

SIMULATE_DIGESTS = {
    ("--seed", "1"): "3269b9e107b8e5167e864d69b2ad0f61ea2651f98019406d9e1324df29c48b79",
    ("--seed", "2"): "23a1b9ac31bfaaf24414c4f8608f51051a30b3b102764ddfd7f1872f1e07f971",
    ("--seed", "3"): "1db67b1199c062fa66eca256f83aca855ba148cf7ecf3a89138a8e06fa7cf993",
    ("--seed", "1", "--method", "2"): "2cc22953b5218f3911093ead248c15f3dacb7a4da5e02a669b2cb18e15613385",
}
CAPTURE_RUN_DIGEST = "cd78e7a3626ad1a7c3f805e8c65cc46a0769af85f5a273403e52a767643c3c8d"
CAPTURE_FILE_DIGEST = "fb702799e4e65f86122f9409ad4b9d583932c8c256e6824a5ac52ff9ceeff828"
ATTACK_DIGESTS = {
    1: "b2ea9a3f0578a4cdf8e89b03399ebbd80f2ee25aa59d2555a2280d1c4fdb487f",
    2: "53d1a9379afbdbc14d096622ae4b9165e480ba2a9ee0b7489db970b79702a9c1",
    3: "3d125f53e28f5a29afc9a77a56e3562ef8acf8b22cc60e570b3cd0764038bacb",
    4: "44f28bf5cd5240891f9977e5e3d6678b82210f4ee22993f2202d795961f7dd47",
    5: "6a5bc6857658f1d17b692cc77e57bdd176ccbdb6fc38b9f73425f1cb9855ffea",
}

TEXT_DIGESTS = {
    ("keygen", "--key-length", "64", "--seed", "3"): "ba5839c1456883b8566fcdf96568cf9a1037677df2f1d56e8c79f1e9a6e73eae",
    ("capacity", "--preset", "paper-255-167"): "9cbc4c3cdca9fc826322c1505bbe5cb986ad9c58a96f85a62a4b68bd6a8cd9ff",
    ("simulate", "--seed", "1"): "6a611a61e659e7ed4834011aabf579d1a844951952e717aab544256d3d331983",
}
ATTACK_TEXT_DIGEST = "5be49834d037f6391f8434bd2ef10a4941c6401748710cb353926ed3b47c109a"
TABLE_DIGESTS = {
    "csv": "87ca2fa833de08742b671163dd26dc71e4c6d0c2881eab87fd458477470a628c",
    "text": "7d97cdc3cd37a0e129af47ad2e460bd56889bbefac54e877e19cfb3301a45138",
}


@pytest.fixture
def attack_params(tmp_path) -> str:
    params = tmp_path / "attack.json"
    params.write_text(json.dumps(ATTACK_PARAMS, sort_keys=True))
    return str(params)


def _stdout_digest(capsys, *argv, fmt="json") -> str:
    assert cli.main([*argv, "--format", fmt]) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("argv", list(SIMULATE_DIGESTS), ids=" ".join)
def test_simulate_output_is_pinned(capsys, argv):
    assert _stdout_digest(capsys, "simulate", *argv) == SIMULATE_DIGESTS[argv]


def test_simulate_capture_is_pinned(capsys, tmp_path):
    capture = tmp_path / "tap.bin"
    digest = _stdout_digest(
        capsys, "simulate", "--seed", "1", "--blocks-target", "50", "--capture", str(capture)
    )
    assert digest == CAPTURE_RUN_DIGEST
    assert hashlib.sha256(capture.read_bytes()).hexdigest() == CAPTURE_FILE_DIGEST


@pytest.mark.parametrize("seed", list(ATTACK_DIGESTS))
def test_attack_output_is_pinned(capsys, attack_params, seed):
    digest = _stdout_digest(capsys, "attack", "--params", attack_params, "--seed", str(seed))
    assert digest == ATTACK_DIGESTS[seed]


@pytest.mark.parametrize("argv", list(TEXT_DIGESTS), ids=" ".join)
def test_text_output_is_pinned(capsys, argv):
    assert _stdout_digest(capsys, *argv, fmt="text") == TEXT_DIGESTS[argv]


def test_attack_text_output_is_pinned(capsys, attack_params):
    digest = _stdout_digest(capsys, "attack", "--params", attack_params, "--seed", "1", fmt="text")
    assert digest == ATTACK_TEXT_DIGEST


@pytest.mark.parametrize("fmt", list(TABLE_DIGESTS))
def test_table_csv_and_text_are_pinned(capsys, fmt):
    assert _stdout_digest(capsys, "reproduce-table2", fmt=fmt) == TABLE_DIGESTS[fmt]


SESSION_WITHOUT_SCIPY = """
import sys
import numpy as np
from noisekey import cli
from noisekey.channel import ChannelConfig
from noisekey.grouping import sample_key
from noisekey.gf import build_field
from noisekey.rs import make_code
from noisekey.session import SessionConfig, run_session

config = SessionConfig(
    key=sample_key(160, 2.0, np.random.default_rng(1)),
    code=make_code(build_field(5, 0x25), 31, 19),
    channel=ChannelConfig(0.019, 0.019, method=2),
    blocks_target=20,
    fluctuation_sigmas=0.5,
    safety_bits=1,
)
assert len(run_session(config).bob_outcomes) == 20
assert cli.main(["simulate", "--seed", "1", "--blocks-target", "20", "--format", "json"]) == 0
assert "scipy" not in sys.modules, "a protocol session imported scipy"
"""


def test_a_session_does_not_import_scipy():
    # scipy costs ~25 MB and ~0.2 s to import; only the tests use it.
    src = str(Path(noisekey.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", SESSION_WITHOUT_SCIPY],
        env={"PYTHONPATH": src, "PATH": ""},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr


CLI_WITHOUT_SCIPY = """
import contextlib, hashlib, io, json, sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
from noisekey import cli
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main(argv)
    print(json.dumps([status, hashlib.sha256(out.getvalue().encode()).hexdigest()]))
"""


def test_no_cli_command_needs_scipy(attack_params):
    # scipy is a test dependency only: every command runs, and prints its
    # pinned bytes, in a process where importing scipy fails.
    commands = {
        ("analyze", "--preset", "paper-255-167"): None,
        ("reproduce-table2", "--format", "json"): None,
        **{("reproduce-table2", "--format", fmt): digest for fmt, digest in TABLE_DIGESTS.items()},
        **TEXT_DIGESTS,
        ("attack", "--params", attack_params, "--seed", "1"): ATTACK_TEXT_DIGEST,
    }
    src = str(Path(noisekey.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", CLI_WITHOUT_SCIPY, json.dumps(list(commands))],
        env={"PYTHONPATH": src, "PATH": ""},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    results = [json.loads(line) for line in done.stdout.splitlines()]
    assert len(results) == len(commands)
    for (argv, pinned), (status, digest) in zip(commands.items(), results):
        assert status == 0, argv
        assert pinned is None or digest == pinned, argv
