"""Command-line surface.

Subcommands:
  keygen            sample an admissible grouping key
  capacity          secure-rate bound for one operating point
  analyze           full security report
  simulate          run protocol sessions end to end
  attack            exhaustive key-candidate enumeration on a toy scenario
  reproduce-table2  analyzer grid next to the published reference figures

Parameters come from the command's defaults, then --preset, then a
--params JSON object, then flags; FIELDS types and range-checks every
value, and a bad one raises ParameterError (exit 2). Every run echoes the
fully resolved parameter set so results can be reproduced from the output
alone. All randomness flows from --seed.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import presets
from .amplify import CapacityParams, capacity_lower_bound
from .analysis import capacity_table, security_report
from .channel import ChannelConfig, write_capture
from .gf import build_field
from .grouping import sample_key
from .oracle import enumerate_with_errors, make_scenario
from .rs import MAX_N, make_code
from .session import SessionConfig, run_session


def _emit(args, doc: dict, text_lines: list[str], csv_text: str = "") -> None:
    """`doc` as JSON, or its resolved parameters, then the text lines or the CSV text."""
    params = doc["resolved_params"]
    if args.format == "json":
        out = json.dumps(doc, indent=2, sort_keys=True)
    elif args.format == "csv":
        out = f"# params: {json.dumps(params, sort_keys=True)}\n" + csv_text
    else:
        out = "\n".join([f"params: {params}", *text_lines])
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(out + "\n")
    else:
        print(out)


class ParameterError(ValueError):
    """A preset, --params or flag value that no command can take."""


@dataclass(frozen=True)
class Field:
    """One parameter: its type, an inclusive range or a set of choices, and
    the commands that take it as the flag --name-with-dashes."""

    type: type
    lo: float | None = None
    hi: float | None = None
    choices: tuple = ()
    optional: bool = False  # may stay None after resolution
    flag_in: tuple = ()

    def describe(self) -> str:
        if self.choices:
            return "one of " + ", ".join(map(str, self.choices))
        if self.hi is not None:
            return f"{self.type.__name__} in [{self.lo}, {self.hi}]"
        if self.lo is not None:
            return f"{self.type.__name__} >= {self.lo}"
        return self.type.__name__


# Every key a preset or --params file may hold. Float fields carry both
# bounds, so NaN and infinities fail the range check. The bound on n is
# make_code's own; those on key_length and unit_blocks keep the binomial
# tail sums to tens of MB; balance_limit >= 1 guarantees every key length an
# admissible key, so rejection sampling ends. At blocks_target = 100000 a
# transmitter peaks at ~132 MB for the (31, 19) default, most of it the
# frames, block records and hash seeds made per block, and at ~496 MB at the
# (255, 167) design point, most of it the source stream, its routed copies
# and its blocks' bits (tracemalloc); an unbounded target fails with a
# MemoryError.
FIELDS = {
    "name": Field(str),
    "m": Field(int, 2, 16),
    "primitive_poly": Field(int, 1, 2**17 - 1),
    "n": Field(int, 2, MAX_N),
    "k": Field(int, 1, MAX_N - 1),
    "symbol_error_rate": Field(float, 0.0, 1.0),
    "eve_ber": Field(float, 0.0, 0.5, flag_in=("capacity", "analyze", "attack")),
    "bob_ber": Field(float, 0.0, 0.5, optional=True, flag_in=("analyze",)),
    "method": Field(int, choices=(1, 2), flag_in=("analyze", "simulate")),
    "key_length": Field(int, 2, 65536, flag_in=("keygen",)),
    "balance_limit": Field(float, 1.0, 100.0, flag_in=("keygen",)),
    "unit_blocks": Field(int, 1, 1000, flag_in=("capacity", "analyze")),
    "fluctuation_sigmas": Field(float, 0.0, 100.0, flag_in=("capacity", "analyze")),
    "safety_bits": Field(int, 1, 1000, flag_in=("capacity", "analyze")),
    "key_bits": Field(int, 1, optional=True),
    "blocks_target": Field(int, 0, 100_000, flag_in=("simulate",)),
    "trials": Field(int, 1, flag_in=("simulate",)),
    "max_weight": Field(int, 0, flag_in=("attack",)),
    "pattern_unit": Field(str, choices=("symbol", "bit"), flag_in=("attack",)),
}

# Per command: the fields it takes with their defaults, in the order the
# resolved set is echoed. None must be filled by the preset, --params or a
# flag, unless the field is optional: bob_ber then follows eve_ber, and
# key_bits is the largest rate-safe size.
DEFAULTS = {
    "keygen": {"key_length": None, "balance_limit": 3.0},
    "capacity": {
        "m": None, "primitive_poly": None, "n": None, "k": None,
        "eve_ber": None, "unit_blocks": 1, "fluctuation_sigmas": 3.0,
        "safety_bits": 10,
    },
    "analyze": {
        "m": None, "primitive_poly": None, "n": None, "k": None,
        "eve_ber": None, "bob_ber": None, "key_length": None,
        "balance_limit": 3.0, "unit_blocks": 1, "fluctuation_sigmas": 3.0,
        "safety_bits": 10, "method": 1,
    },
    "simulate": {
        "m": 5, "primitive_poly": 0x25, "n": 31, "k": 19,
        "eve_ber": 0.016, "bob_ber": None, "method": 1,
        "key_length": 160, "balance_limit": 2.0,
        "unit_blocks": 1, "fluctuation_sigmas": 0.5, "safety_bits": 1,
        "key_bits": None, "blocks_target": 100, "trials": 1,
    },
    "attack": {
        "m": 3, "primitive_poly": 0xB, "n": 7, "k": 5,
        "eve_ber": 0.0, "key_length": 12, "balance_limit": 2.0,
        "max_weight": 1, "pattern_unit": "symbol",
    },
}


def _check(name: str, value):
    """`value` as field `name`'s type, or ParameterError naming both."""
    field = FIELDS.get(name)
    if field is None:
        raise ParameterError(f"unknown parameter {name!r}")
    if value is None:
        return None
    # A JSON integer is a valid float; a bool is not an int, nor a string a number.
    kind = int if field.type is float and type(value) is int else field.type
    if type(value) is not kind or not (
        value in field.choices if field.choices else
        (field.lo is None or field.lo <= value) and (field.hi is None or value <= field.hi)
    ):
        raise ParameterError(f"{name} must be {field.describe()}, got {value!r}")
    return field.type(value)


def _resolve(args) -> dict:
    """The command's parameters: its defaults, then the preset, then
    --params, then flags, each value typed and checked against FIELDS."""
    given = presets.design_point() if args.preset == "paper-255-167" else {}
    if args.params:
        with open(args.params, "r", encoding="utf-8") as fh:
            try:
                loaded = json.load(fh)
            except ValueError as exc:
                raise ParameterError(f"--params {args.params}: not JSON ({exc})") from exc
        if not isinstance(loaded, dict):
            raise ParameterError(f"--params must hold a JSON object, got {type(loaded).__name__}")
        given.update(loaded)
    given = {name: _check(name, value) for name, value in given.items()}
    defaults = DEFAULTS[args.command]
    resolved = {**defaults, **{k: v for k, v in given.items() if k in defaults or k == "name"}}
    for name in defaults:
        flag = getattr(args, name, None)
        if flag is not None:
            resolved[name] = _check(name, flag)
    missing = [k for k, v in resolved.items() if v is None and not FIELDS[k].optional]
    if missing:
        raise ParameterError(f"missing parameters: {', '.join(missing)}")
    if "bob_ber" in resolved and resolved["bob_ber"] is None:
        resolved["bob_ber"] = resolved["eve_ber"]
    return resolved


def _code_from(p: dict):
    return make_code(build_field(p["m"], p["primitive_poly"]), p["n"], p["k"])


def _capacity_params(p: dict) -> CapacityParams:
    return CapacityParams(
        code=_code_from(p),
        eve_ber=p["eve_ber"],
        unit_blocks=p["unit_blocks"],
        fluctuation_sigmas=p["fluctuation_sigmas"],
        safety_bits=p["safety_bits"],
    )


def cmd_keygen(args) -> int:
    resolved = _resolve(args)
    rng = np.random.default_rng(args.seed)
    key = sample_key(resolved["key_length"], resolved["balance_limit"], rng)
    doc = {
        "resolved_params": {**resolved, "seed": args.seed},
        "key_hex": key.to_hex(),
        "ones": key.ones,
        "zeros": key.zeros,
    }
    _emit(args, doc, [key.to_hex()])
    return 0


def cmd_capacity(args) -> int:
    resolved = _resolve(args)
    bound = capacity_lower_bound(_capacity_params(resolved))
    doc = {
        "resolved_params": resolved,
        "capacity_rate": bound.rate,
        "adjusted_ber": bound.adjusted_ber,
        "adjusted_entropy": bound.adjusted_entropy,
        "key_bits_per_unit": bound.key_bits_real,
        "key_bits_max": bound.key_bits_max,
        "secure": bound.secure,
    }
    _emit(
        args,
        doc,
        [
            f"capacity_rate      {bound.rate:.6g}",
            f"adjusted_ber       {bound.adjusted_ber:.6g}",
            f"key_bits_per_unit  {bound.key_bits_real:.6g} (floor {bound.key_bits_max})",
            f"secure             {bound.secure}",
        ],
    )
    return 0


def cmd_analyze(args) -> int:
    resolved = _resolve(args)
    report = security_report(
        key_length=resolved["key_length"],
        balance_limit=resolved["balance_limit"],
        params=_capacity_params(resolved),
        bob_ber=resolved["bob_ber"],
        method=resolved["method"],
    )
    doc = {"resolved_params": resolved, "report": report.to_dict()}
    lines = [
        f"{name:24s} {value:.6g}" if isinstance(value, float) else f"{name:24s} {value}"
        for name, value in doc["report"].items()
    ]
    _emit(args, doc, lines)
    return 0


def cmd_simulate(args) -> int:
    resolved = _resolve(args)
    code = _code_from(resolved)
    rng = np.random.default_rng(args.seed)
    key = sample_key(resolved["key_length"], resolved["balance_limit"], rng)

    def one_trial(trial: int) -> dict:
        channel = ChannelConfig(
            eve_ber=resolved["eve_ber"],
            bob_ber=resolved["bob_ber"],
            method=resolved["method"],
            seed=args.seed + 1000 * trial + 1,
        )
        config = SessionConfig(
            key=key,
            code=code,
            channel=channel,
            blocks_target=resolved["blocks_target"],
            unit_blocks=resolved["unit_blocks"],
            fluctuation_sigmas=resolved["fluctuation_sigmas"],
            safety_bits=resolved["safety_bits"],
            key_bits=resolved["key_bits"],
            source_seed=args.seed + 1000 * trial + 2,
            hash_seed=args.seed + 1000 * trial + 3,
        )
        report = run_session(config)
        if args.capture and trial == 0:
            write_capture(args.capture, report.eve_capture)
        return report.to_dict()

    reports = [one_trial(t) for t in range(resolved["trials"])]
    doc = {
        "resolved_params": {**resolved, "seed": args.seed, "key_hex": key.to_hex()},
        "trials": reports,
    }
    lines = [
        f"trial {i}: blocks={rep['blocks_completed']} units={rep['units_completed']} "
        f"agreement={rep['agreement_rate']}"
        for i, rep in enumerate(reports)
    ]
    _emit(args, doc, lines)
    return 0


def cmd_attack(args) -> int:
    resolved = _resolve(args)
    code = _code_from(resolved)
    rng = np.random.default_rng(args.seed)
    scenario, true_key = make_scenario(
        code, resolved["key_length"], resolved["balance_limit"], rng, ber=resolved["eve_ber"]
    )
    candidates = enumerate_with_errors(scenario, resolved["max_weight"], resolved["pattern_unit"])
    sizes = {str(p): len(candidates.per_pattern[p]) for p in candidates.patterns}
    histogram = Counter(sizes.values())
    doc = {
        "resolved_params": {**resolved, "seed": args.seed},
        "admissible_keys": len(scenario.key_space),
        "patterns": len(candidates.patterns),
        "total_candidates": candidates.total_candidates,
        "true_key_found": any(
            bool((rows == true_key.bits).all(axis=1).any())
            for rows in candidates.per_pattern.values()
        ),
        "class_sizes": sizes,
        "class_size_histogram": {str(k): v for k, v in sorted(histogram.items())},
    }
    _emit(
        args,
        doc,
        [
            f"admissible keys    {doc['admissible_keys']}",
            f"patterns examined  {doc['patterns']}",
            f"total candidates   {doc['total_candidates']}",
            f"true key found     {doc['true_key_found']}",
        ],
    )
    return 0


def cmd_table(args) -> int:
    # The grid is the published one; a parameter source would be ignored.
    for flag in ("params", "preset"):
        if getattr(args, flag) is not None:
            raise ParameterError(f"reproduce-table2 takes no --{flag}: its grid is fixed by the paper")
    point = presets.design_point()
    code = presets.design_code()
    budgets = capacity_table(
        code,
        eve_ber=point["eve_ber"],
        bob_ber=point["eve_ber"],
        columns=presets.TABLE_COLUMNS,
        method=point["method"],
    )
    table = {}
    checks = {}
    for name, ref in presets.REFERENCE_TABLE.items():
        table[name] = [getattr(budget, name) for budget in budgets]
        checks[name] = [
            presets.matches_reference(c, p, ref["upper_bound"])
            for c, p in zip(table[name], ref["values"])
        ]
    doc = {
        "resolved_params": point,
        "columns": [
            {"unit_blocks": u, "fluctuation_sigmas": r, "safety_bits": s}
            for u, r, s in presets.TABLE_COLUMNS
        ],
        "computed": table,
        "published": {k: v["values"] for k, v in presets.REFERENCE_TABLE.items()},
        "pass": checks,
        "all_pass": all(all(v) for v in checks.values()),
    }

    buf = io.StringIO()
    writer = csv.writer(buf)
    header = ["row"] + [f"u={u} r={r} ns={s}" for u, r, s in presets.TABLE_COLUMNS]
    writer.writerow(header)
    for name in presets.REFERENCE_TABLE:
        writer.writerow([name] + [f"{v:.3g}" for v in table[name]])
        writer.writerow([f"{name} (published)"] + [f"{v:.3g}" for v in doc["published"][name]])

    lines = ["", f"{'row':26s}" + "".join(f"{h:>16s}" for h in header[1:])]
    for name in presets.REFERENCE_TABLE:
        lines.append(f"{name:26s}" + "".join(f"{v:>16.4g}" for v in table[name]))
        lines.append(f"{'  published':26s}" + "".join(f"{v:>16.4g}" for v in doc["published"][name]))
        lines.append(f"{'  match':26s}" + "".join(f"{str(ok):>16s}" for ok in checks[name]))
    lines.append("")
    lines.append(f"all cells match: {doc['all_pass']}")
    _emit(args, doc, lines, buf.getvalue().rstrip("\n"))
    return 0 if doc["all_pass"] else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process; each `parse_args` returns a fresh Namespace."""
    parser = argparse.ArgumentParser(prog="noisekey")
    subs = parser.add_subparsers(dest="command", required=True)
    for command, func, help_text in (
        ("keygen", cmd_keygen, "sample an admissible grouping key"),
        ("capacity", cmd_capacity, "secure-rate lower bound"),
        ("analyze", cmd_analyze, "full security report"),
        ("simulate", cmd_simulate, "run end-to-end sessions"),
        ("attack", cmd_attack, "exhaustive candidate enumeration on a toy scenario"),
        ("reproduce-table2", cmd_table, "analyzer grid against the published reference figures"),
    ):
        p = subs.add_parser(command, help=help_text)
        p.add_argument("--params", help="JSON file holding one object of parameter overrides")
        p.add_argument("--preset", choices=["paper-255-167"], help="built-in parameter set")
        p.add_argument("--seed", type=int, default=0)
        # Only the table has rows to write as CSV.
        formats = ["json", "csv", "text"] if command == "reproduce-table2" else ["json", "text"]
        p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--out", help="write the report here instead of stdout")
        for name in DEFAULTS.get(command, ()):
            field = FIELDS[name]
            if command in field.flag_in:
                p.add_argument(
                    "--" + name.replace("_", "-"), dest=name, type=field.type, help=field.describe()
                )
        if command == "simulate":
            p.add_argument("--capture", help="write the tap's frame capture here")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
