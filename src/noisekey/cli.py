"""Command-line surface.

Subcommands:
  keygen            sample an admissible grouping key
  capacity          secure-rate bound for one operating point
  analyze           full security report
  simulate          run protocol sessions end to end
  attack            exhaustive key-candidate enumeration on a toy scenario
  reproduce-table2  analyzer grid next to the published reference figures

Every run echoes the fully resolved parameter set so results can be
reproduced from the output alone. All randomness flows from --seed.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys

import numpy as np

from . import presets
from .amplify import CapacityParams, capacity_lower_bound
from .analysis import capacity_table, security_report
from .channel import ChannelConfig, write_capture
from .gf import build_field
from .grouping import sample_key, save_key
from .oracle import enumerate_with_errors, make_scenario
from .rs import make_code
from .session import SessionConfig, run_session


def _emit(args, doc: dict, text_lines: list[str]) -> None:
    if args.format == "json":
        public = {k: v for k, v in doc.items() if not k.startswith("_")}
        out = json.dumps(public, indent=2, sort_keys=True)
    elif args.format == "csv":
        params = json.dumps(doc.get("resolved_params", {}), sort_keys=True)
        out = f"# params: {params}\n" + doc.get("_csv", "")
    else:
        out = "\n".join(text_lines)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(out + "\n")
    else:
        print(out)


def _load_params(args) -> dict:
    params = presets.design_point() if args.preset == "paper-255-167" else {}
    if getattr(args, "params", None):
        with open(args.params, "r", encoding="utf-8") as fh:
            params.update(json.load(fh))
    return params


def _resolve(params: dict, args, fields: dict, optional: tuple = ()) -> dict:
    """Fill defaults, then let explicit flags win; returns the resolved set."""
    resolved = dict(fields)
    resolved.update({k: v for k, v in params.items() if k in fields or k == "name"})
    for key in fields:
        flag = getattr(args, key, None)
        if flag is not None:
            resolved[key] = flag
    missing = [k for k, v in resolved.items() if v is None and k not in optional]
    if missing:
        raise ValueError(f"missing parameters: {', '.join(missing)}")
    return resolved


def _code_from(resolved: dict):
    fld = build_field(int(resolved["m"]), int(resolved["primitive_poly"]))
    return make_code(fld, int(resolved["n"]), int(resolved["k"]))


def cmd_keygen(args) -> int:
    resolved = _resolve(
        _load_params(args),
        args,
        {"key_length": None, "balance_limit": 3.0},
    )
    rng = np.random.default_rng(args.seed)
    key = sample_key(int(resolved["key_length"]), float(resolved["balance_limit"]), rng)
    if args.key_out:
        save_key(args.key_out, key)
    doc = {
        "resolved_params": {**resolved, "seed": args.seed},
        "key_hex": key.to_hex(),
        "ones": key.ones,
        "zeros": key.zeros,
    }
    _emit(args, doc, [f"params: {doc['resolved_params']}", key.to_hex()])
    return 0


def cmd_capacity(args) -> int:
    resolved = _resolve(
        _load_params(args),
        args,
        {
            "m": None, "primitive_poly": None, "n": None, "k": None,
            "eve_ber": None, "unit_blocks": 1, "fluctuation_sigmas": 3.0,
            "safety_bits": 10,
        },
    )
    code = _code_from(resolved)
    params = CapacityParams(
        code=code,
        eve_ber=float(resolved["eve_ber"]),
        unit_blocks=int(resolved["unit_blocks"]),
        fluctuation_sigmas=float(resolved["fluctuation_sigmas"]),
        safety_bits=int(resolved["safety_bits"]),
    )
    bound = capacity_lower_bound(params)
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
            f"params: {resolved}",
            f"capacity_rate      {bound.rate:.6g}",
            f"adjusted_ber       {bound.adjusted_ber:.6g}",
            f"key_bits_per_unit  {bound.key_bits_real:.6g} (floor {bound.key_bits_max})",
            f"secure             {bound.secure}",
        ],
    )
    return 0


def cmd_analyze(args) -> int:
    resolved = _resolve(
        _load_params(args),
        args,
        {
            "m": None, "primitive_poly": None, "n": None, "k": None,
            "eve_ber": None, "bob_ber": None, "key_length": None,
            "balance_limit": 3.0, "unit_blocks": 1, "fluctuation_sigmas": 3.0,
            "safety_bits": 10, "method": 1, "delta_mode": "exact",
        },
        optional=("bob_ber",),
    )
    if resolved["bob_ber"] is None:
        resolved["bob_ber"] = resolved["eve_ber"]
    code = _code_from(resolved)
    params = CapacityParams(
        code=code,
        eve_ber=float(resolved["eve_ber"]),
        unit_blocks=int(resolved["unit_blocks"]),
        fluctuation_sigmas=float(resolved["fluctuation_sigmas"]),
        safety_bits=int(resolved["safety_bits"]),
    )
    report = security_report(
        key_length=int(resolved["key_length"]),
        balance_limit=float(resolved["balance_limit"]),
        params=params,
        bob_ber=float(resolved["bob_ber"]),
        method=int(resolved["method"]),
        delta_mode=str(resolved["delta_mode"]),
    )
    doc = {"resolved_params": resolved, "report": report.to_dict()}
    lines = [f"params: {resolved}"] + [
        f"{name:24s} {value:.6g}" if isinstance(value, float) else f"{name:24s} {value}"
        for name, value in report.to_dict().items()
    ]
    _emit(args, doc, lines)
    return 0


def cmd_simulate(args) -> int:
    resolved = _resolve(
        _load_params(args),
        args,
        {
            "m": 5, "primitive_poly": 0x25, "n": 31, "k": 19,
            "eve_ber": 0.016, "bob_ber": None, "method": 1,
            "key_length": 160, "balance_limit": 2.0,
            "unit_blocks": 1, "fluctuation_sigmas": 0.5, "safety_bits": 1,
            "key_bits": None, "blocks_target": 100, "trials": 1,
        },
        optional=("bob_ber", "key_bits"),
    )
    if resolved["bob_ber"] is None:
        resolved["bob_ber"] = resolved["eve_ber"]
    code = _code_from(resolved)
    rng = np.random.default_rng(args.seed)
    key = sample_key(int(resolved["key_length"]), float(resolved["balance_limit"]), rng)

    def one_trial(trial: int) -> dict:
        channel = ChannelConfig(
            eve_ber=float(resolved["eve_ber"]),
            bob_ber=float(resolved["bob_ber"]),
            method=int(resolved["method"]),
            seed=args.seed + 1000 * trial + 1,
        )
        config = SessionConfig(
            key=key,
            code=code,
            channel=channel,
            blocks_target=int(resolved["blocks_target"]),
            unit_blocks=int(resolved["unit_blocks"]),
            fluctuation_sigmas=float(resolved["fluctuation_sigmas"]),
            safety_bits=int(resolved["safety_bits"]),
            key_bits=resolved["key_bits"],
            source_seed=args.seed + 1000 * trial + 2,
            hash_seed=args.seed + 1000 * trial + 3,
        )
        report = run_session(config)
        if args.capture and trial == 0:
            write_capture(args.capture, report.eve_capture)
        return report.to_dict()

    reports = [one_trial(t) for t in range(int(resolved["trials"]))]
    doc = {
        "resolved_params": {**resolved, "seed": args.seed, "key_hex": key.to_hex()},
        "trials": reports,
    }
    lines = [f"params: {doc['resolved_params']}"]
    for i, rep in enumerate(reports):
        lines.append(
            f"trial {i}: blocks={rep['blocks_completed']} units={rep['units_completed']} "
            f"agreement={rep['agreement_rate']}"
        )
    _emit(args, doc, lines)
    return 0


def cmd_attack(args) -> int:
    resolved = _resolve(
        _load_params(args),
        args,
        {
            "m": 3, "primitive_poly": 0xB, "n": 7, "k": 5,
            "eve_ber": 0.0, "key_length": 12, "balance_limit": 2.0,
            "max_weight": 1, "pattern_unit": "symbol",
        },
    )
    code = _code_from(resolved)
    rng = np.random.default_rng(args.seed)
    scenario, true_key = make_scenario(
        code,
        int(resolved["key_length"]),
        float(resolved["balance_limit"]),
        rng,
        ber=float(resolved["eve_ber"]),
    )
    candidates = enumerate_with_errors(
        scenario, int(resolved["max_weight"]), str(resolved["pattern_unit"])
    )
    sizes = {str(p): len(candidates.per_pattern[p]) for p in candidates.patterns}
    histogram: dict[int, int] = {}
    for count in sizes.values():
        histogram[count] = histogram.get(count, 0) + 1
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
            f"params: {doc['resolved_params']}",
            f"admissible keys    {doc['admissible_keys']}",
            f"patterns examined  {doc['patterns']}",
            f"total candidates   {doc['total_candidates']}",
            f"true key found     {doc['true_key_found']}",
        ],
    )
    return 0


def cmd_table(args) -> int:
    point = presets.design_point()
    code = presets.design_code()
    rows = capacity_table(
        code,
        eve_ber=point["eve_ber"],
        bob_ber=point["eve_ber"],
        columns=presets.TABLE_COLUMNS,
        method=point["method"],
    )
    table = {}
    checks = {}
    for name, ref in presets.REFERENCE_TABLE.items():
        computed = []
        for col in rows:
            value = col[name] if name != "key_bits_per_block" else (
                col["key_bits_per_unit"] / col["unit_blocks"]
            )
            computed.append(value)
        table[name] = computed
        checks[name] = [
            presets.matches_reference(c, p, ref["upper_bound"])
            for c, p in zip(computed, ref["values"])
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
    doc["_csv"] = buf.getvalue().rstrip("\n")

    lines = [f"params: {point}", "", f"{'row':26s}" + "".join(f"{h:>16s}" for h in header[1:])]
    for name in presets.REFERENCE_TABLE:
        lines.append(f"{name:26s}" + "".join(f"{v:>16.4g}" for v in table[name]))
        lines.append(f"{'  published':26s}" + "".join(f"{v:>16.4g}" for v in doc["published"][name]))
        lines.append(f"{'  match':26s}" + "".join(f"{str(ok):>16s}" for ok in checks[name]))
    lines.append("")
    lines.append(f"all cells match: {doc['all_pass']}")
    _emit(args, doc, lines)
    return 0 if doc["all_pass"] else 1


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--params", help="JSON file of parameter overrides")
    sub.add_argument("--preset", choices=["paper-255-167"], help="built-in parameter set")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--format", choices=["json", "csv", "text"], default="text")
    sub.add_argument("--out", help="write the report here instead of stdout")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process; each `parse_args` returns a fresh Namespace."""
    parser = argparse.ArgumentParser(prog="noisekey")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("keygen", help="sample an admissible grouping key")
    _add_common(p)
    p.add_argument("--key-length", dest="key_length", type=int)
    p.add_argument("--balance-limit", dest="balance_limit", type=float)
    p.add_argument("--key-out", dest="key_out", help="also write a loadable one-line hex key file")
    p.set_defaults(func=cmd_keygen)

    p = subs.add_parser("capacity", help="secure-rate lower bound")
    _add_common(p)
    p.add_argument("--unit-blocks", dest="unit_blocks", type=int)
    p.add_argument("--fluctuation-sigmas", dest="fluctuation_sigmas", type=float)
    p.add_argument("--safety-bits", dest="safety_bits", type=int)
    p.add_argument("--eve-ber", dest="eve_ber", type=float)
    p.set_defaults(func=cmd_capacity)

    p = subs.add_parser("analyze", help="full security report")
    _add_common(p)
    p.add_argument("--unit-blocks", dest="unit_blocks", type=int)
    p.add_argument("--fluctuation-sigmas", dest="fluctuation_sigmas", type=float)
    p.add_argument("--safety-bits", dest="safety_bits", type=int)
    p.add_argument("--eve-ber", dest="eve_ber", type=float)
    p.add_argument("--bob-ber", dest="bob_ber", type=float)
    p.add_argument("--method", type=int, choices=[1, 2])
    p.add_argument("--delta-mode", dest="delta_mode", choices=["exact", "normal"])
    p.set_defaults(func=cmd_analyze)

    p = subs.add_parser("simulate", help="run end-to-end sessions")
    _add_common(p)
    p.add_argument("--blocks-target", dest="blocks_target", type=int)
    p.add_argument("--trials", type=int)
    p.add_argument("--method", type=int, choices=[1, 2])
    p.add_argument("--capture", help="write the tap's frame capture here")
    p.set_defaults(func=cmd_simulate)

    p = subs.add_parser("attack", help="exhaustive candidate enumeration on a toy scenario")
    _add_common(p)
    p.add_argument("--max-weight", dest="max_weight", type=int)
    p.add_argument("--pattern-unit", dest="pattern_unit", choices=["symbol", "bit"])
    p.add_argument("--eve-ber", dest="eve_ber", type=float)
    p.set_defaults(func=cmd_attack)

    p = subs.add_parser(
        "reproduce-table2",
        help="analyzer grid against the published reference figures",
    )
    _add_common(p)
    p.set_defaults(func=cmd_table)
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
