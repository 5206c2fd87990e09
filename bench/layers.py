"""The traced run: which package names it wraps and the per-layer metrics.

The wrapped names are the module-level names `noisekey.session` and
`noisekey.cli` call into, the entry points the benchmark itself calls,
`oracle.partition_by_parity` and `FieldSpec.eval_poly_at_powers`. Span
names follow the module that defines the function.

Per-layer values are per traced pass (a pass is one root span named
`pass`), except `*.us*` (per call) and the set-up layers (per set-up).
"""

from __future__ import annotations

import statistics

from noisekey import channel, cli, gf, grouping, oracle, rs, session

from spans import END, NAME, NOTE, START, roots_below, self_times

DECODE_BUCKETS = ("w0", "low", "high", "fail")
DECODE_REASONS = ("locator degree", "root count", "zero derivative", "zero magnitude", "reverify")


def _decode_note(args, result):
    return [result.ok, result.corrected, result.reason, args[0].t]


def _payload_bits(args, result):
    return len(args[0].payload)


def _input_bits(args, result):
    return len(args[0])


def _candidates(args, result):
    return result.total_candidates


SESSION_TARGETS = [
    ("run_transmitter", "session.run_transmitter", None),
    ("run_receiver", "session.run_receiver", None),
    ("_key_mask", "grouping._key_mask", None),
    ("block_fits_key_period", "grouping.block_fits_key_period", None),
    ("encode_parity", "rs.encode_parity", None),
    ("decode_block", "rs.decode_block", _decode_note),
    ("bits_to_symbols", "rs.bits_to_symbols", None),
    ("symbols_to_bits", "rs.symbols_to_bits", None),
    ("extract_key", "amplify.extract_key", _input_bits),
    ("capacity_lower_bound", "amplify.capacity_lower_bound", None),
    ("deliver", "channel.deliver", _payload_bits),
]
CLI_TARGETS = [
    ("main", "cli.main", None),
    ("build_field", "gf.build_field", None),
    ("make_code", "rs.make_code", None),
    ("sample_key", "grouping.sample_key", None),
    ("capacity_lower_bound", "amplify.capacity_lower_bound", None),
    ("capacity_table", "analysis.capacity_table", None),
    ("security_report", "analysis.security_report", None),
    ("make_scenario", "oracle.make_scenario", None),
    ("enumerate_with_errors", "oracle.enumerate_with_errors", _candidates),
    ("run_session", "session.run_session", None),
    ("write_capture", "channel.write_capture", None),
]


def install(tracer) -> None:
    """Wrap every traced name; `tracer.restore()` undoes it."""
    for attr, name, note in SESSION_TARGETS:
        tracer.wrap(session, attr, name, note)
    for attr, name, note in CLI_TARGETS:
        tracer.wrap(cli, attr, name, note)
    tracer.wrap(channel, "deliver", "channel.deliver", _payload_bits)
    tracer.wrap(gf, "build_field", "gf.build_field")
    tracer.wrap(rs, "make_code", "rs.make_code")
    tracer.wrap(grouping, "sample_key", "grouping.sample_key")
    tracer.wrap(oracle, "partition_by_parity", "oracle.partition_by_parity")
    tracer.wrap(gf.FieldSpec, "eval_poly_at_powers", "gf.eval_poly_at_powers")


def decode_bucket(ok: bool, corrected: int, t: int) -> str:
    if not ok:
        return "fail"
    if corrected == 0:
        return "w0"
    return "low" if corrected <= t // 2 else "high"


def layer_metrics(spans) -> dict:
    """Per-layer metrics from the spans of the traced set-up and passes."""
    selfs = self_times(spans)
    passes = roots_below(spans, "pass")
    setups = roots_below(spans, "setup")
    n_pass = max(len(passes), 1)
    n_setup = max(len(setups), 1)

    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_total: dict[str, float] = {}
    notes: dict[str, list] = {}
    decode_us: dict[str, list[float]] = {b: [] for b in DECODE_BUCKETS}
    for members in passes:
        for i in members:
            s = spans[i]
            name, dur = s[NAME], s[END] - s[START]
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + dur
            self_total[name] = self_total.get(name, 0.0) + selfs[i]
            if s[NOTE] is not None:
                notes.setdefault(name, []).append(s[NOTE])
            if name == "rs.decode_block":
                ok, corrected, _, t = s[NOTE]
                decode_us[decode_bucket(ok, corrected, t)].append(1e6 * dur)
    setup_total: dict[str, float] = {}
    for members in setups:
        for i in members:
            s = spans[i]
            setup_total[s[NAME]] = setup_total.get(s[NAME], 0.0) + s[END] - s[START]

    out: dict[str, tuple[float, str]] = {}

    def per_pass(name, value, unit):
        out[name] = (value / n_pass, unit)

    for layer in ("session.run_transmitter", "session.run_receiver", "cli.main"):
        per_pass(f"{layer}.self_s", self_total.get(layer, 0.0), "s/pass")
    for layer in ("grouping._key_mask", "rs.encode_parity", "rs.decode_block",
                  "rs.bits_to_symbols", "rs.symbols_to_bits", "gf.eval_poly_at_powers",
                  "channel.deliver", "amplify.extract_key"):
        per_pass(f"{layer}.calls", calls.get(layer, 0), "calls/pass")
        per_pass(f"{layer}.s", total.get(layer, 0.0), "s/pass")
    for layer in ("analysis.capacity_table", "analysis.security_report", "oracle.make_scenario",
                  "oracle.enumerate_with_errors", "oracle.partition_by_parity"):
        per_pass(f"{layer}.s", total.get(layer, 0.0), "s/pass")

    decodes = notes.get("rs.decode_block", [])
    out["rs.decode_block.ok_ratio"] = (
        sum(1 for ok, *_ in decodes if ok) / len(decodes) if decodes else 0.0, "ratio"
    )
    for bucket in DECODE_BUCKETS:
        samples = decode_us[bucket]
        out[f"rs.decode_block.us.{bucket}"] = (
            statistics.median(samples) if samples else 0.0, "us/call"
        )
        per_pass(f"rs.decode_block.n.{bucket}", len(samples), "calls/pass")
    for reason in DECODE_REASONS:
        count = sum(1 for ok, _, r, _ in decodes if not ok and r == reason)
        per_pass(f"rs.decode_block.fail.{reason.replace(' ', '_')}", count, "calls/pass")

    per_pass("channel.deliver.bits", sum(notes.get("channel.deliver", [])), "bits/pass")
    extract = [spans[i][END] - spans[i][START] for m in passes for i in m
               if spans[i][NAME] == "amplify.extract_key"]
    out["amplify.extract_key.us_per_call"] = (
        1e6 * statistics.median(extract) if extract else 0.0, "us/call"
    )
    in_bits = notes.get("amplify.extract_key", [])
    out["amplify.extract_key.in_bits"] = (
        sum(in_bits) / len(in_bits) if in_bits else 0.0, "bits/call"
    )
    found = notes.get("oracle.enumerate_with_errors", [])
    out["oracle.candidates_per_key"] = (
        sum(found) / len(found) if found else 0.0, "candidates/call"
    )
    for layer in ("amplify.capacity_lower_bound", "gf.build_field"):
        out[f"{layer}.s"] = (setup_total.get(layer, 0.0) / n_setup, "s/setup")
    return out
