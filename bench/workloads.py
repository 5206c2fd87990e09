"""The benchmark's workloads, driven only through the package's public entry points.

Sessions go through `session.run_transmitter`, `channel.deliver` for bob
and for eve, then `session.run_receiver` (the calls `run_session` makes);
the analyst workload goes through `cli.main`. Names are looked up on their
modules at call time so a `spans.Tracer` can wrap them.

Every input is derived from the workload seed: pass i of a run uses
sub-seeds of (seed, i), so passes differ and no cache can see a repeat,
while the same seed always gives the same passes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import statistics
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from noisekey import amplify, analysis, channel, cli, gf, grouping, rs, session

from checks import (
    Ledger,
    admissible_count,
    truncated_binomial,
    unpack_symbols,
    z_score,
)
from spans import NOTE, Tracer


def sub_seeds(seed: int, index: int, count: int) -> list[int]:
    return [int(x) for x in np.random.SeedSequence([seed, index]).generate_state(count)]


def median(values):
    return statistics.median(values) if values else 0.0


def quantile(values, q: float) -> float:
    """Nearest-rank quantile; q in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# --------------------------------------------------------------------------
# Session workloads
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SessionSpec:
    m: int
    primitive_poly: int
    n: int
    k: int
    key_length: int
    balance_limit: float
    ber: float
    method: int
    unit_blocks: int
    fluctuation_sigmas: float
    safety_bits: int
    blocks: int                 # blocks per pass
    oracle_units: tuple | None  # units per pass checked against the oracle; None = all


SESSION_SPECS = {
    # The paper's operating point: (255,167) over GF(2^8), symbol error rate
    # 0.1, 13360-bit hashing units giving 506-bit keys.
    "design-session": SessionSpec(
        m=8, primitive_poly=0x11D, n=255, k=167, key_length=2496, balance_limit=3.5,
        ber=1.0 - 0.9 ** (1.0 / 8.0), method=1, unit_blocks=10,
        fluctuation_sigmas=3.0, safety_bits=10, blocks=20, oracle_units=(0,),
    ),
    # Thousands of tiny blocks with noisy parity: per-call overhead dominates.
    "toy-session": SessionSpec(
        m=5, primitive_poly=0x25, n=31, k=19, key_length=160, balance_limit=2.0,
        ber=0.019, method=2, unit_blocks=1,
        fluctuation_sigmas=0.5, safety_bits=1, blocks=1000, oracle_units=None,
    ),
}


@dataclass
class SessionPass:
    config: session.SessionConfig
    tx: object
    bob: list
    eve: list
    rx: object
    tx_s: float
    deliver_s: float
    rx_s: float

    @property
    def wall_s(self) -> float:
        return self.tx_s + self.deliver_s + self.rx_s


class SessionWorkload:
    """Closed-loop sessions with one client; one pass is one staged session."""

    def __init__(self, name: str, seed: int):
        spec = SESSION_SPECS[name]
        self.name, self.spec, self.seed = name, spec, seed
        fld = gf.build_field(spec.m, spec.primitive_poly)
        self.code = rs.make_code(fld, spec.n, spec.k)
        key_seed = sub_seeds(seed, 0, 1)[0]
        self.key = grouping.sample_key(
            spec.key_length, spec.balance_limit, np.random.default_rng(key_seed)
        )
        self.config(0)  # a fresh process pays SessionConfig's checks here
        self.samples: list[dict] = []
        self.stats = {"passes": 0, "blocks": 0, "failed": 0, "corrected": 0, "ok": 0,
                      "eve_blocks": 0, "eve_flips": 0,
                      "units_failed": 0, "units_miscorrected": 0}

    def config(self, index: int) -> session.SessionConfig:
        spec = self.spec
        chan_seed, source_seed, hash_seed = sub_seeds(self.seed, index + 1, 3)
        return session.SessionConfig(
            key=self.key,
            code=self.code,
            channel=channel.ChannelConfig(
                eve_ber=spec.ber, bob_ber=spec.ber, method=spec.method, seed=chan_seed
            ),
            blocks_target=spec.blocks,
            unit_blocks=spec.unit_blocks,
            fluctuation_sigmas=spec.fluctuation_sigmas,
            safety_bits=spec.safety_bits,
            source_seed=source_seed,
            hash_seed=hash_seed,
        )

    def run(self, config) -> SessionPass:
        t0 = perf_counter()
        tx = session.run_transmitter(config)
        t1 = perf_counter()
        bob = [channel.deliver(f, config.channel, "bob") for f in tx.frames]
        eve = [channel.deliver(f, config.channel, "eve") for f in tx.frames]
        t2 = perf_counter()
        rx = session.run_receiver(bob, config)
        t3 = perf_counter()
        return SessionPass(config, tx, bob, eve, rx, t1 - t0, t2 - t1, t3 - t2)

    @staticmethod
    def digest(p: SessionPass) -> str:
        """SHA-256 over every frame's wire bytes, all keys and all block outcomes."""
        h = hashlib.sha256()
        for frames in (p.tx.frames, p.bob, p.eve):
            for f in frames:
                h.update(channel.encode_frame(f))
        for keys in (p.tx.keys, p.rx.keys):
            for key in keys:
                h.update(b"-" if key is None else np.asarray(key, dtype=np.uint8).tobytes())
                h.update(b";")
        for o in p.rx.outcomes:
            h.update(f"{o.group},{o.index},{int(o.ok)},{o.corrected};".encode())
        return h.hexdigest()

    def record(self, p: SessionPass) -> None:
        """Keep the timings of one timed pass."""
        agreed = sum(
            1 for ka, kb in zip(p.tx.keys, p.rx.keys)
            if kb is not None and np.array_equal(ka, kb)
        )
        self.samples.append({
            "wall_s": p.wall_s, "tx_s": p.tx_s, "rx_s": p.rx_s,
            "blocks": len(p.tx.blocks), "decoded": len(p.rx.outcomes),
            "agreed_bits": agreed * p.config.key_bits,
        })

    def check(self, p: SessionPass, ledger: Ledger, full: bool = False) -> None:
        """Check one pass's outputs and add its protocol statistics.

        `full` also compares the staged path with `run_session`.
        """
        cfg, tx, rx, code = p.config, p.tx, p.rx, self.code
        spec, tag = self.spec, f"{self.name}/hash{cfg.hash_seed}"
        units = len(tx.blocks) // spec.unit_blocks
        shaped = all([
            ledger.check(f"{tag}: block count", len(tx.blocks) == spec.blocks),
            ledger.check(f"{tag}: unit count", len(tx.keys) == units == len(rx.keys)),
            ledger.check(f"{tag}: outcome count", len(rx.outcomes) == len(tx.blocks)),
        ])

        # Alice's blocks are the key-routed slices of her stream.
        groups = grouping.split_stream(tx.stream, self.key)
        routed = {1: groups.group1, 2: groups.group2}
        size = code.info_bits
        ledger.check(f"{tag}: alice blocks follow the key routing", all(
            np.array_equal(b.info_bits, routed[b.group][b.index * size:(b.index + 1) * size])
            for b in tx.blocks
        ))

        # Replay the receiver to see Bob's corrected blocks.
        with Tracer() as tracer:
            tracer.wrap(session, "decode_block", "decode_block", lambda args, result: result)
            with tracer.span("replay"):
                replay = session.run_receiver(p.bob, cfg)
        results = [s[NOTE] for s in tracer.spans[1:]]
        shaped &= ledger.check(
            f"{tag}: receiver is deterministic",
            same_keys(replay.keys, rx.keys) and replay.outcomes == rx.outcomes
            and len(results) == len(rx.outcomes),
        )

        sampled = range(units) if spec.oracle_units is None else spec.oracle_units
        for u in range(units if shaped else 0):
            members = range(u * spec.unit_blocks, (u + 1) * spec.unit_blocks)
            alice_bits = np.concatenate([tx.blocks[i].info_bits for i in members])
            failed = any(not results[i].ok for i in members)
            ledger.check(f"{tag}: unit {u} bob key present iff decoded",
                         (rx.keys[u] is None) == failed)
            seed = amplify.HashSeed.of(cfg.hash_seed, u)
            if u in sampled:
                ledger.check_key(f"{tag}: alice unit {u} key", seed, alice_bits, tx.keys[u])
            if failed:
                self.stats["units_failed"] += 1
                continue
            bob_bits = np.concatenate([unpack_symbols(results[i].info, code.m) for i in members])
            if not np.array_equal(bob_bits, alice_bits):
                self.stats["units_miscorrected"] += 1
            if u in sampled:
                ledger.check_key(f"{tag}: bob unit {u} key", seed, bob_bits, rx.keys[u])

        flips = self.eve_flips(p)
        if full:
            ref = session.run_session(cfg)
            ledger.check(f"{tag}: staged path equals run_session", (
                same_keys(ref.keys_alice, tx.keys)
                and same_keys(ref.keys_bob, rx.keys)
                and ref.bob_outcomes == rx.outcomes
                and list(ref.eve_block_flips) == flips
            ))

        st = self.stats
        st["passes"] += 1
        st["blocks"] += len(rx.outcomes)
        st["failed"] += sum(1 for o in rx.outcomes if not o.ok)
        st["ok"] += sum(1 for o in rx.outcomes if o.ok)
        st["corrected"] += sum(o.corrected for o in rx.outcomes if o.ok)
        st["eve_blocks"] += len(flips)
        st["eve_flips"] += sum(flips)

    def eve_flips(self, p: SessionPass) -> list[int]:
        """Bit errors in the tap's copy of each block, routed independently."""
        eve_stream = np.concatenate(
            [f.payload for f in p.eve if f.kind == channel.KIND_INFO]
        )
        groups = grouping.split_stream(p.tx.stream ^ eve_stream, self.key)
        routed = {1: groups.group1, 2: groups.group2}
        size = self.code.info_bits
        return [
            int(routed[b.group][b.index * size:(b.index + 1) * size].sum())
            for b in p.tx.blocks
        ]

    def metrics(self) -> dict:
        s = self.samples
        return {
            "tx_blocks_per_s": (median([x["blocks"] / x["tx_s"] for x in s]), "blocks/s"),
            "rx_blocks_per_s": (median([x["decoded"] / x["rx_s"] for x in s]), "blocks/s"),
            "agreed_key_bits_per_s": (
                median([x["agreed_bits"] / x["wall_s"] for x in s]), "bit/s"
            ),
        }

    def diagnostics(self) -> dict:
        """Observed protocol statistics next to the analyzer's predictions."""
        spec, code, st = self.spec, self.code, self.stats
        params = amplify.CapacityParams(
            code=code, eve_ber=spec.ber, unit_blocks=spec.unit_blocks,
            fluctuation_sigmas=spec.fluctuation_sigmas, safety_bits=spec.safety_bits,
        )
        p_fail = analysis.gamma_report(params, spec.ber, spec.method).per_block_failure
        n_blocks = max(st["blocks"], 1)
        fail_ratio = st["failed"] / n_blocks
        # Method 2 sends parity through the noise too, so all n symbols count.
        trials = code.k if spec.method == 1 else code.n
        p_sym = analysis.symbol_error_rate(spec.ber, code.m)
        mean_c, sd_c = truncated_binomial(trials, p_sym, code.t)
        obs_c = st["corrected"] / max(st["ok"], 1)
        mk = code.info_bits
        obs_e = st["eve_flips"] / max(st["eve_blocks"], 1)
        return {
            "block_failure_ratio": {
                "observed": fail_ratio, "predicted": p_fail, "blocks": st["blocks"],
                "z": z_score(fail_ratio, p_fail, math.sqrt(p_fail * (1 - p_fail) / n_blocks)),
            },
            "mean_corrected_symbols": {
                "observed": obs_c, "predicted": mean_c,
                "predicted_untruncated": trials * p_sym, "blocks": st["ok"],
                "z": z_score(obs_c, mean_c, sd_c / math.sqrt(max(st["ok"], 1))),
            },
            "eve_mean_flips_per_block": {
                "observed": obs_e, "predicted": mk * spec.ber, "blocks": st["eve_blocks"],
                "z": z_score(obs_e, mk * spec.ber,
                             math.sqrt(mk * spec.ber * (1 - spec.ber) / max(st["eve_blocks"], 1))),
            },
            "units_failed": st["units_failed"],
            "units_miscorrected": st["units_miscorrected"],
            "passes_checked": st["passes"],
        }


def same_keys(a, b) -> bool:
    return len(a) == len(b) and all(
        (x is None and y is None)
        or (x is not None and y is not None and np.array_equal(x, y))
        for x, y in zip(a, b)
    )


# --------------------------------------------------------------------------
# Analyst workload
# --------------------------------------------------------------------------

# The (7,5) code over GF(8) with a 16-bit key and single-bit error patterns:
# one exhaustive enumeration costs a few hundred milliseconds.
ATTACK_PARAMS = {
    "m": 3, "primitive_poly": 0xB, "n": 7, "k": 5, "key_length": 16,
    "balance_limit": 2.0, "eve_ber": 0.0, "max_weight": 1, "pattern_unit": "bit",
}
# Published design-point constants the analyzer must reproduce.
EFFECTIVE_KEY_BITS = 1926
CANDIDATE_EXPONENT = 1792
# Calls per pass: enough reproduce-table2 samples for a p90 with ten beyond
# it, and each command a visible share of the pass time.
TABLE_CALLS = 20
ANALYZE_CALLS = 20


@dataclass
class AnalystCall:
    command: str
    argv: list
    seconds: float
    rc: int
    out: str


class AnalystWorkload:
    """In-process `cli.main` calls; one pass is TABLE_CALLS reproduce-table2,
    ANALYZE_CALLS analyze and one attack call."""

    def __init__(self, name: str, seed: int, work_dir):
        self.name, self.seed = name, seed
        self.params_path = work_dir / "attack-params.json"
        self.params_path.write_text(json.dumps(ATTACK_PARAMS, sort_keys=True))
        cli.build_parser()  # set-up cost a fresh process pays before its first call
        self.samples: dict[str, list[float]] = {"reproduce-table2": [], "analyze": [],
                                                "attack": []}
        self.expected_keys = admissible_count(
            ATTACK_PARAMS["key_length"], ATTACK_PARAMS["balance_limit"]
        )

    def config(self, index: int) -> list[tuple[str, list]]:
        attack_seed = sub_seeds(self.seed, index + 1, 1)[0]
        return (
            [("reproduce-table2", ["reproduce-table2", "--format", "json"])] * TABLE_CALLS
            + [("analyze", ["analyze", "--preset", "paper-255-167", "--format", "json"])]
            * ANALYZE_CALLS
            + [("attack", ["attack", "--params", str(self.params_path),
                           "--seed", str(attack_seed), "--format", "json"])]
        )

    def run(self, calls) -> list[AnalystCall]:
        out = []
        for command, argv in calls:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                t0 = perf_counter()
                rc = cli.main(argv)
                t1 = perf_counter()
            out.append(AnalystCall(command, argv, t1 - t0, rc, buf.getvalue()))
        return out

    @staticmethod
    def digest(calls: list[AnalystCall]) -> str:
        h = hashlib.sha256()
        for c in calls:
            h.update(f"{c.command} {c.rc}\n".encode())
            h.update(c.out.encode())
        return h.hexdigest()

    def record(self, calls: list[AnalystCall]) -> None:
        for c in calls:
            self.samples[c.command].append(c.seconds)

    def check(self, calls: list[AnalystCall], ledger: Ledger, full: bool = False) -> None:
        for c in calls:
            label = f"{self.name}: {' '.join(c.argv)}"
            try:
                doc = json.loads(c.out)
            except json.JSONDecodeError:
                ledger.check(f"{label}: output is JSON", False)
                continue
            if c.command == "reproduce-table2":
                ledger.check(f"{label}: all cells pass", c.rc == 0 and doc.get("all_pass") is True)
            elif c.command == "analyze":
                rep, par = doc.get("report", {}), doc.get("resolved_params", {})
                ledger.check(f"{label}: reference constants", (
                    c.rc == 0
                    and round(rep.get("effective_key_bits", -1)) == EFFECTIVE_KEY_BITS
                    and round(rep.get("log2_candidates", -1)) == CANDIDATE_EXPONENT
                    and par.get("key_length", 0) - par.get("m", 0) * (par.get("n", 0) - par.get("k", 0))
                    == CANDIDATE_EXPONENT
                ))
            else:
                ledger.check(f"{label}: true key found", (
                    c.rc == 0
                    and doc.get("true_key_found") is True
                    and doc.get("admissible_keys") == self.expected_keys
                ))

    def metrics(self) -> dict:
        s = self.samples
        return {
            "table2_p50_ms": (1e3 * median(s["reproduce-table2"]), "ms"),
            "table2_p90_ms": (1e3 * quantile(s["reproduce-table2"], 0.9), "ms"),
            "analyze_p50_ms": (1e3 * median(s["analyze"]), "ms"),
            "attack_p50_ms": (1e3 * median(s["attack"]), "ms"),
        }

    def diagnostics(self) -> dict:
        return {"calls": {k: len(v) for k, v in self.samples.items()}}


def make_workload(name: str, seed: int, work_dir):
    if name in SESSION_SPECS:
        return SessionWorkload(name, seed)
    if name == "analyst":
        return AnalystWorkload(name, seed, work_dir)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = (*SESSION_SPECS, "analyst")
