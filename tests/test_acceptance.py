"""Acceptance suite: every release-gating check, one test per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
PASS lines. Tolerances are fixed here, not configurable.
"""

import itertools
import math
import time
import warnings

import numpy as np
import pytest

from noisekey import presets
from noisekey.amplify import CapacityParams, binary_entropy, fluctuation_adjusted_ber
from noisekey.analysis import (
    average_pattern_count_log2,
    binomial_tail,
    candidate_count_log2,
    capacity_table,
    effective_key_length,
    error_pattern_entropy,
    outside_set_probability,
    symbol_error_rate,
)
from noisekey.channel import ChannelConfig
from noisekey.gf import build_field
from noisekey.grouping import sample_key
from noisekey.oracle import (
    TinyScenario,
    admissible_keys,
    class_size_by_parity,
    enumerate_info_candidates,
    enumerate_with_errors,
    make_scenario,
)
from noisekey.rs import bits_to_symbols, encode_parity, make_code, symbols_to_bits
from noisekey.session import SessionConfig, run_session

EVE_BER = 1.0 - 0.9 ** 0.125  # symbol error rate 0.1 over GF(2^8)


def _ok(label: str, detail: str = "") -> None:
    print(f"[PASS] {label}" + (f": {detail}" if detail else ""))


def test_criterion_01_reference_table_reproduction():
    code = presets.design_code()  # cached; excluded from the timed region
    start = time.perf_counter()
    budgets = capacity_table(code, EVE_BER, EVE_BER, presets.TABLE_COLUMNS, method=1)
    cells = {}
    for name, ref in presets.REFERENCE_TABLE.items():
        computed = [
            getattr(budget, name) if name != "key_bits_per_block" else budget.key_bits_real / unit_blocks
            for budget, (unit_blocks, _, _) in zip(budgets, presets.TABLE_COLUMNS)
        ]
        cells[name] = computed
        for got, want in zip(computed, ref["values"]):
            assert presets.matches_reference(got, want, ref["upper_bound"]), (name, got, want)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"analyzer took {elapsed:.3f}s"
    _ok("criterion 1 reference table", f"18 cells reproduced in {elapsed*1e3:.0f} ms")


def test_criterion_02_capacity_intermediates():
    code = presets.design_code()

    def params(u, r, ns):
        return CapacityParams(code=code, eve_ber=EVE_BER, unit_blocks=u, fluctuation_sigmas=r, safety_bits=ns)

    p1 = fluctuation_adjusted_ber(params(1, 3.0, 10))
    p2 = fluctuation_adjusted_ber(params(10, 5.0, 16))
    checks = [
        (p1, 0.00376),
        (p2, 0.00817),
        (binary_entropy(p1), 0.0357),
        (binary_entropy(p2), 0.0684),
        (binary_entropy(EVE_BER), 0.101),
    ]
    for got, want in checks:
        assert abs(got - want) / want <= 0.02, (got, want)
    _ok("criterion 2 adjusted-noise intermediates", "all five values within 2%")


def test_criterion_03_error_pattern_combinatorics():
    m, k, d = 8, 167, 89
    mk = m * k
    mean = EVE_BER * mk
    spread = math.sqrt(mk * EVE_BER * (1 - EVE_BER))
    assert abs(mean - 17.5) / 17.5 <= 0.01
    assert abs(spread - 4.15) / 4.15 <= 0.01
    log2_count = average_pattern_count_log2(m, k, EVE_BER)
    assert abs(log2_count - 131) <= 1.0
    assert abs(log2_count - math.log2(2.8e39)) <= 1.0
    entropy = error_pattern_entropy(m, k, EVE_BER, d).truncated
    assert abs(entropy - 134) <= 1.0
    assert abs(math.log2(2 * spread) + log2_count - entropy) <= 1.0
    _ok(
        "criterion 3 pattern combinatorics",
        f"mean={mean:.2f} spread={spread:.3f} log2C={log2_count:.2f} entropy={entropy:.2f}",
    )


def test_criterion_04_design_point_constants():
    delta = outside_set_probability(100_000, 3.0)
    assert abs(delta - 0.0027) / 0.0027 <= 0.05
    exponent = candidate_count_log2(2496, 8, 255, 167, 0.0)
    assert exponent == 1792
    effective = effective_key_length(2496, 8, 255, 167, EVE_BER, delta)
    assert abs(effective - 1926) <= 1.0
    _ok("criterion 4 design-point constants", f"delta={delta:.5f} exponent=1792 effective={effective:.2f}")


def test_criterion_05_preimage_counts_exact():
    code = make_code(build_field(2, 0x7), 3, 2)
    expected = 2 ** (code.m * (2 * code.k - code.n))
    for parity in range(4):
        preimages = enumerate_info_candidates(code, symbols_to_bits(np.array([parity]), code.m))
        assert len(preimages) == expected == 4
        for row in preimages:
            assert int(bits_to_symbols(encode_parity(code, row), code.m)[0]) == parity
    _ok("criterion 5 parity preimage counts", "4 preimages for each of the 4 parity values")


def test_criterion_06_average_candidate_class_size():
    start = time.perf_counter()
    code = make_code(build_field(2, 0x7), 3, 2)
    rng = np.random.default_rng(90)
    for key_length, draws in ((12, 100), (14, 100)):
        keys = admissible_keys(key_length, 2.0)
        delta_exact = 1 - len(keys) / 2**key_length
        formula = 2 ** (key_length - code.parity_bits) * (1 - delta_exact)
        means = []
        for _ in range(draws):
            x = rng.integers(0, 2, key_length * code.info_bits, dtype=np.uint8)
            scenario = TinyScenario(
                code=code, key_space=keys, x=x, parity=np.zeros(1, dtype=np.int64)
            )
            means.append(class_size_by_parity(scenario).mean())
        grand = float(np.mean(means))
        assert abs(grand - formula) / formula <= 0.10, (key_length, grand, formula)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _ok("criterion 6 candidate class averages", f"two key sizes x 100 draws in {elapsed:.1f}s")


def test_criterion_07_candidate_set_disjointness():
    code = make_code(build_field(3, 0xB), 7, 5)
    violations = 0
    for seed in (91, 92, 93):
        scenario, _ = make_scenario(code, 12, 2.0, np.random.default_rng(seed), ber=0.02)
        for unit in ("symbol", "bit"):
            cands = enumerate_with_errors(scenario, code.t, unit)
            sets = [
                {row.tobytes() for row in cands.per_pattern[p]} for p in cands.patterns
            ]
            for a, b in itertools.combinations(range(len(sets)), 2):
                violations += len(sets[a] & sets[b])
    assert violations == 0
    _ok("criterion 7 candidate disjointness", "0 violations over 3 scenarios x 2 pattern units")


def test_criterion_08_protocol_round_trip():
    start = time.perf_counter()
    code = make_code(build_field(5, 0x25), 31, 19)
    ber = 0.019
    units = 10_000
    p_eff = symbol_error_rate(ber, code.m)
    per_unit = binomial_tail(code.k, p_eff, code.t, "above")
    assert 3e-4 <= per_unit <= 3e-3  # target operating point ~1e-3

    key = sample_key(160, 2.0, np.random.default_rng(94))
    config = SessionConfig(
        key=key,
        code=code,
        channel=ChannelConfig(eve_ber=ber, bob_ber=ber, method=1, seed=95),
        blocks_target=units,
        unit_blocks=1,
        fluctuation_sigmas=0.5,
        safety_bits=1,
        source_seed=96,
        hash_seed=97,
    )
    report = run_session(config)
    assert report.units_completed == units

    disagreements = 0
    for ka, kb in zip(report.keys_alice, report.keys_bob):
        if kb is None or not np.array_equal(ka, kb):
            disagreements += 1
        if kb is not None:
            assert np.array_equal(ka, kb)  # every decoded unit agrees exactly
    expected = units * per_unit
    window = 4 * math.sqrt(units * per_unit * (1 - per_unit))
    assert abs(disagreements - expected) <= window, (disagreements, expected, window)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _ok(
        "criterion 8 protocol round trip",
        f"{disagreements} failed units vs {expected:.1f} predicted (window {window:.1f}) in {elapsed:.1f}s",
    )


def test_criterion_09_codec_property_suite():
    # exhaustive single-symbol patterns on the small code
    small = make_code(build_field(3, 0xB), 7, 5)
    rng = np.random.default_rng(98)
    from noisekey.rs import codeword, decode_block

    for _ in range(3):
        info = rng.integers(0, 8, size=5)
        clean = codeword(small, info)
        for pos in range(7):
            for val in range(1, 8):
                bad = clean.copy()
                bad[pos] ^= val
                res = decode_block(small, bad)
                assert res.ok and (res.info == info).all()

    # randomized trials at full scale, all weights through the guarantee
    big = presets.design_code()
    info = rng.integers(0, 256, size=big.k)
    clean = codeword(big, info)
    for trial in range(10_000):
        weight = int(rng.integers(0, big.t + 1))
        bad = clean.copy()
        if weight:
            pos = rng.choice(big.n, size=weight, replace=False)
            bad[pos] ^= rng.integers(1, 256, size=weight)
        res = decode_block(big, bad)
        assert res.ok and res.corrected == weight and (res.info == info).all(), trial

    # field axioms: exhaustive at small degrees, sampled at degree 8
    for m in (2, 3):
        fld = build_field(m)
        order = fld.order
        for a in range(order):
            for b in range(order):
                assert fld.mul(a, b) == fld.mul(b, a)
                for c in range(order):
                    assert fld.mul(a, fld.mul(b, c)) == fld.mul(fld.mul(a, b), c)
                    assert fld.mul(a, b ^ c) == fld.mul(a, b) ^ fld.mul(a, c)
    gf256 = build_field(8)
    triples = rng.integers(0, 256, size=(100_000, 3))
    a, b, c = triples[:, 0], triples[:, 1], triples[:, 2]
    assert (gf256.mul_vec(a, b) == gf256.mul_vec(b, a)).all()
    assert (gf256.mul_vec(a, gf256.mul_vec(b, c)) == gf256.mul_vec(gf256.mul_vec(a, b), c)).all()
    assert (gf256.mul_vec(a, b ^ c) == (gf256.mul_vec(a, b) ^ gf256.mul_vec(a, c))).all()
    _ok("criterion 9 codec properties", "exhaustive small-code patterns + 10k full-scale decodes")


def test_criterion_10_attack_cost_matches_accounting():
    code = make_code(build_field(3, 0xB), 7, 5)
    key_length, balance = 12, 2.0
    ber = 0.05
    scenario, _ = make_scenario(code, key_length, balance, np.random.default_rng(99), ber=ber)
    cands = enumerate_with_errors(scenario, code.t, "bit")
    tally = cands.total_candidates

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # heavy-tail warning is expected at toy scale
        entropy = error_pattern_entropy(code.m, code.k, ber, code.d).truncated
    keys = admissible_keys(key_length, balance)
    delta_exact = 1 - len(keys) / 2**key_length
    formula = 2**entropy * 2 ** (key_length - code.parity_bits) * (1 - delta_exact)
    ratio = tally / formula
    assert 0.25 <= ratio <= 4.0, (tally, formula, ratio)

    # full-scale parameters stay out of reach of the exhaustive machinery
    assert candidate_count_log2(2496, 8, 255, 167, 0.0027) > 1790
    with pytest.raises(ValueError):
        admissible_keys(2496, 3.5)
    _ok(
        "criterion 10 attack-cost accounting",
        f"tally {tally} vs 2^entropy x candidates {formula:.0f} (ratio {ratio:.2f})",
    )
