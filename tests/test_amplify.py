import math

import numpy as np
import pytest
from scipy.stats import chi2

from noisekey.amplify import (
    CapacityParams,
    HashSeed,
    binary_entropy,
    capacity_lower_bound,
    expand_seed,
    extract_key,
    fluctuation_adjusted_ber,
    leakage_bound,
    toeplitz_matrix,
)
from noisekey.rs import make_code

EVE_BER = 1.0 - 0.9 ** 0.125  # symbol error rate 0.1 on 8-bit symbols


@pytest.fixture(scope="module")
def design(code_255_167):
    def params(unit_blocks, sigmas, safety):
        return CapacityParams(
            code=code_255_167,
            eve_ber=EVE_BER,
            unit_blocks=unit_blocks,
            fluctuation_sigmas=sigmas,
            safety_bits=safety,
        )

    return params


def test_binary_entropy_basics():
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.25) == binary_entropy(0.75)
    assert binary_entropy(EVE_BER) == pytest.approx(0.101, rel=0.02)
    assert binary_entropy(0.00376) == pytest.approx(0.0357, rel=0.02)
    with pytest.raises(ValueError):
        binary_entropy(1.5)


def test_adjusted_ber_reference_points(design):
    assert fluctuation_adjusted_ber(design(1, 3.0, 10)) == pytest.approx(0.00376, rel=0.02)
    assert fluctuation_adjusted_ber(design(10, 5.0, 16)) == pytest.approx(0.00817, rel=0.02)
    assert fluctuation_adjusted_ber(design(1, 0.0, 10)) == pytest.approx(EVE_BER, abs=0.0)


def test_adjusted_ber_clamps_with_warning():
    code = make_code(__import__("noisekey.gf", fromlist=["build_field"]).build_field(5, 0x25), 31, 19)
    params = CapacityParams(code=code, eve_ber=0.001, unit_blocks=1, fluctuation_sigmas=3.0, safety_bits=1)
    with pytest.warns(UserWarning):
        assert fluctuation_adjusted_ber(params) == 0.0


def test_capacity_reference_points(design):
    cases = [
        ((1, 3.0, 10), 0.00615, 12.5),
        ((10, 3.0, 10), 0.0248, 50.6),
        ((10, 5.0, 16), 0.0204, 41.6),
    ]
    for (u, r, ns), rate, per_block in cases:
        bound = capacity_lower_bound(design(u, r, ns))
        assert bound.secure
        assert bound.rate == pytest.approx(rate, rel=0.005)
        assert bound.key_bits_real / u == pytest.approx(per_block, rel=0.005)
        assert bound.key_bits_max == math.floor(bound.key_bits_real)


def test_capacity_monotone_in_unit_blocks(design):
    rates = [capacity_lower_bound(design(u, 3.0, 10)).rate for u in (1, 2, 5, 10, 20)]
    assert rates == sorted(rates)


def test_capacity_non_increasing_in_safety_bits(design):
    rates = [capacity_lower_bound(design(1, 3.0, ns)).rate for ns in (1, 5, 10, 20)]
    assert rates == sorted(rates, reverse=True)


def test_adjusted_never_exceeds_raw(design):
    for r in (0.0, 0.5, 1.0, 3.0):
        adj = fluctuation_adjusted_ber(design(1, r, 10))
        if r == 0.0:
            assert adj == EVE_BER
        else:
            assert adj < EVE_BER
    assert fluctuation_adjusted_ber(design(10, 5.0, 10)) < EVE_BER


def test_insecure_rate_reported():
    from noisekey.gf import build_field

    code = make_code(build_field(5, 0x25), 31, 19)
    params = CapacityParams(code=code, eve_ber=0.001, unit_blocks=1, fluctuation_sigmas=0.5, safety_bits=10)
    with pytest.warns(UserWarning):
        bound = capacity_lower_bound(params)
    assert not bound.secure and bound.key_bits_max == 0


def test_leakage_bound_values():
    assert leakage_bound(10, 12.5) == pytest.approx(1.13e-4, rel=0.01)
    assert leakage_bound(16, 416) == pytest.approx(5.29e-8, rel=0.01)
    assert leakage_bound(64, 12.5) < 1e-19
    with pytest.raises(ValueError):
        leakage_bound(0, 10)
    with pytest.raises(ValueError):
        leakage_bound(10, 0)


def test_leakage_bound_refuses_nan():
    # Both used to return NaN.
    with pytest.raises(ValueError, match="key_bits must be positive"):
        leakage_bound(10, math.nan)
    with pytest.raises(ValueError, match="safety_bits must be >= 1"):
        leakage_bound(math.nan, 10)


def test_extract_deterministic():
    rng = np.random.default_rng(40)
    bits = rng.integers(0, 2, 96, dtype=np.uint8)
    seed = HashSeed.of(123, 4)
    assert (extract_key(bits, 16, seed) == extract_key(bits, 16, seed)).all()
    other = extract_key(bits, 16, HashSeed.of(123, 5))
    assert not (extract_key(bits, 16, seed) == other).all()


def test_extract_matches_explicit_matrix():
    rng = np.random.default_rng(41)
    seed = HashSeed.of(9)
    mat = toeplitz_matrix(seed, 48, 12)
    for _ in range(20):
        x = rng.integers(0, 2, 48, dtype=np.uint8)
        direct = (mat @ x) & 1
        assert (extract_key(x, 12, seed) == direct).all()


def test_extract_rate_refusal():
    bits = np.zeros(32, dtype=np.uint8)
    with pytest.raises(ValueError):
        extract_key(bits, 6, HashSeed.of(1), key_bits_max=5)
    extract_key(bits, 5, HashSeed.of(1), key_bits_max=5)


def test_extract_refuses_a_non_integer_key_size():
    # numpy used to refuse 2.5 with "expected a sequence of integers".
    bits = np.ones(13, dtype=np.uint8)
    with pytest.raises(ValueError, match="key_bits must be an integer >= 1, got 2.5"):
        extract_key(bits, 2.5, HashSeed.of(1))
    assert len(extract_key(bits, np.int64(2), HashSeed.of(1))) == 2
    # True used to pass as 1 and end in "an integer is required".
    with pytest.raises(ValueError, match="key_bits must be an integer >= 1, got True"):
        extract_key(bits, True, HashSeed.of(1))
    for dtype in (np.int8, np.int16, np.uint16):
        assert np.array_equal(extract_key(bits, dtype(2), HashSeed.of(1)), extract_key(bits, 2, HashSeed.of(1)))


def test_avalanche():
    rng = np.random.default_rng(42)
    n_in, n_out, seeds = 64, 32, 1000
    x = rng.integers(0, 2, n_in, dtype=np.uint8)
    y = x.copy()
    y[17] ^= 1
    fractions = []
    for s in range(seeds):
        seed = HashSeed.of(1000, s)
        diff = extract_key(x, n_out, seed) ^ extract_key(y, n_out, seed)
        fractions.append(diff.mean())
    mean = np.mean(fractions)
    sigma = math.sqrt(0.25 / n_out / seeds)
    assert abs(mean - 0.5) <= 4 * sigma


def test_universality_collision_rate():
    rng = np.random.default_rng(43)
    n_in, n_out, seeds = 32, 6, 10_000
    x = rng.integers(0, 2, n_in, dtype=np.uint8)
    y = x.copy()
    y[rng.integers(0, n_in)] ^= 1
    collisions = 0
    for s in range(seeds):
        seed = HashSeed.of(2000, s)
        if (extract_key(x, n_out, seed) == extract_key(y, n_out, seed)).all():
            collisions += 1
    p = 2.0 ** (-n_out)
    assert collisions / seeds <= p + 4 * math.sqrt(p * (1 - p) / seeds)


def test_output_uniformity_chi_square():
    rng = np.random.default_rng(44)
    n_in, n_out, samples = 64, 8, 100_000
    seed = HashSeed.of(3000)
    mat = toeplitz_matrix(seed, n_in, n_out)  # same family as extract_key
    inputs = rng.integers(0, 2, (samples, n_in), dtype=np.uint8)
    out = (inputs @ mat.T) & 1
    values = out @ (1 << np.arange(n_out - 1, -1, -1))
    counts = np.bincount(values, minlength=256)
    expected = samples / 256
    stat = float(((counts - expected) ** 2 / expected).sum())
    assert stat < chi2.ppf(1 - 1e-3, 255)


def test_expand_seed_is_public_and_stable():
    a = expand_seed(HashSeed.of(5, 6), 40, 8)
    b = expand_seed(HashSeed.of(5, 6), 40, 8)
    assert (a == b).all() and len(a) == 47


def test_params_validation(code_255_167):
    with pytest.raises(ValueError):
        CapacityParams(code=code_255_167, eve_ber=0.0)
    with pytest.raises(ValueError):
        CapacityParams(code=code_255_167, eve_ber=0.01, unit_blocks=0)
    with pytest.raises(ValueError):
        CapacityParams(code=code_255_167, eve_ber=0.01, safety_bits=0)
    # A NaN used to pass and end later in binary_entropy's "probability out of range".
    for sigmas in (-1.0, math.nan):
        with pytest.raises(ValueError, match="fluctuation_sigmas must be >= 0"):
            CapacityParams(code=code_255_167, eve_ber=0.01, fluctuation_sigmas=sigmas)
