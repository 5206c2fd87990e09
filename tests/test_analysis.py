import itertools
import math
import warnings

import numpy as np
import pytest

from noisekey.amplify import CapacityParams, binary_entropy
from noisekey.analysis import (
    average_pattern_count_log2,
    binomial_tail,
    block_failure_probability,
    candidate_count_log2,
    capacity_table,
    effective_key_length,
    error_pattern_entropy,
    gamma_report,
    log_binomial_tail,
    log_sum_exp,
    outside_set_probability,
    security_report,
    symbol_error_rate,
)
from noisekey.gf import build_field
from noisekey.grouping import balanced
from noisekey.rs import make_code

EVE_BER = 1.0 - 0.9 ** 0.125


def direct_tail(trials, p, threshold, direction):
    """Plain floating-point oracle, no log-space tricks."""
    if direction == "above":
        ks = range(math.floor(threshold) + 1, trials + 1)
    else:
        ks = range(0, math.ceil(threshold) - 1 + 1)
    return sum(math.comb(trials, k) * p**k * (1 - p) ** (trials - k) for k in ks)


def test_exact_tail_against_direct_sum():
    for trials, p, thr, d in [
        (167, 0.1, 44, "above"),
        (20, 0.3, 10, "above"),
        (1336, EVE_BER, 5.02, "below"),
        (50, 0.5, 25, "below"),
    ]:
        mine = binomial_tail(trials, p, thr, d)
        assert mine == pytest.approx(direct_tail(trials, p, thr, d), rel=1e-9)


def test_decode_failure_reference_value():
    tail = binomial_tail(167, 0.1, 44, "above")
    assert tail == pytest.approx(4.6976e-10, rel=1e-3)
    assert tail <= 4.70e-10


def test_tail_edge_cases():
    assert binomial_tail(10, 0.3, 10, "above") == 0.0
    assert binomial_tail(10, 0.0, 0, "above") == 0.0
    assert binomial_tail(10, 0.0, 1, "below") == 1.0
    assert log_binomial_tail(10, 0.3, 10, "above") == -math.inf
    # Below 0 "above" is the whole support, exactly (-inf ended in an
    # OverflowError, and -1 summed to 1.0000000000000007), and "below" is empty.
    for threshold in (-math.inf, -3, -1, -0.5):
        assert binomial_tail(10, 0.1, threshold) == 1.0
        assert log_binomial_tail(10, 0.1, threshold) == 0.0
        assert binomial_tail(10, 0.1, threshold, "below") == 0.0
    assert binomial_tail(10, 0.1, 0, "below") == 0.0


def test_tail_no_underflow_deep():
    lg = log_binomial_tail(10_000, 1e-4, 500, "above")
    assert -2000 < lg / math.log(10) < -700  # representable only in log space
    # Successive pmf terms shrink by (n-k)/(k+1) * p/(1-p) < 0.002, so the
    # tail lies between its first term and that term / (1 - 0.002).
    first = (
        math.lgamma(10_001) - math.lgamma(502) - math.lgamma(9_500)
        + 501 * math.log(1e-4) + 9_499 * math.log1p(-1e-4)
    )
    assert first < lg < first + 0.002


def test_tail_query_validation():
    with pytest.raises(ValueError):
        binomial_tail(10, 1.5, 3)
    with pytest.raises(ValueError):
        binomial_tail(10, 0.5, 11)
    with pytest.raises(ValueError):
        binomial_tail(10, 0.5, 3, "sideways")
    # The message states the bound that holds: negative thresholds pass.
    for threshold in (math.nan, math.inf, 10.5, 11):
        with pytest.raises(ValueError, match=r"at most trials \(10\), got"):
            binomial_tail(10, 0.5, threshold)


@pytest.mark.parametrize("trials", [2.5, 10.0, "10"])
def test_tail_refuses_trials_that_are_not_an_integer(trials):
    # 2.5 used to give 0.387 for Pr{X > 1}.
    with pytest.raises(ValueError, match="trials must be an integer"):
        binomial_tail(trials, 0.5, 1)


def test_tail_takes_numpy_integer_trials():
    assert binomial_tail(np.int64(10), 0.3, 2) == binomial_tail(10, 0.3, 2)
    assert binomial_tail(np.uint16(10), 0.3, 2, "below") == binomial_tail(10, 0.3, 2, "below")


@pytest.mark.parametrize("direction", ["above", "below"])
def test_tail_refuses_a_nan_threshold(direction):
    # NaN used to end in "cannot convert float NaN to integer".
    with pytest.raises(ValueError, match="a threshold of at most trials"):
        binomial_tail(10, 0.1, math.nan, direction)
    # The judge asks for Pr{X > failures - 1}, which is -1 with no failure.
    assert binomial_tail(10, 0.1, -1) == pytest.approx(1.0, abs=1e-12)


def test_exact_tail_against_monte_carlo():
    exact = binomial_tail(20, 0.3, 10, "above")
    rng = np.random.default_rng(50)
    n = 10_000_000
    hits = 0
    for _ in range(10):
        hits += int((rng.binomial(20, 0.3, size=n // 10) > 10).sum())
    estimate = hits / n
    sigma = math.sqrt(exact * (1 - exact) / n)
    assert abs(estimate - exact) <= 3 * sigma


def test_symbol_error_rate_inverts_reference_ber():
    assert symbol_error_rate(EVE_BER, 8) == pytest.approx(0.1, rel=1e-12)
    assert symbol_error_rate(0.0, 8) == 0.0


def test_candidate_count_reference():
    value = candidate_count_log2(2496, 8, 255, 167, 0.0027)
    assert value == pytest.approx(1792 + math.log2(1 - 0.0027), abs=1e-12)
    assert value == pytest.approx(1792 - 0.0039, abs=1e-3)
    assert candidate_count_log2(2496, 8, 255, 167, 0.0) == 1792
    with pytest.warns(UserWarning):
        candidate_count_log2(10, 2, 8, 2, 0.0)


def test_pattern_entropy_reference():
    ent = error_pattern_entropy(8, 167, EVE_BER, 89)
    assert ent.truncated == pytest.approx(134.4, abs=0.05)
    assert ent.approximation == pytest.approx(8 * 167 * binary_entropy(EVE_BER), abs=1e-9)
    assert ent.truncated <= ent.approximation


def test_pattern_entropy_edges():
    assert error_pattern_entropy(8, 167, 0.0, 89).truncated == 0.0
    mk = 3 * 5
    full = error_pattern_entropy(3, 5, 0.5, 2 * mk + 1)
    assert full.truncated == pytest.approx(mk, abs=1e-9)


@pytest.mark.parametrize("ber", [1.0, 1.5, -0.1, math.nan])
def test_pattern_entropy_refuses_ber_outside_the_unit_interval(ber):
    # 1.0 used to end in "math domain error", the others in binary_entropy's
    # "probability out of range".
    with pytest.raises(ValueError, match=r"ber must lie in \[0, 1\)"):
        error_pattern_entropy(8, 167, ber, 89)


def test_pattern_entropy_warns_on_heavy_tail():
    with pytest.warns(UserWarning):
        error_pattern_entropy(3, 5, 0.2, 3)


def test_average_pattern_count():
    value = average_pattern_count_log2(8, 167, EVE_BER)
    assert value == pytest.approx(131.02, abs=0.05)
    # Stirling-form oracle
    mk = 8 * 167
    nbar = EVE_BER * mk
    stirling = (
        0.5 * math.log2(mk / (2 * math.pi * (mk - nbar) * nbar))
        + (mk - nbar) * math.log2(mk / (mk - nbar))
        + nbar * math.log2(mk / nbar)
    )
    assert value == pytest.approx(stirling, abs=0.01)
    assert average_pattern_count_log2(8, 167, 0.0) == pytest.approx(0.0, abs=1e-9)


def test_log_binomial_coefficients_match_each_written_out_expression():
    # Each caller's log C(n, k) written out in that caller's operand order:
    # sharing one helper must leave every float identical.
    from scipy.special import gammaln

    for length in (4, 9, 33, 257, 2496):
        for balance_limit in (0.5, 1.0, 2.0, 3.5):
            counts = np.arange(length + 1)
            outside = counts[~balanced(counts, length, balance_limit)]
            if 0 < len(outside) < len(counts):
                log_pmf = (
                    gammaln(length + 1) - gammaln(outside + 1) - gammaln(length - outside + 1)
                    - length * math.log(2.0)
                )
                assert outside_set_probability(length, balance_limit) == math.exp(log_sum_exp(log_pmf))
    for trials in (5, 167, 1336, 13360):
        for p in (1e-9, 0.0131, 0.1, 0.5, 0.9):
            for threshold in (0.01 * trials, 0.5 * trials, 0.99 * trials):
                for ks, direction in (
                    (np.arange(math.floor(threshold) + 1, trials + 1), "above"),
                    (np.arange(0, math.ceil(threshold)), "below"),
                ):
                    log_pmf = (
                        gammaln(trials + 1) - gammaln(ks + 1) - gammaln(trials - ks + 1)
                        + ks * math.log(p) + (trials - ks) * math.log1p(-p)
                    )
                    expected = log_sum_exp(log_pmf) if len(ks) else -math.inf
                    assert log_binomial_tail(trials, p, threshold, direction) == expected
    for m, k in itertools.product((3, 8, 10), (1, 19, 167)):
        for ber in (0.0, 1e-6, 0.0131, EVE_BER, 0.1, 0.49):
            mk = m * k
            mean = ber * mk
            expected = float((gammaln(mk + 1) - gammaln(mean + 1) - gammaln(mk - mean + 1)) / math.log(2.0))
            assert average_pattern_count_log2(m, k, ber) == expected


def test_mean_pattern_count_consistent_with_entropy():
    mk = 8 * 167
    sigma = math.sqrt(mk * EVE_BER * (1 - EVE_BER))
    log2_count = average_pattern_count_log2(8, 167, EVE_BER)
    entropy = error_pattern_entropy(8, 167, EVE_BER, 89).truncated
    assert abs(math.log2(2 * sigma) + log2_count - entropy) <= 1.0


def test_effective_key_length_reference():
    delta = 0.0026998
    value = effective_key_length(2496, 8, 255, 167, EVE_BER, delta)
    assert value == pytest.approx(1926.4, abs=0.05)
    assert effective_key_length(100, 2, 3, 2, 0.0, 0.0) == 100 - 2
    # identity with the candidate count
    assert value == pytest.approx(
        candidate_count_log2(2496, 8, 255, 167, delta) + 8 * 167 * binary_entropy(EVE_BER),
        abs=1e-9,
    )


@pytest.mark.parametrize("delta", [1.0, 1.5, -0.1, math.nan])
def test_candidate_counts_refuse_delta_outside_the_unit_interval(delta):
    # 1.0 and 1.5 used to end in "math domain error"; -0.1 and NaN returned
    # 58.14 and nan.
    with pytest.raises(ValueError, match=r"delta must lie in \[0, 1\)"):
        candidate_count_log2(64, 3, 7, 5, delta)
    with pytest.raises(ValueError, match=r"delta must lie in \[0, 1\)"):
        effective_key_length(64, 3, 7, 5, 0.01, delta)


def _design_params(code, u, r, ns):
    return CapacityParams(code=code, eve_ber=EVE_BER, unit_blocks=u, fluctuation_sigmas=r, safety_bits=ns)


def test_gamma_reference_columns(code_255_167):
    expected = {
        (1, 3.0, 10): (4.70e-10, 4.48e-4, 1.13e-4, 4.48e-4),
        (10, 3.0, 10): (4.70e-9, 9.63e-4, 2.79e-6, 9.63e-4),
        (10, 5.0, 16): (4.70e-9, 5.07e-8, 5.29e-8, 5.29e-8),
    }
    for (u, r, ns), (fail, low, leak, gamma) in expected.items():
        budget = gamma_report(_design_params(code_255_167, u, r, ns), bob_ber=EVE_BER, method=1)
        assert budget.decode_failure <= fail and budget.decode_failure > 0.9 * fail
        assert budget.low_noise_tail <= low and budget.low_noise_tail > 0.9 * low
        assert budget.leakage <= leak and budget.leakage > 0.9 * leak
        assert budget.gamma == max(budget.decode_failure, budget.low_noise_tail, budget.leakage)
        assert budget.gamma <= gamma


def test_gamma_zero_receiver_noise(code_7_5):
    params = CapacityParams(code=code_7_5, eve_ber=0.05, unit_blocks=1, fluctuation_sigmas=0.5, safety_bits=1)
    budget = gamma_report(params, bob_ber=0.0, method=1)
    assert budget.decode_failure == 0.0


def test_gamma_method2_counts_all_symbols(code_255_167):
    params = _design_params(code_255_167, 1, 3.0, 10)
    m1 = gamma_report(params, bob_ber=EVE_BER, method=1)
    m2 = gamma_report(params, bob_ber=EVE_BER, method=2)
    assert m2.decode_failure > m1.decode_failure  # parity symbols add error trials


@pytest.mark.parametrize("ber", [1.5, -0.1, math.nan])
def test_block_failure_refuses_a_ber_outside_the_unit_interval(code_255_167, ber):
    # 1.5 used to give a failure probability near 1; -0.1 and NaN were
    # refused with a message about p, which the caller never passed.
    params = _design_params(code_255_167, 1, 3.0, 10)
    with pytest.raises(ValueError, match=r"ber must lie in \[0, 1\], got"):
        block_failure_probability(code_255_167, ber, 1)
    with pytest.raises(ValueError, match=r"ber must lie in \[0, 1\], got"):
        gamma_report(params, ber)


def _margin_report(params, key_length, balance_limit):
    return security_report(key_length, balance_limit, params, bob_ber=params.eve_ber)


def test_margin_reference(code_255_167):
    report = _margin_report(_design_params(code_255_167, 1, 3.0, 10), 2496, 3.5)
    assert report.parity_bits == 704
    assert report.key_bits_per_block == pytest.approx(12.5, rel=0.005)
    assert report.margin_holds
    report10 = _margin_report(_design_params(code_255_167, 10, 5.0, 16), 2496, 3.5)
    assert report10.key_bits_per_block == pytest.approx(41.6, rel=0.005)
    assert report10.margin_holds


def test_margin_fails_when_key_rate_dominates():
    code = make_code(build_field(4, 0x13), 15, 13)
    params = CapacityParams(code=code, eve_ber=0.3, unit_blocks=10, fluctuation_sigmas=3.0, safety_bits=1)
    with pytest.warns(UserWarning, match="correctable range"):
        report = _margin_report(params, 64, 3.0)
    assert report.key_bits_per_block > report.parity_bits
    assert not report.margin_holds


def test_security_report_warns_once_per_cause(code_7_5):
    # A 6-bit key against 6 parity bits and a 15-bit unit under a 3-sigma
    # guard trip the candidate, the clamp and the pattern-tail warnings.
    params = CapacityParams(code=code_7_5, eve_ber=0.05, unit_blocks=1, fluctuation_sigmas=3.0, safety_bits=1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        security_report(6, 2.0, params, bob_ber=0.05)
    messages = [str(w.message) for w in caught]
    for cause in ("candidate counting", "adjusted BER clamped", "correctable range"):
        assert sum(cause in m for m in messages) == 1, messages
    assert len(messages) == 3


def test_security_report_refuses_an_empty_window(code_7_5):
    # No 1-count of 3 bits lies within 0.5 * sqrt(3/4) of 1.5: delta was 1,
    # and log2(1 - delta) ended in "math domain error".
    params = CapacityParams(code=code_7_5, eve_ber=0.05, unit_blocks=1, fluctuation_sigmas=3.0, safety_bits=1)
    with pytest.raises(ValueError, match="no 3-bit key fits a balance limit of 0.5 sigmas"):
        security_report(3, 0.5, params, bob_ber=0.05)


def test_security_report_coherent(code_255_167):
    report = security_report(
        key_length=2496,
        balance_limit=3.5,
        params=_design_params(code_255_167, 1, 3.0, 10),
        bob_ber=EVE_BER,
        method=1,
    )
    assert report.log2_attack_cost == pytest.approx(
        report.pattern_entropy + report.log2_candidates, abs=1e-9
    )
    assert report.effective_key_bits == pytest.approx(1926.4, abs=0.05)
    assert report.margin_holds
    doc = report.to_dict()
    assert set(doc) >= {"gamma", "effective_key_bits", "delta"}


def test_capacity_table_shape(code_255_167):
    budgets = capacity_table(code_255_167, EVE_BER, EVE_BER, [(1, 3.0, 10), (10, 5.0, 16)])
    assert len(budgets) == 2
    assert budgets[0].capacity_rate == pytest.approx(0.00615, rel=0.005)
    assert budgets[1].key_bits_real / 10 == pytest.approx(41.6, rel=0.005)
    for budget, unit_blocks in zip(budgets, (1, 10)):
        assert budget.key_bits_per_block == budget.key_bits_real / unit_blocks
