"""Closed-form security quantification.

Everything here is finite arithmetic on the protocol parameters: binomial
tails for the reliability and low-noise budgets, the probability delta that
a uniform key falls outside the admissible set, counting exponents for the
eavesdropper's candidate sets, the entropy of correctable error patterns,
and the resulting effective key length

    key_length - m(n-k) + m*k*h(ber) + log2(1 - delta)

which is the log2 cost of exhausting the grouping-key candidates consistent
with one block of leaked parity.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._rules import as_integer, as_method, step_rows
from .amplify import (
    CapacityParams,
    binary_entropy,
    capacity_lower_bound,
    leakage_bound,
)
from .grouping import balanced, require_key_length, require_window


def log_sum_exp(a: np.ndarray) -> float:
    """log(sum(exp(a))) of a non-empty array of finite floats, by the arithmetic
    of scipy 1.17's logsumexp without its array-API dispatch (~8 against ~135 us
    at 120 terms): log1p(rest / count) + log(count) + max, where count terms
    equal the maximum and rest sums exp(a - max) over the others."""
    top = a.max()
    at_top = a == top
    count = np.count_nonzero(at_top)
    rest = np.exp(np.where(at_top, -np.inf, a) - top).sum()
    return float(np.log1p(rest / count) + np.log(count) + top)


def _tail_support(trials: int, p: float, threshold: float, direction: str) -> tuple[int, np.ndarray]:
    """trials as a Python int, and the counts of the tail."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    trials = as_integer(trials, "trials")
    if trials < 0 or not threshold <= trials:  # NaN included
        raise ValueError(f"need trials >= 0 and a threshold of at most trials ({trials}), got {threshold}")
    if direction == "above":  # any threshold below 0, -inf included, as -1
        return trials, np.arange(math.floor(max(threshold, -1)) + 1, trials + 1)
    if direction == "below":
        return trials, np.arange(0, math.ceil(max(threshold, 0)))
    raise ValueError("direction must be 'above' or 'below'")


# log Gamma is cephes' lgam for x >= 1 (Moshier, "Methods and Programs for
# Mathematical Functions", 1989), the algorithm scipy.special.gammaln runs, so
# the analyzer's floats match scipy's without importing it (~25 MB, ~0.2 s).
# Stirling's series with five terms below 1000, three from 1000, none past 1e8:
_STIRLING = (8.11614167470508450300e-4, -5.95061904284301438324e-4, 7.93650340457716943945e-4,
             -2.77777777730099687205e-3, 8.33333333333331927722e-2)
_STIRLING_SHORT = (7.9365079365079365079365e-4, -2.7777777777777777777778e-3, 0.0833333333333333333333)
# log Gamma(2 + x) = x B(x) / C(x) on 0 <= x < 1.
_LGAM_B = (-1.37825152569120859100e3, -3.88016315134637840924e4, -3.31612992738871184744e5,
           -1.16237097492762307383e6, -1.72173700820839662146e6, -8.53555664245765465627e5)
_LGAM_C = (1.0, -3.51815701436523470549e2, -1.70642106651881159223e4,
           -2.20528590553854454839e5, -1.13933444367982507207e6, -2.53252307177582951285e6,
           -2.01889141433532773231e6)
_LOG_SQRT_2PI = 0.91893853320467274178
_LOG_FACTORIALS = 1 << 17   # table of log j!, j < 2**17: 1 MiB


def _horner(x, coefficients):
    acc = coefficients[0]
    for c in coefficients[1:]:
        acc = acc * x + c
    return acc


def _lgam_below_13(x: float) -> float:
    """cephes' lgam for 1 <= x < 13: shift into [2, 3) by the recurrence
    Gamma(x + 1) = x Gamma(x), then the rational fit."""
    z, p, u = 1.0, 0.0, x
    while u >= 3.0:
        p -= 1.0
        u = x + p
        z *= u
    while u < 2.0:
        z /= u
        p += 1.0
        u = x + p
    if u == 2.0:
        return math.log(z)
    x += p - 2.0
    return math.log(z) + x * _horner(x, _LGAM_B) / _horner(x, _LGAM_C)


def _lgam(x: np.ndarray) -> np.ndarray:
    """cephes' lgam over a 1-d array of values >= 1, as float64."""
    out = np.empty(len(x))
    step = step_rows(48)    # a pass's float64 temporaries per element (tracemalloc: ~49)
    for start in range(0, len(x), step):
        part = x[start:start + step].astype(np.float64, copy=False)
        q = (part - 0.5) * np.log(part) - part + _LOG_SQRT_2PI
        p = 1.0 / (part * part)
        series = np.where(part >= 1000.0, _horner(p, _STIRLING_SHORT), _horner(p, _STIRLING))
        out[start:start + step] = np.where(part > 1e8, q, q + series / part)
    for i in np.flatnonzero(x < 13.0):
        out[i] = _lgam_below_13(float(x[i]))
    return out


@functools.cache
def _log_factorials() -> np.ndarray:
    """log j! for j < _LOG_FACTORIALS, built on first use (5-10 ms)."""
    table = _lgam(np.arange(1.0, _LOG_FACTORIALS + 1.0))
    table.flags.writeable = False
    return table


def _log_gamma(x):
    """log Gamma(x) for x >= 1, equal to scipy.special.gammaln(x) up to the
    last bits of numpy's log: integers within the table read it."""
    x = np.asarray(x)
    if x.dtype.kind in "iu" and (x.size == 0 or x.max() <= _LOG_FACTORIALS):
        return _log_factorials()[x - 1]
    return _lgam(x.reshape(-1)).reshape(x.shape)


def _log_choose(n, k):
    """Natural log of the binomial coefficient C(n, k), via log-gamma; k may
    be an array or real-valued."""
    return _log_gamma(n + 1) - _log_gamma(k + 1) - _log_gamma(n - k + 1)


def _log_binomial_pmf(trials: int, p: float, ks: np.ndarray) -> np.ndarray:
    """Natural log of Pr{X = k} for X ~ Binomial(trials, p), 0 < p < 1."""
    return _log_choose(trials, ks) + ks * math.log(p) + (trials - ks) * math.log1p(-p)


def log_binomial_tail(trials: int, p: float, threshold: float, direction: str = "above") -> float:
    """Natural log of Pr{X > threshold} ("above") or Pr{X < threshold}
    ("below") for X ~ Binomial(trials, p); -inf for an empty tail.

    The pmf terms are summed in log space, so the result stays meaningful
    far below the smallest positive float. Raises ValueError unless
    0 <= p <= 1, trials is an integer (numpy's too) and threshold <= trials
    (NaN refused); below 0 it takes the whole support "above" and none
    "below".
    """
    trials, ks = _tail_support(trials, p, threshold, direction)
    if len(ks) == 0:
        return -math.inf
    if len(ks) == trials + 1:
        return 0.0  # the whole support, which a sum of the pmf overshoots
    if p == 0.0:
        return 0.0 if 0 in ks else -math.inf
    if p == 1.0:
        return 0.0 if trials in ks else -math.inf
    return log_sum_exp(_log_binomial_pmf(trials, p, ks))


def binomial_tail(trials: int, p: float, threshold: float, direction: str = "above") -> float:
    """The tail probability itself (0.0 once below the float range)."""
    lg = log_binomial_tail(trials, p, threshold, direction)
    return math.exp(lg) if lg > -745.0 else 0.0


def outside_set_probability(length: int, balance_limit: float) -> float:
    """Probability that a uniform bitstring falls outside the admissible set:
    the binomial distribution of the 1-count summed over the counts outside
    the `balanced` window, in log space (1 - P(inside) would cancel)."""
    length = require_key_length(length)
    counts = np.arange(length + 1)
    outside = counts[~balanced(counts, length, balance_limit)]
    if len(outside) == 0:
        return 0.0
    if len(outside) == len(counts):
        return 1.0
    return math.exp(log_sum_exp(_log_choose(length, outside) - length * math.log(2.0)))


def symbol_error_rate(ber: float, m: int) -> float:
    """Probability that an m-bit symbol is hit by at least one bit error.
    Raises ValueError unless 0 <= ber <= 1 (NaN refused)."""
    if not 0.0 <= ber <= 1.0:
        raise ValueError(f"ber must lie in [0, 1], got {ber!r}")
    return 1.0 - (1.0 - ber) ** m


def noisy_symbols(code, method: int) -> int:
    """Symbols per block that reach a listener through the noisy channel: in
    method 1 the parity arrives error-free, so only the k information
    symbols; method 2 exposes all n. Raises ValueError for another method."""
    return code.k if as_method(method) == 1 else code.n


def block_failure_probability(code, ber: float, method: int) -> float:
    """Probability that one block fails to decode: more than t of its
    `noisy_symbols` are hit, each with probability `symbol_error_rate(ber, m)`."""
    return binomial_tail(noisy_symbols(code, method), symbol_error_rate(ber, code.m), code.t)


def candidate_count_log2(key_length: int, m: int, n: int, k: int, delta: float) -> float:
    """log2 of the average number of admissible grouping keys consistent with
    one observed parity vector: key_length - m(n-k) + log2(1 - delta).
    Raises ValueError unless 0 <= delta < 1."""
    if not 0.0 <= delta < 1.0:
        raise ValueError(f"delta must lie in [0, 1), got {delta!r}")
    exponent = key_length - m * (n - k)
    if exponent <= 0:
        warnings.warn(
            "key_length does not exceed the parity bits per block; "
            "candidate counting gives the eavesdropper a unique key",
            stacklevel=2,
        )
    return exponent + math.log2(1.0 - delta)


@dataclass(frozen=True)
class PatternEntropy:
    """Entropy of the correctable bit-error patterns of one block."""

    truncated: float        # sum restricted to weights <= (d-1)/2
    approximation: float    # m*k*h(ber), the full-range value


def error_pattern_entropy(m: int, k: int, ber: float, d: int) -> PatternEntropy:
    """-sum over correctable weights of C(mk,w) p_w log2 p_w, plus the
    m*k*h(ber) approximation it converges to when the tail is negligible.
    Raises ValueError unless 0 <= ber < 1, as average_pattern_count_log2 does."""
    if not 0.0 <= ber < 1.0:
        raise ValueError("ber must lie in [0, 1)")
    mk = m * k
    approx = mk * binary_entropy(ber)
    if ber == 0.0:
        return PatternEntropy(truncated=0.0, approximation=0.0)
    t = (d - 1) // 2
    ws = np.arange(0, min(t, mk) + 1)
    weights = np.exp(_log_binomial_pmf(mk, ber, ws))
    log2_pn = ws * math.log2(ber) + (mk - ws) * math.log2(1.0 - ber)
    truncated = float(np.sum(weights * (-log2_pn)))
    # 1 - sum cancels for a small tail, but it is exact enough to test 1%.
    tail = 1.0 - float(weights.sum())
    if tail > 0.01:
        warnings.warn(
            f"{tail:.3f} of the error-pattern mass lies beyond the correctable range; "
            "the truncated entropy undercounts it",
            stacklevel=2,
        )
    return PatternEntropy(truncated=truncated, approximation=approx)


def average_pattern_count_log2(m: int, k: int, ber: float) -> float:
    """log2 C(mk, mean_errors) at the real-valued mean weight, via log-gamma."""
    if not 0.0 <= ber < 1.0:
        raise ValueError("ber must lie in [0, 1)")
    mk = m * k
    return float(_log_choose(mk, ber * mk) / math.log(2.0))


def effective_key_length(key_length: int, m: int, n: int, k: int, ber: float, delta: float) -> float:
    """log2 of the exhaustive-search workload over key candidates and error
    patterns; equals candidate_count_log2 plus the m*k*h(ber) equivocation,
    and refuses delta outside [0, 1) through it."""
    return candidate_count_log2(key_length, m, n, k, delta) + m * k * binary_entropy(ber)


@dataclass(frozen=True)
class GammaBudget:
    """The three failure/leakage probabilities whose maximum bounds gamma, and
    the secure key bits they leave; one reference-table column."""

    decode_failure: float   # any of the unit's blocks exceeds t correctable errors
    low_noise_tail: float   # unit error count falls below the guarded minimum
    leakage: float          # residual eavesdropper information per key bit
    gamma: float
    per_block_failure: float
    key_bits_real: float
    capacity_rate: float
    key_bits_per_block: float


def gamma_report(params: CapacityParams, bob_ber: float, method: int = 1) -> GammaBudget:
    """Evaluate the three budget components for one operating point.

    Reliability is `block_failure_probability` at the receiver's BER.
    """
    eps = block_failure_probability(params.code, bob_ber, method)
    decode_failure = 1.0 - (1.0 - eps) ** params.unit_blocks

    bound = capacity_lower_bound(params)
    low_noise = binomial_tail(
        params.unit_info_bits, params.eve_ber, params.unit_info_bits * bound.adjusted_ber, "below"
    )
    leak = leakage_bound(params.safety_bits, bound.key_bits_real) if bound.secure else 1.0
    return GammaBudget(
        decode_failure=decode_failure,
        low_noise_tail=low_noise,
        leakage=leak,
        gamma=max(decode_failure, low_noise, leak),
        per_block_failure=eps,
        key_bits_real=bound.key_bits_real,
        capacity_rate=bound.rate,
        key_bits_per_block=bound.key_bits_real / params.unit_blocks,
    )


@dataclass(frozen=True)
class SecurityReport:
    """Everything the analyzer knows about one configuration."""

    key_length: int
    delta: float
    log2_candidates: float
    pattern_entropy: float
    pattern_entropy_approx: float
    log2_attack_cost: float
    effective_key_bits: float
    parity_bits: int
    key_bits_per_block: float
    margin_holds: bool
    decode_failure: float
    low_noise_tail: float
    leakage: float
    gamma: float
    capacity_rate: float
    key_bits_real: float

    def to_dict(self) -> dict:
        return dict(vars(self))


def security_report(
    key_length: int,
    balance_limit: float,
    params: CapacityParams,
    bob_ber: float,
    method: int = 1,
) -> SecurityReport:
    key_length = require_window(key_length, balance_limit)
    code = params.code
    delta = outside_set_probability(key_length, balance_limit)
    log2_cand = candidate_count_log2(key_length, code.m, code.n, code.k, delta)
    entropy = error_pattern_entropy(code.m, code.k, params.eve_ber, code.d)
    budget = gamma_report(params, bob_ber, method)
    return SecurityReport(
        key_length=key_length,
        delta=delta,
        log2_candidates=log2_cand,
        pattern_entropy=entropy.truncated,
        pattern_entropy_approx=entropy.approximation,
        log2_attack_cost=entropy.truncated + log2_cand,
        effective_key_bits=log2_cand + entropy.approximation,
        parity_bits=code.parity_bits,
        key_bits_per_block=budget.key_bits_per_block,
        # With more parity than key bits per block, listing candidates from
        # the leaked parity is already the eavesdropper's cheapest route.
        margin_holds=code.parity_bits > budget.key_bits_per_block,
        decode_failure=budget.decode_failure,
        low_noise_tail=budget.low_noise_tail,
        leakage=budget.leakage,
        gamma=budget.gamma,
        capacity_rate=budget.capacity_rate,
        key_bits_real=budget.key_bits_real,
    )


def capacity_table(code, eve_ber: float, bob_ber: float, columns, method: int = 1) -> list[GammaBudget]:
    """One budget per (unit_blocks, fluctuation_sigmas, safety_bits) column."""
    return [
        gamma_report(CapacityParams(code, eve_ber, unit_blocks, sigmas, safety), bob_ber, method)
        for unit_blocks, sigmas, safety in columns
    ]
