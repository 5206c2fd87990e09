"""Secret-key agreement from channel noise with a pre-shared grouping key."""

from .amplify import (
    CapacityParams,
    HashSeed,
    binary_entropy,
    capacity_lower_bound,
    extract_key,
    fluctuation_adjusted_ber,
    leakage_bound,
)
from .analysis import (
    binomial_tail,
    candidate_count_log2,
    effective_key_length,
    error_pattern_entropy,
    gamma_report,
    outside_set_probability,
    security_report,
)
from .channel import ChannelConfig, Frame, bsc_transmit, decode_frame, deliver, encode_frame
from .gf import FieldSpec, build_field
from .grouping import CommonKey, sample_key, split_stream
from .oracle import (
    TinyScenario,
    enumerate_info_candidates,
    enumerate_with_errors,
    judge_candidate,
    make_scenario,
)
from .rs import CodeSpec, decode_block, encode_parity, make_code
from .session import SessionConfig, SessionReport, run_receiver, run_session, run_transmitter

__version__ = "0.1.0"
