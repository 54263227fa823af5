"""Exact community recovery experiments for the two-community stochastic block model."""

from .model import (
    Graph,
    SbmParams,
    agreement,
    count_edges_between,
    cut_size,
    generate_sbm,
    is_balanced,
    parse_graph,
    parse_labeling,
    write_graph,
    write_labeling,
)
from .tails import (
    EventSchedule,
    ExponentInputs,
    TailResult,
    ThresholdVerdict,
    chernoff_multiplicative_upper,
    diff_binomial_tail,
    dominant_tilt,
    log_dominant_term,
    log_dominant_term_max,
    margin_schedule,
    mislabel_exponent,
    ml_failure_upper_bound,
    node_margin_tail,
    recovery_threshold,
    tail_exponent,
    tilt_objective,
)

__version__ = "0.1.0"
