"""Simulation and classification toolkit for the infinite-server workload
recursion  X(n+1) = max(X(n) - t(n+1), s(n+1))  driven by iid service times
s and iid inter-arrival times t, together with the matched single-server
(Lindley) recursion for side-by-side comparison.
"""

from .streams import Stream
from .dists import (
    Distribution,
    Deterministic,
    DiscreteUniform,
    Exponential,
    Mixture,
    Pareto,
    TruncatedParetoOne,
    Uniform,
)
from .engine import ModelSpec, PathSample, Gg1Path, simulate_path, simulate_gg1
from .loynes import (
    StationaryBatch,
    StationaryWindow,
    stationary_batch,
    stationary_sample,
    stationary_window,
    DivergenceSuspected,
)
from .classify import (
    ClassificationReport,
    ClassifierConfig,
    EricksonReport,
    SeriesDiagnostic,
    Verdict,
    analytic_phase,
    classify,
    compare_queues,
    erickson,
    occupation_estimate,
    recurrence_series,
    tail_series,
    transience_series,
)
from .regen import RegenParams, RegenTrace, find_params, phi_sample, detect, renewal_tests
from .tails import (
    TailReport,
    NotPositiveRecurrent,
    empirical_tail,
    exp_tail_prediction,
    pareto_tail_prediction,
)

__version__ = "0.1.0"
