"""Regeneration structure of the workload chain.

The chain regenerates on a two-part event: the workload sits at or below
a level w0 at the start of an m0-step window, and the window's arrival
gap exceeds w0, which flushes every job that was present.  Parameters
(m0, w0) are chosen so that both P(s <= w0) and P(T_m0 > w0) are at
least one half; the post-regeneration law

    phi = law of X_m0 started empty, conditioned on T_m0 > w0

is sampled by rejection.  Renewal quantities estimated from phi-started
replications separate recurrence regimes: a summable renewal sequence
means the chain eventually stops regenerating (transience), a positive
Cesaro average means regenerations keep a positive frequency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dists import Deterministic
from .engine import ModelSpec, PathSample, _endpoints, _forward, _passing_steps
from .streams import Stream, run_chunked

__all__ = [
    "RegenParams",
    "RegenTrace",
    "RenewalSummary",
    "find_params",
    "phi_sample",
    "detect",
    "renewal_tests",
]

_PARAM_SEED = 715517  # find_params draws from a fixed stream: params are
                      # model properties, not experiment randomness
_PARAM_DRAWS = 100_000  # sums of inter-arrival draws find_params tracks


@dataclass(frozen=True)
class RegenParams:
    m0: int
    w0: float
    p_service: float
    p_gap: float


@dataclass
class RegenTrace:
    taus: np.ndarray
    r: np.ndarray
    u_hat: Optional[np.ndarray] = None


@dataclass
class RenewalSummary:
    sum_u: float
    cesaro: float
    cycle_mean: float
    u_hat: np.ndarray
    frac_no_regen: float
    reps: int
    horizon: int
    m0: int


def find_params(m: ModelSpec) -> RegenParams:
    """Smallest w0 with P(s <= w0) >= 1/2 (the lower median), then the
    smallest m0 with P(T_m0 > w0) >= 1/2.

    m0 is exact for deterministic arrivals; otherwise it comes from a
    fixed-seed Monte Carlo estimate with a three-standard-error margin,
    so the inequality holds with slack rather than borderline, and gives
    up where all its sums would pass w0 but w.p. 1e-12 (``_passing_steps``).
    """
    w0 = float(m.service.quantile(0.5))
    p_service = float(m.service.cdf(w0))
    if 0.5 - 1e-9 < p_service < 0.5:
        p_service = 0.5  # cdf(quantile(1/2)) >= 1/2 exactly; rounding noise only
    if isinstance(m.interarrival, Deterministic):
        r = m.interarrival.value
        m0 = max(1, int(math.floor(w0 / r)) + 1)
        if m0 * r <= w0:  # floor landed on the boundary
            m0 += 1
        return RegenParams(m0=m0, w0=w0, p_service=p_service, p_gap=1.0)
    steps, median = _passing_steps(m, w0, _PARAM_DRAWS, "find_params", "w0")
    stream = Stream.from_seed(_PARAM_SEED)
    total = np.zeros(_PARAM_DRAWS)
    for m0 in range(1, steps + 1):
        total += m.interarrival.sample(stream, _PARAM_DRAWS)
        p = float(np.mean(total > w0))
        se = math.sqrt(max(p * (1.0 - p), 1e-12) / _PARAM_DRAWS)
        if p - 3.0 * se >= 0.5:
            return RegenParams(m0=m0, w0=w0, p_service=p_service, p_gap=p)
    raise RuntimeError(f"no window length up to {steps} reached P(T_m0 > w0) >= 1/2: inter-arrivals"
                       f" draw below their median {median} more often than half the time")


def _phi_batch(m: ModelSpec, params: RegenParams, count: int,
               stream: Stream) -> np.ndarray:
    """``count`` draws from the post-regeneration law by rejection:
    run m0 steps from empty, keep the terminal workload when the window's
    arrival gap clears w0.  A round accepts with probability p_gap, so
    the least R with count * (1 - p_gap)**R <= 1e-12 rounds suffice."""
    miss = 1.0 - params.p_gap
    if not 0.0 <= miss < 1.0:
        raise ValueError(f"p_gap must be in (0, 1], got {params.p_gap}")
    rounds = max(1, math.ceil(math.log(1e-12 / count) / math.log(miss))) if miss else 1
    out, filled = np.empty(count), 0
    for _ in range(rounds):
        x, gap = _endpoints(m, np.zeros(count - filled), params.m0, stream)
        accept = x[gap > params.w0]
        out[filled:filled + len(accept)] = accept
        filled += len(accept)
        if filled == count:
            return out
    raise RuntimeError(
        f"rejection sampler accepted {filled} of {count} draws in {rounds} "
        f"rounds: P(T_m0 > w0) is below p_gap = {params.p_gap} for "
        f"m0 = {params.m0}, w0 = {params.w0}")


def phi_sample(m: ModelSpec, params: RegenParams, stream: Stream) -> float:
    """One draw from the post-regeneration law."""
    return float(_phi_batch(m, params, 1, stream)[0])


def detect(path: PathSample, params: RegenParams) -> RegenTrace:
    """Scan a simulated path for regeneration times.

    Window k (steps (k-1)m0 .. k*m0) regenerates when the workload at
    the window start is at most w0 and the window's arrival gap exceeds
    w0; the k = 1 window conditions on X_0 itself.  A path shorter than
    one window yields an empty trace.
    """
    m0, w0 = params.m0, params.w0
    n = len(path.x) - 1
    k_max = n // m0
    if k_max < 1:
        empty = np.array([], dtype=np.int64)
        return RegenTrace(taus=empty, r=np.array([], dtype=bool))
    ends = np.arange(1, k_max + 1, dtype=np.int64) * m0
    starts = ends - m0
    r = (path.x[starts] <= w0) & ((path.arrivals[ends] - path.arrivals[starts]) > w0)
    return RegenTrace(taus=ends[r], r=r)


def _renewal_chunk(m: ModelSpec, params: RegenParams, horizon: int,
                   count: int, stream: Stream):
    """Regeneration indicators of ``count`` phi-started paths per window,
    from the workloads and arrival epochs at window ends, as in ``detect``."""
    m0, w0 = params.m0, params.w0
    x0 = _phi_batch(m, params, count, stream)
    xs, epochs, k = [x0[:, None]], [np.zeros((count, 1))], 0
    for x, arrivals in _forward(m, x0, (horizon // m0) * m0, stream):
        first = -(k + 1) % m0  # the piece's first column at a window end
        xs.append(x[:, first::m0])
        epochs.append(arrivals[:, first::m0])
        k += x.shape[1]
    gaps = np.diff(np.concatenate(epochs, axis=1), axis=1)
    return (np.concatenate(xs, axis=1)[:, :-1] <= w0) & (gaps > w0)


def renewal_tests(m: ModelSpec, params: RegenParams, reps: int, horizon: int,
                  stream: Stream, *, threads: int = 1) -> RenewalSummary:
    """Renewal quantities from phi-started replications.

    u_hat[i] estimates the probability that window i regenerates, with
    u_hat[0] = 1 by convention.  cycle_mean averages the first
    regeneration time over replications; it is flagged infinite when more
    than 10% of replications never regenerate within the horizon (a
    censored observation, not a proof of no return).
    """
    if reps < 1_000:
        raise ValueError("reps must be >= 1000")
    if horizon < params.m0:
        raise ValueError("horizon shorter than one regeneration window")
    parts = run_chunked(
        lambda st, start, count: _renewal_chunk(m, params, horizon, count, st),
        reps, stream, threads=threads,
    )
    r = np.concatenate(parts, axis=0)
    u_hat = np.concatenate([[1.0], r.mean(axis=0)])
    any_r = r.any(axis=1)
    frac_no = float(np.mean(~any_r))
    if frac_no > 0.10 or not any_r.any():
        cycle_mean = math.inf
    else:
        cycle_mean = float(((np.argmax(r[any_r], axis=1) + 1) * params.m0).mean())
    return RenewalSummary(
        sum_u=float(u_hat.sum()),
        cesaro=float(u_hat.mean()),
        cycle_mean=cycle_mean,
        u_hat=u_hat,
        frac_no_regen=frac_no,
        reps=reps,
        horizon=horizon,
        m0=params.m0,
    )
