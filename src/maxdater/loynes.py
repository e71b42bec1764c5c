"""Backward (time-reversed) construction of the stationary workload.

Feeding the recursion time-reversed drivers turns it into a running
maximum:

    Xt_n = max(0, max_{1 <= j <= n} [ st_j - Tt_{j-1} ]),   Tt_0 = 0,

where Tt_{j-1} = st_1-independent partial sum of the reversed
inter-arrival times tt_1 + ... + tt_{j-1}.  Xt_n is non-decreasing in n,
so its a.s. limit either is the stationary workload or diverges; the
samplers here return the truncated value together with a residual
diagnostic, and raise ``DivergenceSuspected`` when trajectories keep
setting fresh records late into the horizon.

For service laws with bounded support the construction is exact: once
Tt_{j-1} is past the essential supremum of the service law no later term
can win, so the truncated value *is* a perfect stationary draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .engine import _BLOCK_ELEMS, ModelSpec, _block, _endpoints, _epochs, _passing_steps
from .streams import Stream, run_chunked

__all__ = [
    "BackwardSample",
    "StationaryBatch",
    "StationaryWindow",
    "TvReport",
    "DivergenceConfig",
    "DivergenceSuspected",
    "backward_maxdater",
    "stationary_batch",
    "stationary_sample",
    "stationary_window",
    "tv_discrepancy",
]

class DivergenceSuspected(RuntimeError):
    """Running maxima kept improving late in the horizon for a large share
    of trajectories; the stationary limit looks infinite."""

    def __init__(self, fraction: float, horizon: int):
        self.fraction = fraction
        self.horizon = horizon
        super().__init__(
            f"{fraction:.0%} of trajectories set a fresh record in the final "
            f"decade of a horizon-{horizon} backward construction"
        )


@dataclass(frozen=True)
class DivergenceConfig:
    """Record-based divergence heuristic.

    A trajectory votes "divergent" when its running maximum improves at
    some index j > window_fraction * horizon (the final decade of a
    log-spaced axis for the default 0.1).  The batch raises once at least
    ``vote`` of trajectories vote that way.
    """

    window_fraction: float = 0.1
    vote: float = 0.5
    pilot: int = 100


@dataclass
class BackwardSample:
    """Backward construction over explicitly supplied reversed drivers."""

    horizon: int
    terms: np.ndarray
    values: np.ndarray
    residual_bound: Optional[float] = None


@dataclass
class StationaryBatch:
    values: np.ndarray
    residual_bound: float
    horizon: int
    reps: int
    record_fraction: float = 0.0
    exact: bool = False


@dataclass
class StationaryWindow:
    """Consecutive stationary values sharing one driver sequence.

    window[e] is built from drivers e..e+back_horizon; coupled[e] is True
    when the influence of the window's oldest driver has fully drained, in
    which case consecutive coupled entries satisfy the one-step recursion
    exactly.
    """

    window: np.ndarray
    t: np.ndarray
    s: np.ndarray
    coupled: np.ndarray
    back_horizon: int


@dataclass
class TvReport:
    tv_estimate: float
    bound: float
    null_floor: float
    null_sd: float
    bins: int
    reps: int


def backward_maxdater(s_rev, t_rev, n: int) -> BackwardSample:
    """Running maxima of st_j - Tt_{j-1} for j = 1..n.

    ``s_rev`` and ``t_rev`` are the reversed service and inter-arrival
    sequences; only the first n services and first n-1 inter-arrivals are
    used.  Single O(n) pass.
    """
    s_rev = np.asarray(s_rev, dtype=float)
    t_rev = np.asarray(t_rev, dtype=float)
    if n < 1:
        raise ValueError("n must be >= 1")
    if len(s_rev) < n or len(t_rev) < n - 1:
        raise ValueError("need n services and n-1 inter-arrivals")
    tprev = np.empty(n)
    tprev[0] = 0.0
    if n > 1:
        np.cumsum(t_rev[: n - 1], out=tprev[1:])
    terms = s_rev[:n] - tprev
    values = np.maximum(np.maximum.accumulate(terms), 0.0)
    return BackwardSample(horizon=n, terms=terms, values=values)


def _residual_grid(horizon: int) -> np.ndarray:
    lo = max(1, horizon // 2)
    return np.unique(np.round(np.geomspace(lo, horizon, 12)).astype(np.int64))


def _fit_residual(grid: np.ndarray, means: np.ndarray, horizon: int) -> float:
    """Extrapolate sum_{j > horizon} E tail(Tt_j) from a log-log fit of the
    decay of E tail(Tt_j) over the back half of the horizon."""
    keep = means > 0.0
    if not keep.any():
        return 0.0
    g, m = grid[keep], means[keep]
    if len(g) == 1:
        return float(m[0])
    b, loga = np.polyfit(np.log(g), np.log(m), 1)
    if b >= -1.0:
        return math.inf
    # integral tail of exp(loga) * j**b beyond the horizon, assembled in
    # log space: super-polynomial decay fits huge |b| and huge loga whose
    # separate exponentials overflow while the product is ~0
    log_resid = loga + (b + 1.0) * math.log(horizon) - math.log(-1.0 - b)
    if log_resid > 700.0:
        return math.inf
    return math.exp(log_resid)


def _backward(m: ModelSpec, rows: int, stream: Stream, horizon: float, *,
              s_up: float = math.inf, block: Optional[int] = None,
              grid: Optional[np.ndarray] = None):
    """Running maxima of st_j - Tt_{j-1}, floored at 0, for ``rows`` paths
    over at most ``horizon`` reversed drivers in (rows, block) pieces.

    A path stops once its clock Tt passes ``s_up`` (no later term can win);
    an infinite horizon runs until all have, within a bound worked out up
    front.  Pieces are ``block`` wide, drawn whole past the horizon so that
    the draws do not depend on it, or by default hold up to ``_BLOCK_ELEMS``
    draws with the last cut to the horizon.  Given a ``grid``, also tracks
    each path's last record (1-based) and the sums of service tails at Tt_j.
    """
    absorb = math.isinf(horizon)
    if absorb:
        horizon, median = _passing_steps(m, s_up, rows, "the absorbing scan",
                                         "the service supremum")
    tail_sums = np.zeros(0 if grid is None else len(grid))
    # the running rows' state, compacted when rows stop
    ids, best, offset = np.arange(rows), np.zeros(rows), np.zeros(rows)
    last_rec = np.zeros(rows, dtype=np.int64)
    done, j0 = [], 0  # done: (ids, best, last_rec) of the stopped rows
    while len(ids) and j0 < horizon:
        use = min(block or _block(rows, horizon), horizon - j0)
        t = m.interarrival.sample(stream, (len(ids), block or use))
        s = m.service.sample(stream, (len(ids), block or use))
        cum = _epochs(t[:, :use], offset)
        tprev = np.empty_like(cum)  # in place or by np.concatenate, these
        tprev[:, 0] = offset        # made glibc trim and re-fault the pieces
        tprev[:, 1:] = cum[:, :-1]
        terms = s[:, :use] - tprev
        if grid is None:
            best = np.maximum(best, terms.max(axis=1))
        else:
            comb = np.maximum(np.maximum.accumulate(terms, axis=1), best[:, None])
            prev = np.empty_like(comb)
            prev[:, 0] = best
            prev[:, 1:] = comb[:, :-1]
            improved = terms > prev
            lastcol = use - 1 - np.argmax(improved[:, ::-1], axis=1)
            last_rec = np.where(improved.any(axis=1), j0 + 1 + lastcol, last_rec)
            for gi in np.nonzero((grid > j0) & (grid <= j0 + use))[0]:
                tail_sums[gi] += float(np.sum(m.service.tail(cum[:, grid[gi] - j0 - 1])))
            best = comb[:, -1]
        offset = cum[:, -1]
        j0 += use
        stop = offset >= s_up
        if stop.any():
            done.append((ids[stop], best[stop], last_rec[stop]))
            ids, best, offset, last_rec = (a[~stop] for a in (ids, best, offset, last_rec))
    if absorb and len(ids):
        raise RuntimeError(
            f"{len(ids)} of {rows} reversed clocks stayed below the service "
            f"supremum {s_up} for {horizon} steps: the inter-arrival law draws "
            f"below its median {median} more often than half the time")
    if done:  # back to row order
        done.append((ids, best, last_rec))
        order = np.argsort(np.concatenate([d[0] for d in done]))
        best, last_rec = (np.concatenate([d[i] for d in done])[order] for i in (1, 2))
    return np.maximum(best, 0.0), last_rec, tail_sums


def stationary_batch(
    m: ModelSpec,
    horizon: int,
    reps: int,
    stream: Stream,
    *,
    threads: int = 1,
    check_divergence: bool = True,
    divergence: DivergenceConfig = DivergenceConfig(),
) -> StationaryBatch:
    """``reps`` independent truncated stationary draws.

    Bounded service laws get the exact absorbing construction
    (residual_bound 0); unbounded laws run to ``horizon`` and report the
    extrapolated residual bound on P(truncated value != limit).
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    _, s_up = m.service.support()
    if math.isfinite(s_up):
        # absorbing paths mostly stop within a few draws: narrow pieces
        parts = run_chunked(
            lambda st, start, count: _backward(
                m, count, st, math.inf, s_up=s_up, block=64)[0],
            reps, stream, threads=threads,
        )
        return StationaryBatch(values=np.concatenate(parts), residual_bound=0.0,
                               horizon=horizon, reps=reps, exact=True)

    grid = _residual_grid(horizon)
    parts = run_chunked(
        lambda st, start, count: _backward(m, count, st, horizon, grid=grid),
        reps, stream, threads=threads,
    )
    values, last_rec = (np.concatenate([p[i] for p in parts]) for i in (0, 1))
    tail_sums = sum(p[2] for p in parts)
    win_start = int(divergence.window_fraction * horizon)
    frac = float(np.mean(last_rec > win_start))
    # below ~a decade of indices every path records inside the window and
    # the vote says nothing; judge only horizons long enough to separate
    if check_divergence and win_start >= 10 and frac >= divergence.vote:
        raise DivergenceSuspected(frac, horizon)
    residual = _fit_residual(grid, tail_sums / reps, horizon)
    return StationaryBatch(values=values, residual_bound=residual,
                           horizon=horizon, reps=reps, record_fraction=frac)


def stationary_sample(
    m: ModelSpec,
    horizon: int,
    stream: Stream,
    *,
    divergence: DivergenceConfig = DivergenceConfig(),
) -> tuple[float, float]:
    """One truncated stationary draw plus its residual bound.

    A pilot batch (``divergence.pilot`` trajectories, first stream child)
    feeds the divergence check and the residual fit; the returned value is
    an independent single construction (second child) drawn in whole
    4096-wide blocks, so on a fixed seed it is non-decreasing in the horizon.
    """
    batch = stationary_batch(
        m, horizon, max(1, divergence.pilot), stream.child(0),
        divergence=divergence,
    )
    best, _, _ = _backward(m, 1, stream.child(1), horizon,
                           s_up=m.service.support()[1], block=_BLOCK_ELEMS >> 8)
    return float(best[0]), float(batch.residual_bound)


def stationary_window(
    m: ModelSpec,
    width: int,
    back_horizon: int,
    stream: Stream,
    *,
    check_divergence: bool = True,
    divergence: DivergenceConfig = DivergenceConfig(),
) -> StationaryWindow:
    """``width`` consecutive stationary values over one shared driver
    sequence; entry e is the workload seen by driver e + back_horizon.

    Each entry runs its own truncated construction, so the one-step
    recursion between consecutive entries is a real identity to check, not
    something baked in.  coupled[e] certifies that entry e's oldest driver
    chain has drained (s_e - t_{e+1} - ... <= 0), which makes the identity
    exact in floating point as well.
    """
    if width < 2 or back_horizon < 1:
        raise ValueError("need width >= 2 and back_horizon >= 1")
    total = width + back_horizon
    t = m.interarrival.sample(stream, total)
    s = m.service.sample(stream, total)
    x = s[:width].copy()
    chain = s[:width].copy()
    last_rec = np.zeros(width, dtype=np.int64)
    for k in range(1, back_horizon + 1):
        tk = t[k:k + width]
        np.subtract(chain, tk, out=chain)
        drained = x - tk
        cand = s[k:k + width]
        last_rec[cand > drained] = k
        x = np.maximum(drained, cand)
    coupled = chain <= 0.0
    # divergence shows as running maxima still setting records near the
    # end of the lookback, exactly as in the batch scan; the drained-chain
    # certificate alone cannot see it (heavy-tailed records come from
    # young chains, not the oldest one)
    win_start = int(divergence.window_fraction * back_horizon)
    frac_late = float(np.mean(last_rec > win_start))
    frac_uncoupled = float(np.mean(~coupled))
    tripped = max(frac_late if win_start >= 10 else 0.0, frac_uncoupled)
    if check_divergence and tripped >= divergence.vote:
        raise DivergenceSuspected(tripped, back_horizon)
    return StationaryWindow(window=x, t=t, s=s, coupled=coupled,
                            back_horizon=back_horizon)


def _binned_tv(a: np.ndarray, b: np.ndarray, edges: np.ndarray) -> float:
    ca = np.histogram(a, bins=edges)[0] / len(a)
    cb = np.histogram(b, bins=edges)[0] / len(b)
    return 0.5 * float(np.sum(np.abs(ca - cb)))


def tv_discrepancy(
    m: ModelSpec,
    x0: float,
    n: int,
    reps: int,
    stream: Stream,
    *,
    bins: int = 64,
    threads: int = 1,
) -> TvReport:
    """Binned total-variation distance between the laws of X_n started at
    x0 and started empty, plus the coupling bound P(T_n <= x0).

    The null floor reports the same statistic between two halves of the
    empty-start sample: binned TV of equal laws is biased up by sampling
    noise, and the floor quantifies that bias for the given reps/bins.
    """
    if reps < 10_000:
        raise ValueError("binned TV needs reps >= 10000")
    if bins < 2:
        raise ValueError("bins must be >= 2")

    def endpoints(x: float, st: Stream):
        parts = run_chunked(
            lambda st, start, count: _endpoints(m, np.full(count, x), n, st),
            reps, st, threads=threads)
        return [np.concatenate(p) for p in zip(*parts)]

    (xa, ta), (xb, _) = endpoints(float(x0), stream.child(0)), endpoints(0.0, stream.child(1))
    bound = float(np.mean(ta <= x0))

    pooled = np.concatenate([xa, xb])
    qs = np.arange(1, bins) / bins
    inner = np.unique(np.quantile(pooled, qs))
    edges = np.concatenate([[-np.inf], inner, [np.inf]])
    tv = _binned_tv(xa, xb, edges)

    # Split-half TVs of the empty-start sample calibrate the noise floor.
    perm_gen = stream.child(2).gen
    half = len(xb) // 2
    nulls = []
    for _ in range(8):
        order = perm_gen.permutation(len(xb))
        nulls.append(_binned_tv(xb[order[:half]], xb[order[half:2 * half]], edges))
    return TvReport(
        tv_estimate=tv,
        bound=bound,
        null_floor=float(np.mean(nulls)),
        null_sd=float(np.std(nulls)),
        bins=len(edges) - 1,
        reps=reps,
    )
