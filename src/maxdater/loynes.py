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

Once Tt_{j-1} has passed the largest service draw no later term can win,
so the running maximum there *is* a perfect stationary draw: exact for the
sampler's law, whose service draws stop at Q(1 - 2**-53) (under the true
Exp/Exp law the remainder is about 2 * 2**-53).  ``stationary_batch`` gives
exact draws for bounded service and for every law whose largest draw the
clocks pass within the horizon, such as Exp(1) (36.74); heavy tails such
as Pareto(2.5) (2.4e6) keep the horizon scan.

Inside that gate, Poisson arrivals at rate lam with a service law of finite
mean take the Poisson route instead of the scan.  The epochs Tt_1, Tt_2,
... are then a Poisson process with independent marks, so the draw is
max(st_1, M) with M = max(0, sup_k st_{k+1} - Tt_k) of the M/G/inf law
P(M <= x) = exp(-lam * E(s - x)+) (Takacs 1962), drawn by
``Distribution.sample_poisson_max``.  It is exact for the true law, up to
the resolution of its uniforms (two a draw unless the service law is a
mixture).  Every other model in the gate, such as deterministic or uniform
arrivals, runs the absorbing scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .dists import Exponential
from .engine import _BLOCK_ELEMS, ModelSpec, _block, _epochs, _fit_line, _int_grid, _passing_steps
from .streams import _Numpy, Stream, run_chunked

np = _Numpy(globals())

__all__ = [
    "StationaryBatch",
    "StationaryWindow",
    "DivergenceSuspected",
    "stationary_batch",
    "stationary_sample",
    "stationary_window",
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


# The record-based divergence heuristic: a trajectory votes "divergent"
# when its running maximum improves at some index j > _WINDOW * horizon
# (the final decade of a log-spaced axis), and a batch raises once at
# least _VOTE of its trajectories vote that way.  stationary_sample judges
# on a pilot batch of _PILOT trajectories.
_WINDOW, _VOTE, _PILOT = 0.1, 0.5, 100


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


def _residual_grid(horizon: int) -> np.ndarray:
    return _int_grid(max(1, horizon // 2), horizon, 12)


def _fit_residual(grid: np.ndarray, means: np.ndarray, horizon: int) -> float:
    """Extrapolate sum_{j > horizon} E tail(Tt_j) from a log-log fit of the
    decay of E tail(Tt_j) over the back half of the horizon."""
    keep = means > 0.0
    if not keep.any():
        return 0.0
    g, m = grid[keep], means[keep]
    if len(g) == 1:
        return float(m[0])
    b, loga = _fit_line(np.log(g), np.log(m))
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
              block: Optional[int] = None, grid: Optional[np.ndarray] = None):
    """Running maxima of st_j - Tt_{j-1}, floored at 0, and each path's last
    record (1-based, 0 for none), for ``rows`` paths over at most
    ``horizon`` reversed drivers in (rows, block) pieces.

    A path stops once its clock Tt passes the service law's largest draw (no
    later term can win); an infinite horizon runs until all have, within a
    bound worked out up front.  Given a ``grid``, paths run on to the
    horizon and the scan also sums the service tails at Tt_j for each grid
    point j.  Pieces are ``block`` wide, drawn whole past the horizon so
    that the draws do not depend on it, or by default hold up to
    ``_BLOCK_ELEMS`` draws with the last cut to the horizon.

    Each piece draws its inter-arrival times and epochs over its whole
    width, then a service piece that ends at the first column where every
    row's clock Tt_{j-1} has passed the service law's largest draw: from
    there on every term is negative and cannot be a record, so those
    services are never drawn.  That width comes from the whole piece, never
    from the horizon, so whole blocks still draw independently of it.

    A term is a record when it beats every earlier term and 0.  The last
    record in a piece is therefore the first column that reaches the
    piece's maximum (``argmax``), if that maximum beats the best so far: no
    later column strictly beats it, and it strictly beats every column
    before it.  So one ``argmax`` per row gives the same records as
    comparing each term with the running maximum.
    """
    s_top = m.service.largest_draw()
    level = s_top if grid is None else math.inf  # where a path stops
    absorb = math.isinf(horizon)
    if absorb:
        horizon, median = _passing_steps(m, level, rows, "the absorbing scan",
                                         "the largest service draw")
    tail_sums = np.zeros(0 if grid is None else len(grid))
    # the running rows' state, compacted as rows stop; out_ holds them by row
    ids, best, offset = np.arange(rows), np.zeros(rows), np.zeros(rows)
    last_rec = np.zeros(rows, dtype=np.int64)
    out_best, out_rec, j0 = np.empty(rows), np.empty(rows, dtype=np.int64), 0
    while len(ids) and j0 < horizon:
        use = min(block or _block(rows, horizon), horizon - j0)
        cum = _epochs(m.interarrival.sample(stream, (len(ids), block or use)), offset)
        # the rows' least epoch is nondecreasing along the piece: services
        # are drawn up to the first column whose epoch before it, Tt_{j-1}
        # (offset for column 0), has passed s_top in every row
        width = 0 if offset.min() > s_top else min(
            1 + int(np.searchsorted(cum.min(axis=0), s_top, side="right")), cum.shape[1])
        if width:
            terms = m.service.sample(stream, (len(ids), width))[:, :use]
            terms[:, 0] -= offset  # st_j - Tt_{j-1}, built in the service piece
            np.subtract(terms[:, 1:], cum[:, :terms.shape[1] - 1], out=terms[:, 1:])
            col = np.argmax(terms, axis=1)
            top = terms[np.arange(len(ids)), col]
            last_rec = np.where(top > best, j0 + 1 + col, last_rec)
            best = np.maximum(top, best)
        if grid is not None:
            for gi in np.nonzero((grid > j0) & (grid <= j0 + use))[0]:
                tail_sums[gi] += float(np.sum(m.service.tail(cum[:, grid[gi] - j0 - 1])))
        offset = cum[:, use - 1].copy()  # a view would keep the piece alive
        cum = terms = None  # free both pieces before the next is drawn
        j0 += use
        stop = offset >= level
        if stop.any():
            out_best[ids[stop]], out_rec[ids[stop]] = best[stop], last_rec[stop]
            ids, best, offset, last_rec = (a[~stop] for a in (ids, best, offset, last_rec))
    if absorb and len(ids):
        raise RuntimeError(
            f"{len(ids)} of {rows} reversed clocks stayed below the largest "
            f"service draw {s_top} for {horizon} steps: the inter-arrival law draws "
            f"below its median {median} more often than half the time")
    out_best[ids], out_rec[ids] = best, last_rec
    return np.maximum(out_best, 0.0, out=out_best), out_rec, tail_sums


def _exact_route(m: ModelSpec, rows: int, horizon: int) -> bool:
    """Whether ``rows`` draws within ``horizon`` are exact: the service law
    is bounded, or the absorbing scan's bound on the steps ``rows`` clocks
    take to pass its largest draw (``_passing_steps``) is within
    ``horizon``.  False where that bound does not exist: a nonpositive
    inter-arrival median."""
    if math.isfinite(m.service.support()[1]):
        return True
    try:
        steps, _ = _passing_steps(m, m.service.largest_draw(), rows, "the absorbing scan",
                                  "the largest service draw")
    except ValueError:
        return False
    return steps <= horizon


def stationary_batch(
    m: ModelSpec,
    horizon: int,
    reps: int,
    stream: Stream,
    *,
    threads: int = 1,
    check_divergence: bool = True,
) -> StationaryBatch:
    """``reps`` independent truncated stationary draws.

    Exact draws (residual_bound 0) serve bounded service and every law
    whose largest draw the clocks are sure to pass within ``horizon`` steps
    (the absorbing scan's own bound, ``_passing_steps``).  There, Poisson
    arrivals with service of finite mean take the Poisson route: each chunk
    draws st_1 with ``service.sample``, then M with
    ``service.sample_poisson_max``, and keeps their elementwise maximum.
    Every other model there runs the absorbing scan until every clock has
    passed the largest service draw.  Laws outside the gate run to
    ``horizon`` and report the extrapolated residual bound on
    P(truncated value != limit).
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if _exact_route(m, reps, horizon):
        if isinstance(m.interarrival, Exponential) and math.isfinite(m.service.mean()):
            # Poisson arrivals: the newest service against the closed-form
            # M/G/inf maximum of all older terms
            rate = m.interarrival.rate
            worker = lambda st, start, count: np.maximum(
                m.service.sample(st, count), m.service.sample_poisson_max(st, count, rate))
        else:
            # absorbing paths mostly stop within a few draws: narrow pieces
            worker = lambda st, start, count: _backward(m, count, st, math.inf, block=64)[0]
        parts = run_chunked(worker, reps, stream, threads=threads)
        return StationaryBatch(values=np.concatenate(parts), residual_bound=0.0,
                               horizon=horizon, reps=reps, exact=True)

    grid = _residual_grid(horizon)
    parts = run_chunked(
        lambda st, start, count: _backward(m, count, st, horizon, grid=grid),
        reps, stream, threads=threads,
    )
    values, last_rec = (np.concatenate([p[i] for p in parts]) for i in (0, 1))
    tail_sums = sum(p[2] for p in parts)
    win_start = int(_WINDOW * horizon)
    frac = float(np.mean(last_rec > win_start))
    # below ~a decade of indices every path records inside the window and
    # the vote says nothing; judge only horizons long enough to separate
    if check_divergence and win_start >= 10 and frac >= _VOTE:
        raise DivergenceSuspected(frac, horizon)
    residual = _fit_residual(grid, tail_sums / reps, horizon)
    return StationaryBatch(values=values, residual_bound=residual,
                           horizon=horizon, reps=reps, record_fraction=frac)


def stationary_sample(
    m: ModelSpec,
    horizon: int,
    stream: Stream,
) -> tuple[float, float]:
    """One truncated stationary draw plus its residual bound.

    Off the exact routes of ``stationary_batch``, a pilot batch (``_PILOT``
    trajectories, first stream child) feeds the divergence check and the
    residual fit; on them the residual is 0 and no pilot runs.  The value
    is an independent single construction (second child) drawn in whole
    4096-wide blocks, so on a fixed seed it is non-decreasing in the
    horizon.  Each block's service piece is cut where its clock passes the
    largest service draw, found over the whole block, never from the
    horizon, and the draw stops after the block in which it passes: every
    later term is negative, so the value is the limit whatever the horizon.
    """
    residual = 0.0 if _exact_route(m, _PILOT, horizon) else (
        stationary_batch(m, horizon, _PILOT, stream.child(0)).residual_bound)
    best, _, _ = _backward(m, 1, stream.child(1), horizon, block=_BLOCK_ELEMS >> 8)
    return float(best[0]), float(residual)


def stationary_window(
    m: ModelSpec,
    width: int,
    back_horizon: int,
    stream: Stream,
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
    win_start = int(_WINDOW * back_horizon)
    frac_late = float(np.mean(last_rec > win_start))
    frac_uncoupled = float(np.mean(~coupled))
    tripped = max(frac_late if win_start >= 10 else 0.0, frac_uncoupled)
    if tripped >= _VOTE:
        raise DivergenceSuspected(tripped, back_horizon)
    return StationaryWindow(window=x, t=t, s=s, coupled=coupled,
                            back_horizon=back_horizon)
