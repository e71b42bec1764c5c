"""Recurrence classification of the workload chain.

Two routes produce verdicts.  The analytic route pattern-matches the
model against shapes whose phase is known in closed form (finite-mean
models, Pareto-vs-Pareto tail competition, deterministic arrivals with
1/x service tails).  The Monte Carlo route estimates three series whose
convergence or divergence is the actual criterion:

  tail series          S_n = sum_{k<=n} Fbar_s(T_k)            per path
  transience series    S_n = sum_{m<=n} E exp(-sum_{i<m} Fbar_s(y + T_i))
  recurrence series    S_n = sum_{m<=n} E exp(-c sum_{i<=m} Fbar_s(w0 + T_i)),  c > 1

A finite simulation cannot decide convergence, so verdicts come from a
log-log slope test on the partial sums over the last decade of n, with
an increment floor separating "still climbing" from "numerically flat";
all thresholds are configurable and every report carries its diagnostics.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .dists import (
    Deterministic,
    DiscreteUniform,
    Distribution,
    Mixture,
    Pareto,
    QuadratureError,
    TruncatedParetoOne,
)
from .engine import ModelSpec, _block, _epochs, _forward
from .streams import Stream, run_chunked

__all__ = [
    "Verdict",
    "SeriesVerdict",
    "SeriesKind",
    "Source",
    "WalkVerdict",
    "SeriesThresholds",
    "SeriesDiagnostic",
    "ClassifierConfig",
    "ClassificationReport",
    "EricksonReport",
    "tail_series",
    "transience_series",
    "recurrence_series",
    "occupation_estimate",
    "analytic_phase",
    "classify",
    "erickson",
    "compare_queues",
]

_GRID_POINTS = 200
_DEFAULT_SEED = 20260816  # classify() without a stream stays reproducible


class Verdict(Enum):
    TRANSIENT = "transient"
    NULL_RECURRENT = "null_recurrent"
    POSITIVE_RECURRENT = "positive_recurrent"
    INCONCLUSIVE = "inconclusive"


class SeriesVerdict(Enum):
    CONVERGES = "converges"
    DIVERGES = "diverges"
    INCONCLUSIVE = "inconclusive"


class SeriesKind(Enum):
    TAIL = "tail"
    TRANSIENCE = "transience"
    RECURRENCE = "recurrence"


class Source(Enum):
    ANALYTIC = "analytic"
    MONTE_CARLO = "monte_carlo"
    BOTH = "both"


class WalkVerdict(Enum):
    DRIFT_PLUS = "drift_plus_infinity"
    DRIFT_MINUS = "drift_minus_infinity"
    OSCILLATES = "oscillates"


@dataclass(frozen=True)
class SeriesThresholds:
    slope_converges: float = 0.05
    increment_floor: float = 1e-8
    vote_majority: float = 0.9


@dataclass
class SeriesDiagnostic:
    kind: SeriesKind
    grid: np.ndarray
    partial_sums: np.ndarray
    slope: float
    verdict: SeriesVerdict
    params: dict
    values: Optional[np.ndarray] = None
    votes_converge: Optional[float] = None
    votes_diverge: Optional[float] = None
    reps: int = 0
    n_max: int = 0


@dataclass(frozen=True)
class ClassifierConfig:
    """Monte Carlo settings of ``classify``.  ``w0=None`` takes the lower
    median of the service law, and ``y=None`` takes w0."""

    n_max: int = 100_000
    reps: int = 200
    thresholds: SeriesThresholds = SeriesThresholds()
    c: float = 1.1
    y: Optional[float] = None
    w0: Optional[float] = None
    force_series: bool = False
    threads: int = 1


@dataclass
class ClassificationReport:
    verdict: Verdict
    source: Source
    diagnostics: list
    notes: str


@dataclass
class EricksonReport:
    j_plus: float
    j_minus: float
    walk_verdict: WalkVerdict
    en_s1: tuple


# ---------------------------------------------------------------- series


def _log_grid(n_max: int) -> np.ndarray:
    return np.unique(np.round(np.geomspace(1, n_max, _GRID_POINTS)).astype(np.int64))


def _series_verdict(grid, sums, thr: SeriesThresholds):
    """Slope test on the last decade of a non-decreasing partial-sum
    trajectory.  Returns (verdict, fitted slope)."""
    mask = grid >= max(1.0, grid[-1] / 10.0)
    g = grid[mask].astype(float)
    v = np.asarray(sums, dtype=float)[mask]
    if v[-1] <= 0.0:
        return SeriesVerdict.CONVERGES, 0.0
    pos = v > 0.0
    if pos.sum() < 2:
        incr = np.diff(v) / np.diff(g) if len(v) > 1 else np.array([0.0])
        if incr.size and incr.min() >= thr.increment_floor:
            return SeriesVerdict.DIVERGES, math.nan
        return SeriesVerdict.INCONCLUSIVE, math.nan
    slope = float(np.polyfit(np.log(g[pos]), np.log(v[pos]), 1)[0])
    if slope < thr.slope_converges:
        return SeriesVerdict.CONVERGES, slope
    incr = np.diff(v) / np.diff(g)
    if incr.min() >= thr.increment_floor:
        return SeriesVerdict.DIVERGES, slope
    return SeriesVerdict.INCONCLUSIVE, slope


def _grid_tail_sums(m: ModelSpec, counts: np.ndarray, count: int,
                    stream: Stream, shift: float) -> np.ndarray:
    """Per-path cumulative sums of Fbar_service(shift + T_k) recorded after
    ``counts[j]`` terms.  counts must be non-decreasing; a zero count means
    the empty sum.  Returns an array of shape (count, len(counts))."""
    n_terms = int(counts[-1])
    out = np.zeros((count, len(counts)))  # zero counts stay 0
    block = _block(count, n_terms)
    acc = np.zeros(count)
    offset = np.zeros(count)
    for k0 in range(0, n_terms, block):
        length = min(block, n_terms - k0)
        t = m.interarrival.sample(stream, (count, length))
        cum = _epochs(t, offset)
        g = np.cumsum(m.service.tail(shift + cum), axis=1)
        g += acc[:, None]
        here = (counts > k0) & (counts <= k0 + length)
        out[:, here] = g[:, counts[here] - k0 - 1]
        acc = g[:, -1]
        offset = cum[:, -1]
    return out


def _det_grid_tail_sums(m: ModelSpec, counts: np.ndarray, shift: float) -> np.ndarray:
    """Deterministic arrivals make T_k = k*r exact; no sampling needed."""
    r = m.interarrival.value
    n_terms = int(counts[-1])
    sums = np.concatenate([[0.0], np.cumsum(
        m.service.tail(shift + r * np.arange(1, n_terms + 1)))])
    return sums[counts.astype(np.int64)][None, :]


def _tail_sums(m: ModelSpec, counts: np.ndarray, shift: float, reps: int,
               stream: Stream, threads: int) -> np.ndarray:
    """Sums of Fbar_service(shift + T_k) after ``counts[j]`` terms, one row
    per path: ``reps`` sampled paths, or the one exact path when arrivals
    are deterministic."""
    if isinstance(m.interarrival, Deterministic):
        return _det_grid_tail_sums(m, counts, shift)
    if stream is None:
        raise ValueError("a stream is required for random arrivals")
    parts = run_chunked(
        lambda st, start, count: _grid_tail_sums(m, counts, count, st, shift),
        reps, stream, threads=threads,
    )
    return np.concatenate(parts, axis=0)


def _trapezoid_partial_sums(grid: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Partial sums of a series sampled on an integer log grid, linearly
    interpolating the summand between grid points.  grid[0] must be 1."""
    out = np.empty(len(grid))
    out[0] = values[0] * grid[0]
    steps = np.diff(grid) * (values[:-1] + values[1:]) / 2.0
    np.cumsum(steps, out=out[1:])
    out[1:] += out[0]
    return out


def tail_series(m: ModelSpec, n_max: int, reps: int, stream: Stream = None,
                *, thresholds: SeriesThresholds = SeriesThresholds(),
                threads: int = 1) -> SeriesDiagnostic:
    """Per-path partial sums of Fbar_service(T_k); each path votes on
    convergence and the verdict needs a supermajority.

    Per-path trajectories are exact given the sampled arrival epochs (the
    summands are analytic tails, not indicator estimates).
    """
    _check_series_args(n_max, reps)
    grid = _log_grid(n_max)
    sums = _tail_sums(m, grid, 0.0, reps, stream, threads)
    votes = [_series_verdict(grid, row, thresholds)[0] for row in sums]
    vc = sum(v is SeriesVerdict.CONVERGES for v in votes) / len(votes)
    vd = sum(v is SeriesVerdict.DIVERGES for v in votes) / len(votes)
    median = np.median(sums, axis=0)
    _, slope = _series_verdict(grid, median, thresholds)
    if vc >= thresholds.vote_majority:
        verdict = SeriesVerdict.CONVERGES
    elif vd >= thresholds.vote_majority:
        verdict = SeriesVerdict.DIVERGES
    else:
        verdict = SeriesVerdict.INCONCLUSIVE
    return SeriesDiagnostic(
        kind=SeriesKind.TAIL, grid=grid, partial_sums=median, slope=slope,
        verdict=verdict, params={}, votes_converge=vc, votes_diverge=vd,
        reps=len(sums), n_max=n_max,
    )


def _exp_series(m: ModelSpec, shift: float, factor: float, inner_offset: int,
                kind: SeriesKind, params: dict, n_max: int, reps: int,
                stream: Stream, thresholds: SeriesThresholds,
                threads: int) -> SeriesDiagnostic:
    """Shared estimator for the two exponential-of-partial-sum series.

    The summand at index n is E exp(-factor * sum over the first
    n + inner_offset terms of Fbar_service(shift + T_i)); inner_offset is
    -1 for the transience series and 0 for the recurrence series.
    """
    _check_series_args(n_max, reps)
    grid = _log_grid(n_max)
    sums = _tail_sums(m, np.maximum(grid + inner_offset, 0), shift, reps,
                      stream, threads)
    values = np.mean(np.exp(-factor * sums), axis=0)
    partial = _trapezoid_partial_sums(grid, values)
    verdict, slope = _series_verdict(grid, partial, thresholds)
    return SeriesDiagnostic(
        kind=kind, grid=grid, partial_sums=partial, slope=slope,
        verdict=verdict, params=params, values=values,
        reps=len(sums), n_max=n_max,
    )


def transience_series(m: ModelSpec, y: float, n_max: int, reps: int,
                      stream: Stream = None, *,
                      thresholds: SeriesThresholds = SeriesThresholds(),
                      threads: int = 1) -> SeriesDiagnostic:
    """Series whose convergence certifies transience: summands
    a_n = E exp(-sum_{i<n} Fbar_service(y + T_i)), a_1 = 1."""
    if y < 0:
        raise ValueError("y must be non-negative")
    return _exp_series(m, y, 1.0, -1, SeriesKind.TRANSIENCE, {"y": y},
                       n_max, reps, stream, thresholds, threads)


def recurrence_series(m: ModelSpec, w0: float, c: float, n_max: int, reps: int,
                      stream: Stream = None, *,
                      thresholds: SeriesThresholds = SeriesThresholds(),
                      threads: int = 1) -> SeriesDiagnostic:
    """Series whose divergence certifies Harris recurrence: summands
    b_n = E exp(-c sum_{i<=n} Fbar_service(w0 + T_i)) for some c > 1."""
    if not c > 1.0:
        raise ValueError("c must exceed 1")
    if w0 < 0:
        raise ValueError("w0 must be non-negative")
    return _exp_series(m, w0, c, 0, SeriesKind.RECURRENCE, {"w0": w0, "c": c},
                       n_max, reps, stream, thresholds, threads)


def _check_series_args(n_max: int, reps: int) -> None:
    if n_max < 1_000:
        raise ValueError("n_max must be >= 1000")
    if reps < 100:
        raise ValueError("reps must be >= 100")


def occupation_estimate(m: ModelSpec, x: float, y: float, horizon: int,
                        reps: int, stream: Stream, *, threads: int = 1):
    """Mean number of steps n <= horizon (counting n = 0) with X_n <= y,
    started from X_0 = x, with a 95% CLT interval.

    Saturating visit counts as the horizon grows corroborate transience;
    unbounded growth corroborates recurrence.
    """
    if horizon < 1_000:
        raise ValueError("horizon must be >= 1000")

    def chunk(st: Stream, start: int, count: int):
        x0 = np.full(count, float(x))
        visits = (x0 <= y).astype(np.int64)
        for xs, _ in _forward(m, x0, horizon, st):
            visits += np.count_nonzero(xs <= y, axis=1)
        return visits

    parts = run_chunked(chunk, reps, stream, threads=threads)
    visits = np.concatenate(parts).astype(float)
    mean = float(visits.mean())
    half = 1.96 * float(visits.std(ddof=1)) / math.sqrt(len(visits)) if len(visits) > 1 else 0.0
    return mean, (mean - half, mean + half)


# ------------------------------------------------------- analytic route


def analytic_phase(m: ModelSpec) -> Optional[ClassificationReport]:
    """Closed-form phase rules for solved model shapes; None when the model
    matches none of them.

    The finite-mean rule runs first: whenever both driving means are
    finite the chain is positive recurrent outright, and that settles
    heavy-vs-heavy comparisons the tail-competition rule would misread
    (tail competition only separates phases when at least one mean is
    infinite).
    """
    s, t = m.service, m.interarrival

    if math.isfinite(s.mean()) and math.isfinite(t.mean()):
        return ClassificationReport(
            verdict=Verdict.POSITIVE_RECURRENT, source=Source.ANALYTIC,
            diagnostics=[],
            notes="both driving means are finite, so the stationary "
                  "workload exists",
        )

    if isinstance(s, Pareto) and isinstance(t, Pareto) and s.alpha < 2 and t.alpha < 2:
        if s.alpha > t.alpha:
            return ClassificationReport(
                verdict=Verdict.POSITIVE_RECURRENT, source=Source.ANALYTIC,
                diagnostics=[],
                notes="service tail decays faster than the arrival clock "
                      "grows (tail index {:.3g} > {:.3g})".format(s.alpha, t.alpha),
            )
        if s.alpha < t.alpha:
            return ClassificationReport(
                verdict=Verdict.INCONCLUSIVE, source=Source.ANALYTIC,
                diagnostics=[],
                notes="positive recurrence excluded: service tail index "
                      "{:.3g} below arrival tail index {:.3g}; transient vs "
                      "null recurrent needs series diagnostics".format(s.alpha, t.alpha),
            )
        return None

    if isinstance(t, Deterministic):
        r = t.value
        if isinstance(s, Pareto):
            if s.alpha < 1:
                return ClassificationReport(
                    verdict=Verdict.TRANSIENT, source=Source.ANALYTIC,
                    diagnostics=[],
                    notes="deterministic arrivals with service tail index "
                          "below 1: workload outruns the clock",
                )
            if s.alpha == 1.0:
                # exact 1/x tail with coefficient = scale
                return _det_inverse_tail(r, s.scale)
        if isinstance(s, TruncatedParetoOne):
            return _det_inverse_tail(r, s.d1)
    return None


def _det_inverse_tail(r: float, d1: float) -> ClassificationReport:
    if d1 > r:
        verdict = Verdict.TRANSIENT
        how = "exceeds"
    else:
        verdict = Verdict.NULL_RECURRENT
        how = "does not exceed"
    return ClassificationReport(
        verdict=verdict, source=Source.ANALYTIC, diagnostics=[],
        notes="deterministic spacing {:.6g} with 1/x service tail "
              "coefficient {:.6g}: the coefficient {} the spacing".format(r, d1, how),
    )


def classify(m: ModelSpec, cfg: ClassifierConfig = None,
             stream: Stream = None) -> ClassificationReport:
    """Full classification: analytic phase rules first, Monte Carlo series
    diagnostics when no rule is definitive (or when cfg.force_series asks
    for both routes).  Conflicting diagnostics yield INCONCLUSIVE with
    everything attached; Monte Carlo outcomes are numerical evidence, not
    proof, and the notes say so.
    """
    cfg = cfg if cfg is not None else ClassifierConfig()
    analytic = analytic_phase(m)
    definitive = analytic is not None and analytic.verdict is not Verdict.INCONCLUSIVE
    if definitive and not cfg.force_series:
        return analytic
    if stream is None:
        stream = Stream.from_seed(_DEFAULT_SEED)

    w0 = cfg.w0 if cfg.w0 is not None else m.service.quantile(0.5)
    y = cfg.y if cfg.y is not None else w0
    thr = cfg.thresholds
    kw = dict(thresholds=thr, threads=cfg.threads)

    if definitive:
        tail = tail_series(m, cfg.n_max, cfg.reps, stream.child(0), **kw)
        trans = transience_series(m, y, cfg.n_max, cfg.reps, stream.child(1), **kw)
        rec = recurrence_series(m, w0, cfg.c, cfg.n_max, cfg.reps, stream.child(2), **kw)
        diags = [tail, trans, rec]
        mc = _combine_mc(tail, trans, rec)
        notes = analytic.notes
        if mc is not analytic.verdict:
            notes += ("; series diagnostics read {} (numerical evidence "
                      "only; analytic verdict kept)".format(mc.value))
        return ClassificationReport(verdict=analytic.verdict, source=Source.BOTH,
                                    diagnostics=diags, notes=notes)

    if analytic is not None:
        # positive recurrence excluded analytically; series separate the rest
        trans = transience_series(m, y, cfg.n_max, cfg.reps, stream.child(1), **kw)
        rec = recurrence_series(m, w0, cfg.c, cfg.n_max, cfg.reps, stream.child(2), **kw)
        diags = [trans, rec]
        if trans.verdict is SeriesVerdict.CONVERGES and rec.verdict is not SeriesVerdict.DIVERGES:
            return ClassificationReport(
                verdict=Verdict.TRANSIENT, source=Source.BOTH, diagnostics=diags,
                notes=analytic.notes + "; transience series converges "
                      "(numerical evidence)")
        if rec.verdict is SeriesVerdict.DIVERGES and trans.verdict is not SeriesVerdict.CONVERGES:
            return ClassificationReport(
                verdict=Verdict.NULL_RECURRENT, source=Source.BOTH, diagnostics=diags,
                notes=analytic.notes + "; recurrence series diverges "
                      "(numerical evidence)")
        return ClassificationReport(
            verdict=Verdict.INCONCLUSIVE, source=Source.BOTH, diagnostics=diags,
            notes=analytic.notes + "; series diagnostics did not separate "
                  "transient from null recurrent")

    tail = tail_series(m, cfg.n_max, cfg.reps, stream.child(0), **kw)
    if tail.verdict is SeriesVerdict.CONVERGES:
        return ClassificationReport(
            verdict=Verdict.POSITIVE_RECURRENT, source=Source.MONTE_CARLO,
            diagnostics=[tail],
            notes="tail series converges on a {:.0%} vote (numerical "
                  "evidence)".format(tail.votes_converge))
    trans = transience_series(m, y, cfg.n_max, cfg.reps, stream.child(1), **kw)
    rec = recurrence_series(m, w0, cfg.c, cfg.n_max, cfg.reps, stream.child(2), **kw)
    diags = [tail, trans, rec]
    verdict = _combine_mc(tail, trans, rec)
    notes = ("tail series {}; transience series {}; recurrence series {} "
             "(numerical evidence)").format(
        tail.verdict.value, trans.verdict.value, rec.verdict.value)
    return ClassificationReport(verdict=verdict, source=Source.MONTE_CARLO,
                                diagnostics=diags, notes=notes)


def _combine_mc(tail: SeriesDiagnostic, trans: SeriesDiagnostic,
                rec: SeriesDiagnostic) -> Verdict:
    if trans.verdict is SeriesVerdict.CONVERGES and rec.verdict is SeriesVerdict.DIVERGES:
        return Verdict.INCONCLUSIVE  # the two certificates contradict
    if tail.verdict is SeriesVerdict.CONVERGES:
        return Verdict.POSITIVE_RECURRENT
    if trans.verdict is SeriesVerdict.CONVERGES:
        return Verdict.TRANSIENT
    if tail.verdict is SeriesVerdict.DIVERGES and rec.verdict is SeriesVerdict.DIVERGES:
        return Verdict.NULL_RECURRENT
    return Verdict.INCONCLUSIVE


# ------------------------------------------------- drift classification


def _prob_breaks(d: Distribution) -> list:
    """Probability-space breakpoints where the quantile function kinks or
    jumps; quadrature hints only."""
    out = set()
    if isinstance(d, DiscreteUniform):
        n = len(d.values)
        out.update(k / n for k in range(1, n))
    elif isinstance(d, TruncatedParetoOne):
        out.add(1.0 - d.d1 / d.x0)
    elif isinstance(d, Mixture):
        for _, comp in d.components:
            lo, hi = comp.support()
            xs = [b for b in comp._breakpoints() if math.isfinite(b)]
            xs += [z for z in (lo, hi) if math.isfinite(z) and z > 0]
            out.update(float(d.cdf(x)) for x in xs)
    return sorted(p for p in out if 0.0 < p < 1.0)


def _j_value(num: Distribution, den: Distribution, quad_tol: float) -> float:
    """E[ A / m(A) ] with A ~ num and m the truncated mean of den,
    integrated in probability space so atoms come out exact."""
    from scipy import integrate

    def integrand(p: float) -> float:
        xq = float(num.quantile(p))
        return xq / float(den.truncated_mean(xq))

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, err = integrate.quad(integrand, 0.0, 1.0,
                                  points=_prob_breaks(num) or None,
                                  limit=400, epsabs=0.0, epsrel=quad_tol)
    if not math.isfinite(val) or err > 1e-6 * max(abs(val), 1.0):
        raise QuadratureError(
            f"drift integral failed: value {val}, error estimate {err}")
    return float(val)


def _j_finite(num: Distribution, den: Distribution) -> bool:
    """Symbolic finiteness of E[ A / m_den(A) ] from catalogue tail classes.

    With a finite-mean denominator law the truncated mean is bounded, so
    the integral inherits finiteness from E A.  A denominator with a
    regularly varying infinite-mean tail (index b <= 1) gives a truncated
    mean growing like x^(1-b) (log x at b = 1), so the ratio behaves like
    A**b (A/log A), finite in expectation by comparing tail indices.
    """
    if math.isfinite(den.mean()):
        return math.isfinite(num.mean())
    beta = den.tail_class().alpha
    kind = num.tail_class().kind
    if kind in ("bounded", "light"):
        return True
    alpha = num.tail_class().alpha
    if beta < 1.0:
        return alpha > beta
    return alpha > 1.0


def erickson(m: ModelSpec, quad_tol: float = 1e-10) -> EricksonReport:
    """Drift classification of the increment walk Gamma_n = sum(s_j - t_{j+1})
    through the truncated-mean ratio integrals

        J_plus  = E[ s / m_minus(s) ],   m_minus(x) = E min(t, x),
        J_minus = E[ t / m_plus(t)  ],   m_plus(x)  = E min(s, x).

    Finiteness is decided symbolically from the catalogue tail classes;
    quadrature only ever evaluates integrals already known finite.  When
    both driving means are finite the walk obeys the strong law and the
    verdict is the sign of E s - E t.  en_s1 brackets the expected number
    of arrivals during one service time via Wald's inequality,
    x/m_minus(x) <= E N(x) + 1 <= 2x/m_minus(x).
    """
    s, t = m.service, m.interarrival
    s_lo, s_hi = s.support()
    t_lo, t_hi = t.support()
    if not (s_hi > t_lo and s_lo < t_hi):
        raise ValueError(
            "the increment s - t must put mass on both signs; the supports "
            f"service {s.support()} / inter-arrival {t.support()} do not allow it")

    ms, mt = s.mean(), t.mean()
    if math.isfinite(ms) and math.isfinite(mt):
        j_plus = _j_value(s, t, quad_tol)
        j_minus = _j_value(t, s, quad_tol)
        if ms < mt:
            wv = WalkVerdict.DRIFT_MINUS
        elif ms > mt:
            wv = WalkVerdict.DRIFT_PLUS
        else:
            wv = WalkVerdict.OSCILLATES
    else:
        fp = _j_finite(s, t)
        fm = _j_finite(t, s)
        j_plus = _j_value(s, t, quad_tol) if fp else math.inf
        j_minus = _j_value(t, s, quad_tol) if fm else math.inf
        if fp:
            wv = WalkVerdict.DRIFT_MINUS
        elif fm:
            wv = WalkVerdict.DRIFT_PLUS
        else:
            wv = WalkVerdict.OSCILLATES
    if math.isfinite(j_plus):
        en = (max(j_plus - 1.0, 0.0), 2.0 * j_plus)
    else:
        en = (math.inf, math.inf)
    return EricksonReport(j_plus=j_plus, j_minus=j_minus, walk_verdict=wv,
                          en_s1=en)


_SINGLE_SERVER_PHASE = {
    WalkVerdict.DRIFT_MINUS: Verdict.POSITIVE_RECURRENT,
    WalkVerdict.OSCILLATES: Verdict.NULL_RECURRENT,
    WalkVerdict.DRIFT_PLUS: Verdict.TRANSIENT,
}


def compare_queues(m: ModelSpec, cfg: ClassifierConfig = None,
                   stream: Stream = None):
    """Classify the same model as an infinite-server chain and as a
    single-server (Lindley) chain and report where they agree.

    Returns (infinite_server report, single_server report or None,
    commentary).  The single-server report is None when the increment walk
    is degenerate (one-signed increments), which the commentary explains.
    """
    infinite = classify(m, cfg, stream)
    try:
        single = erickson(m)
    except ValueError:
        # one-signed increments: the drift criterion is immediate and the
        # arrival-count bracket still tells the single-server story
        s, t = m.service, m.interarrival
        s_lo, s_hi = s.support()
        t_lo, t_hi = t.support()
        lines = ["infinite-server verdict: {} ({})".format(
            infinite.verdict.value, infinite.source.value)]
        if s_lo >= t_hi and s_hi <= t_lo:
            lines.append(
                "service and inter-arrival times coincide deterministically; "
                "the single-server walk never moves and the waiting time is "
                "frozen at its start value")
        elif s_lo >= t_hi:
            lines.append(
                "every service time weakly exceeds the next inter-arrival "
                "time, so the single-server walk only climbs: the queue is "
                "transient")
            if not _j_finite(s, t):
                lines.append(
                    "expected number of arrivals during one service time is "
                    "infinite (E N(s_1) = inf), so single-server positive "
                    "recurrence fails")
        else:
            lines.append(
                "every service time is weakly below the next inter-arrival "
                "time, so the single-server queue drains after each arrival "
                "and is positive recurrent")
        return infinite, None, "\n".join(lines)
    sv = _SINGLE_SERVER_PHASE[single.walk_verdict]
    lines = [
        "infinite-server verdict: {} ({})".format(
            infinite.verdict.value, infinite.source.value),
        "single-server verdict: {} (walk {})".format(
            sv.value, single.walk_verdict.value),
    ]
    if math.isinf(single.j_plus):
        lines.append(
            "expected number of arrivals during one service time is "
            "infinite, which rules out single-server positive recurrence")
    if infinite.verdict is sv:
        lines.append("the two queues fall in the same phase")
    elif infinite.verdict is Verdict.INCONCLUSIVE:
        lines.append("the infinite-server verdict is inconclusive; no "
                     "phase comparison is claimed")
    else:
        lines.append(
            "the two queues fall in different phases: per-arrival workload "
            "drain (infinite-server) versus shared-server backlog respond "
            "differently to these tails")
    return infinite, single, "\n".join(lines)
