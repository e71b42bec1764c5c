"""Recurrence classification of the workload chain.

Two routes produce verdicts.  The analytic route has three certificates:
J_plus = E[s / E min(t, s)] < inf proves positive recurrence, E t < inf
against a service tail of index below 1 proves transience, and E t < inf =
E s excludes positive recurrence; it also solves deterministic arrivals
with 1/x service tails.  The Monte Carlo route estimates three series whose
convergence or divergence is the actual criterion:

  tail series          S_n = sum_{k<=n} Fbar_s(T_k)            per path
  transience series    S_n = sum_{m<=n} E exp(-sum_{i<m} Fbar_s(y + T_i))
  recurrence series    S_n = sum_{m<=n} E exp(-c sum_{i<=m} Fbar_s(w0 + T_i)),  c > 1

All three sum Fbar_s(shift + T_k) over the arrival epochs T_k, so
``classify`` draws the epochs once, from its stream's child 0, for every
series (the default y = w0 also shares one tail evaluation).  Each series
keeps its estimator, grid and reps and is tested on its own, bit for bit
the public series run alone on child 0; only the estimates correlate.

A finite simulation cannot decide convergence, so verdicts come from a
log-log slope test on the partial sums over the last decade of n, the
slope a closed-form least-squares line (``engine._fit_line``), with an
increment floor separating "still climbing" from "numerically flat";
all thresholds are configurable and every report carries its diagnostics.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .dists import Deterministic, Distribution, Mixture, Pareto, QuadratureError
from .engine import ModelSpec, _block, _epochs, _fit_line, _forward, _int_grid, _median0
from .streams import _Numpy, Stream, run_chunked

np = _Numpy(globals())

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
_QUAD_TOL = 1e-10  # relative tolerance of the drift integrals
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
    slope = _fit_line(np.log(g[pos]), np.log(v[pos]))[0]
    if slope < thr.slope_converges:
        return SeriesVerdict.CONVERGES, slope
    incr = np.diff(v) / np.diff(g)
    if incr.min() >= thr.increment_floor:
        return SeriesVerdict.DIVERGES, slope
    return SeriesVerdict.INCONCLUSIVE, slope


def _grid_tail_sums(m: ModelSpec, n_terms: int, specs: tuple, count: int,
                    stream: Stream) -> list:
    """Per-path cumulative sums of Fbar_service(shift + T_k) over one draw
    of ``n_terms`` arrival epochs, for each (shift, counts) spec: recorded
    after ``counts[j]`` terms (non-decreasing, at most n_terms; a zero count
    means the empty sum).  Each piece evaluates the tail once per distinct
    shift.  Returns one (count, len(counts)) array per spec."""
    outs = [np.zeros((count, len(counts))) for _, counts in specs]  # zero counts stay 0
    acc = {shift: np.zeros(count) for shift, _ in specs}
    block = _block(count, n_terms)
    offset = np.zeros(count)
    for k0 in range(0, n_terms, block):
        length = min(block, n_terms - k0)
        cum = _epochs(m.interarrival.sample(stream, (count, length)), offset)
        for shift in acc:
            g = np.cumsum(m.service.tail(shift + cum), axis=1)
            g += acc[shift][:, None]
            for (at, counts), out in zip(specs, outs):
                if at == shift:
                    here = (counts > k0) & (counts <= k0 + length)
                    out[:, here] = g[:, counts[here] - k0 - 1]
            acc[shift] = g[:, -1].copy()  # views would keep the pieces alive
        offset = cum[:, -1].copy()
    return outs


def _tail_sums(m: ModelSpec, n_terms: int, specs: tuple, reps: int,
               stream: Stream, threads: int) -> list:
    """``_grid_tail_sums`` over ``reps`` paths, or over the one exact path
    T_k = k*r when arrivals are deterministic."""
    if isinstance(m.interarrival, Deterministic):
        epochs = m.interarrival.value * np.arange(1, n_terms + 1)
        out = []
        for shift, counts in specs:
            sums = np.concatenate([[0.0], np.cumsum(m.service.tail(shift + epochs))])
            out.append(sums[counts][None, :])
        return out
    if stream is None:
        raise ValueError("a stream is required for random arrivals")
    parts = run_chunked(
        lambda st, start, count: _grid_tail_sums(m, n_terms, specs, count, st),
        reps, stream, threads=threads,
    )
    return [np.concatenate(p, axis=0) for p in zip(*parts)]


def _trapezoid_partial_sums(grid: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Partial sums of a series sampled on an integer log grid, linearly
    interpolating the summand between grid points.  grid[0] must be 1."""
    out = np.empty(len(grid))
    out[0] = values[0] * grid[0]
    steps = np.diff(grid) * (values[:-1] + values[1:]) / 2.0
    np.cumsum(steps, out=out[1:])
    out[1:] += out[0]
    return out


def _diagnostic(kind: SeriesKind, params: dict, grid: np.ndarray,
                sums: np.ndarray, thr: SeriesThresholds,
                n_max: int) -> SeriesDiagnostic:
    """A series' diagnostic from its per-path sums.  Tail series paths are
    exact given their epochs and each votes; the other two average
    exp(-c * sums), c = 1 for transience, over paths first."""
    votes, values = {}, None
    if kind is SeriesKind.TAIL:
        verdicts = [_series_verdict(grid, row, thr)[0] for row in sums]
        vc = sum(v is SeriesVerdict.CONVERGES for v in verdicts) / len(verdicts)
        vd = sum(v is SeriesVerdict.DIVERGES for v in verdicts) / len(verdicts)
        votes = dict(votes_converge=vc, votes_diverge=vd)
        partial = _median0(sums)
        _, slope = _series_verdict(grid, partial, thr)
        verdict = (SeriesVerdict.CONVERGES if vc >= thr.vote_majority else
                   SeriesVerdict.DIVERGES if vd >= thr.vote_majority else
                   SeriesVerdict.INCONCLUSIVE)
    else:
        values = np.mean(np.exp(-params.get("c", 1.0) * sums), axis=0)
        partial = _trapezoid_partial_sums(grid, values)
        verdict, slope = _series_verdict(grid, partial, thr)
    return SeriesDiagnostic(
        kind=kind, grid=grid, partial_sums=partial, slope=slope, verdict=verdict,
        params=dict(params), values=values, reps=len(sums), n_max=n_max, **votes)


def _series(m: ModelSpec, series: tuple, n_max: int, reps: int,
            stream: Stream, thresholds: SeriesThresholds,
            threads: int) -> list:
    """Diagnostics of (kind, shift, params) series from one draw of ``reps``
    paths of epochs T_1..T_N, N the grid's last point.  At grid point n the
    transience summand takes n - 1 terms, the other two n."""
    if n_max < 1_000:
        raise ValueError("n_max must be >= 1000")
    if reps < 100:
        raise ValueError("reps must be >= 100")
    grid = _int_grid(1, n_max, _GRID_POINTS)
    specs = tuple((shift, grid - 1 if kind is SeriesKind.TRANSIENCE else grid)
                  for kind, shift, _ in series)
    sums = _tail_sums(m, int(grid[-1]), specs, reps, stream, threads)
    return [_diagnostic(kind, params, grid, s, thresholds, n_max)
            for (kind, _, params), s in zip(series, sums)]


_TAIL = (SeriesKind.TAIL, 0.0, {})


def _transience(y: float) -> tuple:
    if y < 0:
        raise ValueError("y must be non-negative")
    return SeriesKind.TRANSIENCE, y, {"y": y}


def _recurrence(w0: float, c: float) -> tuple:
    if not c > 1.0:
        raise ValueError("c must exceed 1")
    if w0 < 0:
        raise ValueError("w0 must be non-negative")
    return SeriesKind.RECURRENCE, w0, {"w0": w0, "c": c}


def tail_series(m: ModelSpec, n_max: int, reps: int, stream: Stream = None,
                *, thresholds: SeriesThresholds = SeriesThresholds(),
                threads: int = 1) -> SeriesDiagnostic:
    """Per-path partial sums of Fbar_service(T_k); each path votes on
    convergence and the verdict needs a supermajority.

    Per-path trajectories are exact given the sampled arrival epochs (the
    summands are analytic tails, not indicator estimates).
    """
    return _series(m, (_TAIL,), n_max, reps, stream, thresholds, threads)[0]


def transience_series(m: ModelSpec, y: float, n_max: int, reps: int,
                      stream: Stream = None, *,
                      thresholds: SeriesThresholds = SeriesThresholds(),
                      threads: int = 1) -> SeriesDiagnostic:
    """Series whose convergence certifies transience: summands
    a_n = E exp(-sum_{i<n} Fbar_service(y + T_i)), a_1 = 1."""
    return _series(m, (_transience(y),), n_max, reps, stream, thresholds,
                   threads)[0]


def recurrence_series(m: ModelSpec, w0: float, c: float, n_max: int, reps: int,
                      stream: Stream = None, *,
                      thresholds: SeriesThresholds = SeriesThresholds(),
                      threads: int = 1) -> SeriesDiagnostic:
    """Series whose divergence certifies Harris recurrence: summands
    b_n = E exp(-c sum_{i<=n} Fbar_service(w0 + T_i)) for some c > 1."""
    return _series(m, (_recurrence(w0, c),), n_max, reps, stream, thresholds,
                   threads)[0]


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
    """Closed-form phase rules, in order; None when none applies.  An
    exclusion reads INCONCLUSIVE and leaves transient vs null recurrent to
    the series diagnostics.

    1. J_plus = E[s / m(s)] < inf, m(x) = E min(t, x): positive recurrent.
       A record of the Loynes scan is a k >= 1 with s_{k+1} > T_k.  The
       services are independent of the epochs, so the expected number of
       records is sum_k P(s > T_k) = E N(s) <= 2 J_plus - 1 by Wald's bound
       (see ``erickson``), N(x) the number of epochs below x.  By the first
       Borel-Cantelli lemma there are finitely many records a.s., so the
       backward limit sup_k (s_{k+1} - T_k) is finite.
    2. E t < inf and a service tail regularly varying of index a < 1:
       transient.  X_n = max(x0 - T_n, max_{k<=n} (s_k - (T_n - T_k))) and
       T_n - T_k <= T_n, so given the epochs P(X_n <= y | T) <= F_s(y + T_n)^n
       <= exp(-n Fbar_s(y + T_n)).  By the strong law T_n <= c n, c = E t + 1,
       for all large n a.s., and as a slowly varying L has L(n) >= n^-eps
       eventually, n Fbar_s(y + c n) >= n^((1 - a) / 2) eventually: the
       conditional probabilities are summable a.s., and by the first
       Borel-Cantelli lemma X_n <= y happens finitely often, for every y and
       x0.  A mixture's tail class is its heaviest component's, and its tail
       is at least that component's weight times the component's tail.
    3. Deterministic arrivals against a tail exactly scale / x: ``_det_inverse_tail``.
    4. Pareto against Pareto with the heavier service tail: excluded.
    5. E t < inf and E s = inf: excluded.  By the strong law T_k <= 2 E t k
       for all large k a.s., and sum_k Fbar_s(x + 2 E t k) = inf for every
       x since E s = inf.  Given the epochs the events {s_{k+1} > x + T_k}
       are independent, so by the second Borel-Cantelli lemma infinitely
       many occur for every x: the backward limit is infinite a.s.
    """
    s, t = m.service, m.interarrival
    if _j_finite(s, t):
        return _analytic(Verdict.POSITIVE_RECURRENT,
                         "J_plus = E[s / E min(t, s)] is finite: the Loynes scan has "
                         "finitely many records, so the stationary workload exists")
    tail = s.tail_class()
    if math.isfinite(t.mean()) and tail.kind == "regvar" and tail.alpha < 1:
        return _analytic(Verdict.TRANSIENT,
                         "finite-mean arrivals against service tail index {:.3g} "
                         "below 1: workload outruns the clock".format(tail.alpha))
    if isinstance(t, Deterministic) and tail.alpha == 1.0 and tail.scale is not None:
        return _det_inverse_tail(t.value, tail.scale)  # tail exactly scale / x
    if isinstance(s, Pareto) and isinstance(t, Pareto) and s.alpha < t.alpha:
        return _analytic(Verdict.INCONCLUSIVE,
                         "positive recurrence excluded: service tail index "
                         "{:.3g} below arrival tail index {:.3g}; transient vs "
                         "null recurrent needs series diagnostics".format(s.alpha, t.alpha))
    if math.isfinite(t.mean()) and math.isinf(s.mean()):
        return _analytic(Verdict.INCONCLUSIVE,
                         "positive recurrence excluded: finite-mean arrivals against "
                         "infinite-mean service; transient vs null recurrent needs "
                         "series diagnostics")
    return None


def _analytic(verdict: Verdict, notes: str) -> ClassificationReport:
    return ClassificationReport(verdict=verdict, source=Source.ANALYTIC, diagnostics=[],
                                notes=notes)


def _det_inverse_tail(r: float, d1: float) -> ClassificationReport:
    how = "exceeds" if d1 > r else "does not exceed"
    return _analytic(Verdict.TRANSIENT if d1 > r else Verdict.NULL_RECURRENT,
                     "deterministic spacing {:.6g} with 1/x service tail "
                     "coefficient {:.6g}: the coefficient {} the spacing".format(r, d1, how))


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
    # one sample of arrival epochs feeds every series; the tail series is
    # left out where positive recurrence is excluded analytically, and the
    # verdict reads it as diverging there
    excluded = analytic is not None and not definitive
    pair = (_transience(y), _recurrence(w0, cfg.c))
    diags = _series(m, pair if excluded else (_TAIL,) + pair, n_max=cfg.n_max,
                    reps=cfg.reps, stream=stream.child(0), thresholds=cfg.thresholds,
                    threads=cfg.threads)
    trans, rec = diags[-2:]
    tail = SeriesVerdict.DIVERGES if excluded else diags[0].verdict
    verdict = _combine_mc(tail, trans.verdict, rec.verdict)

    if definitive:
        notes = analytic.notes
        if verdict is not analytic.verdict:
            notes += ("; series diagnostics read {} (numerical evidence "
                      "only; analytic verdict kept)".format(verdict.value))
        return ClassificationReport(verdict=analytic.verdict, source=Source.BOTH,
                                    diagnostics=diags, notes=notes)
    if excluded:
        return ClassificationReport(verdict=verdict, source=Source.BOTH, diagnostics=diags,
                                    notes=analytic.notes + "; " + _SEPARATED[verdict])
    if verdict is Verdict.POSITIVE_RECURRENT:  # the tail series alone settles it
        return ClassificationReport(
            verdict=verdict, source=Source.MONTE_CARLO, diagnostics=diags[:1],
            notes="tail series converges on a {:.0%} vote (numerical "
                  "evidence)".format(diags[0].votes_converge))
    notes = ("tail series {}; transience series {}; recurrence series {} "
             "(numerical evidence)").format(tail.value, trans.verdict.value, rec.verdict.value)
    return ClassificationReport(verdict=verdict, source=Source.MONTE_CARLO,
                                diagnostics=diags, notes=notes)


def _combine_mc(tail: SeriesVerdict, trans: SeriesVerdict, rec: SeriesVerdict) -> Verdict:
    if trans is SeriesVerdict.CONVERGES and rec is SeriesVerdict.DIVERGES:
        return Verdict.INCONCLUSIVE  # the two certificates contradict
    if tail is SeriesVerdict.CONVERGES:
        return Verdict.POSITIVE_RECURRENT
    if trans is SeriesVerdict.CONVERGES:
        return Verdict.TRANSIENT
    if tail is SeriesVerdict.DIVERGES and rec is SeriesVerdict.DIVERGES:
        return Verdict.NULL_RECURRENT
    return Verdict.INCONCLUSIVE


# what the series made of a phase the analytic rules left open
_SEPARATED = {
    Verdict.TRANSIENT: "transience series converges (numerical evidence)",
    Verdict.NULL_RECURRENT: "recurrence series diverges (numerical evidence)",
    Verdict.INCONCLUSIVE: "series diagnostics did not separate transient from null recurrent",
}


# ------------------------------------------------- drift classification


def _j_value(num: Distribution, den: Distribution) -> float:
    """E[ A / m(A) ] with A ~ num and m the truncated mean of den,
    integrated in probability space so atoms come out exact.  The integral
    is linear in the law of A, so a mixture is the weighted sum of its
    components' integrals, each in its own probability space."""
    if isinstance(num, Mixture):
        return math.fsum(w * _j_value(comp, den) for w, comp in num.components)
    from scipy import integrate

    def integrand(p: float) -> float:
        xq = float(num.quantile(p))
        return xq / float(den.truncated_mean(xq))

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, err = integrate.quad(integrand, 0.0, 1.0,
                                  points=num.quantile_breaks() or None,
                                  limit=400, epsabs=0.0, epsrel=_QUAD_TOL)
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


def erickson(m: ModelSpec) -> EricksonReport:
    """Drift classification of the increment walk Gamma_n = sum(s_j - t_{j+1})
    through the truncated-mean ratio integrals

        J_plus  = E[ s / m_minus(s) ],   m_minus(x) = E min(t, x),
        J_minus = E[ t / m_plus(t)  ],   m_plus(x)  = E min(s, x).

    Finiteness is decided symbolically from the catalogue tail classes;
    quadrature only ever evaluates integrals already known finite.  With
    E s and E t finite the walk obeys the strong law and the verdict is
    the sign of E s - E t.  en_s1 brackets the expected number
    of arrivals during one service time via Wald's inequality,
    x/m_minus(x) <= E N(x) + 1 <= 2x/m_minus(x), so that E N(s_1) lies in
    [J_plus - 1, 2 J_plus - 1].
    """
    s, t = m.service, m.interarrival
    s_lo, s_hi = s.support()
    t_lo, t_hi = t.support()
    if not (s_hi > t_lo and s_lo < t_hi):
        raise ValueError(
            "the increment s - t must put mass on both signs; the supports "
            f"service {s.support()} / inter-arrival {t.support()} do not allow it")

    fp, fm = _j_finite(s, t), _j_finite(t, s)
    j_plus = _j_value(s, t) if fp else math.inf
    j_minus = _j_value(t, s) if fm else math.inf
    ms, mt = s.mean(), t.mean()
    if math.isfinite(ms) and math.isfinite(mt):  # both integrals finite: the strong law
        fp, fm = ms < mt, ms > mt
    wv = (WalkVerdict.DRIFT_MINUS if fp else WalkVerdict.DRIFT_PLUS if fm
          else WalkVerdict.OSCILLATES)
    if math.isfinite(j_plus):
        en = (max(j_plus - 1.0, 0.0), 2.0 * j_plus - 1.0)
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
