"""Tail asymptotics of the stationary workload.

Two service families admit closed-form tail predictions: for a service
tail delta*exp(-mu*x) the stationary tail is asymptotically

    delta * exp(-mu*x) / (1 - L_t(mu)),

with L_t the inter-arrival Laplace transform (geometric sum over arrival
epochs), and for a regularly varying service tail delta*x**(-alpha) with
alpha > 1 and a finite mean inter-arrival it is

    delta / (E t * (alpha - 1)) * x**(1 - alpha).

Both are asymptotic equivalences: the empirical/predicted ratio should
drift toward 1 as x grows, and the report exposes exactly that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .classify import ClassificationReport, Verdict, classify
from .dists import Distribution
from .engine import ModelSpec, _quantiles, _unique
from .loynes import stationary_batch
from .streams import _Numpy, Stream

np = _Numpy(globals())

__all__ = [
    "Regime",
    "TailReport",
    "NotPositiveRecurrent",
    "exp_tail_prediction",
    "pareto_tail_prediction",
    "detect_regime",
    "empirical_tail",
]

_WILSON_Z = 2.5758293035489004  # 99% two-sided: scipy.stats.norm.ppf(0.995)
_TINY = 2.0 ** -1022  # the least normal double


class Regime(Enum):
    EXP = "exp_tail"
    PARETO = "pareto_tail"
    NOT_APPLICABLE = "not_applicable"


class NotPositiveRecurrent(RuntimeError):
    """Tail estimation refused: the stationary law does not exist."""


@dataclass
class TailReport:
    grid: np.ndarray
    predicted: Optional[np.ndarray]
    empirical: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    ratio: Optional[np.ndarray]
    regime: Regime
    regime_params: dict
    samples: int
    horizon: int
    residual_bound: float


def exp_tail_prediction(arrivals: Distribution, delta: float, mu: float, x):
    """Asymptotic stationary tail for a light service tail delta*e^(-mu*x).

    The sum of e^(-mu*T_n) over arrival epochs is geometric in the
    Laplace transform, always summable since inter-arrivals are positive.
    """
    if delta <= 0 or mu <= 0:
        raise ValueError("delta and mu must be positive")
    phi = float(arrivals.laplace(mu))
    if not phi < 1.0:
        raise ValueError("arrival Laplace transform must be below 1")
    return delta * np.exp(-mu * np.asarray(x, dtype=float)) / (1.0 - phi)


def pareto_tail_prediction(mean_t: float, delta: float, alpha: float, x):
    """Asymptotic stationary tail for a heavy service tail delta*x^(-alpha),
    alpha > 1, finite mean inter-arrival; clamped to [0, 1]."""
    if not alpha > 1.0:
        raise ValueError("tail index must exceed 1")
    if not (mean_t > 0 and math.isfinite(mean_t)):
        raise ValueError("mean inter-arrival time must be finite and positive")
    if delta <= 0:
        raise ValueError("delta must be positive")
    raw = delta / (mean_t * (alpha - 1.0)) * np.asarray(x, dtype=float) ** (1.0 - alpha)
    return np.minimum(raw, 1.0)


def detect_regime(m: ModelSpec):
    """Match the service law to a prediction family by its tail class.

    A tail exactly e^(-rate*x) gives delta = 1 and mu = rate; a tail
    exactly (x/scale)^(-alpha), alpha > 1, gives delta = scale**alpha (the
    heavy regime also needs a finite mean inter-arrival, and a delta that
    is a finite normal double).  Anything else gets no prediction.
    """
    tail = m.service.tail_class()
    if tail.rate is not None:
        return Regime.EXP, {"delta": 1.0, "mu": tail.rate}
    if tail.scale is not None and tail.alpha > 1.0 and math.isfinite(m.interarrival.mean()):
        try:
            delta = tail.scale ** tail.alpha
        except OverflowError:
            delta = math.inf
        if _TINY <= delta < math.inf:
            return Regime.PARETO, {"delta": delta, "alpha": tail.alpha,
                                   "mean_t": float(m.interarrival.mean())}
    return Regime.NOT_APPLICABLE, {}


def _wilson(k: np.ndarray, n: int, z: float):
    p = k / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * np.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n)) / denom
    return np.maximum(center - half, 0.0), np.minimum(center + half, 1.0)


def empirical_tail(m: ModelSpec, grid=None, samples: int = 100_000,
                   horizon: int = 1_000, stream: Stream = None, *,
                   classification: ClassificationReport = None,
                   points: int = 8, threads: int = 1) -> TailReport:
    """Empirical stationary tail on a grid of levels, with 99% Wilson
    intervals, paired with the applicable asymptotic prediction.

    Refuses models without a stationary law (checked through classify,
    or through a precomputed report passed as ``classification``).  When
    no grid is given, one is spread geometrically between the sample's
    0.99 and 0.9999 quantiles, where the intervals stay informative.
    """
    if stream is None:
        raise ValueError("a stream is required")
    verdict = (classification or classify(m)).verdict
    if verdict is not Verdict.POSITIVE_RECURRENT:
        raise NotPositiveRecurrent(
            f"classification verdict is {verdict.value}; the empirical tail "
            "of a stationary law needs positive recurrence")
    batch = stationary_batch(m, horizon, samples, stream, threads=threads)
    values = batch.values
    if grid is None:
        qlo, qhi = _quantiles(values, [0.99, 0.9999]).tolist()
        if not qhi > qlo > 0:
            grid = np.asarray([max(qlo, qhi, float(values.max()))])
        else:
            grid = _unique(np.geomspace(qlo, qhi, points))
    else:
        grid = np.asarray(grid, dtype=float)
        if len(grid) == 0 or np.any(grid <= 0) or np.any(np.diff(grid) <= 0):
            raise ValueError("grid must be positive and strictly increasing")
    counts = np.array([(values > x).sum() for x in grid], dtype=float)
    empirical = counts / samples
    lo, hi = _wilson(counts, samples, _WILSON_Z)
    regime, params = detect_regime(m)
    if regime is Regime.EXP:
        predicted = exp_tail_prediction(m.interarrival, params["delta"],
                                        params["mu"], grid)
    elif regime is Regime.PARETO:
        predicted = pareto_tail_prediction(params["mean_t"], params["delta"],
                                           params["alpha"], grid)
    else:
        predicted = None
    ratio = empirical / predicted if predicted is not None else None
    return TailReport(
        grid=grid, predicted=predicted, empirical=empirical, lo=lo, hi=hi,
        ratio=ratio, regime=regime, regime_params=params, samples=samples,
        horizon=horizon, residual_bound=float(batch.residual_bound),
    )
