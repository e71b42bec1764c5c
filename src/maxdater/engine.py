"""Forward simulation of the infinite-server workload recursion and the
matched single-server (Lindley) recursion.

The workload state X_n is the residual drain time of the busiest-in-system
customer ("maximum dater"):

    X_{n+1} = max(X_n - t_{n+1}, s_{n+1})

Draw layout is fixed: every simulator fills its inter-arrival block first,
then its service block, so two simulators fed the same stream consume
identical uniforms in identical order.  Batches of paths draw (paths,
block) pieces, one row per path, of at most 2**20 draws, with the last
piece cut to the horizon; where the draws must not depend on the horizon
(the single stationary draw, and the absorbing scan that ``stationary_batch``
runs off its Poisson route wherever every clock passes the service law's
largest draw within the horizon) whole 4096- or 64-wide
pieces are drawn.  Arrival epochs overwrite the
inter-arrival piece: each row's cumulative sum plus the epoch it carried in.
The backward scan's service piece ends at the first column where every
row's epoch before it has passed the service law's largest draw, since no
later term can be a record (see ``loynes._backward``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .dists import Distribution
from .streams import _Numpy, Stream

np = _Numpy(globals())

# Draws in one (paths, block) piece at most.  Fixed, so results depend only
# on the seed and the replication plan, never on memory pressure.
_BLOCK_ELEMS = 1 << 20

__all__ = [
    "ModelSpec",
    "PathSample",
    "Gg1Path",
    "driving_draws",
    "path_from_draws",
    "simulate_path",
    "coupling_time",
    "gg1_from_draws",
    "simulate_gg1",
]


@dataclass(frozen=True)
class ModelSpec:
    """A queueing model: iid inter-arrival times and iid service times."""

    interarrival: Distribution
    service: Distribution


@dataclass
class PathSample:
    """One forward trajectory.

    x0       initial workload
    t        inter-arrival times t_1..t_n
    s        service times s_1..s_n
    arrivals cumulative arrival epochs T_0 = 0, T_1, ..., T_n
    x        workload X_0 = x0, X_1, ..., X_n
    """

    x0: float
    t: np.ndarray
    s: np.ndarray
    arrivals: np.ndarray
    x: np.ndarray


@dataclass
class Gg1Path:
    """Single-server companion driven by increments xi_j = s_j - t_{j+1}.

    w      Lindley waiting times W_0..W_n,  W_k = max(W_{k-1} + xi_k, 0)
    gamma  random walk Gamma_0 = 0, Gamma_k = sum_{j<=k} xi_j
    m      running maximum M_k = max(Gamma_0, ..., Gamma_k)
    """

    w0: float
    t: np.ndarray
    s: np.ndarray
    w: np.ndarray
    gamma: np.ndarray
    m: np.ndarray


def driving_draws(m: ModelSpec, n_t: int, n_s: int, stream: Stream):
    """Inter-arrival block then service block, in that order."""
    return m.interarrival.sample(stream, n_t), m.service.sample(stream, n_s)


def _block(rows: int, steps: int) -> int:
    """Width of (rows, block) pieces of at most ``_BLOCK_ELEMS`` draws."""
    return max(1, min(steps, _BLOCK_ELEMS // max(rows, 1)))


def _passing_steps(m: ModelSpec, level: float, rows: int, who: str, what: str):
    """(N, median): after N steps, ``rows`` sums of inter-arrival draws all
    exceed ``level`` but with probability 1e-12.  More than k = ceil(level /
    median) draws of at least the median exceed it, a step draws one w.p.
    >= 1/2, so by Hoeffding N = 4 (k + ln(rows * 1e12)) steps draw at most k
    w.p. <= 1e-12 / rows.  ``who`` and ``what`` name caller and level."""
    median = float(m.interarrival.quantile(0.5))
    if not median > 0.0:
        raise ValueError(f"{who} needs a positive inter-arrival median "
                         f"to pass {what} {level}, got {median}")
    return 4 * (math.ceil(level / median) + math.ceil(math.log(rows * 1e12))), median


# numpy's quantile, median and unique import numpy.ma (over 1 MB a process);
# these give their bits for NaN-free values >= 0 from np.partition, np.sort.
def _quantiles(values: np.ndarray, qs) -> np.ndarray:
    """np.quantile(values, qs), method 'linear', of 1-d values, qs in [0, 1]."""
    n = len(values)
    at = (n - 1) * np.asarray(qs, dtype=float)
    lo = np.floor(at).astype(np.intp)
    hi = np.minimum(lo + 1, n - 1)
    part = np.partition(values, np.concatenate((lo, hi)))
    a, b, t = part[lo], part[hi], at - lo
    return np.where(t >= 0.5, b - (b - a) * (1 - t), a + (b - a) * t)


def _median0(a: np.ndarray) -> np.ndarray:
    """np.median(a, axis=0), which halves the sum of the middle two."""
    h = len(a) // 2
    part = np.partition(a, [h - 1, h], axis=0)
    return part[h] if len(a) % 2 else (part[h - 1] + part[h]) / 2


def _unique(a: np.ndarray) -> np.ndarray:
    """np.unique(a)."""
    a = np.sort(a)
    return a[np.concatenate(([True], a[1:] != a[:-1]))]


def _int_grid(lo: int, hi: int, points: int) -> np.ndarray:
    """The distinct integers nearest to ``points`` geometric steps from lo
    to hi."""
    return _unique(np.round(np.geomspace(lo, hi, points)).astype(np.int64))


def _fit_line(x: np.ndarray, y: np.ndarray) -> tuple:
    """(slope, intercept) of the least-squares line through (x, y), from centred
    sums: numpy's least-squares fits call LAPACK, about 1 MB a process."""
    xm, ym = np.sum(x) / len(x), np.sum(y) / len(y)
    slope = np.sum((x - xm) * (y - ym)) / np.sum(np.square(x - xm))
    return float(slope), float(ym - slope * xm)


def _epochs(t: np.ndarray, offset: np.ndarray) -> np.ndarray:
    """Arrival epochs of a (paths, block) piece of inter-arrival times, each
    row's cumulative sum plus the epoch it carried in, written over ``t``."""
    np.cumsum(t, axis=1, out=t)
    t += offset[:, None]
    return t


def _forward(m: ModelSpec, x0: np.ndarray, steps: int, stream: Stream):
    """Forward paths from the workloads ``x0`` over ``steps`` steps, drawn
    in (paths, block) pieces, inter-arrival piece first.  Yields X_k and T_k
    for each piece's steps; each row is the recursion step by step, bit
    for bit."""
    x, rows = np.asarray(x0, dtype=float), len(x0)
    block, offset = _block(rows, steps), np.zeros(rows)
    for k0 in range(0, steps, block):
        length = min(block, steps - k0)
        t = m.interarrival.sample(stream, (rows, length))
        s = m.service.sample(stream, (rows, length))
        # step-major, so that each step writes one contiguous row
        xs = np.empty((length, rows))
        for tk, sk, xk in zip(t.T, s.T, xs):
            np.subtract(x, tk, out=xk)
            np.maximum(xk, sk, out=xk)
            x = xk
        arrivals = _epochs(t, offset)
        offset = arrivals[:, -1]
        yield xs.T, arrivals


def _endpoints(m: ModelSpec, x0: np.ndarray, steps: int, stream: Stream):
    """X_n and T_n after ``steps`` steps of ``_forward``."""
    x, arrivals = np.asarray(x0, dtype=float), np.zeros(len(x0))
    for xs, epochs in _forward(m, x0, steps, stream):
        x, arrivals = xs[:, -1], epochs[:, -1]
    return x, arrivals


def path_from_draws(x0: float, t: np.ndarray, s: np.ndarray) -> PathSample:
    """Apply the workload recursion step by step.

    Sequential on purpose: the recorded path satisfies
    x[k+1] == max(x[k] - t[k+1], s[k+1]) bit for bit.
    """
    t = np.asarray(t, dtype=float)
    s = np.asarray(s, dtype=float)
    if t.shape != s.shape or t.ndim != 1:
        raise ValueError("t and s must be 1-d arrays of equal length")
    n = len(t)
    x = np.empty(n + 1)
    x[0] = x0
    cur = float(x0)
    for k in range(n):
        cur = max(cur - t[k], s[k])
        x[k + 1] = cur
    arrivals = np.empty(n + 1)
    arrivals[0] = 0.0
    np.cumsum(t, out=arrivals[1:])
    return PathSample(x0=float(x0), t=t, s=s, arrivals=arrivals, x=x)


def simulate_path(m: ModelSpec, x0: float, n: int, stream: Stream) -> PathSample:
    if n < 0:
        raise ValueError("n must be >= 0")
    if x0 < 0:
        raise ValueError("x0 must be >= 0")
    if n == 0:
        empty = np.empty(0)
        return path_from_draws(x0, empty, empty)
    t, s = driving_draws(m, n, n, stream)
    return path_from_draws(x0, t, s)


def coupling_time(x0: float, arrivals: np.ndarray) -> Optional[int]:
    """Smallest n >= 1 with T_n > x0; None if the horizon is too short.

    From that index on, the trajectory started at x0 coincides with the
    trajectory started empty on the same draws.
    """
    arrivals = np.asarray(arrivals, dtype=float)
    hit = np.nonzero(arrivals[1:] > x0)[0]
    if len(hit) == 0:
        return None
    return int(hit[0]) + 1


def gg1_from_draws(w0: float, t: np.ndarray, s: np.ndarray) -> Gg1Path:
    t = np.asarray(t, dtype=float)
    s = np.asarray(s, dtype=float)
    if t.ndim != 1 or s.ndim != 1 or len(t) != len(s) + 1:
        raise ValueError("need n+1 inter-arrival draws for n services")
    n = len(s)
    xi = s - t[1:]
    gamma = np.empty(n + 1)
    gamma[0] = 0.0
    np.cumsum(xi, out=gamma[1:])
    w = np.empty(n + 1)
    w[0] = w0
    cur = float(w0)
    for k in range(n):
        cur = max(cur + xi[k], 0.0)
        w[k + 1] = cur
    m = np.maximum.accumulate(gamma)
    return Gg1Path(w0=float(w0), t=t, s=s, w=w, gamma=gamma, m=m)


def simulate_gg1(m: ModelSpec, w0: float, n: int, stream: Stream) -> Gg1Path:
    """Single-server path on the same draw layout as ``simulate_path``.

    One extra inter-arrival draw (t_1..t_{n+1}) makes the n-th increment
    s_n - t_{n+1} available.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if w0 < 0:
        raise ValueError("w0 must be >= 0")
    t, s = driving_draws(m, n + 1, n, stream)
    return gg1_from_draws(w0, t, s)
