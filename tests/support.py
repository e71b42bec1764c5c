"""Shared oracles for the test suite.

Everything here recomputes quantities by a route independent of the
package: quadratic-time scans instead of streaming passes, x-space
integration instead of quantile-space, exhaustive enumeration instead of
sampling.  Tests compare the fast implementations against these.
"""

import decimal
import itertools
import math
import warnings
from dataclasses import dataclass
from decimal import Decimal

import numpy as np
from scipy import integrate, stats

from maxdater import ModelSpec
from maxdater.dists import (
    Deterministic,
    DiscreteUniform,
    Exponential,
    Mixture,
    Pareto,
    TruncatedParetoOne,
    Uniform,
)


def forward_oracle(x0, t, s):
    """The workload recursion, one float at a time."""
    xs = [float(x0)]
    for tk, sk in zip(t, s):
        xs.append(max(xs[-1] - tk, sk))
    return np.array(xs)


def backward_oracle(s_rev, t_rev, n):
    """X-tilde_k for k = 1..n by the definition: for each k, rebuild the
    partial arrival sums from scratch and take the max over all j <= k.
    Quadratic on purpose."""
    out = np.empty(n)
    for k in range(1, n + 1):
        best = 0.0
        for j in range(1, k + 1):
            tprev = sum(t_rev[: j - 1])
            best = max(best, s_rev[j - 1] - tprev)
        out[k - 1] = best
    return out


@dataclass
class BackwardSample:
    """Backward construction over explicitly supplied reversed drivers."""

    horizon: int
    terms: np.ndarray
    values: np.ndarray


def backward_maxdater(s_rev, t_rev, n: int) -> BackwardSample:
    """Running maxima of st_j - Tt_{j-1} for j = 1..n, in one O(n) pass of
    whole-array numpy operations (the kernel scans in pieces).

    ``s_rev`` and ``t_rev`` are the reversed service and inter-arrival
    sequences; only the first n services and first n-1 inter-arrivals are
    used.
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


def piecewise_backward_oracle(s_rev, t_rev, n, width):
    """(best, last record) of st_j - Tt_{j-1} over j = 1..n, one float at a
    time, with the epochs added up as a kernel drawing ``width``-wide pieces
    adds them: a running sum within each piece plus the epoch carried in
    from the pieces before.  A term is a record when it is strictly above
    the running maximum, which starts at 0; the last record is 1-based and
    0 when no term is positive."""
    best, last, carried = 0.0, 0, 0.0
    for j0 in range(0, n, width):
        partial, epoch = 0.0, carried  # epoch: Tt_{j-1} for the next j
        for j in range(j0, min(j0 + width, n)):
            term = float(s_rev[j]) - epoch
            if term > best:
                best, last = term, j + 1
            partial += float(t_rev[j])
            epoch = partial + carried
        carried = epoch
    return best, last


def lindley_oracle(w0, xi):
    ws = [float(w0)]
    for x in xi:
        ws.append(max(ws[-1] + x, 0.0))
    return np.array(ws)


def enumerate_discrete_stationary(arrival_gap, values):
    """Exact stationary law of the workload for deterministic arrivals
    with spacing `arrival_gap` and service uniform on `values`: enumerate
    every tuple of draws deep enough that older terms cannot matter."""
    values = sorted(values)
    depth = int(math.ceil(max(values) / arrival_gap))
    law = {}
    for combo in itertools.product(values, repeat=depth):
        x = max(combo[j] - j * arrival_gap for j in range(depth))
        law[x] = law.get(x, 0) + 1
    total = sum(law.values())
    return {k: v / total for k, v in sorted(law.items())}


def generalized_inverse_oracle(d, p):
    """inf{x : cdf(x) >= p} over the doubles in [0, +inf], one p at a time:
    bisect the int64 bit pattern, which orders the non-negative doubles,
    from [0, +inf] down to two adjacent doubles.  ``Mixture.quantile``
    halves the same way on whole arrays, so the tests that use this also
    check cdf(q) >= p > cdf(prev_float(q)) directly."""
    lo, hi = 0, int(np.float64(np.inf).view(np.int64))
    for _ in range(64):
        if hi - lo == 1:
            return float(np.int64(hi).view(np.float64))
        mid = lo + (hi - lo) // 2
        x = np.array([np.int64(mid).view(np.float64)])
        if d.cdf(x)[0] >= p:
            hi = mid
        else:
            lo = mid
    raise AssertionError("bit bisection did not close in 64 steps")


# ------------------------------------------------- 40-digit closed forms
#
# The cdf and quantile of the laws with closed-form inverses, in decimal
# arithmetic at 40 significant digits from the exact values of the double
# arguments: far past double precision, so the float kernels can be held to
# a stated number of ulps.


def decimal_tail(d, x):
    """P(Y > x) for a Pareto or TruncatedParetoOne law and x at or above
    its infimum, as a 40-digit Decimal."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        x = Decimal(x)
        if isinstance(d, Pareto):
            return (x / Decimal(d.scale)) ** -Decimal(d.alpha)
        return Decimal(d.d1) / x


def decimal_cdf(d, x):
    """P(Y <= x) for a Pareto or TruncatedParetoOne law and x at or above
    its infimum, as a 40-digit Decimal."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        return 1 - decimal_tail(d, x)


def decimal_truncated_mean(d, x):
    """E[min(Y, x)] for a Pareto or TruncatedParetoOne law and x at or
    above its infimum, as a 40-digit Decimal: the infimum plus the integral
    of the tail above it."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        if isinstance(d, TruncatedParetoOne):
            return Decimal(d.x0) + Decimal(d.d1) * (Decimal(x) / Decimal(d.x0)).ln()
        s, a1 = Decimal(d.scale), 1 - Decimal(d.alpha)
        if a1 == 0:
            return s + s * (Decimal(x) / s).ln()
        return s + s * ((Decimal(x) / s) ** a1 - 1) / a1


def decimal_quantile(d, p):
    """inf{x : P(Y <= x) >= p} for an Exponential, Pareto or
    TruncatedParetoOne law and p in (0, 1), as a 40-digit Decimal."""
    with decimal.localcontext() as ctx:
        ctx.prec = 1100  # 1 - p exactly, for p down to the least double
        q = 1 - Decimal(p)
        ctx.prec = 40
        if isinstance(d, Exponential):
            return -q.ln() / Decimal(d.rate)
        if isinstance(d, Pareto):
            return Decimal(d.scale) * q ** (-1 / Decimal(d.alpha))
        if q >= Decimal(d.d1) / Decimal(d.x0):  # in the atom at x0
            return Decimal(d.x0)
        return Decimal(d.d1) / q


def ulps_from(got, want):
    """|got - want| in units in the last place of the double nearest to
    the Decimal ``want``."""
    return float(abs(Decimal(got) - want) / Decimal(math.ulp(float(want))))


def wilson_interval(k, n, conf=0.99):
    from scipy.stats import norm

    z = norm.ppf(0.5 + conf / 2)
    p = k / n
    den = 1 + z * z / n
    mid = (p + z * z / (2 * n)) / den
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / den
    return max(mid - half, 0.0), min(mid + half, 1.0)


# ---------------------------------------------------- x-space integration
#
# Decompose a catalogue law into (atoms, density pieces) and integrate
# g(x) against it with scipy.quad piece by piece.  This is the brute-force
# scheme the package never uses (it works in quantile space).


def _density_pieces(d):
    """Returns (atoms, pieces): atoms as [(x, p)], pieces as
    [(lo, hi, pdf callable)]."""
    if isinstance(d, Deterministic):
        return [(d.value, 1.0)], []
    if isinstance(d, DiscreteUniform):
        w = 1.0 / len(d.values)
        atoms = {}
        for v in d.values:
            atoms[v] = atoms.get(v, 0.0) + w
        return sorted(atoms.items()), []
    if isinstance(d, Exponential):
        r = d.rate
        return [], [(0.0, math.inf, lambda x, r=r: r * math.exp(-r * x))]
    if isinstance(d, Uniform):
        h = 1.0 / (d.hi - d.lo)
        return [], [(d.lo, d.hi, lambda x, h=h: h)]
    if isinstance(d, Pareto):
        a, sc = d.alpha, d.scale
        return [], [(sc, math.inf, lambda x, a=a, sc=sc: a * sc**a * x ** (-a - 1.0))]
    if isinstance(d, TruncatedParetoOne):
        atom = 1.0 - d.d1 / d.x0
        atoms = [(d.x0, atom)] if atom > 0 else []
        return atoms, [(d.x0, math.inf, lambda x, c=d.d1: c / (x * x))]
    if isinstance(d, Mixture):
        atoms, pieces = [], []
        for w, comp in d.components:
            a, p = _density_pieces(comp)
            atoms += [(x, w * q) for x, q in a]
            pieces += [(lo, hi, lambda x, w=w, f=f: w * f(x)) for lo, hi, f in p]
        return atoms, pieces
    raise TypeError(type(d).__name__)


def integrate_against(d, g, tol=1e-11, breakpoints=()):
    """E g(X) for X ~ d by piecewise scipy.quad plus atom sums.

    ``breakpoints`` cut pieces at interior non-smooth points of g (quad
    must never straddle a kink).  An infinite tail starting above zero is
    integrated under the substitution u = 1/v: quad's own one-shot
    infinite transform silently loses power-law tail mass once the lower
    endpoint is large, while the inverted finite integral keeps it.
    """
    atoms, pieces = _density_pieces(d)
    total = sum(p * g(x) for x, p in atoms)

    def quad(fn, a, b):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", integrate.IntegrationWarning)
            val, _ = integrate.quad(fn, a, b, limit=400,
                                    epsabs=tol, epsrel=tol)
        return val

    for lo, hi, f in pieces:
        cuts = sorted({lo, hi} | {bp for bp in breakpoints if lo < bp < hi})
        for a, b in zip(cuts, cuts[1:]):
            fn = lambda x, f=f: g(x) * f(x)
            if math.isinf(b) and a > 0:
                total += quad(lambda u: fn(1.0 / u) / (u * u), 0.0, 1.0 / a)
            else:
                total += quad(fn, a, b)
    return total


def truncated_mean_oracle(d, x):
    return integrate_against(d, lambda v: min(v, x), breakpoints=(x,))


def excess_mean_oracle(d, x):
    """E(Y - x)+ for Y ~ d, integrated directly (no E Y - E min(Y, x)
    cancellation for small excesses).  The cut at x + 1 keeps an infinite
    piece's substitution u = 1/v off a near-0 lower end."""
    return integrate_against(d, lambda v: max(v - x, 0.0), tol=1e-13,
                             breakpoints=(x, x + 1.0))


def mginf_cdf(m, x):
    """P(X <= x) for the stationary maximum dater under Poisson arrivals at
    rate ``m.interarrival.rate`` (M/G/inf; Takacs 1962): the newest service
    is at most x and no older job, at the points of the Poisson process,
    has work left above x.  The count of those that do is Poisson of mean
    rate * E(s - x)+, with E(s - x)+ = E s - E min(s, x) from
    ``truncated_mean_oracle``.  Scalar x."""
    if not x > 0:
        return 0.0
    s = m.service
    excess = s.mean() - truncated_mean_oracle(s, x)
    return float(s.cdf(x)) * math.exp(-m.interarrival.rate * excess)


def ks_pvalue(values, cdf, every=16):
    """Two-sided one-sample Kolmogorov-Smirnov p-value of ``values``
    against ``cdf``, a nondecreasing scalar function that may be slow and
    may jump.  D = sup |F_n - F| is taken at each distinct value u from
    F(u) and its left limit F(u-), read as cdf at the double below u
    where u repeats (scipy's kstest assumes no ties) and as F(u) where it
    does not, which can only overstate D.  cdf is evaluated first at every
    ``every``-th distinct value; between two such knots F lies between its
    values there, which bounds D on the stretch, and only stretches whose
    bound beats the D found so far are evaluated point by point.  Where F
    jumps the p-value is conservative."""
    u, counts = np.unique(values, return_counts=True)
    above = np.cumsum(counts) / values.size  # F_n(u)
    below = above - counts / values.size  # F_n(u-)
    f, f_left = np.full(len(u), np.nan), np.full(len(u), np.nan)

    def deviation(idx):
        for k in idx:
            f[k] = cdf(u[k])
            f_left[k] = cdf(np.nextafter(u[k], -np.inf)) if counts[k] > 1 else f[k]
        return float(np.max(np.maximum(above[idx] - f[idx], f_left[idx] - below[idx])))

    knots = np.unique(np.r_[np.arange(0, len(u), every), len(u) - 1])
    d = deviation(knots)
    for a, b in zip(knots, knots[1:]):
        if b - a > 1 and max(above[b - 1] - f[a], f_left[b] - below[a + 1]) > d:
            d = max(d, deviation(np.arange(a + 1, b)))
    return float(stats.kstwo.sf(d, values.size))


def j_value_oracle(num, den, tol=1e-11):
    """E[ X / m(X) ] with X ~ num and m(x) = E min(Y, x), Y ~ den."""
    return integrate_against(
        num, lambda x: x / truncated_mean_oracle(den, x), tol=tol)


# --------------------------------------------------------------- catalogue


def model_catalogue():
    """A spread of (name, model) pairs covering every distribution kind
    and every phase."""
    return [
        ("exp_exp", ModelSpec(Exponential(1.0), Exponential(1.0))),
        ("exp_fast", ModelSpec(Exponential(1.0), Exponential(2.0))),
        ("det_det", ModelSpec(Deterministic(1.0), Deterministic(2.0))),
        ("det_du", ModelSpec(Deterministic(1.0), DiscreteUniform((1.0, 2.0, 3.0)))),
        ("unif", ModelSpec(Uniform(0.5, 1.5), Uniform(0.0, 2.0))),
        ("mix", ModelSpec(
            Exponential(1.0),
            Mixture(((0.5, Deterministic(1.0)), (0.5, Deterministic(3.0)))))),
        ("pareto_pr", ModelSpec(Pareto(0.5, 1.0), Pareto(0.8, 1.0))),
        ("pareto_div", ModelSpec(Pareto(0.8, 1.0), Pareto(0.5, 1.0))),
        ("pareto_svc", ModelSpec(Exponential(1.0), Pareto(2.5, 1.0))),
        ("det_tpo_half", ModelSpec(Deterministic(1.0), TruncatedParetoOne(0.5, 1.0))),
        ("det_tpo_two", ModelSpec(Deterministic(1.0), TruncatedParetoOne(2.0, 2.0))),
    ]


class RecordingLaw:
    """Wraps a law and keeps every piece it samples, so a test can replay
    the exact draws a batched kernel consumed, row by row.  Laws that share
    a ``log`` also record there, as (law, piece), the order they drew in."""

    def __init__(self, law, log=None):
        self.law = law
        self.pieces = []
        self.log = [] if log is None else log

    def __getattr__(self, name):
        return getattr(self.law, name)

    def sample(self, stream, size=None):
        out = self.law.sample(stream, size)
        self.pieces.append(out.copy())  # kernels may work in place
        self.log.append((self, self.pieces[-1]))
        return out

    def rows(self):
        return np.concatenate(self.pieces, axis=1)
