"""Shared oracles for the test suite.

Everything here recomputes quantities by a route independent of the
package: quadratic-time scans instead of streaming passes, x-space
integration instead of quantile-space, exhaustive enumeration instead of
sampling.  Tests compare the fast implementations against these.
"""

import itertools
import math
import warnings

import numpy as np
from scipy import integrate

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
    from [0, +inf] down to two adjacent doubles.  At most 63 halvings, no
    bracket from the law's own quantiles and no secant."""
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
    the exact draws a batched kernel consumed, row by row."""

    def __init__(self, law):
        self.law = law
        self.pieces = []

    def __getattr__(self, name):
        return getattr(self.law, name)

    def sample(self, stream, size=None):
        out = self.law.sample(stream, size)
        self.pieces.append(out.copy())  # kernels may work in place
        return out

    def rows(self):
        return np.concatenate(self.pieces, axis=1)
