"""Catalogue of positive service and inter-arrival laws.

Each law carries exact closed forms for the cdf, the upper tail (computed
directly, not as 1 - cdf, so extreme tails keep full precision), the
left-continuous generalized inverse cdf, the mean (``math.inf`` when the
first moment diverges), and the truncated mean E[min(Y, x)].  Sampling is
always quantile inversion of a strict (0, 1) uniform, which keeps every
sampler exact, reproducible, and monotone in the underlying uniform.

``Distribution`` is the one boundary.  Its ``cdf``, ``tail``, ``quantile``
and ``truncated_mean`` take scalars, lists or arrays and give a float for a
scalar, evaluated as a one-element array; ``quantile`` rejects p outside
(0, 1), NaN included, and ``laplace`` mu <= 0.  The laws implement only the
``_`` kernels, which take float arrays of ndim >= 1 and check nothing.
``sample`` trusts ``Stream.uniform_open`` to stay inside (0, 1).

``Mixture.quantile`` has no closed form and searches for the generalized
inverse.  The component quantiles bracket it: every component cdf is below
p just under min_i q_i(p) and at least p at max_i q_i(p), so the search
starts from [prev_float(min_i q_i(p)), max_i q_i(p)] (an end that rounding
puts on the wrong side of p gives way to 0 or +inf).  A secant through the
bracket end nearer the root and an earlier such end proposes each probe.
Bisection on the int64 bit pattern of the non-negative doubles takes over
when the secant leaves the bracket or is not finite, when the step before
did not halve the bracket, and on a flat stretch of the cdf.  A secant step
of a few ulps is pushed past the root so that the far end moves too.  The
search stops at adjacent doubles and returns the upper one: the least
double q with cdf(q) >= p, exactly, for any monotone cdf.  At least every
other step halves the bracket's width in bit patterns, which starts below
2**63, so at most 2 * 63 steps follow the two cdf evaluations at the ends.

``truncated_mean_by_quadrature`` integrates the tail numerically and is
kept as an independent route against the closed forms.

Each law names its config ``kind`` where it is defined, which enters it in
``CATALOGUE``, and states the bound on each of its fields in that field's
metadata.  ``Distribution.__post_init__`` checks those bounds, and the
command line reads the same fields to parse, check and echo every law.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field, fields
from typing import ClassVar, Optional

import numpy as np

from .streams import Stream

__all__ = [
    "CATALOGUE",
    "bound_problem",
    "Distribution",
    "Exponential",
    "Deterministic",
    "Pareto",
    "TruncatedParetoOne",
    "Uniform",
    "DiscreteUniform",
    "Mixture",
    "TailClass",
    "QuadratureError",
    "truncated_mean_by_quadrature",
]


# Mixture.quantile takes a secant step of at most this many ulps as having
# reached the cdf's resolution, and probes past the root instead.
_NUDGE_ULPS = 4

# Mixture.quantile searches at most this many draws at a time.  Its working
# arrays take about 140 bytes a draw, so a block stays near the memory the
# bisection it replaced took for the 20,000-draw calls of classify, while
# numpy's fixed cost per call is already spread thin.
_SEARCH_BLOCK = 1 << 14

# Step bound for Mixture.quantile.  Its bracket [lo, hi] lies in [0, inf],
# where the int64 bit patterns of doubles order like their values and span
# fewer than 2**63 patterns, so K = ceil(log2(hi_bits - lo_bits)) <= 63, and
# the search ends at K = 0 (adjacent doubles).  Every probe lies strictly
# inside the bracket.  A bisection on the bit pattern leaves at most
# ceil(W / 2) of the width W, which lowers K by at least 1; a secant step
# that leaves more forces a bisection next.  So every two steps lower K.
_MAX_STEPS = 2 * 63


# config kind -> law, entered as each law is defined
CATALOGUE: dict[str, type[Distribution]] = {}


def bound_problem(value, minimum=None, exclusive_minimum=None) -> Optional[str]:
    """Why ``value`` breaks the bound, as in 'must be > 0.0', or None when
    it keeps it.  NaN keeps no bound."""
    if minimum is not None and not value >= minimum:
        return f"must be >= {minimum}"
    if exclusive_minimum is not None and not value > exclusive_minimum:
        return f"must be > {exclusive_minimum}"
    return None


def _param(key=None, **bound):
    """A law's parameter field.  ``bound`` (``minimum`` or
    ``exclusive_minimum``) holds for the value, for each item of a tuple of
    numbers, and for each weight of a tuple of (weight, law) pairs.  ``key``
    names the field in configs where that differs from its name."""
    return field(metadata={"bound": bound, "key": key})


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


@dataclass(frozen=True)
class TailClass:
    """Coarse decay class of an upper tail, used for symbolic finiteness
    decisions.  kind is 'bounded', 'light' (faster than any power), or
    'regvar' with index ``alpha`` (tail ~ x**-alpha)."""

    kind: str
    alpha: Optional[float] = None


def _out(kernel, x):
    """``kernel`` on the float array ``x``; a float for a 0-d x, which goes
    in as one element (numpy scalar ``**`` rounds apart from arrays)."""
    return float(kernel(x.reshape(1))[0]) if x.ndim == 0 else kernel(x)


@dataclass(frozen=True)
class Distribution(ABC):
    kind: ClassVar[str]  # the law's name in configs

    def __init_subclass__(cls, kind: Optional[str] = None, **kwargs):
        super().__init_subclass__(**kwargs)
        if kind is not None:
            cls.kind = kind
            CATALOGUE[kind] = cls

    def __post_init__(self):
        for f in fields(self):
            value, name = getattr(self, f.name), f.name
            for x in value if isinstance(value, (tuple, list)) else (value,):
                if isinstance(x, tuple):  # a (weight, law) pair
                    x, name = x[0], f"{f.name} weights"
                problem = bound_problem(x, **f.metadata.get("bound", {}))
                if problem:
                    raise ValueError(f"{name} {problem}")

    def cdf(self, x):
        """P(Y <= x)."""
        return _out(self._cdf, np.asarray(x, dtype=float))

    def tail(self, x):
        """P(Y > x), computed from its own closed form."""
        return _out(self._tail, np.asarray(x, dtype=float))

    def quantile(self, p):
        """inf{x : cdf(x) >= p} for p in (0, 1)."""
        p = np.asarray(p, dtype=float)
        if not np.all((p > 0.0) & (p < 1.0)):
            raise ValueError("quantile defined for 0 < p < 1")
        return _out(self._quantile, p)

    def truncated_mean(self, x):
        """E[min(Y, x)] = integral of the tail over [0, x]."""
        return _out(self._truncated_mean, np.asarray(x, dtype=float))

    @abstractmethod  # the kernels, unchecked, on arrays of ndim >= 1
    def _cdf(self, x): ...

    @abstractmethod
    def _tail(self, x): ...

    @abstractmethod
    def _quantile(self, p): ...

    @abstractmethod
    def _truncated_mean(self, x): ...

    @abstractmethod
    def mean(self) -> float:
        """E[Y]; math.inf when the first moment diverges."""

    @abstractmethod
    def support(self) -> tuple[float, float]:
        """(essential infimum, essential supremum); sup may be math.inf."""

    @abstractmethod
    def tail_class(self) -> TailClass:
        ...

    def laplace(self, mu: float) -> float:
        """E[exp(-mu Y)] for mu > 0.  Closed form where available,
        otherwise adaptive quadrature in quantile space."""
        if mu <= 0:
            raise ValueError("laplace transform evaluated for mu > 0")
        return self._laplace(mu)

    def _laplace(self, mu: float) -> float:
        from scipy import integrate

        val, err = integrate.quad(
            lambda p: math.exp(-mu * self.quantile(p)), 0.0, 1.0,
            epsabs=1e-13, epsrel=1e-11, limit=200,
        )
        if err > 1e-9 * max(abs(val), 1e-12):
            raise QuadratureError(f"laplace transform did not converge (err={err:g})")
        return val

    def sample(self, stream: Stream, size=None):
        return _out(self._quantile, stream.uniform_open(size))

    def _breakpoints(self) -> tuple[float, ...]:
        """Atoms and kink locations of the tail, for piecewise quadrature."""
        return ()


@dataclass(frozen=True)
class Exponential(Distribution, kind="exponential"):
    rate: float = _param(exclusive_minimum=0.0)

    def _cdf(self, x):
        return np.where(x <= 0, 0.0, -np.expm1(-self.rate * np.maximum(x, 0.0)))

    def _tail(self, x):
        return np.where(x <= 0, 1.0, np.exp(-self.rate * np.maximum(x, 0.0)))

    def _quantile(self, p):
        return -np.log1p(-p) / self.rate

    def mean(self) -> float:
        return 1.0 / self.rate

    def _truncated_mean(self, x):
        return -np.expm1(-self.rate * np.maximum(x, 0.0)) / self.rate

    def support(self):
        return (0.0, math.inf)

    def tail_class(self):
        return TailClass("light")

    def _laplace(self, mu: float) -> float:
        return self.rate / (self.rate + mu)


@dataclass(frozen=True)
class Deterministic(Distribution, kind="deterministic"):
    value: float = _param(exclusive_minimum=0.0)

    def _cdf(self, x):
        return np.where(x >= self.value, 1.0, 0.0)

    def _tail(self, x):
        return np.where(x >= self.value, 0.0, 1.0)

    def _quantile(self, p):
        return np.full_like(p, self.value)

    def mean(self) -> float:
        return self.value

    def _truncated_mean(self, x):
        return np.minimum(x, self.value)

    def support(self):
        return (self.value, self.value)

    def tail_class(self):
        return TailClass("bounded")

    def _laplace(self, mu: float) -> float:
        return math.exp(-mu * self.value)

    def _breakpoints(self):
        return (self.value,)


@dataclass(frozen=True)
class Pareto(Distribution, kind="pareto"):
    """Tail (x / scale)**-alpha for x >= scale, 1 below."""

    alpha: float = _param(exclusive_minimum=0.0)
    scale: float = _param(exclusive_minimum=0.0)

    def _cdf(self, x):
        z = np.maximum(x, self.scale) / self.scale
        return np.where(x < self.scale, 0.0, 1.0 - z ** (-self.alpha))

    def _tail(self, x):
        z = np.maximum(x, self.scale) / self.scale
        return np.where(x < self.scale, 1.0, z ** (-self.alpha))

    def _quantile(self, p):
        return self.scale * (1.0 - p) ** (-1.0 / self.alpha)

    def mean(self) -> float:
        if self.alpha <= 1.0:
            return math.inf
        return self.alpha * self.scale / (self.alpha - 1.0)

    def _truncated_mean(self, x):
        z = np.maximum(x, self.scale)
        if self.alpha == 1.0:
            above = self.scale * (1.0 + np.log(z / self.scale))
        else:
            above = self.scale + (self.scale ** self.alpha) * (
                z ** (1.0 - self.alpha) - self.scale ** (1.0 - self.alpha)
            ) / (1.0 - self.alpha)
        return np.where(x <= self.scale, np.minimum(x, self.scale), above)

    def support(self):
        return (self.scale, math.inf)

    def tail_class(self):
        return TailClass("regvar", self.alpha)

    def _breakpoints(self):
        return (self.scale,)


@dataclass(frozen=True)
class TruncatedParetoOne(Distribution, kind="truncated_pareto_one"):
    """Exact reciprocal tail: P(Y > x) = min(1, d1 / x) for x >= x0, 1 below.

    Requires x0 >= d1 so the tail is a genuine probability on [x0, inf);
    there is an atom of mass 1 - d1/x0 at x0 whenever x0 > d1.
    """

    d1: float = _param(exclusive_minimum=0.0)
    x0: float = _param(exclusive_minimum=0.0)

    def __post_init__(self):
        super().__post_init__()
        if self.x0 < self.d1:
            raise ValueError("x0 must be >= d1")

    def _cdf(self, x):
        z = np.maximum(x, self.x0)
        return np.where(x < self.x0, 0.0, 1.0 - np.minimum(1.0, self.d1 / z))

    def _tail(self, x):
        z = np.maximum(x, self.x0)
        return np.where(x < self.x0, 1.0, np.minimum(1.0, self.d1 / z))

    def _quantile(self, p):
        p_atom = 1.0 - self.d1 / self.x0  # cdf at the left endpoint
        return np.where(p <= p_atom, self.x0, self.d1 / np.maximum(1.0 - p, 1e-300))

    def mean(self) -> float:
        return math.inf

    def _truncated_mean(self, x):
        z = np.maximum(x, self.x0)
        above = self.x0 + self.d1 * np.log(z / self.x0)
        return np.where(x <= self.x0, np.minimum(x, self.x0), above)

    def support(self):
        return (self.x0, math.inf)

    def tail_class(self):
        return TailClass("regvar", 1.0)

    def _breakpoints(self):
        return (self.x0,)


@dataclass(frozen=True)
class Uniform(Distribution, kind="uniform"):
    lo: float = _param(minimum=0.0)
    hi: float = _param(exclusive_minimum=0.0)

    def __post_init__(self):
        super().__post_init__()
        if not self.hi > self.lo:
            raise ValueError("hi must be > lo")

    def _cdf(self, x):
        return np.clip((x - self.lo) / (self.hi - self.lo), 0.0, 1.0)

    def _tail(self, x):
        inner = (self.hi - np.clip(x, self.lo, self.hi)) / (self.hi - self.lo)
        return np.where(x <= self.lo, 1.0, np.where(x >= self.hi, 0.0, inner))

    def _quantile(self, p):
        return self.lo + p * (self.hi - self.lo)

    def mean(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def _truncated_mean(self, x):
        xc = np.clip(x, self.lo, self.hi)
        mid = self.lo + (self.hi * (xc - self.lo) - 0.5 * (xc * xc - self.lo * self.lo)) / (
            self.hi - self.lo
        )
        return np.where(x <= self.lo, np.minimum(x, self.lo),
                        np.where(x >= self.hi, self.mean(), mid))

    def support(self):
        return (self.lo, self.hi)

    def tail_class(self):
        return TailClass("bounded")

    def _laplace(self, mu: float) -> float:
        return (math.exp(-mu * self.lo) - math.exp(-mu * self.hi)) / (mu * (self.hi - self.lo))

    def _breakpoints(self):
        return (self.lo, self.hi)


@dataclass(frozen=True)
class DiscreteUniform(Distribution, kind="discrete_uniform"):
    """Equal weight on a finite multiset of positive values."""

    values: tuple[float, ...] = _param("support", exclusive_minimum=0.0)

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(sorted(float(v) for v in self.values)))
        super().__post_init__()
        if len(self.values) == 0:
            raise ValueError("values must be non-empty")

    def _arr(self):
        return np.asarray(self.values)

    def _cdf(self, x):
        idx = np.searchsorted(self._arr(), x, side="right")
        return idx / len(self.values)

    def _tail(self, x):
        idx = np.searchsorted(self._arr(), x, side="right")
        return (len(self.values) - idx) / len(self.values)

    def _quantile(self, p):
        n = len(self.values)
        cum = np.arange(1, n + 1) / n
        idx = np.searchsorted(cum, p, side="left")
        return self._arr()[np.minimum(idx, n - 1)]

    def mean(self) -> float:
        return math.fsum(self.values) / len(self.values)

    def _truncated_mean(self, x):
        v = self._arr()
        return np.minimum.outer(x, v).mean(axis=-1)

    def support(self):
        return (self.values[0], self.values[-1])

    def tail_class(self):
        return TailClass("bounded")

    def _laplace(self, mu: float) -> float:
        return float(np.mean(np.exp(-mu * self._arr())))

    def _breakpoints(self):
        return self.values


@dataclass(frozen=True)
class Mixture(Distribution, kind="mixture"):
    """Finite mixture: components is a tuple of (weight, distribution).

    The weights must sum to 1 within 1e-9.  Weights whose left-to-right sum
    is not exactly 1.0 are stored rescaled, so that the cdf reaches 1.
    """

    components: tuple[tuple[float, Distribution], ...] = _param(exclusive_minimum=0.0)

    def __post_init__(self):
        super().__post_init__()
        if len(self.components) == 0:
            raise ValueError("mixture needs at least one component")
        total = math.fsum(w for w, _ in self.components)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"mixture weights must sum to 1 (got {total!r})")
        weights = [w for w, _ in self.components]
        if sum(weights) != 1.0:
            # The cdf adds the weighted component cdfs left to right, so at
            # the top of the support it is this sum, and a sum below 1 would
            # leave p near 1 with no quantile.  Rescale by the exact total,
            # then let the last weight take up the rounding: a + (1 - a)
            # rounds to exactly 1 for any double a in [0, 1).
            weights = [w / total for w in weights]
            weights[-1] = 1.0 - sum(weights[:-1])
            if not weights[-1] > 0:
                raise ValueError("last mixture weight is below the rounding of the others")
            object.__setattr__(self, "components", tuple(
                (w, d) for w, (_, d) in zip(weights, self.components)))

    def _cdf(self, x):
        # the weighted component cdfs added left to right, as quantile
        # evaluates them
        return sum(w * d._cdf(x) for w, d in self.components)

    def _tail(self, x):
        return sum(w * d._tail(x) for w, d in self.components)

    def _quantile(self, p):
        """Exact generalized inverse: the least double q with cdf(q) >= p.

        Brackets q by the component quantiles, then closes the bracket to
        adjacent doubles with a guarded secant and bisection on the int64
        bit pattern; see the module docstring.  Raises RuntimeError if the
        bracket is still open after ``_MAX_STEPS`` steps, which the step
        bound rules out for component laws on [0, inf].
        """
        q = np.empty(p.shape)
        blocks = max(1, -(-p.size // _SEARCH_BLOCK))  # of near-equal length
        # An overflowed q_i = inf is a valid upper end, and a secant through
        # equal cdf values or an infinite end is not finite, which the
        # bracket test then rejects.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for part, into in zip(np.array_split(p.ravel(), blocks),
                                  np.array_split(q.reshape(-1), blocks)):
                self._invert(part, into)
        return q

    def _bracket(self, p):
        """Rows lo, hi, b, f(b), slope, p for the search: the bracket, its
        end b nearer the root in cdf, and the secant slope through both
        ends, where f = cdf - p."""
        state = np.empty((6, p.size))
        lo, hi, b, fb, slope, _ = state
        state[5] = p
        qs = (d._quantile(p) for _, d in self.components)
        lo[...] = hi[...] = next(qs)
        for q in qs:
            np.minimum(lo, q, out=lo)
            np.maximum(hi, q, out=hi)
        np.nextafter(lo, 0.0, out=lo)
        flo, fhi = fb, slope  # rows reused until b and slope are known
        np.subtract(self._cdf(lo), p, out=flo)
        np.subtract(self._cdf(hi), p, out=fhi)
        # Rounding in a component quantile can put an end on the wrong side
        # of p.  An end with cdf >= p is then a valid upper end, with 0
        # (cdf 0) below it; an end with cdf < p a valid lower end, with +inf
        # (cdf exactly 1, see __post_init__) above it.
        bad = flo >= 0
        np.copyto(hi, lo, where=bad)
        np.copyto(fhi, flo, where=bad)
        np.copyto(lo, 0.0, where=bad)
        np.copyto(flo, -p, where=bad)
        bad = fhi < 0
        np.copyto(lo, hi, where=bad)
        np.copyto(flo, fhi, where=bad)
        np.copyto(hi, np.inf, where=bad)
        np.copyto(fhi, 1.0 - p, where=bad)
        far = np.abs(flo) >= np.abs(fhi)
        b[...] = np.where(far, hi, lo)
        start = (fhi - flo) / (hi - lo)
        np.copyto(fb, fhi, where=far)
        slope[...] = start
        return state

    def _invert(self, p, out):
        # The secant runs from b with ``slope``, taken from b and an earlier
        # b.  The rows of ``state`` shrink together to the open entries, and
        # are updated through their int64 views, where x + m * (y - x)
        # selects exactly.
        state = self._bracket(p)
        lo_b, hi_b = state[:2].view(np.int64)
        width = hi_b - lo_b
        idx = np.arange(p.size)
        force = np.zeros(p.size, dtype=bool)
        for step in range(_MAX_STEPS + 1):
            closed = np.flatnonzero(width == 1)
            if closed.size:
                out[idx[closed]] = state[1, closed]
                keep = np.flatnonzero(width != 1)
                for row in state:
                    row[:keep.size] = row[keep]
                state = state[:, :keep.size]
                idx, force, width = idx[keep], force[keep], width[keep]
            if not idx.size:
                return
            if step == _MAX_STEPS:
                raise RuntimeError(
                    f"Mixture.quantile bracket still open after {_MAX_STEPS} steps; "
                    "the step bound assumes component laws on [0, inf] with monotone cdfs")
            lo_b, hi_b, b_b, fb_b, slope_b, _ = state.view(np.int64)
            _, _, b, fb, slope, p = state
            x = b - fb / slope
            x_b = x.view(np.int64)
            # Near the root the secant creeps up on it from one side while
            # the far end stays put.  A step of a few ulps is replaced by one
            # past the root: twice the step, or twice the x-span of one ulp
            # of p along the secant (the cdf resolves p no finer), at least
            # one ulp and at most half the bracket.
            s = np.flatnonzero(np.abs(x_b - b_b) <= _NUDGE_ULPS)
            if s.size:
                bs = b[s]
                reach = np.fmin(2 * np.fmax(np.abs(x_b[s] - bs.view(np.int64)),
                                            np.abs(p[s] / (bs * slope[s]))),
                                width[s] >> 1)
                # toward the root: up from a lower end (cdf < p), else down
                x_b[s] = bs.view(np.int64) + np.copysign(np.fmax(reach, 1), -fb[s]).astype(np.int64)
            secant = ~force & (lo_b < x_b) & (x_b < hi_b)
            r = np.flatnonzero(~secant)
            if r.size:
                x_b[r] = lo_b[r] + (width[r] >> 1)
            fx = self._cdf(x) - p
            below = fx < 0
            lo_b += below * (x_b - lo_b)
            hi_b += ~below * (x_b - hi_b)
            # Bisect next after a secant step that did not halve the bracket,
            # or one that met b's cdf value again: the cdf is flat there and
            # the secant has nothing to go on.
            flat = fx == fb
            force = secant & (hi_b - lo_b > (width + 1) >> 1) | flat
            np.subtract(hi_b, lo_b, out=width)
            # A nearer probe renews the slope and becomes b; one with b's cdf
            # value replaces b too, keeping b an end.
            nearer = np.abs(fx) < np.abs(fb)
            slope_b += nearer * (((fx - fb) / (x - b)).view(np.int64) - slope_b)
            nearer |= flat
            b_b += nearer * (x_b - b_b)
            fb_b += nearer * (fx.view(np.int64) - fb_b)
            del x, x_b, fx  # not held through the next step's cdf

    def mean(self) -> float:
        if any(math.isinf(d.mean()) for _, d in self.components):
            return math.inf
        return math.fsum(w * d.mean() for w, d in self.components)

    def _truncated_mean(self, x):
        return sum(w * d._truncated_mean(x) for w, d in self.components)

    def support(self):
        los, his = zip(*(d.support() for _, d in self.components))
        return (min(los), max(his))

    def tail_class(self):
        classes = [d.tail_class() for _, d in self.components]
        reg = [c.alpha for c in classes if c.kind == "regvar"]
        if reg:
            return TailClass("regvar", min(reg))
        if any(c.kind == "light" for c in classes):
            return TailClass("light")
        return TailClass("bounded")

    def _laplace(self, mu: float) -> float:
        return math.fsum(w * d._laplace(mu) for w, d in self.components)

    def _breakpoints(self):
        pts: list[float] = []
        for _, d in self.components:
            pts.extend(d._breakpoints())
        return tuple(sorted(set(pts)))


def truncated_mean_by_quadrature(dist: Distribution, x: float, rel_tol: float = 1e-10) -> float:
    """E[min(Y, x)] as the integral of the tail over [0, x].

    Independent numeric route against the closed forms; raises
    QuadratureError when the adaptive scheme cannot certify ``rel_tol``.
    """
    if not x > 0:
        raise ValueError("truncation point must be > 0")
    from scipy import integrate

    pts = [b for b in dist._breakpoints() if 0.0 < b < x]
    val, err = integrate.quad(
        lambda u: float(dist.tail(u)), 0.0, float(x),
        points=pts or None, epsabs=1e-14, epsrel=rel_tol, limit=500,
    )
    if err > rel_tol * max(abs(val), 1e-12):
        raise QuadratureError(
            f"tail integral over [0, {x}] did not converge (err={err:g}, value={val:g})"
        )
    return val
