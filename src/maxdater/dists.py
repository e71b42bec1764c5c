"""Catalogue of positive service and inter-arrival laws.

Each law carries exact closed forms for the cdf, the upper tail (computed
directly, not as 1 - cdf, so extreme tails keep full precision), the
generalized inverse cdf inf{x : cdf(x) >= p}, the mean (``math.inf`` when
the first moment diverges), and the truncated mean E[min(Y, x)].  The
closed-form inverses are those formulas in floating point, within a few
ulps of the exact inverse (``Exponential`` 2, ``TruncatedParetoOne`` 2,
``Pareto`` 7 (1 + |ln(1 - p)| / alpha), since -1/alpha rounds before the
power), not the least double q whose float cdf reaches p: near p = 1 the
float cdf saturates.  Every law but
``Mixture`` samples by quantile inversion of a strict (0, 1) uniform, which
keeps its sampler exact, reproducible, and monotone in the underlying
uniform.  A ``Mixture`` samples by composition (Devroye 1986, *Non-Uniform
Random Variate Generation*, II.4): a first uniform picks the component by
weight and a second is inverted by that component's closed-form quantile.
Its inverse has no closed form, and composition draws the same law at the
cost of one more uniform instead of a search per draw, with each
component's tail at full 53-bit resolution.  Its draws are therefore
monotone in neither uniform.

``Distribution`` is the one boundary.  Its ``cdf``, ``tail``, ``quantile``
and ``truncated_mean`` take scalars, lists or arrays and give a float for a
scalar, evaluated as a one-element array; ``quantile`` rejects p outside
(0, 1), NaN included, and ``laplace`` mu <= 0.  The laws implement only the
``_`` kernels, which take float arrays of ndim >= 1 and check nothing.
``sample`` trusts ``Stream.uniform_open`` to stay inside (0, 1) and hands
the law's ``_sample`` kernel a size, so a scalar draw is the first of a
one-element draw.  A ``_sample`` kernel owns the uniform piece it draws and
may invert it in place (``Exponential`` divides log1p(-u) by -rate, bitwise
``_quantile``'s -log1p(-p) / rate since IEEE division is sign-symmetric;
``Pareto`` raises 1 - u to its power and scales it, the same operations).
``_quantile`` never writes to its input, which through ``quantile`` may be
the caller's array.

``largest_draw`` is the largest value ``sample`` can return, which can lie
far below the essential supremum: ``uniform_open`` never goes above
1 - 2**-53, and inversion is monotone in the uniform, so an inverting law
draws at most its quantile there.  Composition hands each draw to one
component, so a mixture draws at most the largest of its components'
largest draws.  A law is built only if its largest draw is finite, so no
law draws ``inf``.  Construction decides that without numpy: a bounded law
draws at most its supremum, a mixture's components were built first, and
the other laws' ``_check`` works the quantile kernel at the top uniform
with ``math``, step by step in the kernel's order, and refuses a step
within 16 ulps of 2**1024, where numpy's own rounding could reach it.  The
order matters: ``Pareto`` raises 2**-53 to the power -1/alpha before it
scales, so it needs alpha > 53/1024, about 0.0518, at any scale <= 1,
though at scale 1e-3 the product alone would stay finite.  ``Exponential``
needs a rate above about 2.04e-307.

``_excess_quantile(y)``, for a law of finite mean, is the least x >= 0
with E(Y - x)+ <= y: the inverse of the mean excess E(Y - x)+ = E Y -
E[min(Y, x)], which falls continuously from E Y at x = 0 to 0.  It is 0
for y >= E Y, takes float arrays of y > 0, never writes to them, and is a
closed form for every law of finite mean but ``Mixture``.
``sample_poisson_max`` draws the largest of (Y_k - T_k)+ over the points
T_k of a Poisson process on (0, inf) with independent marks Y_k of the
law: at most x (x >= 0) when no point has Y_k - T_k > x, which has
probability exp(-rate * E(Y - x)+), so one uniform u gives the draw
``_excess_quantile(-log(u) / rate)``.  A ``Mixture`` splits the process by
mark into one Poisson process per component, at rate times its weight,
and takes the largest of the components' draws, so it needs no inverse of
its own.

``Mixture.quantile`` has no closed form and bisects the int64 bit patterns
of [0, +inf], which order like the non-negative doubles they encode, with
cdf(lo) < p <= cdf(hi) throughout.  A fixed 63 halvings close the fewer
than 2**63 patterns to adjacent doubles, so it returns the least double q
with cdf(q) >= p, exactly, for any monotone cdf.

Each law names its config ``kind`` where it is defined, which enters it in
``CATALOGUE``, and states the bound on each of its fields in that field's
metadata.  ``Distribution.__post_init__`` checks those bounds, then the
law's own ``_check``, and the command line reads the same fields to parse,
check and echo every law.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field, fields
from typing import ClassVar, Optional

from .streams import _TOP_UNIFORM, _Numpy, Stream

np = _Numpy(globals())

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
]


# config kind -> law, entered as each law is defined
CATALOGUE: dict[str, type[Distribution]] = {}


def bound_problem(value, minimum=None, exclusive_minimum=None) -> Optional[str]:
    """Why ``value`` breaks the bound, as in 'must be > 0.0', or None when
    it keeps it.  A non-finite value keeps none, nor does an int that no
    double holds."""
    try:
        finite = math.isfinite(value)
    except OverflowError:
        finite = False
    if not finite:
        return "must be finite"
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
    """Decay class of an upper tail, used for symbolic finiteness decisions
    and tail predictions.  kind is 'bounded', 'light' (faster than any
    power), or 'regvar' with index ``alpha`` (tail ~ x**-alpha).  A law whose
    tail is exactly a power or an exponential above its infimum says so:
    ``scale`` when the tail there is (x / scale)**-alpha, ``rate`` when it
    is exp(-rate * x).  Mixtures and bounded laws give neither."""

    kind: str
    alpha: Optional[float] = None
    scale: Optional[float] = None
    rate: Optional[float] = None


# 2**1024 - 2**975, 16 ulps of the top binade below 2**1024
_OVERFLOW_EDGE = 2.0 ** 1023 * (2.0 - 2.0 ** -48)


def _refuse_overflow(*steps):
    """Refuse a law unless every step of its quantile kernel at the top
    uniform, worked with ``math``, stays below ``_OVERFLOW_EDGE``."""
    if not all(x < _OVERFLOW_EDGE for x in steps):
        raise ValueError("largest draw must be finite: the quantile at the top"
                         " uniform 1 - 2**-53 must stay below 2**1024")


def _power_cdf(x, lo, scale, alpha):
    """1 - (x / scale)**-alpha for x >= lo >= scale, 0 below lo, through
    expm1 and log1p: the subtraction would cancel the leading digits just
    above the scale.  Where x / scale passes the largest double, w turns inf
    and the cdf 1, within an ulp: the tail there is below 1.1e-16, as a law
    is built only with alpha above 53 / 1024 (``Pareto._check``)."""
    z = np.maximum(x, lo)
    with np.errstate(over="ignore"):
        w = (z - scale) / scale
    return np.where(x < lo, 0.0, -np.expm1(-alpha * np.log1p(w)))


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
        self._check()

    def _check(self):
        """The law's own checks once every field keeps its bound; it may
        store fields normalised."""

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

    def quantile_breaks(self) -> list:
        """The p in (0, 1), ascending, where the quantile function kinks or
        jumps; quadrature hints only."""
        return []

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
        """Draws of shape ``size``, owned by the caller; a float for size
        None, the first of a one-element draw."""
        if size is None:
            return float(self._sample(stream, 1)[0])
        return self._sample(stream, size)

    def _sample(self, stream, size):
        """The sampling kernel: inversion of one uniform piece."""
        return self._quantile(stream.uniform_open(size))

    def sample_poisson_max(self, stream: Stream, size, rate: float):
        """Draws of max(0, sup_k Y_k - T_k) over a rate-``rate`` Poisson
        process T_1 < T_2 < ... on (0, inf) with marks Y_k of this law, of
        finite mean: one uniform piece through ``_excess_quantile``."""
        u = stream.uniform_open(size)
        np.log(u, out=u)
        u /= -rate
        return self._excess_quantile(u)

    def largest_draw(self) -> float:
        """The largest value ``sample`` can return: the quantile at the
        largest uniform."""
        return float(self._quantile(np.array([_TOP_UNIFORM]))[0])


@dataclass(frozen=True)
class Exponential(Distribution, kind="exponential"):
    rate: float = _param(exclusive_minimum=0.0)

    def _check(self):
        _refuse_overflow(-math.log1p(-_TOP_UNIFORM) / self.rate)

    def _cdf(self, x):
        return np.where(x <= 0, 0.0, -np.expm1(-self.rate * np.maximum(x, 0.0)))

    def _tail(self, x):
        return np.where(x <= 0, 1.0, np.exp(-self.rate * np.maximum(x, 0.0)))

    def _quantile(self, p):
        return -np.log1p(-p) / self.rate

    def _sample(self, stream, size):
        u = stream.uniform_open(size)  # _quantile in place, sign moved
        np.negative(u, out=u)
        np.log1p(u, out=u)
        return np.divide(u, -self.rate, out=u)

    def mean(self) -> float:
        return 1.0 / self.rate

    def _truncated_mean(self, x):
        return -np.expm1(-self.rate * np.maximum(x, 0.0)) / self.rate

    def _excess_quantile(self, y):
        # E(Y - x)+ = exp(-rate x) / rate
        ry = self.rate * y
        return np.where(ry < 1.0, -np.log(ry) / self.rate, 0.0)

    def support(self):
        return (0.0, math.inf)

    def tail_class(self):
        return TailClass("light", rate=self.rate)

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

    def _excess_quantile(self, y):
        return np.maximum(self.value - y, 0.0)

    def support(self):
        return (self.value, self.value)

    def tail_class(self):
        return TailClass("bounded")

    def _laplace(self, mu: float) -> float:
        return math.exp(-mu * self.value)



@dataclass(frozen=True)
class Pareto(Distribution, kind="pareto"):
    """Tail (x / scale)**-alpha for x >= scale, 1 below."""

    alpha: float = _param(exclusive_minimum=0.0)
    scale: float = _param(exclusive_minimum=0.0)

    def _check(self):
        # the power first, as the kernel takes it: it can overflow where the
        # draw, at scale < 1, would not
        try:
            power = (1.0 - _TOP_UNIFORM) ** (-1.0 / self.alpha)
        except OverflowError:
            power = math.inf
        _refuse_overflow(power, self.scale * power)

    def _cdf(self, x):
        return _power_cdf(x, self.scale, self.scale, self.alpha)

    def _tail(self, x):
        z = np.maximum(x, self.scale) / self.scale
        return np.where(x < self.scale, 1.0, z ** (-self.alpha))

    def _quantile(self, p):
        return self.scale * (1.0 - p) ** (-1.0 / self.alpha)

    def _sample(self, stream, size):
        u = stream.uniform_open(size)  # _quantile in place
        np.subtract(1.0, u, out=u)
        u **= -1.0 / self.alpha  # the same scalar-power path as ** takes
        u *= self.scale
        return u

    def mean(self) -> float:
        if self.alpha <= 1.0:
            return math.inf
        return self.alpha * self.scale / (self.alpha - 1.0)

    def _truncated_mean(self, x):
        z = np.maximum(x, self.scale)
        if self.alpha == 1.0:
            above = self.scale * (1.0 + np.log(z / self.scale))
        else:  # in logs: scale**alpha and z / scale overflow at extreme scales
            a1 = 1.0 - self.alpha
            above = self.scale + self.scale * np.expm1(
                a1 * (np.log(z) - np.log(self.scale))) / a1
        return np.where(x <= self.scale, np.minimum(x, self.scale), above)

    def _excess_quantile(self, y):
        # E(Y - x)+ is E Y - x up to scale, then scale (x / scale)**(1 - alpha)
        # / (alpha - 1); alpha > 1
        a1 = self.alpha - 1.0
        z = y * a1 / self.scale
        return np.where(z < 1.0, self.scale * z ** (-1.0 / a1),
                        np.maximum(self.mean() - y, 0.0))

    def support(self):
        return (self.scale, math.inf)

    def tail_class(self):
        return TailClass("regvar", self.alpha, scale=self.scale)



@dataclass(frozen=True)
class TruncatedParetoOne(Distribution, kind="truncated_pareto_one"):
    """Exact reciprocal tail: P(Y > x) = min(1, d1 / x) for x >= x0, 1 below.

    Requires x0 >= d1 so the tail is a genuine probability on [x0, inf);
    there is an atom of mass 1 - d1/x0 at x0 whenever x0 > d1.
    """

    d1: float = _param(exclusive_minimum=0.0)
    x0: float = _param(exclusive_minimum=0.0)

    def _check(self):
        if self.x0 < self.d1:
            raise ValueError("x0 must be >= d1")
        _refuse_overflow(self.d1 / (1.0 - _TOP_UNIFORM))  # np.where runs both branches

    def _cdf(self, x):
        return _power_cdf(x, self.x0, self.d1, 1.0)

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
        return TailClass("regvar", 1.0, scale=self.d1)

    def quantile_breaks(self):
        p_atom = 1.0 - self.d1 / self.x0  # the atom at x0 ends here
        return [p_atom] if 0.0 < p_atom < 1.0 else []



@dataclass(frozen=True)
class Uniform(Distribution, kind="uniform"):
    lo: float = _param(minimum=0.0)
    hi: float = _param(exclusive_minimum=0.0)

    def _check(self):
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

    def _excess_quantile(self, y):
        # E(Y - x)+ is E Y - x up to lo, then (hi - x)**2 / (2 (hi - lo))
        width = self.hi - self.lo
        return np.where(y < 0.5 * width, self.hi - np.sqrt(2.0 * width * y),
                        np.maximum(self.mean() - y, 0.0))

    def support(self):
        return (self.lo, self.hi)

    def tail_class(self):
        return TailClass("bounded")

    def _laplace(self, mu: float) -> float:
        return (math.exp(-mu * self.lo) - math.exp(-mu * self.hi)) / (mu * (self.hi - self.lo))



@dataclass(frozen=True)
class DiscreteUniform(Distribution, kind="discrete_uniform"):
    """Equal weight on a finite multiset of positive values."""

    values: tuple[float, ...] = _param("support", exclusive_minimum=0.0)

    def _check(self):
        object.__setattr__(self, "values", tuple(sorted(float(v) for v in self.values)))
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

    def _excess_quantile(self, y):
        # E(Y - x)+ is linear between the knots b = 0, v_1, ..., v_n, where
        # it falls by the share of values >= b_j per unit of x just below b_j
        v, n = self._arr(), len(self.values)
        b = np.concatenate([[0.0], v])
        excess = np.maximum(v - b[:, None], 0.0).mean(axis=1)
        excess[0] = self.mean()
        above = n - np.searchsorted(v, b, side="left")
        j = np.searchsorted(-excess, -y, side="left")  # first knot at most y
        return np.maximum(b[j] - (y - excess[j]) * n / above[j], 0.0)

    def support(self):
        return (self.values[0], self.values[-1])

    def tail_class(self):
        return TailClass("bounded")

    def quantile_breaks(self):
        n = len(self.values)
        return [k / n for k in range(1, n)]

    def _laplace(self, mu: float) -> float:
        return float(np.mean(np.exp(-mu * self._arr())))


@dataclass(frozen=True)
class Mixture(Distribution, kind="mixture"):
    """Finite mixture: components is a tuple of (weight, distribution).

    Each weight must be <= 1 and the weights must sum to 1 within 1e-9.
    Weights whose left-to-right sum is not exactly 1.0 are stored
    rescaled, so that the cdf reaches 1.
    """

    components: tuple[tuple[float, Distribution], ...] = _param(exclusive_minimum=0.0)

    def _check(self):
        if len(self.components) == 0:
            raise ValueError("mixture needs at least one component")
        if any(w > 1.0 for w, _ in self.components):  # and fsum cannot overflow
            raise ValueError("mixture weights must be <= 1")
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

    def _sample(self, stream, size):
        """Composition: a piece of picks, then a value piece of the same
        shape, always in that order."""
        pick = stream.uniform_open(size)
        return self._compose(pick, stream.uniform_open(size))

    def sample_poisson_max(self, stream, size, rate):
        """The largest of the components' draws at rate times their weights,
        one uniform piece per leaf in component order: marking each point
        by its component splits the process into independent ones."""
        return np.maximum.reduce([d.sample_poisson_max(stream, size, rate * w)
                                  for w, d in self.components])

    def largest_draw(self) -> float:
        """The largest of the components' largest draws: composition draws
        each value from one component."""
        return max(d.largest_draw() for _, d in self.components)

    def _compose(self, pick, u):
        """Draws at the uniforms ``u``, written over them, each by the
        component that ``pick`` selects: the first whose cumulative weight
        is >= pick.  A nested mixture picks again with what is left of pick,
        rescaled to (0, 1], so every draw takes one pick and one value uniform."""
        pick, flat = pick.reshape(-1), u.reshape(-1)
        # the weights added left to right, as _cdf adds them, so the last is
        # exactly 1 (see _check)
        top = np.cumsum([w for w, _ in self.components])
        # the count of cumulative weights below pick, which is searchsorted's
        # index and, for being taken over all but the last, at most the last
        # component's (a compare per weight beats a binary search per draw)
        idx = np.zeros(pick.size, dtype=np.uint8 if len(top) < 256 else np.intp)
        for c in top[:-1]:
            idx += pick > c
        ats = [np.flatnonzero(idx == i) for i in range(len(top))]
        del idx  # gathers by index beat masks; the index goes once they exist
        for i, ((w, d), at) in enumerate(zip(self.components, ats)):
            if isinstance(d, Mixture):
                # pick is above the cumulative weight before i; rounding can
                # take the rescaled rest just past 1, which the guard absorbs
                rest = (pick[at] - (top[i - 1] if i else 0.0)) / w
                flat[at] = d._compose(rest, flat[at])
            else:
                flat[at] = d._quantile(flat[at])
        return flat.reshape(u.shape)

    def _quantile(self, p):
        """Exact generalized inverse: the least double q with cdf(q) >= p,
        by bisection on the int64 bit patterns; see the module docstring."""
        # cdf(0) = 0 for every law, and _check makes cdf(inf) exactly 1
        lo = np.zeros(p.shape, dtype=np.int64)
        hi = np.full(p.shape, np.float64(np.inf).view(np.int64))
        # a cdf overflows on its way to 1 near the largest doubles
        with np.errstate(over="ignore"):
            for _ in range(63):
                mid = lo + (hi - lo) // 2
                below = self._cdf(mid.view(np.float64)) < p
                np.copyto(lo, mid, where=below)
                np.copyto(hi, mid, where=~below)
        return hi.view(np.float64)

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

