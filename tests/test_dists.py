"""Distribution catalogue: exact values, inversion sampling, quadrature
cross-checks."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from maxdater import Stream
from maxdater import dists
from maxdater.dists import (
    Deterministic,
    DiscreteUniform,
    Exponential,
    Mixture,
    Pareto,
    TruncatedParetoOne,
    Uniform,
    truncated_mean_by_quadrature,
)

from support import generalized_inverse_oracle, integrate_against, truncated_mean_oracle

CATALOGUE = [
    Exponential(1.0),
    Exponential(0.25),
    Deterministic(2.0),
    Pareto(0.5, 1.0),
    Pareto(2.5, 1.0),
    Pareto(1.0, 3.0),
    TruncatedParetoOne(0.5, 1.0),
    TruncatedParetoOne(2.0, 2.0),
    Uniform(0.0, 2.0),
    Uniform(0.5, 1.5),
    DiscreteUniform((1.0, 2.0, 3.0)),
    Mixture(((0.5, Deterministic(1.0)), (0.5, Deterministic(3.0)))),
    Mixture(((0.3, Exponential(2.0)), (0.7, Pareto(2.5, 1.0)))),
]


def test_exact_values():
    assert Exponential(1.0).cdf(0.0) == 0.0
    assert Pareto(0.5, 1.0).cdf(4.0) == pytest.approx(0.5, abs=1e-15)
    mix = Mixture(((0.5, Deterministic(1.0)), (0.5, Deterministic(3.0))))
    assert mix.cdf(2.0) == 0.5
    assert mix.tail(2.0) == 0.5
    assert TruncatedParetoOne(2.0, 2.0).tail(10.0) == pytest.approx(0.2, abs=1e-15)
    assert Deterministic(5.0).tail(5.0) == 0.0
    # far tail evaluated directly, no 1 - cdf cancellation
    assert Exponential(1.0).tail(40.0) == pytest.approx(math.exp(-40.0), rel=1e-12)
    assert Exponential(1.0).tail(40.0) > 0.0


def test_quantiles():
    assert Exponential(1.0).quantile(0.5) == pytest.approx(math.log(2.0), rel=1e-15)
    assert DiscreteUniform((1.0, 2.0, 3.0)).quantile(0.5) == 2.0
    assert Deterministic(7.0).quantile(0.99) == 7.0
    with pytest.raises(ValueError):
        Exponential(1.0).quantile(0.0)
    with pytest.raises(ValueError):
        Exponential(1.0).quantile(1.0)


def test_means():
    assert Pareto(0.5, 1.0).mean() == math.inf
    assert Pareto(1.0, 3.0).mean() == math.inf
    assert Pareto(2.0, 1.0).mean() == pytest.approx(2.0, rel=1e-15)
    assert TruncatedParetoOne(2.0, 2.0).mean() == math.inf
    assert Uniform(0.0, 2.0).mean() == 1.0
    assert Exponential(0.25).mean() == 4.0


def test_truncated_mean_closed_forms():
    assert Deterministic(5.0).truncated_mean(2.0) == 2.0
    assert Exponential(1.0).truncated_mean(1e6) == pytest.approx(1.0, rel=1e-12)
    # integral of the tail: 1 + int_1^4 u^{-1/2} du = 3
    assert Pareto(0.5, 1.0).truncated_mean(4.0) == pytest.approx(3.0, rel=1e-12)


def test_parameter_validation():
    with pytest.raises(ValueError):
        Exponential(0.0)
    with pytest.raises(ValueError):
        Pareto(-1.0, 1.0)
    with pytest.raises(ValueError):
        Pareto(1.0, 0.0)
    with pytest.raises(ValueError):
        TruncatedParetoOne(2.0, 1.0)  # tail would exceed 1 on [x0, d1)
    with pytest.raises(ValueError):
        Uniform(1.0, 1.0)
    with pytest.raises(ValueError):
        DiscreteUniform(())
    with pytest.raises(ValueError):
        DiscreteUniform((0.0, 1.0))
    with pytest.raises(ValueError):
        Mixture(((0.6, Deterministic(1.0)), (0.6, Deterministic(2.0))))


@pytest.mark.parametrize("d", CATALOGUE, ids=lambda d: type(d).__name__ + repr(d)[:30])
def test_cdf_tail_complement(d):
    rng = np.random.default_rng(5)
    lo, hi = d.support()
    hi = min(hi, 50.0)
    xs = rng.uniform(0.0, hi + 1.0, size=1000)
    assert np.all(np.abs(d.cdf(xs) + d.tail(xs) - 1.0) <= 1e-12)
    # monotonicity on a sorted grid
    xs.sort()
    assert np.all(np.diff(d.cdf(xs)) >= -1e-15)
    assert np.all(np.diff(d.tail(xs)) <= 1e-15)


@pytest.mark.parametrize("d", CATALOGUE, ids=lambda d: type(d).__name__ + repr(d)[:30])
def test_quantile_cdf_galois(d):
    rng = np.random.default_rng(6)
    ps = rng.uniform(0.001, 0.999, size=500)
    qs = np.atleast_1d(d.quantile(ps))
    assert np.all(np.atleast_1d(d.cdf(qs)) >= ps - 1e-12)
    lo, hi = d.support()
    xs = rng.uniform(lo, min(hi, 50.0), size=500)
    cs = np.atleast_1d(d.cdf(xs))
    # cdf values within float epsilon of 1 lose the information needed to
    # invert; test the identity where it is representable
    keep = (cs > 0) & (cs < 1.0 - 1e-9)
    assert np.all(np.atleast_1d(d.quantile(cs[keep])) <= xs[keep] * (1 + 1e-9) + 1e-9)


@pytest.mark.parametrize("d", CATALOGUE, ids=lambda d: type(d).__name__ + repr(d)[:30])
def test_sampling_positive_and_within_ks_band(d):
    vals = d.sample(Stream.from_seed(11), 100_000)
    assert np.all(vals > 0)
    # one-sample KS at 99%.  With atoms the lower deviation compares the
    # empirical cdf against the left limit F(x-), else the statistic is
    # inflated by the full atom mass; the continuous-law band is then
    # conservative.
    n = len(vals)
    ecdf_hi = np.arange(1, n + 1) / n
    ecdf_lo = np.arange(0, n) / n
    svals = np.sort(vals)
    cs = d.cdf(svals)
    cs_left = d.cdf(np.nextafter(svals, -np.inf))
    dks = max(np.max(ecdf_hi - cs), np.max(cs_left - ecdf_lo))
    band = stats.kstwobign.ppf(0.99) / math.sqrt(n)
    assert dks <= band


def test_sample_moments_at_fixed_seed():
    vals = Exponential(1.0).sample(Stream.from_seed(3), 1_000_000)
    assert abs(vals.mean() - 1.0) < 0.01
    p = Pareto(2.5, 1.0).sample(Stream.from_seed(4), 1_000_000)
    hit = np.mean(p > 10.0)
    se = math.sqrt(10**-2.5 * (1 - 10**-2.5) / 1_000_000)
    assert abs(hit - 10**-2.5) < 3 * se


@pytest.mark.parametrize("d", CATALOGUE, ids=lambda d: type(d).__name__ + repr(d)[:30])
def test_truncated_mean_against_quadrature(d):
    for x in (0.5, 1.0, 2.5, 7.0):
        got = float(d.truncated_mean(x))
        want = truncated_mean_oracle(d, x)
        assert got == pytest.approx(want, rel=1e-8, abs=1e-12)
        # also the package's own quadrature fallback
        assert truncated_mean_by_quadrature(d, x) == pytest.approx(want, rel=1e-8)
        assert got <= x + 1e-12
        m = d.mean()
        if math.isfinite(m):
            assert got <= m + 1e-12


@given(x=st.floats(0.01, 40.0), y=st.floats(0.01, 40.0))
@settings(max_examples=200, deadline=None)
def test_truncated_mean_monotone(x, y):
    lo, hi = sorted((x, y))
    for d in (Exponential(1.0), Pareto(0.5, 1.0), Uniform(0.5, 1.5),
              DiscreteUniform((1.0, 2.0, 3.0))):
        assert d.truncated_mean(lo) <= d.truncated_mean(hi) + 1e-12


@given(mu=st.floats(0.01, 10.0))
@settings(max_examples=100, deadline=None)
def test_laplace_transforms(mu):
    assert Exponential(2.0).laplace(mu) == pytest.approx(2.0 / (2.0 + mu), rel=1e-12)
    assert Deterministic(3.0).laplace(mu) == pytest.approx(math.exp(-3.0 * mu), rel=1e-12)
    got = Uniform(0.0, 2.0).laplace(mu)
    assert got == pytest.approx((1 - math.exp(-2 * mu)) / (2 * mu), rel=1e-10)
    mix = Mixture(((0.5, Deterministic(1.0)), (0.5, Deterministic(3.0))))
    assert mix.laplace(mu) == pytest.approx(
        0.5 * math.exp(-mu) + 0.5 * math.exp(-3 * mu), rel=1e-12)


def test_laplace_against_monte_carlo():
    vals = Pareto(2.5, 1.0).sample(Stream.from_seed(9), 200_000)
    mc = np.mean(np.exp(-0.7 * vals))
    assert Pareto(2.5, 1.0).laplace(0.7) == pytest.approx(mc, abs=3e-3)


def test_tail_classes():
    assert Exponential(1.0).tail_class().kind == "light"
    assert Deterministic(1.0).tail_class().kind == "bounded"
    assert Uniform(0.0, 1.0).tail_class().kind == "bounded"
    tc = Pareto(2.5, 1.0).tail_class()
    assert (tc.kind, tc.alpha) == ("regvar", 2.5)
    tc = TruncatedParetoOne(2.0, 2.0).tail_class()
    assert (tc.kind, tc.alpha) == ("regvar", 1.0)
    mixed = Mixture(((0.5, Exponential(1.0)), (0.5, Pareto(0.8, 1.0))))
    tc = mixed.tail_class()
    assert (tc.kind, tc.alpha) == ("regvar", 0.8)


def test_integrate_against_oracle_sanity():
    # the test-side integrator itself, checked on closed forms
    assert integrate_against(Exponential(1.0), lambda x: x) == pytest.approx(1.0, rel=1e-9)
    assert integrate_against(DiscreteUniform((1.0, 2.0, 3.0)), lambda x: x * x) == pytest.approx(14 / 3)
    assert integrate_against(TruncatedParetoOne(0.5, 1.0), lambda x: 1.0) == pytest.approx(1.0, rel=1e-9)


# ------------------------------------------------ mixture quantile search


@st.composite
def _mixture_laws(draw):
    """One to three components from every continuous and atomic kind,
    with scales anywhere in [1e-3, 1e3]."""
    comps = []
    for _ in range(draw(st.integers(1, 3))):
        scale = 10.0 ** draw(st.floats(-3.0, 3.0))
        kind = draw(st.sampled_from(
            ["exponential", "pareto", "uniform", "deterministic", "tpo", "discrete"]))
        if kind == "exponential":
            law = Exponential(1.0 / scale)
        elif kind == "pareto":
            law = Pareto(draw(st.floats(0.3, 3.0)), scale)
        elif kind == "uniform":
            law = Uniform(0.0, scale)
        elif kind == "deterministic":
            law = Deterministic(scale)
        elif kind == "tpo":
            law = TruncatedParetoOne(scale, scale * draw(st.floats(1.0, 3.0)))
        else:
            law = DiscreteUniform((scale, 2.0 * scale, 3.0 * scale))
        comps.append((draw(st.floats(0.05, 1.0)), law))
    total = math.fsum(w for w, _ in comps)
    return Mixture(tuple((w / total, law) for w, law in comps))


# the extremes of Stream.uniform_open, then anything strictly inside (0, 1)
_PROBS = st.one_of(
    st.sampled_from([2.0 ** -54, 1.0 - 2.0 ** -53]),
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))


@given(m=_mixture_laws(), ps=st.lists(_PROBS, min_size=1, max_size=8))
@settings(max_examples=150, deadline=None)
def test_mixture_quantile_is_exact_generalized_inverse(m, ps):
    ps = np.array(ps)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        qs = m.quantile(ps)
    want = np.array([generalized_inverse_oracle(m, p) for p in ps])
    assert np.array_equal(qs.view(np.int64), want.view(np.int64))
    assert np.all(m.cdf(qs) >= ps)
    assert np.all(m.cdf(np.nextafter(qs, 0.0)) < ps)


def test_mixture_quantile_far_apart_scales():
    # 200 halvings of [0, max_i q_i(p)] = [0, 2**200] stopped at 1.0, where
    # cdf(prev_float(1.0)) = 0.626 >= 0.5 already
    m = Mixture(((0.99, Exponential(1.0)), (0.01, Pareto(0.005, 1.0))))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        q = m.quantile(0.5)
    assert q == 0.7032995520239633
    assert m.cdf(q) >= 0.5 > m.cdf(np.nextafter(q, 0.0))


def test_mixture_quantile_overflowed_component_quantile():
    # Pareto(0.01) quantiles overflow to inf near p = 1; inf is a valid
    # upper end, and here the mixture cdf stays below p at every finite x
    m = Mixture(((0.5, Exponential(1.0)), (0.5, Pareto(0.01, 1.0))))
    ps = np.array([0.5, 0.99, 1.0 - 2.0 ** -53])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        qs = m.quantile(ps)
    assert list(qs) == [generalized_inverse_oracle(m, p) for p in ps]
    assert qs[-1] == math.inf


def test_mixture_quantile_keeps_shape():
    m = Mixture(((0.3, Exponential(2.0)), (0.7, Pareto(2.5, 1.0))))
    ps = np.array([[0.1, 0.5, 0.9], [0.2, 0.4, 0.999]])
    qs = m.quantile(ps)
    assert qs.shape == ps.shape
    assert np.array_equal(qs.ravel(), m.quantile(ps.ravel()))
    assert isinstance(m.quantile(0.5), float)
    assert m.quantile(np.array([])).shape == (0,)
    # long inputs are searched in blocks; each draw's result is its own
    big = Stream.from_seed(2).uniform_open(2 * dists._SEARCH_BLOCK + 3)
    assert np.array_equal(m.quantile(big),
                          np.concatenate([m.quantile(c) for c in np.array_split(big, 7)]))


def test_mixture_quantile_cdf_evaluations(monkeypatch):
    # timing-free guard on the cost of the search, on the benchmark mixture:
    # elementwise cdf evaluations per draw (the 200-step bisection it
    # replaced made about 66)
    sizes = []
    cdf = Exponential._cdf
    monkeypatch.setattr(Exponential, "_cdf", lambda self, x: sizes.append(np.size(x)) or cdf(self, x))
    n = 1 << 16
    m = Mixture(((0.7, Exponential(1.5)), (0.3, Pareto(1.5, 0.5))))
    u = Stream.from_seed(1, 2).uniform_open(n)
    m.quantile(u)
    assert sizes, "the patched cdf saw no evaluations"
    assert sum(sizes) / n <= 16
    # within one search block, two evaluations bracket the root and each
    # step makes one more, which the slowest draw is part of
    sizes.clear()
    m.quantile(u[:dists._SEARCH_BLOCK])
    assert len(sizes) - 2 <= dists._MAX_STEPS


def test_mixture_weights_reach_one():
    # weights inside the 1e-9 tolerance but summing below 1 left the cdf
    # short of p near 1 (quantile(1 - 1e-10) had cdf 0.99999999955)
    m = Mixture(((0.5, Exponential(1.0)), (0.4999999996, Exponential(2.0))))
    assert m.cdf(math.inf) == 1.0
    p = 1.0 - 1e-10
    assert m.cdf(m.quantile(p)) >= p
    # ten weights of 0.1 add to one ulp below 1 left to right
    tenths = Mixture(tuple((0.1, Exponential(1.0 + i)) for i in range(10)))
    assert tenths.cdf(math.inf) == 1.0
    top = 1.0 - 2.0 ** -53
    assert tenths.cdf(tenths.quantile(top)) >= top
    # rescaling is idempotent, and weights already adding to 1 are kept
    assert Mixture(m.components) == m
    kept = Mixture(((0.7, Exponential(1.5)), (0.3, Pareto(1.5, 0.5))))
    assert [w for w, _ in kept.components] == [0.7, 0.3]


_ATOM_MIXTURE = Mixture(((0.4, Deterministic(1.5)), (0.6, Pareto(0.7, 1.0))))


def test_boundary_covers_every_law():
    assert {type(d) for d in CATALOGUE} == set(dists.CATALOGUE.values())


@pytest.mark.parametrize("d", CATALOGUE + [_ATOM_MIXTURE],
                         ids=lambda d: type(d).__name__ + repr(d)[:30])
def test_public_boundary(d):
    # a scalar gets exactly what a one-element array or list gets, as a
    # Python float (numpy's scalar ** rounds apart from its array loop)
    rng = np.random.default_rng(8)
    lo, hi = d.support()
    xs = np.concatenate([[0.0, lo, min(hi, 1e3)], rng.uniform(0.0, min(hi, 50.0) + 1.0, 60)])
    ps = np.concatenate([[2.0 ** -54, 0.5, 1.0 - 2.0 ** -53], rng.uniform(0.0, 1.0, 60)])
    for method, args in ((d.cdf, xs), (d.tail, xs), (d.truncated_mean, xs), (d.quantile, ps)):
        for a in args.tolist():
            y = method(a)
            assert type(y) is float
            assert y == method(np.array([a]))[0] == method([a])[0]
    for bad in (0.0, 1.0, math.nan):
        with pytest.raises(ValueError):
            d.quantile(bad)
        with pytest.raises(ValueError):
            d.quantile(np.array([0.5, bad]))
    for seed in range(40):
        y = d.sample(Stream.from_seed(seed, 4), None)
        assert type(y) is float
        assert y == d.sample(Stream.from_seed(seed, 4), 1)[0]
    assert d.sample(Stream.from_seed(0), 0).shape == (0,)
