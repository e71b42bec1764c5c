"""Distribution catalogue: exact values, inversion sampling, quadrature
cross-checks."""

import math
import re
import sys
import warnings
from dataclasses import fields
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
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
)

from support import (
    _density_pieces,
    decimal_cdf,
    decimal_pareto_truncated_mean,
    decimal_quantile,
    excess_mean_oracle,
    generalized_inverse_oracle,
    integrate_against,
    model_catalogue,
    truncated_mean_oracle,
    ulps_from,
)
from test_streams import _fixed_stream, _top_stream  # every uniform is one value

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
    # +inf passes every lower bound, but no law has it as a parameter, nor
    # an int that no double holds
    for x in (math.inf, math.nan, 10**400):
        for make in (Exponential, lambda x: Pareto(1.5, x), lambda x: Uniform(0.0, x),
                     lambda x: DiscreteUniform((1.0, x))):
            with pytest.raises(ValueError, match="must be finite"):
                make(x)
    # nor a law whose quantile at the top uniform 1 - 2**-53 overflows: at
    # scale 1 Pareto needs alpha > 53/1024
    for make in (lambda: Pareto(0.0517, 1.0), lambda: Pareto(0.01, 1.0),
                 lambda: Pareto(0.5, 1e300), lambda: Exponential(2e-307),
                 lambda: TruncatedParetoOne(1e300, 1e300)):
        with pytest.raises(ValueError, match=r"largest draw must be finite: .* 2\*\*1024"):
            make()
    assert math.isfinite(Pareto(0.0518, 1.0).largest_draw())


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
        assert got <= x + 1e-12
        m = d.mean()
        if math.isfinite(m):
            assert got <= m + 1e-12


# the laws with an _excess_quantile kernel: finite mean, not a mixture
EXCESS_LAWS = [d for d in CATALOGUE if not isinstance(d, Mixture) and math.isfinite(d.mean())]
EXCESS_LAWS += [DiscreteUniform((0.5, 1.0, 1.0, 3.0)), Pareto(10.0, 0.5)]


def test_excess_laws_cover_every_finite_mean_kind():
    assert {type(d) for d in EXCESS_LAWS} == set(dists.CATALOGUE.values()) - {
        Mixture, TruncatedParetoOne}


@given(d=st.sampled_from(EXCESS_LAWS),
       fracs=st.lists(st.floats(1e-6, 1.0, exclude_max=True), min_size=1, max_size=6),
       over=st.floats(1.0, 1e6))
@settings(max_examples=200, deadline=None)
def test_excess_quantile_inverts_the_mean_excess(d, fracs, over):
    # the least x >= 0 with E(Y - x)+ <= y: below E Y the mean excess at x,
    # integrated directly, is y, and x does not increase with y; from E Y
    # on it is 0.  The kernel leaves its input alone.
    mean = d.mean()
    y = np.sort(fracs) * mean
    kept = y.copy()
    x = d._excess_quantile(y)
    assert np.array_equal(y, kept)
    assert np.all(x >= 0.0) and np.all(np.diff(x) <= 0.0)
    for yi, xi in zip(y, x):
        assert excess_mean_oracle(d, xi) == pytest.approx(yi, rel=1e-9)
    assert np.all(d._excess_quantile(np.array([mean, mean * over])) == 0.0)


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


@pytest.mark.parametrize("d", CATALOGUE, ids=lambda d: type(d).__name__ + repr(d)[:30])
def test_tail_class_states_only_exact_tails(d):
    # above the infimum the tail is bitwise exp(-rate x) for a law with a
    # rate and (x / scale)**-alpha for one with a scale (scale / x at alpha
    # 1); mixtures and bounded laws state neither
    tc = d.tail_class()
    x = d.support()[0] + np.array([1e-9, 0.5, 1.0, 7.5, 40.0, 1e3, 1e30])
    if isinstance(d, Exponential):
        assert (tc.rate, tc.scale) == (d.rate, None)
        want = np.exp(-tc.rate * x)
    elif isinstance(d, (Pareto, TruncatedParetoOne)):
        assert tc.rate is None and tc.scale == getattr(d, "scale", getattr(d, "d1", None))
        want = tc.scale / x if isinstance(d, TruncatedParetoOne) else (x / tc.scale) ** -tc.alpha
    else:
        assert (tc.rate, tc.scale) == (None, None)
        return
    assert np.array_equal(d.tail(x).view(np.int64), want.view(np.int64))


def _breaks_by_class(d):
    """Quadrature breaks by law class: the steps k/n of a DiscreteUniform's
    quantile and the end of a TruncatedParetoOne's atom, where in (0, 1)."""
    out = set()
    if isinstance(d, DiscreteUniform):
        n = len(d.values)
        out.update(k / n for k in range(1, n))
    elif isinstance(d, TruncatedParetoOne):
        out.add(1.0 - d.d1 / d.x0)
    return sorted(p for p in out if 0.0 < p < 1.0)


@pytest.mark.parametrize("d", CATALOGUE + [
    DiscreteUniform((4.0,)), DiscreteUniform((3.0, 1.0, 2.0, 2.0, 5.0, 9.0, 0.5)),
    TruncatedParetoOne(1.0, 1.0 + 2.0 ** -52), TruncatedParetoOne(1e-300, 1e300)],
    ids=lambda d: type(d).__name__ + repr(d)[:30])
def test_quantile_breaks_are_the_class_rule(d):
    assert d.quantile_breaks() == _breaks_by_class(d)


_POWER_LAWS = st.one_of(
    st.builds(Pareto, st.floats(0.06, 50.0), st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e)),
    st.builds(lambda d1, over: TruncatedParetoOne(d1, d1 * over),
              st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e),
              st.just(1.0) | st.floats(1.0, 4.0)))


@given(d=_POWER_LAWS, k=st.floats(-15.0, 3.0))
@example(d=Pareto(1.5, 1.0), k=-15.0)
@example(d=Pareto(40.0, 1e-3), k=-15.0)
@example(d=Pareto(0.8, 2.0), k=-15.0)
@example(d=TruncatedParetoOne(1.0, 1.0), k=-15.0)
@settings(max_examples=500, deadline=None)
def test_power_law_cdf_keeps_its_digits_above_the_infimum(d, k):
    # 1 - z**-alpha cancels just above the infimum; the expm1/log1p form
    # stays within 4e-16 of the 40-digit value there and beyond
    lo = d.support()[0]
    x = lo * (1.0 + 10.0 ** k)
    assume(x > lo)
    want = decimal_cdf(d, x)
    assert abs(Decimal(d.cdf(x)) - want) <= Decimal("4e-16") * want


@pytest.mark.parametrize("d, x", [
    (TruncatedParetoOne(1e-200, 1e-200), 1e110),
    (Pareto(3.0, 1e-200), 1e110),
    (Pareto(0.0519, 1e-8), 1e301),  # the tail there is 9e-17, near an ulp of 1
], ids=["tpo", "pareto3", "pareto_least_alpha"])
def test_power_law_cdf_past_the_largest_ratio(d, x):
    # x / scale passes the largest double; the cdf stays within 4e-16 of the
    # 40-digit value with no RuntimeWarning, and is exactly 1 at inf
    assert math.log(x) - math.log(d.support()[0]) > math.log(sys.float_info.max)
    want = decimal_cdf(d, x)
    assert abs(Decimal(d.cdf(x)) - want) <= Decimal("4e-16") * want
    assert d.cdf(math.inf) == 1.0


@given(alpha=st.floats(0.06, 20.0).filter(lambda a: a != 1.0),
       log_scale=st.floats(-300.0, 300.0), log_ratio=st.floats(-15.0, 600.0))
@example(alpha=3.0, log_scale=200.0, log_ratio=2.0)
@example(alpha=3.0, log_scale=-200.0, log_ratio=202.0)
@example(alpha=0.5, log_scale=-200.0, log_ratio=310.0)
@settings(max_examples=500, deadline=None)
def test_pareto_truncated_mean_at_extreme_scales(alpha, log_scale, log_ratio):
    # scale**alpha, scale**(1 - alpha) and x / scale each leave the doubles
    # somewhere in this range; wherever the power (x / scale)**(1 - alpha)
    # is a double, the truncated mean stays within 1e-12 of the 40-digit
    # value, with no RuntimeWarning
    assume(log_scale + 16.0 / alpha < 300.0)  # the law is built
    d = Pareto(alpha, 10.0 ** log_scale)
    x = (d.scale * (1.0 + 10.0 ** log_ratio) if log_ratio < 300.0
         else 10.0 ** min(log_scale + log_ratio, 308.0))
    assume((1.0 - alpha) * (math.log(x) - math.log(d.scale)) < 709.0)
    want = decimal_pareto_truncated_mean(d, x)
    assert abs(Decimal(d.truncated_mean(x)) - want) <= Decimal("1e-12") * want


_INVERTING_LAWS = _POWER_LAWS | st.builds(
    Exponential, st.floats(-5.0, 5.0).map(lambda e: 10.0 ** e))


@given(d=_INVERTING_LAWS, p=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
@example(d=Exponential(1.0), p=1.0 - 2.0 ** -53)
@example(d=Pareto(0.074, 1.0), p=1.0 - 2.0 ** -53)
@example(d=TruncatedParetoOne(1.0, 2.0), p=0.5)
@settings(max_examples=1000, deadline=None)
def test_closed_form_quantiles_are_near_the_exact_inverse(d, p):
    # the float cdf saturates near p = 1, so "least double q with cdf(q) >=
    # p" cannot be checked against it; the exact inverse at 40 digits can.
    # log1p and the division round apart: Exponential within 2 ulps.
    # TruncatedParetoOne divides once: correctly rounded where 1 - p is
    # exact (p >= 1/2), within 2 ulps where it rounds.
    # Pareto rounds -1/alpha before the power, which scales that error by
    # |ln(1 - p)| / alpha: within 7 (1 + |ln(1 - p)| / alpha) ulps.
    err = ulps_from(d.quantile(p), decimal_quantile(d, p))
    if isinstance(d, Exponential):
        assert err <= 2.0
    elif isinstance(d, TruncatedParetoOne):
        assert err <= (0.5 if p >= 0.5 else 2.0)
    else:
        assert err <= 7.0 * (1.0 + abs(math.log1p(-p)) / d.alpha)


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
    m = Mixture(((0.99, Exponential(1.0)), (0.01, Pareto(0.5, 2.0 ** 198))))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        q = m.quantile(0.5)
    assert q == 0.7032995520239633
    assert m.cdf(q) >= 0.5 > m.cdf(np.nextafter(q, 0.0))


def test_mixture_quantile_follows_the_component_cdfs():
    # the bisection reads each component's cdf: at this p the Pareto
    # component's expm1/log1p form puts the quantile 7 ulps below where the
    # form 1 - z**-alpha put it (477.9081215193849)
    m = Mixture(((0.5, Exponential(1.0)), (0.5, Pareto(0.8, 2.0))))
    p = 0.9937436869423648
    assert m.quantile(p) == generalized_inverse_oracle(m, p) == 477.9081215193845


def test_mixture_quantile_near_the_largest_double():
    # Pareto(0.0518), the smallest index built at scale 1, draws up to
    # 1.008e308 at the top uniform; the mixture's top quantile is finite too
    m = Mixture(((0.5, Exponential(1.0)), (0.5, Pareto(0.0518, 1.0))))
    ps = np.array([0.5, 0.99, 1.0 - 2.0 ** -53])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        qs = m.quantile(ps)
    assert list(qs) == [generalized_inverse_oracle(m, p) for p in ps]
    assert 1e300 < qs[-1] < math.inf
    # rate * x overflows in the Exponential cdf on the way to 1e308
    m = Mixture(((0.5, Exponential(4.0)), (0.5, Deterministic(1e308))))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert m.quantile(1.0 - 2.0 ** -53) == 1e308


def test_mixture_quantile_keeps_shape():
    m = Mixture(((0.3, Exponential(2.0)), (0.7, Pareto(2.5, 1.0))))
    ps = np.array([[0.1, 0.5, 0.9], [0.2, 0.4, 0.999]])
    qs = m.quantile(ps)
    assert qs.shape == ps.shape
    assert np.array_equal(qs.ravel(), m.quantile(ps.ravel()))
    assert isinstance(m.quantile(0.5), float)
    assert m.quantile(np.array([])).shape == (0,)
    # each draw's result is its own, whatever else is searched with it
    big = Stream.from_seed(2).uniform_open(32771)
    assert np.array_equal(m.quantile(big),
                          np.concatenate([m.quantile(c) for c in np.array_split(big, 7)]))


def test_mixture_quantile_cdf_evaluations(monkeypatch):
    # timing-free guard on the cost of the search, on the benchmark mixture:
    # 63 halvings, each one cdf evaluation on the whole array
    sizes = []
    cdf = Exponential._cdf
    monkeypatch.setattr(Exponential, "_cdf", lambda self, x: sizes.append(np.size(x)) or cdf(self, x))
    n = 1 << 16
    m = Mixture(((0.7, Exponential(1.5)), (0.3, Pareto(1.5, 0.5))))
    m.quantile(Stream.from_seed(1, 2).uniform_open(n))
    assert sizes == [n] * 63


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

_ATOMS_ONLY = Mixture(((0.5, Deterministic(1.0)), (0.5, Deterministic(3.0))))


def _atoms(d):
    """{atom: mass} by the test oracle's decomposition of the law, with
    atoms that several components put at one point merged."""
    atoms = {}
    for x, mass in _density_pieces(d)[0]:
        atoms[x] = atoms.get(x, 0.0) + mass
    return atoms


@pytest.mark.parametrize("m", [
    _ATOMS_ONLY,
    Mixture(((0.3, DiscreteUniform((1.0, 2.0, 2.0))), (0.7, TruncatedParetoOne(1.0, 2.0)))),
    Mixture(((0.2, Deterministic(0.5)), (0.8, Mixture(((0.5, Deterministic(0.5)),
                                                         (0.5, Deterministic(7.0))))))),
    _ATOM_MIXTURE,
    Mixture(((0.25, Uniform(0.0, 2.0)), (0.25, DiscreteUniform((1.0, 2.0, 3.0))),
             (0.5, Exponential(1.0)))),
], ids=["two_atoms", "du_tpo", "nested_atoms", "atom_pareto", "atoms_continuous"])
def test_mixture_quantile_exact_at_atoms(m):
    # p at the cdf's value at each atom, at its left limit, and one ulp
    # either side of both: each falls in an atom's jump or just outside it,
    # where the cdf is flat and the search must still land on the least root
    ps = []
    for a in _atoms(m):
        for c in (m.cdf(a), m.cdf(np.nextafter(a, 0.0))):
            ps += [np.nextafter(c, 0.0), c, np.nextafter(c, 1.0)]
    ps = np.array([p for p in ps if 0.0 < p < 1.0])
    assert ps.size
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        qs = m.quantile(ps)
    want = np.array([generalized_inverse_oracle(m, p) for p in ps])
    assert np.array_equal(qs.view(np.int64), want.view(np.int64))
    # the oracle bisects as the search does, so check the definition too
    assert np.all(m.cdf(qs) >= ps)
    assert np.all(m.cdf(np.nextafter(qs, 0.0)) < ps)
    assert set(qs) >= set(_atoms(m))


# Mixtures of every catalogue kind, for the composition sampler: atoms of
# several components at one point (DiscreteUniform and TruncatedParetoOne at
# 3), weights whose left-to-right sum is not 1, and nested mixtures.
_SAMPLED_MIXTURES = {
    "every_kind": Mixture((
        (0.15, Exponential(1.0)),
        (0.15, Pareto(1.5, 2.0)),
        (0.1, Uniform(0.5, 4.0)),
        (0.1, Deterministic(2.5)),
        (0.15, DiscreteUniform((1.0, 2.0, 3.0))),
        (0.15, TruncatedParetoOne(1.0, 3.0)),
        (0.2, Mixture(((0.5, Deterministic(5.0)), (0.5, Exponential(0.5))))),
    )),
    "two_atoms": _ATOMS_ONLY,
    "tenths": Mixture(tuple((0.1, Deterministic(1.0 + i)) for i in range(10))),
    "deep": Mixture((
        (0.3, Mixture(((0.6, Uniform(0.0, 1.0)),
                       (0.4, Mixture(((0.5, Deterministic(0.25)), (0.5, Pareto(0.7, 1.0)))))))),
        (0.7, DiscreteUniform((2.0, 2.0, 5.0))),
    )),
    "benchmark": Mixture(((0.7, Exponential(1.5)), (0.3, Pareto(1.5, 0.5)))),
}


@pytest.mark.parametrize("seed, name", enumerate(_SAMPLED_MIXTURES))
def test_mixture_sample_law(seed, name):
    # chi-square of the draws at each atom, and of the rest, against the
    # masses of the oracle's decomposition; KS of the rest against the
    # continuous part of Mixture.cdf
    m = _SAMPLED_MIXTURES[name]
    n = 200_000
    vals = m.sample(Stream.from_seed(seed, 9), n)
    atoms = _atoms(m)
    xs = np.array(sorted(atoms))
    masses = np.array([atoms[x] for x in xs])
    at_atom = np.isin(vals, xs)
    counts = [np.count_nonzero(vals == x) for x in xs]
    rest_mass = 1.0 - masses.sum()
    if rest_mass > 1e-12:
        counts.append(n - np.count_nonzero(at_atom))
        masses = np.append(masses, rest_mass)
    else:
        assert np.all(at_atom)
    if len(counts) > 1:
        expected = n * masses / masses.sum()
        assert stats.chisquare(counts, expected).pvalue > 1e-3
    if rest_mass > 1e-12:
        # the atom mass at or below x, taken off the cdf
        mass_to = np.concatenate([[0.0], np.cumsum(masses[:xs.size])])

        def continuous_cdf(x):
            return (m.cdf(x) - mass_to[np.searchsorted(xs, x, side="right")]) / rest_mass

        assert stats.kstest(vals[~at_atom], continuous_cdf).pvalue > 1e-3


def test_mixture_sample_makes_no_cdf_call_and_two_draws_each(monkeypatch):
    # timing-free guard on composition: no cdf anywhere (the search made
    # about 14 evaluations a draw), one pick and one value uniform per draw
    calls = []
    for law in dists.CATALOGUE.values():
        monkeypatch.setattr(law, "_cdf", lambda self, x: calls.append(type(self)))
    draws = []
    uniform_open = Stream.uniform_open
    monkeypatch.setattr(Stream, "uniform_open",
                        lambda self, size=None: draws.append(np.size(uniform_open(self, size)))
                        or uniform_open(self, size))
    st = Stream.from_seed(3)
    for m in _SAMPLED_MIXTURES.values():
        for size in (None, 0, 1, 1000, (3, 700)):
            draws.clear()
            m.sample(st, size)
            assert draws == [1 if size is None else int(np.prod(size))] * 2
    assert calls == []


def test_mixture_sample_picks_by_the_cdf_weights():
    # the pick piece selects the first component whose left-to-right
    # cumulative weight is >= pick, the cdf's own steps; the top uniform
    # picks the last component, also through a nested mixture
    m = _SAMPLED_MIXTURES["tenths"]
    steps = np.array([m.cdf(1.0 + i) for i in range(10)])
    assert steps[-1] == 1.0
    top = 1.0 - 2.0 ** -53
    picks = np.concatenate([steps[:-1], np.nextafter(steps[:-1], 1.0), [top]])
    got = m._compose(picks, np.full(picks.size, 0.5))
    assert list(got) == [1.0 + i for i in range(9)] + [2.0 + i for i in range(9)] + [10.0]
    nested = Mixture(((0.3, Deterministic(1.0)),
                      (0.7, Mixture(((0.5, Deterministic(2.0)), (0.5, Deterministic(3.0)))))))
    assert nested._compose(np.array([0.3, np.nextafter(0.3, 1.0), 0.5, 0.9, top]),
                           np.full(5, 0.5)).tolist() == [1.0, 2.0, 2.0, 3.0, 3.0]


def _composed(m, pick, u):
    """Out of place, the draws ``Mixture._compose`` gives: searchsorted over
    the cumulative weights picks the component (past 1, the last), whose
    quantile gives the value; a nested mixture rescales the pick."""
    top = np.cumsum([w for w, _ in m.components])
    idx = np.minimum(np.searchsorted(top, pick), len(top) - 1)
    out = np.empty(u.shape)
    for i, (w, d) in enumerate(m.components):
        at = idx == i
        if isinstance(d, Mixture):
            out[at] = _composed(d, (pick[at] - (top[i - 1] if i else 0.0)) / w, u[at])
        else:
            out[at] = d.quantile(u[at])
    return out


@pytest.mark.parametrize("m", [_SAMPLED_MIXTURES["every_kind"], _SAMPLED_MIXTURES["deep"],
                               _ATOM_MIXTURE,
                               Mixture(tuple((1 / 300, Deterministic(1.0 + i)) for i in range(300)))],
                         ids=["every_kind", "deep", "atom_pareto", "300_atoms"])
def test_mixture_draws_are_composed_over_their_value_uniforms(m):
    # bit for bit the out-of-place composition of the same two uniform
    # pieces, at every shape; the values are written over the value piece
    for size in ((), 5000, (7, 900)):
        a, b = Stream.from_seed(11, 2), Stream.from_seed(11, 2)
        got = m.sample(a, size)
        pick, u = b.uniform_open(size), b.uniform_open(size)
        want = _composed(m, pick, u)
        assert np.shape(got) == np.shape(want)
        assert np.array_equal(np.asarray(got).view(np.int64), want.view(np.int64))
        assert np.shares_memory(m._compose(pick, u), u)


@pytest.mark.parametrize("d", [d for d in CATALOGUE if not isinstance(d, Mixture)],
                         ids=lambda d: type(d).__name__ + repr(d)[:30])
def test_non_mixture_draws_invert_one_piece(d):
    # every other law inverts one uniform piece per call, so its draws equal
    # the quantiles of the same stream's uniforms, scalars included
    a, b = Stream.from_seed(5, 1), Stream.from_seed(5, 1)
    for size in (None, 7, (2, 300), None):
        got = d.sample(a, size)
        want = d.quantile(b.uniform_open(size or 1).reshape(np.shape(got)))
        assert np.array_equal(np.asarray(got).view(np.int64), np.asarray(want).view(np.int64))


@pytest.mark.parametrize("rate", [1.0, 0.25, 3.0, 0.7, 1e-3])
def test_exponential_draws_are_its_quantiles(rate):
    # the sampler divides by -rate where quantile negates and divides by
    # rate; IEEE division is sign-symmetric, so the bits agree, also for
    # rates that are not powers of two
    d = Exponential(rate)
    a, b = Stream.from_seed(5, 3), Stream.from_seed(5, 3)
    for size in (None, (64, 300), 1000, (3, 1, 7)):
        got = d.sample(a, size)
        want = d.quantile(b.uniform_open(size or 1).reshape(np.shape(got)))
        assert np.shape(got) == np.shape(want)
        assert np.array_equal(np.asarray(got).view(np.int64), np.asarray(want).view(np.int64))


@given(alpha=st.one_of(st.sampled_from([0.5, 1.0, 2.0]), st.floats(0.054, 20.0)),
       scale=st.floats(1e-3, 1e3), seed=st.integers(0, 2**31))
@settings(max_examples=100, deadline=None)
def test_pareto_draws_are_its_quantiles(alpha, scale, seed):
    # the sampler raises 1 - u to its power in place; **= takes the same
    # scalar-power path as **, so the bits agree.  Indices down to 0.054
    # are built at every scale up to 1e3.
    d = Pareto(alpha, scale)
    for size in (None, (3, 200)):
        got = d.sample(Stream.from_seed(seed, 4), size)
        want = d._quantile(Stream.from_seed(seed, 4).uniform_open(size or 1))
        assert np.array_equal(np.atleast_1d(got).view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("d", CATALOGUE, ids=lambda d: type(d).__name__ + repr(d)[:30])
def test_quantile_leaves_its_input_alone(d):
    # sampling kernels may invert their own uniforms in place; quantile
    # holds the caller's array and must not
    p = Stream.from_seed(5, 2).uniform_open((3, 50))
    kept = p.copy()
    d.quantile(p)
    assert np.array_equal(p.view(np.int64), kept.view(np.int64))


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


# ---------------------------------------------------------- largest draw

# every kind at extreme parameters: quantiles at the top uniform from about
# 1e-300 up to just below the largest double: the largest built
_EXTREMES = [
    Exponential(1e-300),
    Exponential(1e300),
    Deterministic(1e-300),
    Deterministic(1e300),
    Pareto(0.0518, 1.0),
    Pareto(100.0, 1e-300),
    Pareto(0.5, 2e276),
    TruncatedParetoOne(1e-300, 1e-300),
    TruncatedParetoOne(1.9e292, 1.9e292),
    Uniform(0.0, 1e-300),
    Uniform(1e300, 1.5e300),
    DiscreteUniform((1e-300, 1.0, 1e300)),
    Mixture(((0.5, Exponential(1e-300)), (0.5, Pareto(0.0518, 1.0)))),
    Mixture(((0.3, Uniform(0.0, 2.0)),
             (0.7, Mixture(((0.5, Deterministic(1e300)), (0.5, Exponential(1.0))))))),
    Mixture(((1e-9, TruncatedParetoOne(1.9e292, 1.9e292)),
             (1.0 - 1e-9, Mixture(((0.5, Mixture(((1.0, Deterministic(3.0)),))),
                                   (0.5, DiscreteUniform((1.0, 2.0)))))))),
]


def _leaves(d):
    """The laws a mixture composes, nested mixtures opened up."""
    if isinstance(d, Mixture):
        for _, c in d.components:
            yield from _leaves(c)
    else:
        yield d


def _mixture_of(comps):
    total = math.fsum(w for w, _ in comps)
    return Mixture(tuple((w / total, law) for w, law in comps))


def _mixtures_of(laws):
    return st.lists(st.tuples(st.floats(0.05, 1.0), laws),
                    min_size=1, max_size=3).map(_mixture_of)


# catalogue and extreme laws, and mixtures of them nested up to three deep
_ANY_LAW = st.recursive(
    st.one_of(st.sampled_from(CATALOGUE + _EXTREMES), _mixture_laws()),
    _mixtures_of,
    max_leaves=6)


# the laws of the test models, too
_MODEL_LAWS = [d for _, m in model_catalogue() for d in (m.interarrival, m.service)]


@pytest.mark.parametrize("d", CATALOGUE + _EXTREMES + _MODEL_LAWS,
                         ids=lambda d: type(d).__name__ + repr(d)[:40])
def test_largest_draw_is_the_draw_at_the_top_uniform(d):
    # inversion is monotone in the uniform, so the top uniform gives the
    # largest draw exactly; composition picks the last component there and
    # draws at most the largest of all
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        top = d.largest_draw()
    assert type(top) is float and d.support()[0] <= top <= d.support()[1]
    got = d.sample(_top_stream(), (2, 3))
    if isinstance(d, Mixture):
        assert np.all(got <= top)
    else:
        assert np.array_equal(got, np.full((2, 3), top))


@given(m=_ANY_LAW.filter(lambda d: isinstance(d, Mixture)))
@settings(max_examples=100, deadline=None)
def test_mixture_largest_draw_is_its_components_max(m):
    want = max(leaf.quantile(1.0 - 2.0 ** -53) for leaf in _leaves(m))
    assert m.largest_draw() == want == max(d.largest_draw() for _, d in m.components)


@given(d=_ANY_LAW, seed=st.integers(0, 2**31))
@settings(max_examples=100, deadline=None)
def test_draws_never_exceed_the_largest_draw(d, seed):
    x = d.sample(Stream.from_seed(seed, 11), 500)
    assert np.all(x <= d.largest_draw())


# the edges of every bound: the least positive double, the least normal
# one, each side of the overflow bounds, and the largest double
_EDGES = (5e-324, 2.2250738585072014e-308, 2.05e-307, 1e-300, 0.0517, 0.0518, 1.0,
          53.0, 2e276, 1.9e292, 1e308, 1.7976931348623157e308)


@st.composite
def _edge_leaves(draw):
    """A law of each kind but Mixture with every field at an edge of its
    bound, where that law is built."""
    cls = draw(st.sampled_from([c for c in dists.CATALOGUE.values() if c is not Mixture]))
    args = []
    for f in fields(cls):
        bound = f.metadata["bound"]
        edges = st.sampled_from(_EDGES + ((0.0,) if bound.get("minimum") == 0.0 else ()))
        args.append(tuple(draw(st.lists(edges, min_size=1, max_size=3)))
                    if cls is DiscreteUniform else draw(edges))
    try:
        return cls(*args)
    except ValueError:  # beyond the overflow bound or a bound between fields
        assume(False)


@given(d=st.one_of(_edge_leaves(), _mixtures_of(st.one_of(_edge_leaves(),
                                                           _mixtures_of(_edge_leaves())))),
       seed=st.integers(0, 2**31))
@settings(max_examples=300, deadline=None)
def test_laws_at_their_edges_draw_finite_values_inside_the_support(d, seed):
    # random uniforms, then the smallest and the largest uniform_open gives;
    # the suite turns any RuntimeWarning into an error
    lo, hi = d.support()
    for stream in (Stream.from_seed(seed, 12), _fixed_stream(0.0), _top_stream()):
        x = d.sample(stream, 64)
        assert np.all(np.isfinite(x)), (d, x)
        assert np.all((lo <= x) & (x <= hi)), (d, x[(x < lo) | (x > hi)])


_BIGGEST = 1.7976931348623157e308
_TOP_LOG = -math.log1p(-(1.0 - 2.0 ** -53))  # 53 ln 2, Exponential's top at rate 1


@st.composite
def _near_overflow(draw):
    """(law, parameters) of an unbounded law within about 1% of the edge
    where its quantile at the top uniform overflows, log-uniformly, or
    within 64 ulps of it."""

    def near(edge):
        return edge * draw(st.one_of(
            st.floats(-0.01, 0.01).map(math.exp),
            st.integers(-64, 64).map(lambda k: 1.0 + k * 2.0 ** -52)))

    cls = draw(st.sampled_from([Exponential, Pareto, TruncatedParetoOne]))
    if cls is Exponential:
        return cls, (near(_TOP_LOG / _BIGGEST),)
    if cls is Pareto:  # below scale 1 the power overflows first
        log_scale = draw(st.floats(-1000.0, 1000.0))
        alpha = 53.0 / (1024.0 - max(log_scale, 0.0))
        if log_scale < 1.0:
            return cls, (near(alpha), 2.0 ** log_scale)
        return cls, (alpha, near(_BIGGEST / (2.0 ** -53) ** (-1.0 / alpha)))
    d1 = near(2.0 ** 971)
    return cls, (d1, min(d1 * 2.0 ** draw(st.floats(0.0, 60.0)), _BIGGEST))


def _log2_top(cls, args):
    """log2 of the largest value the top quantile's kernel reaches on the
    way, worked out in log space: the oracle for the overflow edge."""
    if cls is Exponential:
        return math.log2(_TOP_LOG) - math.log2(args[0])
    if cls is Pareto:
        alpha, scale = args
        return 53.0 / alpha + max(math.log2(scale), 0.0)
    return math.log2(args[0]) + 53.0  # d1 / 2**-53


def _assert_finite_top(d):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert math.isfinite(d.largest_draw()), d
        assert np.all(np.isfinite(d.sample(_top_stream(), 4))), d


def _built(law):
    try:
        return law[0](*law[1])
    except ValueError:
        return None


@given(law=_near_overflow())
@example(law=(Pareto, (0.0515, 1e-3)))  # log2(scale) + 53/alpha < 1024 < 53/alpha
# math's power times the scale is the largest double; where numpy's array
# power rounds 1 ulp above math's, as its AVX-512 kernel does at this alpha,
# the product overflows
@example(law=(Pareto, (1.9187112628491811, 8.698653657949532e+299)))
@settings(max_examples=500, deadline=None)
def test_only_laws_with_finite_top_draws_are_built(law):
    # construction bounds the top quantile with math, no numpy; whatever it
    # builds must draw finite values at the top uniform, and it refuses only
    # at the edge (its margin is 16 ulps) or past it
    excess = _log2_top(*law) - 1024.0
    try:
        d = law[0](*law[1])
    except ValueError as exc:
        assert re.fullmatch(r"largest draw must be finite: .* 2\*\*1024", str(exc)), exc
        assert excess > -1e-9, (law, excess)
        return
    assert excess < 1e-9, (law, excess)
    _assert_finite_top(d)


_NEAR_LEAF = _near_overflow().map(_built).filter(lambda d: d is not None)


@given(m=_mixtures_of(st.one_of(_NEAR_LEAF, _mixtures_of(_NEAR_LEAF))))
@settings(max_examples=100, deadline=None)
def test_mixtures_of_laws_near_overflow_draw_finite_tops(m):
    _assert_finite_top(m)


@st.composite
def _uniform_laws(draw):
    """Uniform(lo, hi) with lo up to 1e15 and widths from 1e3 lo down to
    1e-15 lo, or a few ulps of lo."""
    lo = draw(st.one_of(st.just(0.0), st.floats(1e-300, 1e15)))
    if lo > 0.0 and draw(st.booleans()):
        hi = lo
        for _ in range(draw(st.integers(1, 8))):
            hi = float(np.nextafter(hi, math.inf))
    else:
        hi = lo + max(lo, 1e-300) * 10.0 ** draw(st.floats(-15.0, 3.0))
    assume(hi > lo)
    return Uniform(lo, hi)


_POSITIVE = st.floats(1e-300, 1e300)
# laws of finite essential supremum, and mixtures of them
_BOUNDED_LAW = st.recursive(
    st.one_of(_uniform_laws(),
              st.lists(_POSITIVE, min_size=1, max_size=6).map(DiscreteUniform),
              _POSITIVE.map(Deterministic)),
    _mixtures_of,
    max_leaves=6)


@given(d=_BOUNDED_LAW)
@settings(max_examples=500, deadline=None)
def test_largest_draw_lies_in_the_support_of_bounded_laws(d):
    # the scans stop where every clock has passed largest_draw, so it must
    # not exceed the essential supremum
    lo, hi = d.support()
    assert math.isfinite(hi)
    assert lo <= d.largest_draw() <= hi
