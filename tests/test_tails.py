"""Stationary tail predictions and the empirical tail report."""

import math

import numpy as np
import pytest

from maxdater import ModelSpec, Stream
from maxdater.dists import (
    Deterministic,
    DiscreteUniform,
    Exponential,
    Pareto,
    TruncatedParetoOne,
)
from maxdater.tails import (
    _WILSON_Z,
    NotPositiveRecurrent,
    Regime,
    detect_regime,
    empirical_tail,
    exp_tail_prediction,
    pareto_tail_prediction,
)

EXP_EXP = ModelSpec(Exponential(1.0), Exponential(1.0))


def test_wilson_z_is_scipys_normal_quantile():
    # a literal, so importing tails loads no scipy.stats; the stdlib's
    # NormalDist().inv_cdf(0.995) is one ulp off and would move report bytes
    from scipy.stats import norm

    assert _WILSON_Z == float(norm.ppf(0.995))


# ---------------------------------------------------------- predictions


def test_exp_prediction_closed_forms():
    # unit-rate exponential arrivals: Laplace transform at 1 is 1/2, so
    # the geometric sum doubles the service tail
    x = np.array([4.0, 5.0, 6.0])
    got = exp_tail_prediction(Exponential(1.0), 1.0, 1.0, x)
    assert np.allclose(got, 2.0 * np.exp(-x), rtol=1e-14)
    got = exp_tail_prediction(Deterministic(1.0), 1.0, 1.0, 3.0)
    assert got == pytest.approx(math.exp(-3.0) / (1.0 - math.exp(-1.0)), rel=1e-14)


def test_exp_prediction_large_mu_limit():
    # a steep service tail makes later arrival epochs irrelevant: the
    # multiplier 1/(1 - laplace(mu)) falls to 1; evaluating at x = 1/mu
    # pins the exponential factor at e^-1
    for mu, tol in ((10.0, 0.11), (100.0, 0.011), (1000.0, 0.0011)):
        pred = exp_tail_prediction(Exponential(1.0), 1.0, mu, 1.0 / mu)
        assert abs(pred / math.exp(-1.0) - 1.0) < tol


def test_exp_prediction_validation():
    with pytest.raises(ValueError):
        exp_tail_prediction(Exponential(1.0), 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        exp_tail_prediction(Exponential(1.0), 1.0, -2.0, 1.0)


def test_pareto_prediction_closed_forms():
    assert pareto_tail_prediction(1.0, 1.0, 2.5, 100.0) == pytest.approx(
        (1.0 / 1.5) * 100.0 ** -1.5, rel=1e-14)
    assert pareto_tail_prediction(2.0, 1.0, 2.0, 10.0) == pytest.approx(0.05,
                                                                        rel=1e-14)


def test_pareto_prediction_clamped_and_monotone():
    assert pareto_tail_prediction(1.0, 1.0, 2.5, 1e-6) == 1.0
    x = np.geomspace(1.0, 1e6, 30)
    p = pareto_tail_prediction(1.0, 1.0, 2.5, x)
    assert np.all(np.diff(p) < 0)
    assert p[-1] < 1e-8


def test_pareto_prediction_validation():
    with pytest.raises(ValueError):
        pareto_tail_prediction(1.0, 1.0, 1.0, 10.0)
    with pytest.raises(ValueError):
        pareto_tail_prediction(math.inf, 1.0, 2.5, 10.0)
    with pytest.raises(ValueError):
        pareto_tail_prediction(1.0, -1.0, 2.5, 10.0)


# --------------------------------------------------------------- regime


def test_detect_regime_table():
    regime, p = detect_regime(EXP_EXP)
    assert regime is Regime.EXP and p == {"delta": 1.0, "mu": 1.0}
    regime, p = detect_regime(ModelSpec(Exponential(1.0), Pareto(2.5, 2.0)))
    assert regime is Regime.PARETO
    assert p["delta"] == pytest.approx(2.0 ** 2.5, rel=1e-14)
    assert p["alpha"] == 2.5 and p["mean_t"] == 1.0
    # heavy service with tail index at or below 1: no prediction family
    regime, _ = detect_regime(ModelSpec(Exponential(1.0), Pareto(0.8, 1.0)))
    assert regime is Regime.NOT_APPLICABLE
    # infinite-mean arrivals break the heavy-tail constant
    regime, _ = detect_regime(ModelSpec(Pareto(0.5, 1.0), Pareto(2.5, 1.0)))
    assert regime is Regime.NOT_APPLICABLE
    regime, _ = detect_regime(
        ModelSpec(Deterministic(1.0), DiscreteUniform((1.0, 2.0, 3.0))))
    assert regime is Regime.NOT_APPLICABLE


# ------------------------------------------------------- empirical tail


def test_empirical_tail_refuses_transient():
    m = ModelSpec(Deterministic(1.0), TruncatedParetoOne(2.0, 2.0))
    with pytest.raises(NotPositiveRecurrent):
        empirical_tail(m, grid=[1.0], samples=100, horizon=100,
                       stream=Stream.from_seed(0))


def test_empirical_tail_requires_stream_and_valid_grid():
    with pytest.raises(ValueError):
        empirical_tail(EXP_EXP, grid=[1.0], samples=100, horizon=100)
    st = Stream.from_seed(0)
    with pytest.raises(ValueError):
        empirical_tail(EXP_EXP, grid=[2.0, 1.0], samples=100, horizon=100,
                       stream=st)
    with pytest.raises(ValueError):
        empirical_tail(EXP_EXP, grid=[-1.0, 2.0], samples=100, horizon=100,
                       stream=st)


def test_empirical_tail_light_service():
    rep = empirical_tail(EXP_EXP, grid=[3.0, 4.0], samples=50_000,
                         horizon=500, stream=Stream.from_seed(1))
    assert rep.regime is Regime.EXP
    assert np.all(np.diff(rep.predicted) < 0)
    assert np.all((rep.lo <= rep.empirical) & (rep.empirical <= rep.hi))
    assert np.all((0.85 <= rep.ratio) & (rep.ratio <= 1.15))
    assert rep.residual_bound < 1e-6


def test_empirical_tail_heavy_service():
    m = ModelSpec(Exponential(1.0), Pareto(2.5, 1.0))
    rep = empirical_tail(m, grid=[20.0, 40.0], samples=50_000,
                         horizon=300, stream=Stream.from_seed(2))
    assert rep.regime is Regime.PARETO
    assert np.all((0.7 <= rep.ratio) & (rep.ratio <= 1.3))


def test_empirical_tail_without_prediction():
    # no prediction family, but the empirical side still works and can be
    # checked against the enumerated stationary law: P(X > 2) = 1/3
    m = ModelSpec(Deterministic(1.0), DiscreteUniform((1.0, 2.0, 3.0)))
    rep = empirical_tail(m, grid=[2.0], samples=30_000, horizon=100,
                         stream=Stream.from_seed(3))
    assert rep.regime is Regime.NOT_APPLICABLE
    assert rep.predicted is None and rep.ratio is None
    se = math.sqrt((1.0 / 3.0) * (2.0 / 3.0) / 30_000)
    assert abs(rep.empirical[0] - 1.0 / 3.0) <= 3.0 * se


def test_empirical_tail_auto_grid():
    rep = empirical_tail(EXP_EXP, samples=20_000, horizon=300,
                         stream=Stream.from_seed(4), points=6)
    assert len(rep.grid) >= 1
    assert np.all(np.diff(rep.grid) > 0)
    assert np.all(np.diff(rep.empirical) <= 0)
    # the grid spans the far tail, so counts are small but present
    assert rep.empirical[0] <= 0.02


def test_empirical_tail_accepts_precomputed_classification():
    from maxdater.classify import classify
    rep = empirical_tail(EXP_EXP, grid=[3.0], samples=5_000, horizon=200,
                         stream=Stream.from_seed(5),
                         classification=classify(EXP_EXP))
    assert rep.samples == 5_000


def test_empirical_tail_thread_count_invisible():
    a = empirical_tail(EXP_EXP, grid=[3.0, 4.0], samples=8_192, horizon=200,
                       stream=Stream.from_seed(6), threads=1)
    b = empirical_tail(EXP_EXP, grid=[3.0, 4.0], samples=8_192, horizon=200,
                       stream=Stream.from_seed(6), threads=4)
    assert np.array_equal(a.empirical, b.empirical)
    assert np.array_equal(a.lo, b.lo)
