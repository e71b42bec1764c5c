"""Backward construction, truncated stationary sampling, window identity,
and the total-variation check."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from maxdater import ModelSpec, Stream, engine
from maxdater.dists import (
    Deterministic,
    DiscreteUniform,
    Exponential,
    Pareto,
    Uniform,
)
from maxdater.loynes import (
    DivergenceSuspected,
    _backward,
    backward_maxdater,
    stationary_batch,
    stationary_sample,
    stationary_window,
    tv_discrepancy,
)

from support import RecordingLaw, backward_oracle, enumerate_discrete_stationary

DIVERGENT = ModelSpec(Pareto(0.8, 1.0), Pareto(0.5, 1.0))


def test_backward_hand_cases():
    b = backward_maxdater(np.array([3.0, 5.0, 1.0]), np.array([2.0, 2.0, 2.0]), 3)
    assert b.values.tolist() == [3.0, 3.0, 3.0]
    assert b.terms.tolist() == [3.0, 3.0, -3.0]
    b = backward_maxdater(np.array([1.0, 10.0]), np.array([2.0, 2.0]), 2)
    assert b.values.tolist() == [1.0, 8.0]
    b = backward_maxdater(np.array([4.5]), np.array([1.0]), 1)
    assert b.values.tolist() == [4.5]


arrays = st.lists(st.floats(0.01, 50.0), min_size=1, max_size=40)


@given(s=arrays, t=arrays)
@settings(max_examples=200, deadline=None)
def test_backward_matches_quadratic_oracle(s, t):
    n = min(len(s), len(t))
    got = backward_maxdater(np.array(s), np.array(t), n)
    want = backward_oracle(s, t, n)
    assert np.array_equal(got.values, want)
    assert np.all(np.diff(got.values) >= 0)
    assert got.values[0] == s[0]


def test_backward_validates():
    with pytest.raises(ValueError):
        backward_maxdater(np.ones(2), np.ones(2), 0)
    with pytest.raises(ValueError):
        backward_maxdater(np.ones(2), np.ones(0), 2)


def test_bounded_service_is_exact():
    m = ModelSpec(Deterministic(1.0), Deterministic(2.0))
    for horizon in (1, 7, 500):
        value, resid = stationary_sample(m, horizon, Stream.from_seed(2))
        assert value == 2.0
        assert resid == 0.0
    batch = stationary_batch(m, 100, 64, Stream.from_seed(3))
    assert batch.exact
    assert np.all(batch.values == 2.0)
    assert batch.residual_bound == 0.0


def test_discrete_stationary_law():
    law = enumerate_discrete_stationary(1.0, [1.0, 2.0, 3.0])
    assert law == {1.0: 2 / 9, 2.0: 4 / 9, 3.0: 1 / 3}
    m = ModelSpec(Deterministic(1.0), DiscreteUniform((1.0, 2.0, 3.0)))
    batch = stationary_batch(m, 50, 20_000, Stream.from_seed(4))
    assert batch.exact
    for v, p in law.items():
        freq = float(np.mean(batch.values == v))
        se = math.sqrt(p * (1 - p) / len(batch.values))
        assert abs(freq - p) <= 3 * se


def test_monotone_in_horizon_shared_seed():
    models = [
        ModelSpec(Exponential(1.0), Exponential(1.0)),
        ModelSpec(Exponential(1.0), Pareto(2.5, 1.0)),
        ModelSpec(Uniform(0.5, 1.5), Uniform(0.0, 2.0)),
        ModelSpec(Pareto(0.5, 1.0), Pareto(0.8, 1.0)),
    ]
    for m in models:
        for seed in range(5):
            vals = [stationary_sample(m, h, Stream.from_seed(seed))[0]
                    for h in (3, 10, 100, 2000)]
            assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_residual_bound_light_tail():
    m = ModelSpec(Exponential(1.0), Exponential(1.0))
    batch = stationary_batch(m, 2000, 200, Stream.from_seed(5))
    assert not batch.exact
    assert 0.0 <= batch.residual_bound < 1e-6


def test_divergence_trips_on_heavy_service():
    with pytest.raises(DivergenceSuspected) as info:
        stationary_batch(DIVERGENT, 100_000, 100, Stream.from_seed(6))
    assert info.value.fraction >= 0.5
    assert info.value.horizon == 100_000
    # and can be disabled for diagnostics
    batch = stationary_batch(DIVERGENT, 20_000, 50, Stream.from_seed(6),
                             check_divergence=False)
    assert batch.record_fraction > 0.5


def test_divergence_quiet_on_stable_models():
    for m in (ModelSpec(Exponential(1.0), Exponential(1.0)),
              ModelSpec(Pareto(0.5, 1.0), Pareto(0.8, 1.0))):
        batch = stationary_batch(m, 100_000, 100, Stream.from_seed(7))
        assert batch.record_fraction < 0.2


def test_batch_thread_count_invariance():
    m = ModelSpec(Exponential(1.0), Pareto(2.5, 1.0))
    a = stationary_batch(m, 300, 5000, Stream.from_seed(8), threads=1)
    b = stationary_batch(m, 300, 5000, Stream.from_seed(8), threads=4)
    assert np.array_equal(a.values, b.values)
    assert a.residual_bound == b.residual_bound


def test_window_one_step_identity_bitwise():
    for m in (ModelSpec(Exponential(1.0), Exponential(1.0)),
              ModelSpec(Exponential(1.0), Pareto(2.5, 1.0)),
              ModelSpec(Deterministic(1.0), DiscreteUniform((1.0, 2.0, 3.0)))):
        w = stationary_window(m, 256, 80, Stream.from_seed(9))
        assert w.coupled.all()
        b = w.back_horizon
        for e in range(255):
            want = max(w.window[e] - w.t[e + 1 + b], w.s[e + 1 + b])
            assert w.window[e + 1] == want


def test_window_det_constant():
    m = ModelSpec(Deterministic(1.0), Deterministic(2.0))
    w = stationary_window(m, 16, 10, Stream.from_seed(10))
    assert np.all(w.window == 2.0)


def test_window_matches_stationary_law():
    m = ModelSpec(Exponential(1.0), Exponential(1.0))
    w = stationary_window(m, 1000, 60, Stream.from_seed(11))
    batch = stationary_batch(m, 60, 1000, Stream.from_seed(12))
    # window entries are serially dependent; thin to soften that before the
    # two-sample comparison
    res = stats.ks_2samp(w.window[::5], batch.values)
    assert res.pvalue > 0.01


def test_window_divergence():
    with pytest.raises(DivergenceSuspected):
        stationary_window(DIVERGENT, 64, 3000, Stream.from_seed(13))
    with pytest.raises(ValueError):
        stationary_window(DIVERGENT, 1, 10, Stream.from_seed(13))


def test_tv_same_law_cases():
    # deterministic arrivals, x0 below T_3: the bound is exactly zero and
    # the start state cannot show through
    m = ModelSpec(Deterministic(1.0), Exponential(1.0))
    rep = tv_discrepancy(m, 2.5, 3, 20_000, Stream.from_seed(14))
    assert rep.bound == 0.0
    assert rep.tv_estimate <= rep.null_floor + 3 * rep.null_sd
    # x0 = 0: both samples target the same chain
    m = ModelSpec(Exponential(1.0), Exponential(1.0))
    rep = tv_discrepancy(m, 0.0, 4, 20_000, Stream.from_seed(15))
    assert rep.tv_estimate <= rep.null_floor + 3 * rep.null_sd


def test_tv_bounded_by_coupling_probability():
    m = ModelSpec(Exponential(1.0), Exponential(1.0))
    rep = tv_discrepancy(m, 1.0, 5, 30_000, Stream.from_seed(16))
    assert 0.0 < rep.bound < 1.0
    assert rep.tv_estimate <= rep.bound + rep.null_floor + 3 * rep.null_sd
    with pytest.raises(ValueError):
        tv_discrepancy(m, 1.0, 5, 100, Stream.from_seed(16))


# ------------------------------------------------------- backward kernel

UNBOUNDED = [ModelSpec(Exponential(1.0), Exponential(1.0)),
             ModelSpec(Exponential(1.0), Pareto(2.5, 1.0)),
             ModelSpec(Pareto(0.5, 1.0), Pareto(0.8, 1.0))]


def _recorded_backward(m, rows, seed, horizon, **kw):
    t_law, s_law = RecordingLaw(m.interarrival), RecordingLaw(m.service)
    got = _backward(ModelSpec(t_law, s_law), rows, Stream.from_seed(seed), horizon, **kw)
    return got, t_law.rows(), s_law.rows()


@given(m=st.sampled_from(UNBOUNDED), rows=st.integers(1, 4),
       horizon=st.integers(1, 40), block_elems=st.integers(1, 160),
       seed=st.integers(0, 2**31))
@settings(max_examples=150, deadline=None)
def test_backward_kernel_rows_match_oracle(m, rows, horizon, block_elems, seed):
    # small pieces split the horizon, the last one cut to it
    grid = np.arange(1, horizon + 1)
    old = engine._BLOCK_ELEMS
    engine._BLOCK_ELEMS = block_elems
    try:
        (best, last_rec, tail_sums), t, s = _recorded_backward(
            m, rows, seed, horizon, grid=grid)
        one_piece = engine._block(rows, horizon) == horizon
    finally:
        engine._BLOCK_ELEMS = old
    assert t.shape == s.shape == (rows, horizon)
    sums = np.zeros(horizon)
    for r in range(rows):
        want = backward_oracle(s[r], t[r], horizon)
        records = np.nonzero(np.diff(want, prepend=0.0) > 0)[0]
        if one_piece:  # the same additions as the oracle
            assert best[r] == want[-1]
            assert last_rec[r] == (records[-1] + 1 if len(records) else 0)
        else:
            assert best[r] == pytest.approx(want[-1], rel=1e-12, abs=1e-12)
        sums += m.service.tail(np.cumsum(t[r]))
    np.testing.assert_allclose(tail_sums, sums, rtol=1e-9)


@given(horizon=st.integers(1, 200), seed=st.integers(0, 2**31))
@settings(max_examples=100, deadline=None)
def test_backward_kernel_whole_blocks_stop_at_supremum(horizon, seed):
    # one path in whole 16-wide blocks stops once its clock passes the
    # service supremum 2; the draws it used give the oracle's value
    m = ModelSpec(Exponential(1.0), Uniform(0.0, 2.0))
    (best, _, _), t, s = _recorded_backward(m, 1, seed, horizon, s_up=2.0, block=16)
    assert t.shape[1] % 16 == 0
    used = min(horizon, t.shape[1])
    assert used == horizon or np.sum(t[0, :used]) >= 2.0 - 1e-12
    want = backward_oracle(s[0], t[0], used)[-1]
    assert best[0] == want if used <= 16 else best[0] == pytest.approx(want, rel=1e-12)


class _StubArrivals:
    """Inter-arrival law that reports ``median`` but draws ``draw``."""

    def __init__(self, median, draw):
        self.median, self.draw = median, draw

    def quantile(self, p):
        return self.median

    def sample(self, stream, size):
        return np.full(size, self.draw)


def test_absorbing_scan_bound_names_the_median():
    with pytest.raises(ValueError, match="positive inter-arrival median"):
        stationary_batch(ModelSpec(_StubArrivals(0.0, 1.0), Uniform(0.0, 8.0)),
                         10, 10, Stream.from_seed(0))
    with pytest.raises(RuntimeError, match="draws below its median 1.0 more often than half the time"):
        stationary_batch(ModelSpec(_StubArrivals(1.0, 1e-9), Uniform(0.0, 8.0)),
                         10, 10, Stream.from_seed(0))
    # the same stub drawing at its median is absorbed well within the bound
    batch = stationary_batch(ModelSpec(_StubArrivals(1.0, 1.0), Uniform(0.0, 8.0)),
                             10, 10, Stream.from_seed(0))
    assert batch.exact and np.all(batch.values <= 8.0)
