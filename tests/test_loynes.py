"""Backward construction, truncated stationary sampling and the window
identity."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from maxdater import ModelSpec, Stream, engine, loynes
from maxdater.dists import (
    Deterministic,
    DiscreteUniform,
    Exponential,
    Mixture,
    Pareto,
    Uniform,
)
from maxdater.engine import _passing_steps
from maxdater.engine import _BLOCK_ELEMS
from maxdater.loynes import (
    _PILOT,
    DivergenceSuspected,
    _backward,
    _residual_grid,
    stationary_batch,
    stationary_sample,
    stationary_window,
)
from maxdater.streams import chunk_plan, run_chunked

from support import (
    RecordingLaw,
    backward_maxdater,
    backward_oracle,
    enumerate_discrete_stationary,
    ks_pvalue,
    mginf_cdf,
    model_catalogue,
    piecewise_backward_oracle,
)

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
                    for h in (3, 10, 100, 2000, 5000, 50_000)]
            assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_residual_bound_light_tail():
    # below the absorbing scan's bound (344 steps for 200 clocks to pass
    # Exp(1)'s largest draw) the horizon scan fits the residual; at 2000
    # the batch is exact
    m = ModelSpec(Exponential(1.0), Exponential(1.0))
    batch = stationary_batch(m, 300, 200, Stream.from_seed(5))
    assert not batch.exact
    assert 0.0 <= batch.residual_bound < 1e-6
    batch = stationary_batch(m, 2000, 200, Stream.from_seed(5))
    assert batch.exact
    assert batch.residual_bound == 0.0


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


# ------------------------------------------------------- backward kernel

UNBOUNDED = [ModelSpec(Exponential(1.0), Exponential(1.0)),
             ModelSpec(Exponential(1.0), Pareto(2.5, 1.0)),
             ModelSpec(Pareto(0.5, 1.0), Pareto(0.8, 1.0))]


def _recorded_backward(m, rows, seed, horizon, **kw):
    """The kernel's output, its inter-arrival draws row by row, its service
    draws with each piece padded to the width of the inter-arrival piece
    drawn before it, and the count of service draws it made.  The padding
    is the service law's largest draw, so the oracles see the worst case in
    every column the kernel drew no service for."""
    log = []
    t_law, s_law = RecordingLaw(m.interarrival, log), RecordingLaw(m.service, log)
    got = _backward(ModelSpec(t_law, s_law), rows, Stream.from_seed(seed), horizon, **kw)
    padded = []
    for (law, t), (after, s) in zip(log, log[1:] + [(None, None)]):
        if law is t_law:
            padded.append(np.full(t.shape, m.service.largest_draw()))
            if after is s_law:
                padded[-1][:, :s.shape[1]] = s
    drawn = sum(s.size for s in s_law.pieces)
    return got, t_law.rows(), np.concatenate(padded, axis=1), drawn


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
        (best, last_rec, tail_sums), t, s, drawn = _recorded_backward(
            m, rows, seed, horizon, grid=grid)
        one_piece = engine._block(rows, horizon) == horizon
    finally:
        engine._BLOCK_ELEMS = old
    assert t.shape == (rows, horizon) and drawn <= t.size
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


# deterministic arrivals on a binary grid and a few service values: equal
# terms are common, so the first-occurrence rule for records is exercised
TIES = [ModelSpec(Deterministic(1.0), DiscreteUniform((1.0, 2.0, 3.0))),
        ModelSpec(Deterministic(0.5), DiscreteUniform((1.0, 4.0, 8.0)))]


def _piecewise_records(m, rows, horizon, block_elems, seed):
    """The kernel's (best, last_rec) over pieces of at most ``block_elems``
    draws, the piece width and the draws it used."""
    old = engine._BLOCK_ELEMS
    engine._BLOCK_ELEMS = block_elems
    try:
        (best, last_rec, _), t, s, _ = _recorded_backward(
            m, rows, seed, horizon, grid=np.arange(1, horizon + 1))
        width = engine._block(rows, horizon)
    finally:
        engine._BLOCK_ELEMS = old
    return best, last_rec, width, t, s


@given(m=st.sampled_from(UNBOUNDED + TIES), rows=st.integers(1, 4),
       horizon=st.integers(1, 60), block_elems=st.integers(1, 40),
       seed=st.integers(0, 2**31))
@settings(max_examples=150, deadline=None)
def test_backward_kernel_records_across_pieces(m, rows, horizon, block_elems, seed):
    # best and last record are bitwise the piece-wise oracle's, whatever the
    # piece boundaries, ties included
    best, last_rec, width, t, s = _piecewise_records(m, rows, horizon, block_elems, seed)
    for r in range(rows):
        want_best, want_last = piecewise_backward_oracle(s[r], t[r], horizon, width)
        assert best[r].tobytes() == np.float64(want_best).tobytes()
        assert last_rec[r] == want_last


def test_backward_kernel_ties_take_the_first_record():
    # equal terms across piece boundaries: the record is the first of them
    m = TIES[0]
    best, last_rec, width, t, s = _piecewise_records(m, 40, 12, 40 * 2, 21)
    assert width == 2
    tied = 0
    for r in range(40):
        terms = s[r] - np.concatenate([[0.0], np.cumsum(t[r])[:-1]])
        hits = np.nonzero(terms == terms.max())[0]
        if terms.max() > 0:
            assert last_rec[r] == hits[0] + 1 and best[r] == terms.max()
            tied += len(hits) > 1 and hits[0] // width != hits[-1] // width
    assert tied > 0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_backward_kernel_stopped_rows_keep_their_order(seed):
    # one piece of 8 columns: rows whose clocks pass the largest service
    # draw 8 stop, the rest run to the horizon, and each row's best and last
    # record are bitwise those of the same draws with a grid, where no row
    # stops (one piece draws the same uniforms either way)
    m, rows, b = ModelSpec(Uniform(0.5, 1.5), Uniform(0.0, 8.0)), 200, 8
    clock = np.cumsum(m.interarrival.sample(Stream.from_seed(seed), (rows, b)), axis=1)[:, -1]
    stops = clock >= m.service.largest_draw()
    assert 0 < stops.sum() < rows
    best, last_rec, _ = _backward(m, rows, Stream.from_seed(seed), b, block=b)
    want_best, want_rec, _ = _backward(m, rows, Stream.from_seed(seed), b, block=b,
                                       grid=np.array([b]))
    assert len(np.unique(last_rec[stops])) > 1 and len(np.unique(last_rec[~stops])) > 1
    assert np.array_equal(best.view(np.int64), want_best.view(np.int64))
    assert np.array_equal(last_rec, want_rec)


def test_backward_kernel_peak_memory():
    # timing-free: one (512, 1000) piece holds its two draw pieces and the
    # epochs; terms and records are built without more piece-sized arrays
    m, rows, horizon = ModelSpec(Exponential(1.0), Exponential(1.0)), 512, 1000
    grid = _residual_grid(horizon)
    assert engine._block(rows, horizon) == horizon
    _backward(m, rows, Stream.from_seed(3), horizon, grid=grid)
    tracemalloc.start()
    try:
        _backward(m, rows, Stream.from_seed(3), horizon, grid=grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * rows * horizon * 8


def test_backward_kernel_holds_two_pieces():
    # timing-free: the uniforms are made in place and the epochs overwrite
    # the inter-arrival piece, so the two draw pieces are all that is held
    m, rows, horizon = ModelSpec(Exponential(1.0), Exponential(1.0)), 512, 1000
    grid = _residual_grid(horizon)
    _backward(m, rows, Stream.from_seed(3), horizon, grid=grid)
    tracemalloc.start()
    try:
        _backward(m, rows, Stream.from_seed(3), horizon, grid=grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.3 * rows * horizon * 8


@given(horizon=st.integers(1, 200), seed=st.integers(0, 2**31))
@settings(max_examples=100, deadline=None)
def test_backward_kernel_whole_blocks_stop_at_supremum(horizon, seed):
    # one path in whole 16-wide blocks stops once its clock passes the
    # service supremum 2; the draws it used give the oracle's value
    m = ModelSpec(Exponential(1.0), Uniform(0.0, 2.0))
    (best, _, _), t, s, _ = _recorded_backward(m, 1, seed, horizon, block=16)
    assert t.shape[1] % 16 == 0
    used = min(horizon, t.shape[1])
    assert used == horizon or np.sum(t[0, :used]) >= 2.0 - 1e-12
    want = backward_oracle(s[0], t[0], used)[-1]
    assert best[0] == want if used <= 16 else best[0] == pytest.approx(want, rel=1e-12)


def test_backward_kernel_draws_services_only_until_the_largest_draw():
    # timing-free: in the (781, 1000) Exp/Exp pieces of a 50,000-row batch,
    # every row's clock passes Exp(1)'s largest draw, 36.7, long before the
    # piece ends, and no service is drawn past that column
    m, rows, horizon = ModelSpec(Exponential(1.0), Exponential(1.0)), 781, 1000
    assert engine._block(rows, horizon) == horizon
    (best, last_rec, _), t, s, drawn = _recorded_backward(
        m, rows, 3, horizon, grid=_residual_grid(horizon))
    assert t.shape == s.shape == (rows, horizon)
    assert drawn <= 0.1 * t.size
    for r in range(rows):
        want_best, want_last = piecewise_backward_oracle(s[r], t[r], horizon, horizon)
        assert best[r].tobytes() == np.float64(want_best).tobytes()
        assert last_rec[r] == want_last


@pytest.mark.parametrize("block", [None, 16])
def test_backward_kernel_unreachable_largest_draw_draws_every_service(block):
    # Pareto(0.0518), the smallest index built at scale 1, draws up to
    # 1.008e308, so no clock passes its largest draw and every column gets
    # its service
    m = ModelSpec(Exponential(1.0), Pareto(0.0518, 1.0))
    assert 1e308 < m.service.largest_draw() < math.inf
    _, t, _, drawn = _recorded_backward(m, 3, 4, 100, block=block,
                                        grid=_residual_grid(100))
    assert drawn == t.size >= 3 * 100


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


# ------------------------------------------- absorbing at the largest draw

EXP_EXP = ModelSpec(Exponential(1.0), Exponential(1.0))


def _passing_bound(m, rows):
    return _passing_steps(m, m.service.largest_draw(), rows, "", "")[0]


def test_light_tail_batch_matches_the_closed_form():
    # Exp/Exp: M/G/inf, whose stationary workload has cdf
    # (1 - e^-x) exp(-e^-x) (the newest job's service, and the residuals
    # of the older ones at the points of a unit Poisson process)
    batch = stationary_batch(EXP_EXP, 1000, 100_000, Stream.from_seed(40))
    assert batch.exact and batch.residual_bound == 0.0
    cdf = lambda x: (1.0 - np.exp(-x)) * np.exp(-np.exp(-x))
    assert stats.kstest(batch.values, cdf).pvalue > 0.01


def test_absorbing_scan_matches_the_closed_form():
    # the scan itself, which Poisson arrivals no longer reach through
    # stationary_batch, chunked as the batch ran it
    parts = run_chunked(lambda st, start, count: _backward(
        EXP_EXP, count, st, math.inf, block=64)[0], 100_000, Stream.from_seed(40))
    cdf = lambda x: (1.0 - np.exp(-x)) * np.exp(-np.exp(-x))
    assert stats.kstest(np.concatenate(parts), cdf).pvalue > 0.01


# every finite-mean law of the catalogue as service under Poisson arrivals,
# each inside the absorbing gate at horizon 1,000
POISSON = {
    "exponential": ModelSpec(Exponential(1.0), Exponential(0.7)),
    "uniform": ModelSpec(Exponential(2.0), Uniform(0.0, 2.0)),
    "deterministic": ModelSpec(Exponential(1.0), Deterministic(1.5)),
    "discrete_uniform": ModelSpec(Exponential(1.5), DiscreteUniform((0.5, 1.0, 1.0, 3.0))),
    "pareto": ModelSpec(Exponential(1.0), Pareto(10.0, 1.0)),
    "mixture": ModelSpec(Exponential(2.0), Mixture((
        (0.5, Exponential(3.0)),
        (0.5, Mixture(((0.4, Uniform(0.0, 2.0)), (0.6, Deterministic(1.5)))))))),
}


@pytest.mark.parametrize("name", POISSON)
def test_poisson_route_draws_the_mginf_law(name, monkeypatch):
    m = POISSON[name]

    def no_scan(*args, **kwargs):
        raise AssertionError("Poisson arrivals took the absorbing scan")

    monkeypatch.setattr(loynes, "_backward", no_scan)
    batch = stationary_batch(m, 1000, 100_000, Stream.from_seed(50))
    assert batch.exact and batch.residual_bound == 0.0
    assert ks_pvalue(batch.values, lambda x: mginf_cdf(m, x)) > 0.01


@pytest.mark.parametrize("name", ["exponential", "mixture"])
def test_poisson_route_draw_layout(name):
    # chunk i draws s_1, then one uniform piece per leaf of the service law
    # in component order, from stream.child(i)
    def leaves(d, rate):  # (rate, law) of each leaf, rates split as mixtures split them
        if isinstance(d, Mixture):
            return [leaf for w, c in d.components for leaf in leaves(c, rate * w)]
        return [(rate, d)]

    m, reps, stream = POISSON[name], 1000, Stream.from_seed(51)
    want = []
    for i, (_, count) in enumerate(chunk_plan(reps)):
        st = stream.child(i)
        x = m.service.sample(st, count)
        for rate, d in leaves(m.service, m.interarrival.rate):
            x = np.maximum(x, d._excess_quantile(-np.log(st.uniform_open(count)) / rate))
        want.append(x)
    got = stationary_batch(m, 1000, reps, stream).values
    assert got.tobytes() == np.concatenate(want).tobytes()


@pytest.mark.parametrize("name", ["exponential", "mixture"])
def test_poisson_route_thread_count_invariance(name):
    m = POISSON[name]
    runs = [stationary_batch(m, 1000, 5000, Stream.from_seed(52), threads=t).values
            for t in (1, 2, 4)]
    assert runs[0].tobytes() == runs[1].tobytes() == runs[2].tobytes()


@pytest.mark.parametrize("m", [
    ModelSpec(Uniform(0.5, 1.5), Exponential(0.7)),
    ModelSpec(Deterministic(1.0), Exponential(1.0)),
    ModelSpec(Exponential(2.0),
              Mixture(((0.5, Exponential(3.0)), (0.5, Exponential(1.0))))),
], ids=["unif_exp", "det_exp", "exp_mixexp"])
def test_light_tail_batch_matches_the_horizon_scan(m):
    # the absorbing route against the plain horizon-1,000 scan, which runs
    # every row to the horizon: given a grid, no row stops early
    reps = 20_000
    batch = stationary_batch(m, 1000, reps, Stream.from_seed(41))
    assert batch.exact and _passing_bound(m, reps) <= 1000
    scan = _backward(m, reps, Stream.from_seed(42), 1000, grid=np.array([1000]))[0]
    assert stats.ks_2samp(batch.values, scan).pvalue > 0.01


@pytest.mark.parametrize("m", [EXP_EXP, ModelSpec(Exponential(2.0), Exponential(3.0))],
                         ids=["exp_exp", "exp2_exp3"])
def test_route_flips_at_the_passing_bound(m):
    reps = 200
    n = _passing_bound(m, reps)
    below = stationary_batch(m, n - 1, reps, Stream.from_seed(43))
    at = stationary_batch(m, n, reps, Stream.from_seed(43))
    assert not below.exact and at.exact and at.residual_bound == 0.0
    assert at.horizon == n


def test_heavy_tail_keeps_the_horizon_scan():
    # Pareto(2.5)'s largest draw, 2.4e6, is far past a horizon-2000 clock:
    # the batch is the horizon scan's, chunk for chunk
    m = ModelSpec(Exponential(1.0), Pareto(2.5, 1.0))
    assert m.service.largest_draw() > 2e6
    batch = stationary_batch(m, 2000, 500, Stream.from_seed(44))
    assert not batch.exact
    grid = _residual_grid(2000)
    parts = run_chunked(lambda st, start, count: _backward(m, count, st, 2000, grid=grid)[0],
                        500, Stream.from_seed(44))
    assert np.concatenate(parts).tobytes() == batch.values.tobytes()


def test_route_needs_a_positive_median():
    # no passing bound without a positive inter-arrival median: unbounded
    # service falls back to the horizon scan instead of raising
    m = ModelSpec(_StubArrivals(0.0, 1.0), Exponential(1.0))
    batch = stationary_batch(m, 50, 10, Stream.from_seed(0))
    assert not batch.exact and np.all(batch.values > 0.0)


def _single_construction(m, horizon, stream):
    return _backward(m, 1, stream, horizon, block=_BLOCK_ELEMS >> 8)[0][0]


@pytest.mark.parametrize("m", [m for _, m in model_catalogue()],
                         ids=[name for name, _ in model_catalogue()])
def test_stationary_sample_is_one_construction_and_the_pilot_residual(m):
    # the value is the single construction on the second child, bit for
    # bit; the residual is the pilot batch's on the first, and either both
    # raise DivergenceSuspected or neither does
    for horizon in (1, 10, 64, 1000):
        stream = Stream.from_seed(horizon)
        try:
            resid = stationary_batch(m, horizon, _PILOT, stream.child(0)).residual_bound
        except DivergenceSuspected:
            with pytest.raises(DivergenceSuspected):
                stationary_sample(m, horizon, stream)
            continue
        value, got = stationary_sample(m, horizon, stream)
        assert value.hex() == float(_single_construction(m, horizon, stream.child(1))).hex()
        assert got.hex() == float(resid).hex()


@pytest.mark.parametrize("m, horizon", [
    (ModelSpec(Deterministic(1.0), DiscreteUniform((1.0, 2.0, 3.0))), 64),
    (ModelSpec(Exponential(1.0), Uniform(0.0, 2.0)), 1),
    (EXP_EXP, 1000),  # unbounded, within the passing bound of 100 clocks
], ids=["det_du", "exp_unif", "exp_exp"])
def test_stationary_sample_runs_no_pilot_on_exact_routes(m, horizon, monkeypatch):
    def no_pilot(*args, **kwargs):
        raise AssertionError("the pilot batch ran on an exact route")

    monkeypatch.setattr(loynes, "stationary_batch", no_pilot)
    stream = Stream.from_seed(7)
    value = _single_construction(m, horizon, stream.child(1))
    assert stationary_sample(m, horizon, stream) == (value, 0.0)


def test_backward_kernel_frees_the_carried_epochs():
    # timing-free: a one-row scan over three 2**20-wide pieces carries one
    # epoch, not the piece it came from, into the next piece, and lets go of
    # the last piece's epochs and terms before drawing the next.  Pareto
    # inverts its uniforms in place; with a view of the carried epoch the
    # scan held 4.0 pieces at the next service draw, with the copy 3.0, and
    # with the last piece freed 2.0.
    m, piece = ModelSpec(Exponential(1.0), Pareto(2.5, 1.0)), 1 << 20
    assert engine._block(1, 3 * piece) == piece
    _backward(m, 1, Stream.from_seed(3), 3 * piece)
    tracemalloc.start()
    try:
        _backward(m, 1, Stream.from_seed(3), 3 * piece)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.3 * piece * 8

