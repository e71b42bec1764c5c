"""Forward recursion: exactness, coupling, and the single-server twin."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from maxdater import ModelSpec, Stream, simulate_path, simulate_gg1
from maxdater import engine
from maxdater.classify import occupation_estimate
from maxdater.regen import find_params, renewal_tests
from maxdater.dists import Deterministic, DiscreteUniform, Distribution, Exponential, Pareto
from maxdater.engine import (
    _forward,
    coupling_time,
    driving_draws,
    gg1_from_draws,
    path_from_draws,
)

from support import RecordingLaw, forward_oracle, lindley_oracle, model_catalogue


def test_deterministic_paths():
    m = ModelSpec(Deterministic(1.0), Deterministic(2.0))
    p = simulate_path(m, 10.0, 3, Stream.from_seed(0))
    assert p.x.tolist() == [10.0, 9.0, 8.0, 7.0]
    p = simulate_path(m, 0.0, 3, Stream.from_seed(0))
    assert p.x.tolist() == [0.0, 2.0, 2.0, 2.0]
    p = simulate_path(m, 4.0, 0, Stream.from_seed(0))
    assert p.x.tolist() == [4.0]
    assert p.arrivals.tolist() == [0.0]


def test_path_invariants_on_catalogue():
    for name, m in model_catalogue():
        p = simulate_path(m, 3.0, 200, Stream.from_seed(17))
        assert np.array_equal(p.x, forward_oracle(3.0, p.t, p.s)), name
        assert np.all(np.diff(p.arrivals) > 0), name
        np.testing.assert_allclose(p.arrivals[1:], np.cumsum(p.t), rtol=0, atol=0)
        assert np.all(p.x[1:] >= p.s), name
        assert np.all(p.x >= 0), name


def test_monotone_in_start_and_coupling():
    for name, m in model_catalogue():
        t, s = driving_draws(m, 300, 300, Stream.from_seed(23))
        lo = path_from_draws(0.0, t, s)
        hi = path_from_draws(7.0, t, s)
        assert np.all(hi.x >= lo.x), name
        tau = coupling_time(7.0, hi.arrivals)
        if tau is not None:
            assert np.array_equal(hi.x[tau:], lo.x[tau:]), name
            # strictly before tau the start still shows through the max
            assert hi.x[tau - 1] >= lo.x[tau - 1], name


def test_coupling_time_values():
    arrivals = np.arange(0.0, 8.0)  # T_n = n
    assert coupling_time(5.0, arrivals) == 6
    assert coupling_time(0.0, arrivals) == 1
    assert coupling_time(10.0, np.arange(0.0, 6.0)) is None


def test_gg1_paths():
    up = ModelSpec(Deterministic(1.0), Deterministic(2.0))
    g = simulate_gg1(up, 0.0, 3, Stream.from_seed(0))
    assert g.w.tolist() == [0.0, 1.0, 2.0, 3.0]
    assert g.gamma.tolist() == [0.0, 1.0, 2.0, 3.0]
    assert g.m.tolist() == [0.0, 1.0, 2.0, 3.0]
    down = ModelSpec(Deterministic(2.0), Deterministic(1.0))
    g = simulate_gg1(down, 0.0, 3, Stream.from_seed(0))
    assert g.w.tolist() == [0.0, 0.0, 0.0, 0.0]
    assert g.m.tolist() == [0.0, 0.0, 0.0, 0.0]
    assert g.gamma.tolist() == [0.0, -1.0, -2.0, -3.0]


def test_gg1_invariants_random():
    m = ModelSpec(Exponential(1.0), Pareto(2.5, 1.0))
    g = simulate_gg1(m, 2.0, 400, Stream.from_seed(31))
    xi = g.s - g.t[1:]
    assert np.array_equal(g.w, lindley_oracle(2.0, xi))
    np.testing.assert_allclose(g.gamma[1:], np.cumsum(xi), rtol=0, atol=0)
    assert g.gamma[0] == 0.0
    assert np.array_equal(g.m, np.maximum.accumulate(np.maximum(g.gamma, 0.0)))
    assert len(g.t) == len(g.s) + 1


def test_same_draw_layout_for_both_queues():
    # both recursions see the identical service/inter-arrival draws when
    # fed from equal streams
    m = ModelSpec(Exponential(1.0), Exponential(2.0))
    p = simulate_path(m, 0.0, 50, Stream.from_seed(77))
    t2, s2 = driving_draws(m, 50, 50, Stream.from_seed(77))
    assert np.array_equal(p.t, t2)
    assert np.array_equal(p.s, s2)


_INTEGER_LAWS = st.one_of(
    st.integers(1, 6).map(lambda v: Deterministic(float(v))),
    st.lists(st.integers(1, 8), min_size=1, max_size=4).map(
        lambda vs: DiscreteUniform(tuple(float(v) for v in vs))))


@given(t=_INTEGER_LAWS, s=_INTEGER_LAWS, seed=st.integers(0, 2**31))
@settings(max_examples=100, deadline=None)
def test_infinite_server_state_never_exceeds_single_server_workload(t, s, seed):
    # on common draws the largest residual service at arrival k is at most
    # the single-server workload just after it, W_{k-1} + s_k, with equality
    # at k = 1; integer-valued laws make every sum exact
    n = 2_000
    ta, sa = driving_draws(ModelSpec(t, s), n + 1, n, Stream.from_seed(seed))
    x = path_from_draws(0.0, ta[:n], sa).x
    bound = gg1_from_draws(0.0, ta, sa).w[:-1] + sa
    assert np.all(x[1:] <= bound)
    assert x[1] == bound[0]


def test_input_validation():
    m = ModelSpec(Exponential(1.0), Exponential(1.0))
    with pytest.raises(ValueError):
        simulate_path(m, -1.0, 5, Stream.from_seed(0))
    with pytest.raises(ValueError):
        simulate_path(m, 0.0, -1, Stream.from_seed(0))
    with pytest.raises(ValueError):
        simulate_gg1(m, -0.5, 5, Stream.from_seed(0))
    with pytest.raises(ValueError):
        path_from_draws(0.0, np.ones(3), np.ones(4))
    with pytest.raises(ValueError):
        gg1_from_draws(0.0, np.ones(3), np.ones(3))


@given(seed=st.integers(0, 2**31), x0=st.floats(0, 100))
@settings(max_examples=50, deadline=None)
def test_reproducible_paths(seed, x0):
    m = ModelSpec(Exponential(1.0), Pareto(2.5, 1.0))
    a = simulate_path(m, x0, 40, Stream.from_seed(seed))
    b = simulate_path(m, x0, 40, Stream.from_seed(seed))
    assert np.array_equal(a.x, b.x)


# ------------------------------------------------- batched forward stepper


@given(case=st.sampled_from(model_catalogue()), rows=st.integers(1, 5),
       steps=st.integers(1, 40), block_elems=st.integers(1, 64),
       seed=st.integers(0, 2**31), x0=st.floats(0, 20))
@settings(max_examples=150, deadline=None)
def test_forward_stepper_rows_match_oracle(case, rows, steps, block_elems, seed, x0):
    # small blocks split the horizon into several pieces
    name, m = case
    t_law, s_law = RecordingLaw(m.interarrival), RecordingLaw(m.service)
    old = engine._BLOCK_ELEMS
    engine._BLOCK_ELEMS = block_elems
    try:
        pieces = list(_forward(ModelSpec(t_law, s_law), np.full(rows, x0), steps,
                               Stream.from_seed(seed)))
    finally:
        engine._BLOCK_ELEMS = old
    x = np.concatenate([p[0] for p in pieces], axis=1)
    arrivals = np.concatenate([p[1] for p in pieces], axis=1)
    t, s = t_law.rows(), s_law.rows()
    assert x.shape == arrivals.shape == t.shape == s.shape == (rows, steps)
    for r in range(rows):
        assert np.array_equal(x[r], forward_oracle(x0, t[r], s[r])[1:]), name
        np.testing.assert_allclose(arrivals[r], np.cumsum(t[r]), rtol=1e-12)


@given(rows=st.integers(1, 6), cols=st.integers(1, 50), seed=st.integers(0, 2**31))
@settings(max_examples=100, deadline=None)
def test_epochs_overwrite_the_piece_with_the_same_bits(rows, cols, seed):
    # the epochs take the piece's own buffer: the same cumulative sum and
    # the same addition as into a new array
    gen = np.random.default_rng(seed)
    t, offset = gen.exponential(size=(rows, cols)), gen.exponential(size=rows) * 100
    want = np.cumsum(t, axis=1) + offset[:, None]
    piece = t.copy()
    got = engine._epochs(piece, offset)
    assert got is piece
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    # a column slice of a wider piece, as the whole-block scans pass
    wide = np.concatenate([t, t], axis=1)
    assert np.array_equal(engine._epochs(wide[:, :cols], offset).view(np.int64),
                          want.view(np.int64))
    assert np.array_equal(wide[:, cols:], t)


def test_batched_paths_draw_whole_pieces(monkeypatch):
    # sample calls grow with the number of (paths, block) pieces, not with
    # the number of steps
    calls = []
    sample = Distribution.sample
    monkeypatch.setattr(Distribution, "sample",
                        lambda law, *a: calls.append(1) or sample(law, *a))
    m = ModelSpec(Exponential(1.0), Exponential(1.0))
    occupation_estimate(m, 0.0, 1.0, 5000, 4, Stream.from_seed(0))
    assert len(calls) == 2 * 4  # four one-row chunks, one piece each
    calls.clear()
    params = find_params(m)
    renewal_tests(m, params, 1000, 20_000, Stream.from_seed(0))
    assert len(calls) < 2000  # stepping per step would make millions


# ---------------------------------------------------- order statistics
#
# numpy's quantile, median and unique are the oracle: the helpers must give
# their bits, dtype and shape on NaN-free values >= 0.  A small pool of
# levels makes ties, and inf entries make inf - inf in the interpolation.

_LEVEL = st.one_of(st.sampled_from([0.0, 1.0, 2.5, np.inf]),
                   st.floats(min_value=0.0, max_value=1e300))


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


def _check_order_stats(values, qs):
    with np.errstate(invalid="ignore"):  # inf - inf, in numpy as here
        _same_bits(engine._quantiles(values, qs), np.quantile(values, qs))
        sums = values.reshape(len(values), -1)
        _same_bits(engine._median0(sums), np.median(sums, axis=0))
        _same_bits(engine._unique(values), np.unique(values))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 300), st.sampled_from([1, 2, 3]), st.data())
def test_order_stats_are_numpys_bits(n, cols, data):
    values = np.asarray(data.draw(st.lists(_LEVEL, min_size=n * cols, max_size=n * cols)))
    qs = data.draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))
    for q in (qs, [0.5, 0.9, 0.99], [0.99, 0.9999], [0.0, 1.0]):
        _check_order_stats(values, q)
    # the (reps, grid points) sums the tail series take a median over
    sums = values.reshape(n, cols)
    _same_bits(engine._median0(sums), np.median(sums, axis=0))


@pytest.mark.parametrize("n", [100_000, 99_999])
def test_order_stats_are_numpys_bits_on_large_samples(n):
    gen = np.random.default_rng(n)
    values = np.round(gen.exponential(size=n), 2)  # many ties
    _check_order_stats(values, [0.5, 0.9, 0.99, 0.9999])
    values[gen.integers(0, n, size=50)] = np.inf
    _check_order_stats(values, [0.5, 0.9, 0.99, 0.9999, 1.0])
    sums = values.reshape(-1, 3 if n % 3 == 0 else 1)
    _same_bits(engine._median0(sums), np.median(sums, axis=0))


@given(st.lists(st.integers(0, 50), min_size=1, max_size=300))
def test_unique_of_integer_grids_is_numpys(steps):
    # the log grids are rounded, non-decreasing int64 arrays
    grid = np.cumsum(np.asarray(steps, dtype=np.int64))
    _same_bits(engine._unique(grid), np.unique(grid))


@st.composite
def _geometric_grids(draw):
    """Rounded geometric integer grids of 2 to 200 points, as the slope test
    fits over a decade of the series grid and the residual fit over the
    back half of a horizon (both ``engine._int_grid``).  Grids start at
    most at 10**4, the last decade of the default n_max: numpy's own
    rounding error grows with log(lo) over the grid's log span, and at lo
    near 10**6 with span 2 it comes within 0.9 of the tolerance below."""
    lo = draw(st.integers(1, 10**4))
    span = draw(st.sampled_from([2.0, 10.0]) | st.floats(2.0, 1e4))
    points = draw(st.integers(2, 200))
    return engine._unique(np.round(np.geomspace(lo, lo * span, points)).astype(np.int64))


@settings(max_examples=300, deadline=None)
@given(_geometric_grids(), st.data())
def test_fit_line_is_numpys_least_squares_line(grid, data):
    x = np.log(grid)
    y = np.asarray(data.draw(st.lists(st.floats(-700.0, 700.0), min_size=len(x),
                                      max_size=len(x))))
    slope, intercept = engine._fit_line(x, y)
    want = np.polyfit(x, y, 1)
    tol = 1e-12 * (1.0 + np.max(np.abs(y)))
    assert abs(slope - want[0]) <= tol and abs(intercept - want[1]) <= tol
    # and, closer, the line of the same doubles in exact rational arithmetic
    xs, ys = [Fraction(v) for v in x], [Fraction(v) for v in y]
    xm, ym = sum(xs) / len(xs), sum(ys) / len(ys)
    exact = (sum((a - xm) * (b - ym) for a, b in zip(xs, ys))
             / sum((a - xm) ** 2 for a in xs))
    assert abs(slope - float(exact)) <= tol / 100
    assert abs(intercept - float(ym - exact * xm)) <= tol / 100
