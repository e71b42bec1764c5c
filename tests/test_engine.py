"""Forward recursion: exactness, coupling, and the single-server twin."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from maxdater import ModelSpec, Stream, simulate_path, simulate_gg1
from maxdater import engine
from maxdater.classify import occupation_estimate
from maxdater.loynes import tv_discrepancy
from maxdater.regen import find_params, renewal_tests
from maxdater.dists import Deterministic, Distribution, Exponential, Pareto
from maxdater.engine import (
    _forward,
    coupling_time,
    driving_draws,
    gg1_from_draws,
    lindley_step,
    maxdater_step,
    path_from_draws,
)

from support import RecordingLaw, forward_oracle, lindley_oracle, model_catalogue

pos = st.floats(min_value=1e-3, max_value=1e6, allow_nan=False)


def test_step_values():
    assert maxdater_step(5, 2, 4) == 4
    assert maxdater_step(0, 1, 3) == 3
    assert maxdater_step(10, 1, 2) == 9
    assert lindley_step(0, 1, 2) == 0
    assert lindley_step(3, 2, 1) == 4
    assert lindley_step(1, 1, 5) == 0


@given(x=st.floats(0, 1e6), t=pos, s=pos)
@settings(max_examples=500, deadline=None)
def test_step_matches_definition(x, t, s):
    assert maxdater_step(x, t, s) == max(x - t, s)
    assert lindley_step(x, s, t) == max(x + s - t, 0.0)


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
    tv_discrepancy(m, 1.0, 50, 10_000, Stream.from_seed(0))
    assert len(calls) == 2 * 2 * 64  # two samples of 64 chunks
    calls.clear()
    params = find_params(m)
    renewal_tests(m, params, 1000, 20_000, Stream.from_seed(0))
    assert len(calls) < 2000  # stepping per step would make millions
