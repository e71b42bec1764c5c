"""Regeneration windows: parameter choice, the post-regeneration law,
detection on paths, and renewal estimates."""

import math

import numpy as np
import pytest
from scipy import stats

from maxdater import ModelSpec, Stream
from maxdater.dists import (
    Deterministic,
    Exponential,
    Pareto,
    TruncatedParetoOne,
    Uniform,
)
from maxdater.engine import simulate_path
from maxdater.regen import (
    RegenParams,
    detect,
    find_params,
    phi_sample,
    renewal_tests,
)
from maxdater.regen import _phi_batch

from support import model_catalogue

DET_DET = ModelSpec(Deterministic(1.0), Deterministic(2.0))
EXP_EXP = ModelSpec(Exponential(1.0), Exponential(1.0))


# ------------------------------------------------------------ parameters


def test_find_params_det_arrivals():
    p = find_params(ModelSpec(Deterministic(1.0), Exponential(1.0)))
    assert p.w0 == pytest.approx(math.log(2.0), rel=1e-12)
    assert p.m0 == 1
    assert p.p_gap == 1.0
    p = find_params(DET_DET)
    assert p.w0 == 2.0
    assert p.m0 == 3  # T_2 = 2 fails the strict inequality, T_3 = 3 clears it


def test_find_params_erlang_window():
    # oracle: with unit-rate exponential arrivals the epoch T_m is
    # Erlang(m), so the window survival P(T_m > 4) is gamma.sf(4, m);
    # m = 4 sits below 1/2 and m = 5 clears it with margin
    assert stats.gamma.sf(4.0, a=4) < 0.5
    p5 = stats.gamma.sf(4.0, a=5)
    assert p5 == pytest.approx(0.6288369351798734, rel=1e-12)
    p = find_params(ModelSpec(Exponential(1.0), Pareto(0.5, 1.0)))
    assert p.w0 == 4.0  # median of the alpha = 1/2 unit-scale power law
    assert p.m0 == 5
    assert abs(p.p_gap - p5) < 3.0 * math.sqrt(p5 * (1 - p5) / 100_000)


def test_params_meet_probability_floors():
    for name, m in model_catalogue():
        p = find_params(m)
        assert p.p_service >= 0.5, name
        assert p.p_gap >= 0.5, name
        assert m.service.cdf(p.w0) >= 0.5 - 1e-12, name


class _StubArrivals:
    """Inter-arrival law that reports ``median`` but draws ``draw``."""

    def __init__(self, median, draw):
        self.median, self.draw = median, draw

    def quantile(self, p):
        return self.median

    def sample(self, stream, size):
        return np.full(size, self.draw)


def test_find_params_window_bound_names_the_median():
    # w0 = 4 and median 1 bound the search at 4 (4 + ceil(ln(1e5 * 1e12)))
    # = 176 windows; draws of 1e-9 never reach w0
    with pytest.raises(RuntimeError, match="up to 176 .* below their median 1.0"):
        find_params(ModelSpec(_StubArrivals(1.0, 1e-9), Uniform(0.0, 8.0)))
    with pytest.raises(ValueError, match="positive inter-arrival median"):
        find_params(ModelSpec(_StubArrivals(0.0, 1.0), Uniform(0.0, 8.0)))
    # drawing at its median the stub passes w0 = 4 after 5 draws
    assert find_params(ModelSpec(_StubArrivals(1.0, 1.0), Uniform(0.0, 8.0))).m0 == 5


def test_find_params_repeatable():
    a = find_params(EXP_EXP)
    b = find_params(EXP_EXP)
    assert a == b


# ------------------------------------------------------- phi rejection


def test_phi_sample_deterministic_window():
    params = find_params(DET_DET)
    for seed in range(5):
        assert phi_sample(DET_DET, params, Stream.from_seed(seed)) == 2.0


def test_acceptance_rate_meets_half():
    # the accept event is the window gap clearing w0, so its rate is
    # p_gap; measure it from raw arrival draws
    n = 10_000
    for name, m in model_catalogue():
        params = find_params(m)
        stream = Stream.from_seed(99)
        t = m.interarrival.sample(stream, (n, params.m0))
        rate = float(np.mean(t.sum(axis=1) > params.w0))
        se = math.sqrt(0.25 / n)
        assert rate >= 0.5 - 3.0 * se, name


def test_phi_rounds_bounded_by_gap_probability():
    # a window whose gap never clears w0, against a p_gap that claims it
    # does 9 times in 10
    params = RegenParams(m0=1, w0=1e9, p_service=0.5, p_gap=0.9)
    with pytest.raises(RuntimeError, match=r"P\(T_m0 > w0\) is below p_gap"):
        _phi_batch(EXP_EXP, params, 100, Stream.from_seed(0))
    with pytest.raises(ValueError, match="p_gap"):
        _phi_batch(EXP_EXP, RegenParams(m0=1, w0=0.5, p_service=0.5, p_gap=0.0),
                   100, Stream.from_seed(0))


def test_phi_matches_conditioned_simulation():
    # oracle: simulate the window directly and condition by hand
    m = EXP_EXP
    params = find_params(m)
    stream = Stream.from_seed(7)
    n = 20_000
    t = m.interarrival.sample(stream, (n, params.m0))
    s = m.service.sample(stream, (n, params.m0))
    x = np.zeros(n)
    for j in range(params.m0):
        x = np.maximum(x - t[:, j], s[:, j])
    direct = x[t.sum(axis=1) > params.w0]
    drawn = _phi_batch(m, params, 10_000, Stream.from_seed(8))
    res = stats.ks_2samp(direct, drawn)
    assert res.pvalue > 0.01


# ------------------------------------------------------------ detection


def test_detect_deterministic_path():
    params = RegenParams(m0=3, w0=2.0, p_service=1.0, p_gap=1.0)
    path = simulate_path(DET_DET, 0.0, 12, Stream.from_seed(0))
    trace = detect(path, params)
    assert trace.taus.tolist() == [3, 6, 9, 12]
    assert trace.r.all()
    # spacing is exactly one window in the bounded deterministic model
    assert np.all(np.diff(trace.taus) == 3)


def test_detect_waits_for_drain():
    # started high, the workload needs nine steps to fall to w0, so the
    # first full window with a low start ends at 12
    params = RegenParams(m0=3, w0=2.0, p_service=1.0, p_gap=1.0)
    path = simulate_path(DET_DET, 10.0, 15, Stream.from_seed(0))
    trace = detect(path, params)
    assert trace.taus.tolist() == [12, 15]


def test_detect_short_path_empty():
    params = RegenParams(m0=3, w0=2.0, p_service=1.0, p_gap=1.0)
    path = simulate_path(DET_DET, 0.0, 2, Stream.from_seed(0))
    trace = detect(path, params)
    assert trace.taus.size == 0
    assert trace.r.size == 0


def test_detect_recheck_oracle():
    # every emitted time satisfies both defining predicates, and every
    # window satisfying them is emitted
    m = EXP_EXP
    params = find_params(m)
    for seed in range(5):
        path = simulate_path(m, 0.0, 600, Stream.from_seed(seed))
        trace = detect(path, params)
        emitted = set(trace.taus.tolist())
        for k in range(1, 600 // params.m0 + 1):
            end = k * params.m0
            start = end - params.m0
            hit = (path.x[start] <= params.w0
                   and path.arrivals[end] - path.arrivals[start] > params.w0)
            assert (end in emitted) == hit


# ------------------------------------------------------------- renewal


def test_renewal_deterministic_exact():
    params = find_params(DET_DET)
    out = renewal_tests(DET_DET, params, 1000, 300, Stream.from_seed(1))
    assert np.all(out.u_hat == 1.0)
    assert out.cesaro == 1.0
    assert out.cycle_mean == float(params.m0)
    assert out.frac_no_regen == 0.0
    assert out.sum_u == float(len(out.u_hat))


def test_renewal_positive_recurrent_case():
    params = find_params(EXP_EXP)
    out = renewal_tests(EXP_EXP, params, 2000, 200, Stream.from_seed(2))
    assert out.frac_no_regen == 0.0
    assert math.isfinite(out.cycle_mean)
    assert out.cesaro > 0.1
    assert out.u_hat[0] == 1.0
    assert np.all((out.u_hat >= 0.0) & (out.u_hat <= 1.0))
    assert out.sum_u == pytest.approx(out.cesaro * len(out.u_hat))


def test_renewal_transient_case_censors():
    m = ModelSpec(Deterministic(1.0), TruncatedParetoOne(2.0, 2.0))
    params = find_params(m)
    out = renewal_tests(m, params, 1000, 10_000, Stream.from_seed(3))
    assert out.frac_no_regen > 0.5
    assert out.cycle_mean == math.inf


def test_renewal_thread_count_invisible():
    params = find_params(EXP_EXP)
    a = renewal_tests(EXP_EXP, params, 1024, 100, Stream.from_seed(4), threads=1)
    b = renewal_tests(EXP_EXP, params, 1024, 100, Stream.from_seed(4), threads=4)
    assert np.array_equal(a.u_hat, b.u_hat)
    assert a.cycle_mean == b.cycle_mean


def test_renewal_preconditions():
    params = find_params(EXP_EXP)
    with pytest.raises(ValueError):
        renewal_tests(EXP_EXP, params, 999, 100, Stream.from_seed(0))
    with pytest.raises(ValueError):
        renewal_tests(EXP_EXP, params, 1000, params.m0 - 1, Stream.from_seed(0))


def test_first_regen_state_has_phi_law():
    # the defining property of regeneration: the workload at tau_1 is a
    # fresh phi draw; compare phi-started paths' states at their first
    # regeneration against direct phi draws
    m = EXP_EXP
    params = find_params(m)
    reps = 3000
    vals = np.empty(reps)
    kept = 0
    for i in range(reps):
        st = Stream.from_seed(10_000 + i)
        x0 = phi_sample(m, params, st.child(0))
        path = simulate_path(m, x0, 60, st.child(1))
        trace = detect(path, params)
        if trace.taus.size:
            vals[kept] = path.x[trace.taus[0]]
            kept += 1
    assert kept > 0.9 * reps
    drawn = _phi_batch(m, params, 10_000, Stream.from_seed(5))
    res = stats.ks_2samp(vals[:kept], drawn)
    assert res.pvalue > 0.01
