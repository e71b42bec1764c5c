"""Phase classification: analytic pattern table, series diagnostics,
occupation counts, and the single-server comparison."""

import dataclasses
import importlib
import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from maxdater import ModelSpec, Stream, simulate_path
from maxdater.classify import (
    ClassifierConfig,
    SeriesDiagnostic,
    SeriesVerdict,
    Source,
    Verdict,
    WalkVerdict,
    _j_finite,
    _j_value,
    analytic_phase,
    classify,
    compare_queues,
    erickson,
    occupation_estimate,
    recurrence_series,
    tail_series,
    transience_series,
)
from maxdater.dists import (
    Deterministic,
    DiscreteUniform,
    Distribution,
    Exponential,
    Mixture,
    Pareto,
    TruncatedParetoOne,
    Uniform,
)
from maxdater.loynes import DivergenceSuspected, stationary_batch, stationary_sample

from support import j_value_oracle, model_catalogue
from test_dists import CATALOGUE, _mixture_laws

EXP_EXP = ModelSpec(Exponential(1.0), Exponential(1.0))
DET_DET = ModelSpec(Deterministic(1.0), Deterministic(2.0))
PAR_PR = ModelSpec(Pareto(0.5, 1.0), Pareto(0.8, 1.0))      # service tail lighter
PAR_NPR = ModelSpec(Pareto(0.8, 1.0), Pareto(0.5, 1.0))     # service tail heavier
TPO_TWO = ModelSpec(Deterministic(1.0), TruncatedParetoOne(2.0, 2.0))
TPO_ONE = ModelSpec(Deterministic(1.0), TruncatedParetoOne(1.0, 1.0))
TPO_HALF = ModelSpec(Deterministic(1.0), TruncatedParetoOne(0.5, 1.0))
# the classify-mixture benchmark model: finite-mean arrivals against a
# service tail of index below 1 are transient, with no series run
MIX_PAR = ModelSpec(Mixture(((0.7, Exponential(1.5)), (0.3, Pareto(1.5, 0.5)))),
                    Pareto(0.8, 1.0))
# the same arrivals against a 1/x service tail: positive recurrence is
# excluded, and the transience and recurrence series separate what is left
MIX_EXCL = ModelSpec(MIX_PAR.interarrival, Pareto(1.0, 1.0))
# infinite-mean arrivals with a heavier service tail: no analytic rule
# settles it, so the Monte Carlo route runs all three series
MIX_ARRIVALS = Mixture(((0.7, Exponential(1.5)), (0.3, Pareto(0.8, 0.5))))
MIX_MC = ModelSpec(MIX_ARRIVALS, Pareto(0.5, 1.0))


# ------------------------------------------------------------ analytic


HEAVY_SERVICE_NOTE = "finite-mean arrivals against service tail index"


def test_analytic_phase_table():
    assert analytic_phase(EXP_EXP).verdict is Verdict.POSITIVE_RECURRENT
    assert analytic_phase(PAR_PR).verdict is Verdict.POSITIVE_RECURRENT
    rep = analytic_phase(PAR_NPR)
    assert rep.verdict is Verdict.INCONCLUSIVE
    assert "positive recurrence excluded" in rep.notes
    assert analytic_phase(TPO_TWO).verdict is Verdict.TRANSIENT
    assert analytic_phase(TPO_ONE).verdict is Verdict.NULL_RECURRENT
    assert analytic_phase(TPO_HALF).verdict is Verdict.NULL_RECURRENT
    heavy = ModelSpec(Deterministic(1.0), Pareto(0.5, 1.0))
    assert analytic_phase(heavy).verdict is Verdict.TRANSIENT
    light = ModelSpec(Deterministic(1.0), Pareto(2.5, 1.0))
    assert analytic_phase(light).verdict is Verdict.POSITIVE_RECURRENT
    # J_plus < inf with an infinite-mean service: heavy arrivals outrun it
    assert analytic_phase(ModelSpec(Pareto(0.5, 1.0), Exponential(1.0))).verdict \
        is Verdict.POSITIVE_RECURRENT
    # finite-mean arrivals against a service tail of index below 1
    rep = analytic_phase(ModelSpec(Exponential(1.0), Pareto(0.5, 1.0)))
    assert rep.verdict is Verdict.TRANSIENT
    assert rep.notes.startswith(HEAVY_SERVICE_NOTE)
    # finite-mean arrivals against a 1/x service tail: excluded, and open
    rep = analytic_phase(ModelSpec(Exponential(1.0), Pareto(1.0, 1.0)))
    assert rep.verdict is Verdict.INCONCLUSIVE
    assert rep.notes.startswith("positive recurrence excluded: finite-mean arrivals")
    # no rule: infinite-mean arrivals with J_plus = inf, outside the
    # Pareto-against-Pareto exclusion
    assert analytic_phase(ModelSpec(Pareto(0.5, 1.0), Pareto(0.5, 1.0))) is None
    assert analytic_phase(ModelSpec(TruncatedParetoOne(1.0, 1.0), Pareto(0.9, 1.0))) is None
    assert analytic_phase(MIX_MC) is None


def test_finite_means_beat_tail_competition():
    # both Pareto with finite means: tail comparison would vote one way,
    # but finite means settle positive recurrence outright
    m = ModelSpec(Pareto(1.8, 1.0), Pareto(1.2, 1.0))
    rep = analytic_phase(m)
    assert rep.verdict is Verdict.POSITIVE_RECURRENT


def _shape_table(m):
    """The verdict of the shape rules the J_plus certificate replaced, or
    None where none applied: both means finite, Pareto against Pareto
    below index 2, then deterministic arrivals."""
    s, t = m.service, m.interarrival
    if math.isfinite(s.mean()) and math.isfinite(t.mean()):
        return Verdict.POSITIVE_RECURRENT
    if isinstance(s, Pareto) and isinstance(t, Pareto) and s.alpha < 2 and t.alpha < 2:
        if s.alpha == t.alpha:
            return None
        return Verdict.POSITIVE_RECURRENT if s.alpha > t.alpha else Verdict.INCONCLUSIVE
    if isinstance(t, Deterministic):
        if isinstance(s, Pareto) and s.alpha < 1:
            return Verdict.TRANSIENT
        d1 = (s.scale if isinstance(s, Pareto) and s.alpha == 1 else
              s.d1 if isinstance(s, TruncatedParetoOne) else None)
        if d1 is not None:
            return Verdict.TRANSIENT if d1 > t.value else Verdict.NULL_RECURRENT
    return None


_RULE_LAWS = st.one_of(
    st.sampled_from(CATALOGUE),
    st.builds(Pareto, st.sampled_from([0.3, 0.5, 0.8, 1.0, 1.5, 2.0, 2.5]),
              st.sampled_from([0.5, 1.0, 2.0])),
    _mixture_laws())


@given(t=_RULE_LAWS, s=_RULE_LAWS)
@settings(max_examples=300, deadline=None)
def test_analytic_rules_follow_the_two_moment_certificates(t, s):
    m = ModelSpec(t, s)
    rep = analytic_phase(m)
    verdict = None if rep is None else rep.verdict
    finite_t, finite_s = math.isfinite(t.mean()), math.isfinite(s.mean())
    assert (verdict is Verdict.POSITIVE_RECURRENT) == _j_finite(s, t)
    if finite_s:
        assert verdict is Verdict.POSITIVE_RECURRENT
    if finite_t and not finite_s:  # transient, excluded, or deterministic arrivals decide
        assert verdict not in (None, Verdict.POSITIVE_RECURRENT)
    if verdict is Verdict.INCONCLUSIVE:
        assert rep.notes.startswith("positive recurrence excluded")
    # the regular-variation rule fires exactly on finite-mean arrivals
    # against a service tail of index below 1, and reads transient there
    tail = s.tail_class()
    heavy = finite_t and tail.kind == "regvar" and tail.alpha < 1
    assert (rep is not None and rep.notes.startswith(HEAVY_SERVICE_NOTE)) == heavy
    if heavy:
        assert verdict is Verdict.TRANSIENT
        # it settles only what the shape rules excluded or called transient
        assert _shape_table(m) in (None, Verdict.INCONCLUSIVE, Verdict.TRANSIENT)
    elif _shape_table(m) is not None:
        assert verdict is _shape_table(m)
    assert rep is None or (rep.source, rep.diagnostics) == (Source.ANALYTIC, [])


@given(r=st.sampled_from([0.25, 0.5, 1.0, 2.0]), alpha=st.floats(0.3, 0.95),
       scale=st.sampled_from([0.5, 1.0, 2.0]), n=st.integers(1, 5),
       y_over_scale=st.floats(2.0, 6.0), seed=st.integers(0, 2**31))
@settings(max_examples=15, deadline=None)
def test_workload_below_a_level_has_the_product_law(r, alpha, scale, n, y_over_scale, seed):
    # the bound the regular-variation rule rests on, with deterministic
    # arrivals: from x0 = 0, X_n <= y iff s_k <= y + (n - k) r for every
    # k <= n, so P(X_n <= y) = prod_{j<n} F_s(y + j r) <= exp(-n Fbar_s(y + n r))
    m = ModelSpec(Deterministic(r), Pareto(alpha, scale))
    y = y_over_scale * scale

    def cdf(x):  # the Pareto law in closed form
        return 1.0 - (scale / x) ** alpha if x >= scale else 0.0

    p = math.prod(cdf(y + j * r) for j in range(n))
    assert p <= cdf(y + n * r) ** n <= math.exp(-n * (1.0 - cdf(y + n * r)))
    stream, paths = Stream.from_seed(seed), 10_000
    hits = sum(simulate_path(m, 0.0, n, stream).x[-1] <= y for _ in range(paths))
    assert abs(hits / paths - p) <= 5.0 * math.sqrt(p * (1.0 - p) / paths)


@pytest.mark.parametrize("m", [
    MIX_PAR,
    ModelSpec(Exponential(1.0), Mixture(((0.1, Pareto(0.9, 1.0)), (0.9, Uniform(0.0, 2.0))))),
], ids=["classify_mixture", "light_weight_heavy_component"])
def test_definitive_rule_draws_nothing(monkeypatch, m):
    # finite-mean arrivals against a service tail of index below 1 are
    # settled in closed form: no series runs and no uniform is drawn, in
    # classify or in compare
    def refuse(*args, **kwargs):
        raise AssertionError("drew on a definitive analytic route")

    monkeypatch.setattr(importlib.import_module("maxdater.classify"), "_series", refuse)
    monkeypatch.setattr(Stream, "uniform_open", refuse)
    cfg = ClassifierConfig(threads=2)
    for rep in (classify(m, cfg, Stream.from_seed(0)),
                compare_queues(m, cfg, Stream.from_seed(0))[0]):
        assert (rep.verdict, rep.source, rep.diagnostics) == (Verdict.TRANSIENT,
                                                              Source.ANALYTIC, [])
        assert rep.notes.startswith(HEAVY_SERVICE_NOTE)


def test_series_that_lag_the_rule_leave_it_standing():
    # against Pareto(0.99, 0.01) service the transience summands
    # exp(-sum_{i<m} Fbar_s(y + i)) fall like m^-0.01 over any simulated
    # range, so the series read null recurrent; the analytic verdict stands,
    # and the notes say what the series read
    m = ModelSpec(Deterministic(1.0), Pareto(0.99, 0.01))
    rep = classify(m, ClassifierConfig(force_series=True), Stream.from_seed(0))
    assert (rep.verdict, rep.source) == (Verdict.TRANSIENT, Source.BOTH)
    assert rep.notes.endswith("; series diagnostics read null_recurrent (numerical "
                              "evidence only; analytic verdict kept)")


# -------------------------------------------------------------- series


def test_tail_series_bounded_exact():
    d = tail_series(DET_DET, 1000, 100, Stream.from_seed(0))
    assert d.verdict is SeriesVerdict.CONVERGES
    assert d.partial_sums[-1] == 1.0
    assert d.reps == 1  # deterministic arrivals: a single exact trajectory


def test_tail_series_direction_on_pareto_pair():
    d = tail_series(PAR_PR, 20_000, 100, Stream.from_seed(1))
    assert d.verdict is SeriesVerdict.CONVERGES
    assert d.votes_converge >= 0.9
    d = tail_series(PAR_NPR, 20_000, 100, Stream.from_seed(2))
    assert d.verdict is SeriesVerdict.DIVERGES
    assert d.votes_diverge >= 0.9


def test_transience_series_exponents():
    # deterministic arrivals make the expectation exact; the partial sums
    # of n^{-d1/r} grow like n^0, n^0 (log), n^{1/2}
    d2 = transience_series(TPO_TWO, 0.0, 100_000, 100, Stream.from_seed(3))
    assert d2.verdict is SeriesVerdict.CONVERGES
    assert abs(d2.slope) < 0.15
    dh = transience_series(TPO_HALF, 0.0, 100_000, 100, Stream.from_seed(4))
    assert dh.verdict is SeriesVerdict.DIVERGES
    assert abs(dh.slope - 0.5) < 0.15
    d1 = transience_series(TPO_ONE, 0.0, 100_000, 100, Stream.from_seed(5))
    assert d1.verdict is not SeriesVerdict.CONVERGES


def test_transience_series_bounded_service_diverges():
    d = transience_series(DET_DET, 2.0, 10_000, 100, Stream.from_seed(6))
    assert d.verdict is SeriesVerdict.DIVERGES
    # every summand is exactly exp(0) = 1
    assert np.allclose(d.values, 1.0, rtol=0, atol=0)


def test_recurrence_series_examples():
    dh = recurrence_series(TPO_HALF, 0.0, 1.1, 100_000, 100, Stream.from_seed(7))
    assert dh.verdict is SeriesVerdict.DIVERGES
    dd = recurrence_series(DET_DET, 0.0, 1.1, 10_000, 100, Stream.from_seed(8))
    assert dd.verdict is SeriesVerdict.DIVERGES
    d2 = recurrence_series(TPO_TWO, 0.0, 1.1, 100_000, 100, Stream.from_seed(9))
    assert d2.verdict is SeriesVerdict.CONVERGES
    with pytest.raises(ValueError):
        recurrence_series(TPO_HALF, 0.0, 1.0, 10_000, 100, Stream.from_seed(9))


def test_partial_sums_non_decreasing():
    for d in (tail_series(PAR_NPR, 5000, 100, Stream.from_seed(10)),
              transience_series(TPO_HALF, 0.0, 5000, 100, Stream.from_seed(11)),
              recurrence_series(TPO_HALF, 0.0, 1.1, 5000, 100, Stream.from_seed(12))):
        assert np.all(np.diff(d.partial_sums) >= 0)
        assert np.all(d.partial_sums >= 0)


@given(y_lo=st.floats(0.0, 5.0), y_gap=st.floats(0.0, 5.0),
       seed=st.integers(0, 1000))
@settings(max_examples=20, deadline=None)
def test_transience_summands_monotone_in_shift(y_lo, y_gap, seed):
    # a larger shift kills more tail mass, so every summand can only grow;
    # shared seed keeps the arrival draws identical
    m = ModelSpec(Exponential(1.0), Pareto(2.5, 1.0))
    lo = transience_series(m, y_lo, 2000, 100, Stream.from_seed(seed))
    hi = transience_series(m, y_lo + y_gap, 2000, 100, Stream.from_seed(seed))
    assert np.all(hi.values >= lo.values - 1e-15)
    assert np.all(hi.partial_sums >= lo.partial_sums - 1e-12)


def test_series_preconditions():
    with pytest.raises(ValueError):
        tail_series(EXP_EXP, 999, 100, Stream.from_seed(0))
    with pytest.raises(ValueError):
        tail_series(EXP_EXP, 1000, 99, Stream.from_seed(0))
    with pytest.raises(ValueError):
        transience_series(EXP_EXP, -0.5, 1000, 100, Stream.from_seed(0))


# ---------------------------------------------------------- occupation


def test_occupation_exact_cases():
    mean, ci = occupation_estimate(DET_DET, 0.0, 3.0, 1000, 8, Stream.from_seed(13))
    assert mean == 1001.0
    assert ci[0] == ci[1] == 1001.0
    mean, ci = occupation_estimate(DET_DET, 0.0, 1.0, 1000, 8, Stream.from_seed(13))
    assert mean == 1.0


def test_occupation_flattens_when_transient():
    a, _ = occupation_estimate(TPO_TWO, 0.0, 5.0, 1000, 64, Stream.from_seed(14))
    b, _ = occupation_estimate(TPO_TWO, 0.0, 5.0, 10_000, 64, Stream.from_seed(14))
    # visits saturate: a tenfold horizon adds almost nothing
    assert b - a < 0.2 * a + 2.0
    # and a recurrent twin keeps accumulating visits
    c1, _ = occupation_estimate(TPO_HALF, 0.0, 5.0, 1000, 64, Stream.from_seed(15))
    c2, _ = occupation_estimate(TPO_HALF, 0.0, 5.0, 10_000, 64, Stream.from_seed(15))
    assert c2 > 2.0 * c1


# ------------------------------------------------------------ classify


def test_classify_analytic_paths():
    assert classify(EXP_EXP).verdict is Verdict.POSITIVE_RECURRENT
    assert classify(PAR_PR).verdict is Verdict.POSITIVE_RECURRENT
    assert classify(TPO_TWO).verdict is Verdict.TRANSIENT
    assert classify(TPO_ONE).verdict is Verdict.NULL_RECURRENT


def test_classify_refines_excluded_pr():
    cfg = ClassifierConfig(n_max=20_000, reps=100)
    rep = classify(PAR_NPR, cfg, Stream.from_seed(16))
    assert rep.verdict in (Verdict.TRANSIENT, Verdict.NULL_RECURRENT,
                           Verdict.INCONCLUSIVE)
    assert rep.source.value in ("both", "monte_carlo")
    assert len(rep.diagnostics) >= 2


@pytest.mark.parametrize("trans", list(SeriesVerdict), ids=lambda v: "trans_" + v.value)
@pytest.mark.parametrize("rec", list(SeriesVerdict), ids=lambda v: "rec_" + v.value)
def test_excluded_pr_phase_from_each_series_pair(monkeypatch, trans, rec):
    # with positive recurrence excluded analytically, a converging
    # transience series alone reads transient, a diverging recurrence
    # series alone null recurrent, and any other pair leaves the phase open
    def stub_series(m, series, **run):
        return [SeriesDiagnostic(kind=kind, grid=np.array([1000]), partial_sums=np.zeros(1),
                                 slope=0.0, verdict=v, params=params)
                for (kind, _, params), v in zip(series, (trans, rec), strict=True)]

    monkeypatch.setattr(importlib.import_module("maxdater.classify"), "_series", stub_series)
    m = ModelSpec(Pareto(1.5, 1.0), Pareto(1.0, 1.0))
    assert analytic_phase(m).verdict is Verdict.INCONCLUSIVE
    converges, diverges = SeriesVerdict.CONVERGES, SeriesVerdict.DIVERGES
    if trans is converges and rec is not diverges:
        verdict, how = Verdict.TRANSIENT, "transience series converges (numerical evidence)"
    elif rec is diverges and trans is not converges:
        verdict, how = Verdict.NULL_RECURRENT, "recurrence series diverges (numerical evidence)"
    else:
        verdict, how = (Verdict.INCONCLUSIVE,
                        "series diagnostics did not separate transient from null recurrent")
    rep = classify(m, ClassifierConfig(), Stream.from_seed(0))
    assert rep.verdict is verdict
    assert rep.source.value == "both"
    assert rep.notes == analytic_phase(m).notes + "; " + how


@pytest.mark.parametrize("trans", list(SeriesVerdict), ids=lambda v: "trans_" + v.value)
@pytest.mark.parametrize("rec", list(SeriesVerdict), ids=lambda v: "rec_" + v.value)
def test_converging_tail_series_alone_reads_positive_recurrent(monkeypatch, trans, rec):
    # on the Monte Carlo route a converging tail series settles positive
    # recurrence, and the report keeps only it, unless the transience and
    # recurrence series contradict each other: then the verdict is
    # INCONCLUSIVE with all three diagnostics attached
    diags = []

    def stub_series(m, series, **run):
        diags[:] = [SeriesDiagnostic(kind=kind, grid=np.array([1000]), partial_sums=np.zeros(1),
                                     slope=0.0, verdict=v, params=params, votes_converge=0.95)
                    for (kind, _, params), v in zip(series, (SeriesVerdict.CONVERGES, trans, rec),
                                                    strict=True)]
        return list(diags)

    monkeypatch.setattr(importlib.import_module("maxdater.classify"), "_series", stub_series)
    assert analytic_phase(MIX_MC) is None
    rep = classify(MIX_MC, ClassifierConfig(), Stream.from_seed(0))
    if trans is SeriesVerdict.CONVERGES and rec is SeriesVerdict.DIVERGES:
        assert (rep.verdict, rep.source) == (Verdict.INCONCLUSIVE, Source.MONTE_CARLO)
        assert [id(d) for d in rep.diagnostics] == [id(d) for d in diags]
        assert rep.notes == ("tail series converges; transience series converges; "
                             "recurrence series diverges (numerical evidence)")
        return
    assert (rep.verdict, rep.source) == (Verdict.POSITIVE_RECURRENT, Source.MONTE_CARLO)
    assert len(rep.diagnostics) == 1 and rep.diagnostics[0] is diags[0]
    assert rep.notes == "tail series converges on a 95% vote (numerical evidence)"


def test_classify_monte_carlo_pr():
    # no analytic rule settles infinite-mean arrivals against a heavier
    # service tail outside the Pareto-against-Pareto shape, so the Monte
    # Carlo route decides
    cfg = ClassifierConfig(n_max=20_000, reps=100)
    rep = classify(MIX_MC, cfg, Stream.from_seed(17))
    assert rep.verdict is Verdict.TRANSIENT
    assert rep.source.value == "monte_carlo"


def test_classify_force_series_agreement():
    cfg = ClassifierConfig(n_max=5000, reps=100, force_series=True)
    rep = classify(TPO_HALF, cfg, Stream.from_seed(18))
    assert rep.verdict is Verdict.NULL_RECURRENT
    assert rep.source.value == "both"
    assert len(rep.diagnostics) == 3


def test_classify_pr_implies_stationary_sampling_works():
    for name, m in model_catalogue():
        rep = classify(m, ClassifierConfig(n_max=5000, reps=100),
                       Stream.from_seed(19))
        if rep.verdict is Verdict.POSITIVE_RECURRENT:
            stationary_sample(m, 20_000, Stream.from_seed(20))  # must not raise


def test_classify_deterministic_without_stream():
    a = classify(PAR_NPR, ClassifierConfig(n_max=5000, reps=100))
    b = classify(PAR_NPR, ClassifierConfig(n_max=5000, reps=100))
    assert a.verdict == b.verdict
    for da, db in zip(a.diagnostics, b.diagnostics):
        assert np.array_equal(da.partial_sums, db.partial_sums)


# ------------------------------------------ one draw of arrival epochs

# (model, force_series) for each route that runs series
SERIES_ROUTES = {
    "monte_carlo": (ModelSpec(TruncatedParetoOne(1.0, 1.0), Pareto(0.9, 1.0)), False),
    "monte_carlo_mixture": (MIX_MC, False),
    "analytic_inconclusive": (PAR_NPR, False),
    "analytic_inconclusive_mixture": (MIX_EXCL, False),
    "force_series": (PAR_PR, True),
}


def _diag_bytes(d):
    """Everything a diagnostic reports, floats and arrays as their bytes."""
    arrays = [d.grid, d.partial_sums, d.values, np.float64(d.slope),
              d.votes_converge, d.votes_diverge]
    return (d.kind, d.verdict, sorted(d.params.items()), d.reps, d.n_max,
            [None if a is None else np.asarray(a).tobytes() for a in arrays])


def _report_bytes(rep):
    return (rep.verdict, rep.source, rep.notes,
            [_diag_bytes(d) for d in rep.diagnostics])


def _series_config(route, y_gap):
    """Model, config and y for a route; y_gap None takes y = w0, 0 puts y
    on the tail series' shift 0, and 1.5 gives three distinct shifts."""
    m, force = SERIES_ROUTES[route]
    w0 = m.service.quantile(0.5)
    y = None if y_gap is None else (0.0 if y_gap == 0 else w0 + y_gap)
    cfg = ClassifierConfig(n_max=1000, reps=100, y=y, force_series=force)
    return m, cfg, w0 if y is None else y


@given(route=st.sampled_from(sorted(SERIES_ROUTES)),
       y_gap=st.sampled_from([None, 0, 1.5]), seed=st.integers(0, 2**31))
@settings(max_examples=25, deadline=None)
def test_classify_series_equal_the_public_series_on_child_zero(route, y_gap, seed):
    # every series classify reports is the public series run alone on the
    # stream's child 0, bit for bit: one draw of epochs feeds them all
    m, cfg, y = _series_config(route, y_gap)
    rep = classify(m, cfg, Stream.from_seed(seed))
    w0 = m.service.quantile(0.5)
    run = (cfg.n_max, cfg.reps)
    alone = {
        "tail": tail_series(m, *run, Stream.from_seed(seed).child(0)),
        "transience": transience_series(m, y, *run, Stream.from_seed(seed).child(0)),
        "recurrence": recurrence_series(m, w0, cfg.c, *run, Stream.from_seed(seed).child(0)),
    }
    kinds = [d.kind.value for d in rep.diagnostics]
    if route.startswith("analytic_inconclusive"):
        assert kinds == ["transience", "recurrence"]
    elif alone["tail"].verdict is SeriesVerdict.CONVERGES and not cfg.force_series:
        assert kinds == ["tail"]
    else:
        assert kinds == ["tail", "transience", "recurrence"]
    for d in rep.diagnostics:
        assert _diag_bytes(d) == _diag_bytes(alone[d.kind.value])


@given(route=st.sampled_from(sorted(SERIES_ROUTES)),
       y_gap=st.sampled_from([None, 0, 1.5]), seed=st.integers(0, 2**31))
@settings(max_examples=15, deadline=None)
def test_classify_report_bytes_do_not_depend_on_threads(route, y_gap, seed):
    m, cfg, _ = _series_config(route, y_gap)
    one = classify(m, cfg, Stream.from_seed(seed))
    two = classify(m, dataclasses.replace(cfg, threads=2), Stream.from_seed(seed))
    assert _report_bytes(one) == _report_bytes(two)


def _count_draws(monkeypatch, m):
    """The series kinds classify reports on ``m`` at 100 x 10,000, and the
    uniforms drawn and tail evaluations made on the way."""
    counts = {"uniforms": 0, "tails": 0}
    uniform_open, tail = Stream.uniform_open, Distribution.tail

    def counting_uniforms(self, size=None):
        out = uniform_open(self, size)
        counts["uniforms"] += np.size(out)
        return out

    def counting_tail(self, x):
        counts["tails"] += np.size(x)
        return tail(self, x)

    monkeypatch.setattr(Stream, "uniform_open", counting_uniforms)
    monkeypatch.setattr(Distribution, "tail", counting_tail)
    rep = classify(m, ClassifierConfig(n_max=10_000, reps=100), Stream.from_seed(1))
    assert rep.diagnostics[0].grid[-1] == 10_000
    return [d.kind.value for d in rep.diagnostics], counts


def test_classify_draws_the_epochs_once(monkeypatch):
    # the three series share one pass: 2 uniforms per mixture draw for
    # reps x grid[-1] epochs, and with y = w0 two tail evaluations per epoch
    # (shift 0 for the tail series, w0 for the other two)
    kinds, counts = _count_draws(monkeypatch, MIX_MC)
    assert kinds == ["tail", "transience", "recurrence"]
    assert counts == {"uniforms": 2 * 100 * 10_000, "tails": 2 * 100 * 10_000}


def test_excluded_pr_route_draws_the_epochs_once(monkeypatch):
    # with positive recurrence excluded only the transience and recurrence
    # series run, and at y = w0 they share one tail evaluation per epoch
    kinds, counts = _count_draws(monkeypatch, MIX_EXCL)
    assert kinds == ["transience", "recurrence"]
    assert counts == {"uniforms": 2 * 100 * 10_000, "tails": 100 * 10_000}


# ------------------------------------------------------------ erickson


def test_erickson_pareto_orientations():
    rep = erickson(PAR_PR)  # service tail index 0.8 > arrival 0.5
    assert math.isfinite(rep.j_plus)
    assert rep.j_minus == math.inf
    assert rep.walk_verdict is WalkVerdict.DRIFT_MINUS
    assert rep.en_s1[0] <= 2.0 * rep.j_plus
    rep = erickson(PAR_NPR)
    assert rep.j_plus == math.inf
    assert math.isfinite(rep.j_minus)
    assert rep.walk_verdict is WalkVerdict.DRIFT_PLUS
    assert rep.en_s1 == (math.inf, math.inf)


@pytest.mark.parametrize("m, en, j_plus", [
    # arrivals at 1, 2, ...: N(s) = floor(s), E N = P(s >= 1) + P(s >= 2);
    # m_minus(x) = min(1, x), so J_plus = E max(s, 1)
    (ModelSpec(Deterministic(1.0), Uniform(0.5, 2.5)), 1.0, 1.5625),
    # Poisson arrivals: E N = lam E s
    (ModelSpec(Exponential(1.0), Exponential(2.0)), 0.5, 1.28987),
])
def test_erickson_en_s1_brackets_the_exact_arrival_count(m, en, j_plus):
    rep = erickson(m)
    assert rep.j_plus == pytest.approx(j_plus, rel=1e-5)
    assert rep.en_s1[0] <= en <= rep.en_s1[1]
    assert rep.en_s1 == (rep.j_plus - 1.0, 2.0 * rep.j_plus - 1.0)


def test_erickson_quadrature_against_oracle():
    rep = erickson(PAR_PR)
    want = j_value_oracle(Pareto(0.8, 1.0), Pareto(0.5, 1.0))
    assert abs(rep.j_plus - want) <= 1e-4 * want


@pytest.mark.parametrize("num, den", [
    (MIX_PAR.interarrival, MIX_PAR.service),
    (Mixture(((0.5, Uniform(0.0, 2.0)), (0.5, Exponential(3.0)))), Exponential(1.0)),
])
def test_j_value_of_a_mixture_is_the_weighted_sum_over_components(num, den):
    # oracle: the undivided integral over the mixture's own quantile, with
    # its cdf at each component's finite support ends as breakpoints
    from scipy import integrate

    def integrand(p):
        x = float(num.quantile(p))
        return x / float(den.truncated_mean(x))

    ends = {z for _, d in num.components for z in d.support() if 0.0 < z < math.inf}
    want, _ = integrate.quad(
        integrand, 0.0, 1.0, points=sorted(float(num.cdf(z)) for z in ends) or None,
        limit=400, epsabs=0.0, epsrel=1e-10)
    assert abs(_j_value(num, den) - want) <= 1e-9 * want


def test_erickson_finite_means_sign_rule():
    rep = erickson(ModelSpec(Exponential(1.0), Exponential(2.0)))  # E s < E t
    assert rep.walk_verdict is WalkVerdict.DRIFT_MINUS
    rep = erickson(ModelSpec(Exponential(2.0), Exponential(1.0)))  # E s > E t
    assert rep.walk_verdict is WalkVerdict.DRIFT_PLUS
    rep = erickson(ModelSpec(Exponential(1.0), Exponential(1.0)))
    assert rep.walk_verdict is WalkVerdict.OSCILLATES


def test_erickson_verdict_table_consistent():
    models = [PAR_PR, PAR_NPR, EXP_EXP,
              ModelSpec(Exponential(1.0), Pareto(2.5, 1.0)),
              ModelSpec(Pareto(2.5, 1.0), Exponential(1.0)),
              ModelSpec(Uniform(0.5, 1.5), Uniform(0.0, 2.0)),
              ModelSpec(Pareto(0.6, 1.0), Pareto(0.6, 2.0))]
    for m in models:
        rep = erickson(m)
        fp, fm = math.isfinite(rep.j_plus), math.isfinite(rep.j_minus)
        xi_abs_finite = (math.isfinite(m.service.mean())
                         and math.isfinite(m.interarrival.mean()))
        if xi_abs_finite:
            # integrable increments: both criteria degenerate to finite
            # values and the verdict follows the sign of the mean drift
            assert fp and fm
            drift = m.service.mean() - m.interarrival.mean()
            want = (WalkVerdict.DRIFT_PLUS if drift > 0 else
                    WalkVerdict.DRIFT_MINUS if drift < 0 else
                    WalkVerdict.OSCILLATES)
            assert rep.walk_verdict is want
        else:
            assert not (fp and fm)
            if fp:
                assert rep.walk_verdict is WalkVerdict.DRIFT_MINUS
            elif fm:
                assert rep.walk_verdict is WalkVerdict.DRIFT_PLUS
            else:
                assert rep.walk_verdict is WalkVerdict.OSCILLATES


def test_erickson_degenerate_increment_rejected():
    with pytest.raises(ValueError):
        erickson(ModelSpec(Deterministic(1.0), TruncatedParetoOne(0.5, 1.0)))
    with pytest.raises(ValueError):
        erickson(DET_DET)


# ---------------------------------------------------------- comparison


def test_compare_both_positive_recurrent():
    inf_rep, single, text = compare_queues(PAR_PR)
    assert inf_rep.verdict is Verdict.POSITIVE_RECURRENT
    assert single.walk_verdict is WalkVerdict.DRIFT_MINUS
    assert "same phase" in text


def test_compare_classical_stable_case():
    inf_rep, single, text = compare_queues(ModelSpec(Exponential(1.0), Exponential(2.0)))
    assert inf_rep.verdict is Verdict.POSITIVE_RECURRENT
    assert single.walk_verdict is WalkVerdict.DRIFT_MINUS
    assert "positive_recurrent" in text


def test_compare_degenerate_walk_notes_infinite_arrival_count():
    inf_rep, single, text = compare_queues(TPO_HALF)
    assert inf_rep.verdict is Verdict.NULL_RECURRENT
    assert single is None
    assert "E N(s_1) = inf" in text


def test_compare_divergent_phases():
    # infinite-server transient, single-server walk climbing
    m = ModelSpec(Exponential(1.0), Pareto(0.5, 1.0))
    cfg = ClassifierConfig(n_max=20_000, reps=100)
    inf_rep, single, text = compare_queues(m, cfg, Stream.from_seed(21))
    assert inf_rep.verdict is Verdict.TRANSIENT
    assert single.walk_verdict is WalkVerdict.DRIFT_PLUS
    assert "infinite" in text


def test_classify_reads_w0_from_the_service_median(monkeypatch):
    from maxdater import regen

    def no_regen(m):
        raise AssertionError("classify must not run the regeneration search")

    monkeypatch.setattr(regen, "find_params", no_regen)
    m = ModelSpec(MIX_ARRIVALS, Mixture(((0.5, Pareto(0.5, 1.0)), (0.5, Uniform(0.0, 2.0)))))
    assert analytic_phase(m) is None  # the Monte Carlo route
    report = classify(m, ClassifierConfig(n_max=1000, reps=100), Stream.from_seed(3))
    params = {d.kind.value: d.params for d in report.diagnostics}
    assert params["recurrence"]["w0"] == m.service.quantile(0.5)
    assert params["transience"]["y"] == m.service.quantile(0.5)


def test_log_log_fits_call_no_lapack(monkeypatch):
    # numpy's least-squares fits run LAPACK's dgelsd, about 1 MB a process
    # on first call: with lstsq made to raise, classify's series route on
    # the classify-mixture arrivals against a 1/x service tail and the
    # residual fit of a horizon scan still finish, with their unpatched
    # verdict and route
    scan = ModelSpec(Exponential(1.0), Pareto(2.5, 1.0))

    def runs():
        report = classify(MIX_EXCL, ClassifierConfig(n_max=1000, reps=100), Stream.from_seed(5))
        return report, stationary_batch(scan, 100, 2000, Stream.from_seed(6))

    want_report, want_batch = runs()
    assert want_report.source is not Source.ANALYTIC
    assert not want_batch.exact and 0.0 < want_batch.residual_bound < math.inf

    def refuse(*args, **kwargs):
        raise AssertionError("lstsq called")

    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    # polyfit binds lstsq when numpy is imported
    monkeypatch.setitem(inspect.unwrap(np.polyfit).__globals__, "lstsq", refuse)
    report, batch = runs()
    assert (report.verdict, report.source) == (want_report.verdict, want_report.source)
    assert [d.verdict for d in report.diagnostics] == [d.verdict for d in want_report.diagnostics]
    assert (batch.exact, batch.residual_bound) == (want_batch.exact, want_batch.residual_bound)
    assert np.array_equal(batch.values, want_batch.values)
