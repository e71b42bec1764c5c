"""Phase classification: analytic pattern table, series diagnostics,
occupation counts, and the single-server comparison."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from maxdater import ModelSpec, Stream
from maxdater.classify import (
    ClassifierConfig,
    SeriesVerdict,
    Verdict,
    WalkVerdict,
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
    Exponential,
    Mixture,
    Pareto,
    TruncatedParetoOne,
    Uniform,
)
from maxdater.loynes import DivergenceSuspected, stationary_sample

from support import j_value_oracle, model_catalogue

EXP_EXP = ModelSpec(Exponential(1.0), Exponential(1.0))
DET_DET = ModelSpec(Deterministic(1.0), Deterministic(2.0))
PAR_PR = ModelSpec(Pareto(0.5, 1.0), Pareto(0.8, 1.0))      # service tail lighter
PAR_NPR = ModelSpec(Pareto(0.8, 1.0), Pareto(0.5, 1.0))     # service tail heavier
TPO_TWO = ModelSpec(Deterministic(1.0), TruncatedParetoOne(2.0, 2.0))
TPO_ONE = ModelSpec(Deterministic(1.0), TruncatedParetoOne(1.0, 1.0))
TPO_HALF = ModelSpec(Deterministic(1.0), TruncatedParetoOne(0.5, 1.0))


# ------------------------------------------------------------ analytic


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
    # no matching pattern: heavy service with random non-Pareto arrivals
    assert analytic_phase(ModelSpec(Exponential(1.0), Pareto(0.5, 1.0))) is None


def test_finite_means_beat_tail_competition():
    # both Pareto with finite means: tail comparison would vote one way,
    # but finite means settle positive recurrence outright
    m = ModelSpec(Pareto(1.8, 1.0), Pareto(1.2, 1.0))
    rep = analytic_phase(m)
    assert rep.verdict is Verdict.POSITIVE_RECURRENT


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


def test_classify_monte_carlo_pr():
    # no analytic pattern: Exp arrivals with mixed heavy service of finite
    # index > 1 has finite means, so force the Monte Carlo route off the
    # pattern table by an infinite-mean service with random arrivals
    m = ModelSpec(Exponential(1.0), Pareto(0.5, 1.0))
    cfg = ClassifierConfig(n_max=20_000, reps=100)
    rep = classify(m, cfg, Stream.from_seed(17))
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


def test_erickson_quadrature_against_oracle():
    rep = erickson(PAR_PR)
    want = j_value_oracle(Pareto(0.8, 1.0), Pareto(0.5, 1.0))
    assert abs(rep.j_plus - want) <= 1e-4 * want


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
    m = ModelSpec(Exponential(1.0), Mixture(((0.5, Pareto(0.5, 1.0)), (0.5, Uniform(0.0, 2.0)))))
    assert analytic_phase(m) is None  # the Monte Carlo route
    report = classify(m, ClassifierConfig(n_max=1000, reps=100), Stream.from_seed(3))
    params = {d.kind.value: d.params for d in report.diagnostics}
    assert params["recurrence"]["w0"] == m.service.quantile(0.5)
    assert params["transience"]["y"] == m.service.quantile(0.5)
