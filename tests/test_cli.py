"""Driver behavior: config validation, worked CSV output, determinism,
exit codes, and flag overrides.  Everything runs in-process through
``run(argv)``."""

import inspect
import json
import math
import os
import subprocess
import sys
from dataclasses import fields
from typing import get_type_hints

import pytest
from hypothesis import assume, given, settings, strategies as st

import maxdater
from maxdater import ModelSpec, dists
from maxdater.cli import ValidationError, _resolved_config, run, validate_config

EXP_EXP = {"interarrival": {"kind": "exponential", "rate": 1.0},
           "service": {"kind": "exponential", "rate": 1.0}}
DET_DET = {"interarrival": {"kind": "deterministic", "value": 1.0},
           "service": {"kind": "deterministic", "value": 2.0}}


def write_config(tmp_path, body, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(body))
    return str(p)


# ----------------------------------------------------------- validation


def test_minimal_config_fills_defaults():
    cfg = validate_config(json.dumps({"model": EXP_EXP}))
    assert cfg.seed == 0
    assert cfg.threads == 1
    assert cfg.sections["simulate"]["n"] == 100
    assert cfg.sections["stationary"]["horizon"] == 1000
    assert cfg.sections["classify"]["n_max"] == 100_000
    assert cfg.sections["tails"]["samples"] == 100_000


def test_validation_collects_every_problem():
    bad = {
        "schema": 1,
        "seed": -3,
        "model": {"interarrival": {"kind": "pareto", "alpha": -1.0},
                  "service": {"kind": "exponential", "rate": 0.0}},
        "banana": 1,
    }
    with pytest.raises(ValidationError) as exc:
        validate_config(json.dumps(bad))
    text = "\n".join(exc.value.problems)
    assert "model.interarrival.alpha" in text
    assert "model.service.rate" in text
    assert "seed" in text
    assert "banana" in text
    assert len(exc.value.problems) >= 4


def test_validation_rejects_bad_shapes():
    cases = [
        # truncated 1/x family needs the cutoff at or above the mass d1
        {"model": {"interarrival": {"kind": "deterministic", "value": 1.0},
                   "service": {"kind": "truncated_pareto_one",
                               "d1": 2.0, "x0": 1.0}}},
        # mixture weights must form a distribution
        {"model": {"interarrival": {"kind": "exponential", "rate": 1.0},
                   "service": {"kind": "mixture", "components": [
                       {"weight": 0.6,
                        "dist": {"kind": "deterministic", "value": 1.0}},
                       {"weight": 0.3,
                        "dist": {"kind": "deterministic", "value": 2.0}}]}}},
        # booleans are not numbers
        {"model": {"interarrival": {"kind": "exponential", "rate": True},
                   "service": {"kind": "exponential", "rate": 1.0}}},
        # unknown distribution field
        {"model": {"interarrival": {"kind": "exponential", "rate": 1.0,
                                    "shape": 2.0},
                   "service": {"kind": "exponential", "rate": 1.0}}},
        # wrong schema version
        {"schema": 2, "model": EXP_EXP},
        # model is mandatory
        {"seed": 1},
    ]
    for body in cases:
        with pytest.raises(ValidationError):
            validate_config(json.dumps(body))


def test_validation_nested_mixture_paths():
    body = {"model": {
        "interarrival": {"kind": "exponential", "rate": 1.0},
        "service": {"kind": "mixture", "components": [
            {"weight": 0.5, "dist": {"kind": "pareto", "alpha": 2.0,
                                     "scale": -1.0}},
            {"weight": 0.5, "dist": {"kind": "deterministic", "value": 1.0}},
        ]}}}
    with pytest.raises(ValidationError) as exc:
        validate_config(json.dumps(body))
    assert any("model.service.components[0].dist.scale" in p
               for p in exc.value.problems)


def test_cross_field_errors_name_the_law():
    # bounds between fields are the constructor's, reported at the law's path
    cases = [({"kind": "truncated_pareto_one", "d1": 2.0, "x0": 1.0},
              "model.service: x0 must be >= d1"),
             ({"kind": "uniform", "lo": 2.0, "hi": 1.0},
              "model.service: hi must be > lo"),
             ({"kind": "mixture", "components": [
                 {"weight": 0.6, "dist": {"kind": "deterministic", "value": 1.0}},
                 {"weight": 0.3, "dist": {"kind": "deterministic", "value": 2.0}}]},
              "model.service: mixture weights must sum to 1")]
    for service, message in cases:
        with pytest.raises(ValidationError) as exc:
            validate_config(json.dumps({"model": {
                "interarrival": {"kind": "exponential", "rate": 1.0},
                "service": service}}))
        assert [p for p in exc.value.problems if p.startswith(message)]


# ------------------------------------------------- catalogue round trip
#
# Every concrete law in dists, found there rather than listed here, must
# reach the command line: a config drawn from its fields validates to the
# law, and the report's echo of it validates to the same model.

LAWS = [cls for _, cls in inspect.getmembers(dists, inspect.isclass)
        if issubclass(cls, dists.Distribution) and not inspect.isabstract(cls)]
NUMBERS = tuple[float, ...]


def _field_hints(cls):
    hints = get_type_hints(cls)
    return [(f, hints[f.name]) for f in fields(cls)]


# laws with no nested laws, which end the recursion
LEAVES = [cls for cls in LAWS
          if all(h in (float, NUMBERS) for _, h in _field_hints(cls))]


def _numbers(bound):
    low = bound.get("minimum", bound.get("exclusive_minimum", 0.0))
    return st.floats(min_value=low, max_value=1e6, allow_nan=False,
                     allow_subnormal=False,
                     exclude_min="exclusive_minimum" in bound)


@st.composite
def law_and_node(draw, cls, depth):
    """A valid law of class cls and its config node, built from the
    dataclass fields: numbers, lists of numbers, or weighted laws."""
    args, node = [], {"kind": cls.kind}
    for f, hint in _field_hints(cls):
        bound = f.metadata.get("bound", {})
        if hint is float:
            value = conf = draw(_numbers(bound))
        elif hint == NUMBERS:
            conf = draw(st.lists(_numbers(bound), min_size=1, max_size=4))
            value = tuple(conf)
        else:
            raw = draw(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=3))
            weights = [w / math.fsum(raw) for w in raw]
            parts = [draw(any_law(depth - 1)) for _ in weights]
            value = tuple((w, law) for w, (law, _) in zip(weights, parts))
            conf = [{"weight": w, "dist": sub} for w, (_, sub) in zip(weights, parts)]
        args.append(value)
        node[f.metadata.get("key") or f.name] = conf
    try:
        law = cls(*args)
    except ValueError:  # a bound between fields, such as hi > lo
        assume(False)
    return law, node


def any_law(depth):
    return st.sampled_from(LAWS if depth > 0 else LEAVES).flatmap(
        lambda cls: law_and_node(cls, depth))


def test_every_law_is_in_the_catalogue():
    assert LEAVES and set(LEAVES) < set(LAWS)
    assert {cls.kind: cls for cls in LAWS} == dists.CATALOGUE


@pytest.mark.parametrize("cls", LAWS, ids=lambda cls: cls.__name__)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_config_round_trips_every_law(cls, data):
    inter, inter_node = data.draw(law_and_node(cls, depth=2))
    serv, serv_node = data.draw(any_law(depth=2))
    cfg = validate_config(json.dumps(
        {"model": {"interarrival": inter_node, "service": serv_node}}))
    assert cfg.model == ModelSpec(inter, serv)
    echo = _resolved_config(cfg, "simulate")
    again = validate_config(json.dumps(echo))
    assert again.model == cfg.model
    assert _resolved_config(again, "simulate") == echo


# ----------------------------------------------------------- worked runs


def test_simulate_worked_csv(tmp_path):
    cfg = write_config(tmp_path, {"model": DET_DET, "simulate": {"x0": 10.0}})
    out = tmp_path / "report.json"
    csv_path = tmp_path / "path.csv"
    code = run(["simulate", "--config", cfg, "--n", "3",
                "--out", str(out), "--csv", str(csv_path)])
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "n,t_n,s_n,T_n,X_n"
    assert [ln.split(",")[4] for ln in lines[1:]] == ["10.0", "9.0", "8.0", "7.0"]
    assert lines[1].split(",")[1] == ""  # no draw behind the start state
    report = json.loads(out.read_text())
    assert report["result"]["workload"]["values"] == [10.0, 9.0, 8.0, 7.0]
    assert report["result"]["final_workload"] == 7.0


def test_gg1_worked_csv(tmp_path):
    cfg = write_config(tmp_path, {"model": DET_DET, "gg1": {"w0": 0.0}})
    csv_path = tmp_path / "walk.csv"
    code = run(["gg1", "--config", cfg, "--n", "3", "--csv", str(csv_path)])
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "n,w_n,gamma_n,m_n"
    assert [ln.split(",")[1] for ln in lines[1:]] == ["0.0", "1.0", "2.0", "3.0"]


def test_report_shape_and_resolved_config(tmp_path, capsys):
    cfg = write_config(tmp_path, {"model": EXP_EXP,
                                  "stationary": {"horizon": 50, "reps": 200}})
    code = run(["stationary", "--config", cfg])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["schema"] == 1
    assert report["version"] == maxdater.__version__
    assert report["command"] == "stationary"
    # defaults are made explicit so the report alone reproduces the run
    assert report["config"]["seed"] == 0
    assert report["config"]["stationary"]["check_divergence"] is True
    assert report["config"]["model"]["service"]["kind"] == "exponential"
    assert report["result"]["reps"] == 200
    assert report["result"]["divergence_suspected"] is False


def test_classify_verdict_in_report(tmp_path, capsys):
    model = {"interarrival": {"kind": "pareto", "alpha": 0.5, "scale": 1.0},
             "service": {"kind": "pareto", "alpha": 0.8, "scale": 1.0}}
    cfg = write_config(tmp_path, {"model": model})
    code = run(["classify", "--config", cfg])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["verdict"] == "positive_recurrent"


# ---------------------------------------------------------- determinism


def test_identical_config_identical_bytes(tmp_path):
    cfg = write_config(tmp_path, {"model": EXP_EXP,
                                  "stationary": {"horizon": 50, "reps": 500}})
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["stationary", "--config", cfg, "--out", str(a)]) == 0
    assert run(["stationary", "--config", cfg, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_thread_count_absent_from_bytes(tmp_path):
    cfg = write_config(tmp_path, {"model": EXP_EXP,
                                  "stationary": {"horizon": 50, "reps": 512}})
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["stationary", "--config", cfg, "--threads", "1",
                "--out", str(a)]) == 0
    assert run(["stationary", "--config", cfg, "--threads", "8",
                "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_seed_changes_output(tmp_path):
    cfg = write_config(tmp_path, {"model": EXP_EXP,
                                  "stationary": {"horizon": 50, "reps": 200}})
    a, b, c = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
    run(["stationary", "--config", cfg, "--seed", "1", "--out", str(a)])
    run(["stationary", "--config", cfg, "--seed", "2", "--out", str(b)])
    run(["stationary", "--config", cfg, "--seed", "1", "--out", str(c)])
    assert a.read_bytes() != b.read_bytes()
    assert a.read_bytes() == c.read_bytes()


# ----------------------------------------------------------- exit codes


def test_exit_2_on_config_trouble(tmp_path, capsys):
    assert run(["simulate", "--config", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["simulate", "--config", str(bad)]) == 2
    cfg = write_config(tmp_path, {"model": {
        "interarrival": {"kind": "pareto", "alpha": -1.0},
        "service": {"kind": "exponential", "rate": 0.0}}})
    capsys.readouterr()
    assert run(["simulate", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "model.interarrival.alpha" in err
    assert "model.service.rate" in err


def test_exit_2_on_inapplicable_override(tmp_path, capsys):
    cfg = write_config(tmp_path, {"model": EXP_EXP})
    assert run(["simulate", "--config", cfg, "--horizon", "10"]) == 2
    assert "not applicable" in capsys.readouterr().err
    assert run(["stationary", "--config", cfg, "--n", "5"]) == 2
    assert run(["stationary", "--config", cfg, "--seed", "-1"]) == 2


def test_exit_3_strict_inconclusive(tmp_path, capsys):
    # equal tail indices sit on the phase boundary; impossible thresholds
    # pin every series vote at inconclusive, so the verdict is forced
    model = {"interarrival": {"kind": "pareto", "alpha": 0.5, "scale": 1.0},
             "service": {"kind": "pareto", "alpha": 0.5, "scale": 1.0}}
    cfg = write_config(tmp_path, {
        "model": model,
        "classify": {"n_max": 2000, "reps": 100,
                     "thresholds": {"slope_converges": 1e-12,
                                    "increment_floor": 1e9}}})
    assert run(["classify", "--config", cfg]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["verdict"] == "inconclusive"
    assert run(["classify", "--config", cfg, "--strict"]) == 3


def test_strict_passes_definitive_verdict(tmp_path, capsys):
    cfg = write_config(tmp_path, {"model": EXP_EXP})
    assert run(["classify", "--config", cfg, "--strict"]) == 0


def test_exit_4_on_runtime_refusal(tmp_path, capsys):
    model = {"interarrival": {"kind": "deterministic", "value": 1.0},
             "service": {"kind": "truncated_pareto_one", "d1": 2.0, "x0": 2.0}}
    cfg = write_config(tmp_path, {"model": model,
                                  "tails": {"samples": 100, "horizon": 100}})
    assert run(["tails", "--config", cfg]) == 4
    assert "runtime failure" in capsys.readouterr().err


def test_unknown_subcommand_exits_2(capsys):
    assert run(["frobnicate", "--config", "x.json"]) == 2


# ------------------------------------------------------------ overrides


def test_override_held_to_section_bounds(tmp_path, capsys):
    # the flags meet the bounds of the section they override, and a
    # violation is a config error, not a runtime failure
    cfg = write_config(tmp_path, {"model": EXP_EXP})
    capsys.readouterr()
    assert run(["regen", "--config", cfg, "--reps", "5"]) == 2
    assert "--reps: must be >= 1000" in capsys.readouterr().err
    assert run(["classify", "--config", cfg, "--reps", "5"]) == 2
    assert "--reps: must be >= 100" in capsys.readouterr().err


def test_reps_override_maps_to_samples_for_tails(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "model": EXP_EXP,
        "tails": {"grid": [2.0, 3.0], "samples": 500, "horizon": 100}})
    code = run(["tails", "--config", cfg, "--reps", "2000"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["config"]["tails"]["samples"] == 2000
    assert report["result"]["samples"] == 2000


def test_horizon_and_reps_overrides(tmp_path, capsys):
    cfg = write_config(tmp_path, {"model": EXP_EXP,
                                  "stationary": {"horizon": 50, "reps": 100}})
    code = run(["stationary", "--config", cfg, "--horizon", "80",
                "--reps", "150"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["config"]["stationary"]["horizon"] == 80
    assert report["config"]["stationary"]["reps"] == 150


def test_regen_and_compare_commands_run(tmp_path, capsys):
    cfg = write_config(tmp_path, {"model": EXP_EXP,
                                  "regen": {"reps": 1000, "horizon": 500}})
    assert run(["regen", "--config", cfg]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["renewal"]["frac_no_regen"] == 0.0
    assert report["result"]["params"]["m0"] >= 1

    cfg = write_config(tmp_path, {"model": {
        "interarrival": {"kind": "pareto", "alpha": 0.5, "scale": 1.0},
        "service": {"kind": "pareto", "alpha": 0.8, "scale": 1.0}}})
    assert run(["compare", "--config", cfg]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["infinite_server"]["verdict"] == "positive_recurrent"
    assert report["result"]["single_server"]["walk_verdict"] == "drift_minus_infinity"
    assert "same phase" in report["result"]["commentary"]


def test_cli_import_loads_no_scipy():
    # scipy's quadrature is imported where it is called, so starting the
    # command line loads no scipy module
    src = os.path.dirname(os.path.dirname(maxdater.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, maxdater.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        env=env, capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_stationary_csv_written_when_divergence_suspected(tmp_path, capsys):
    model = {"interarrival": {"kind": "deterministic", "value": 1.0},
             "service": {"kind": "truncated_pareto_one", "d1": 2.0, "x0": 2.0}}
    cfg = write_config(tmp_path, {"model": model,
                                  "stationary": {"horizon": 1000, "reps": 200}})
    csv_path = tmp_path / "values.csv"
    assert run(["stationary", "--config", cfg, "--csv", str(csv_path)]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["divergence_suspected"]
    assert csv_path.read_text() == "value\n"


def test_tails_classifies_with_the_classify_section(tmp_path, capsys, monkeypatch):
    import maxdater.cli as cli

    seen = []

    def spy(m, cfg=None, stream=None):
        seen.append((cfg, stream))
        return maxdater.classify(m, cfg, stream)

    monkeypatch.setattr(cli, "classify", spy)
    cfg = write_config(tmp_path, {
        "model": EXP_EXP, "classify": {"n_max": 2000, "reps": 150},
        "tails": {"grid": [2.0, 3.0], "samples": 500, "horizon": 100}})
    assert run(["tails", "--config", cfg]) == 0
    (ccfg, stream), = seen
    assert (ccfg.n_max, ccfg.reps, stream) == (2000, 150, None)
    report = json.loads(capsys.readouterr().out)
    assert report["config"]["classify"]["n_max"] == 2000
    assert report["config"]["classify"]["reps"] == 150
