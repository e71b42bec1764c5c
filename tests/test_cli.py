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

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import maxdater
from maxdater import ModelSpec, dists
from maxdater.cli import ValidationError, _jsonable, _resolved_config, run, validate_config

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
              "model.service: mixture weights must sum to 1"),
             ({"kind": "pareto", "alpha": 0.01, "scale": 1.0},
              "model.service: largest draw must be finite")]
    for service, message in cases:
        with pytest.raises(ValidationError) as exc:
            validate_config(json.dumps({"model": {
                "interarrival": {"kind": "exponential", "rate": 1.0},
                "service": service}}))
        assert [p for p in exc.value.problems if p.startswith(message)]


@pytest.mark.parametrize("literal", ["Infinity", "1e400", "9" * 401],
                         ids=["Infinity", "1e400", "int401"])
@pytest.mark.parametrize("command, body, where", [
    ("simulate", {"model": {**EXP_EXP, "service": {"kind": "uniform", "lo": 0.0, "hi": "X"}}},
     "model.service.hi"),
    ("simulate", {"model": {**EXP_EXP, "service": {"kind": "mixture", "components": [
        {"weight": "X", "dist": {"kind": "deterministic", "value": 1.0}},
        {"weight": 0.5, "dist": {"kind": "deterministic", "value": 2.0}}]}}},
     "model.service.components[0].weight"),
    ("simulate", {"model": {**EXP_EXP, "service": {"kind": "discrete_uniform",
                                                   "support": [1.0, "X"]}}},
     "model.service.support[1]"),
    ("simulate", {"model": EXP_EXP, "simulate": {"x0": "X"}}, "simulate.x0"),
    ("tails", {"model": EXP_EXP, "tails": {"grid": [3.0, "X"]}}, "tails.grid[1]"),
], ids=["service.hi", "mixture.weight", "support.item", "simulate.x0", "tails.grid"])
def test_non_finite_numbers_are_config_errors(tmp_path, capsys, command, body, where, literal):
    # json reads Infinity and overflowing float literals as inf, which
    # passes every lower bound, and an integer literal as an int that no
    # double holds; each is a config error at the field's path
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(body).replace('"X"', literal))
    capsys.readouterr()
    assert run([command, "--config", str(cfg)]) == 2
    assert f"{where}:" in capsys.readouterr().err


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


# ------------------------------------------- any value in any one field
#
# A valid config holds every section setting (the defaults validation fills
# in, a grid added) and two laws drawn from their dataclass fields.  Any JSON
# value put into any one field, list item or object of it either validates
# or is a ValidationError: never another exception.

SECTIONS = json.dumps({**validate_config(json.dumps({"model": EXP_EXP})).sections,
                       "tails": {"grid": [1.0, 2.0]}})
# ints up to 2**2000 by the general strategy, and those no double holds by
# their own, which the general one seldom draws
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text(max_size=4)
    | st.integers(-2**2000, 2**2000)
    | st.integers(2**1024, 2**2000) | st.integers(-2**2000, -2**1024),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=4), kids,
                                                               max_size=3),
    max_leaves=5)


def _paths(node, path=()):
    """The path of every member of a config node and of all it holds."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


@pytest.mark.parametrize("cls", LAWS, ids=lambda cls: cls.__name__)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_any_value_in_any_field_validates_or_is_a_config_error(cls, data):
    _, inter = data.draw(law_and_node(cls, depth=1))
    _, serv = data.draw(any_law(depth=1))
    config = {"schema": 1, "seed": 0, "threads": 1,
              "model": {"interarrival": inter, "service": serv}, **json.loads(SECTIONS)}
    validate_config(json.dumps(config))
    *parents, key = data.draw(st.sampled_from(list(_paths(config))))
    node = config
    for k in parents:
        node = node[k]
    node[key] = data.draw(JSON_VALUES)
    try:
        validate_config(json.dumps(config))
    except ValidationError:
        pass


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


def test_mixture_models_byte_identical_across_threads(tmp_path):
    # mixtures draw two uniform pieces per call (pick, then value); reports
    # must still not depend on the thread count
    mixture = {"kind": "mixture", "components": [
        {"weight": 0.7, "dist": {"kind": "exponential", "rate": 1.5}},
        {"weight": 0.3, "dist": {"kind": "pareto", "alpha": 1.5, "scale": 0.5}}]}
    atoms = {"kind": "mixture", "components": [
        {"weight": 0.4, "dist": {"kind": "deterministic", "value": 0.5}},
        {"weight": 0.6, "dist": {"kind": "mixture", "components": [
            {"weight": 0.5, "dist": {"kind": "uniform", "lo": 0.0, "hi": 1.0}},
            {"weight": 0.5, "dist": {"kind": "discrete_uniform", "support": [1.0, 2.0]}}]}}]}
    bodies = {
        "classify": {"model": {"interarrival": mixture,
                               "service": {"kind": "pareto", "alpha": 0.8, "scale": 1.0}},
                     "classify": {"n_max": 2000, "reps": 100}},
        "stationary": {"model": {"interarrival": {"kind": "exponential", "rate": 1.0},
                                 "service": atoms},
                       "stationary": {"horizon": 100, "reps": 512}},
    }
    for command, body in bodies.items():
        cfg = write_config(tmp_path, body, f"{command}.json")
        outs = []
        for threads in ("1", "2"):
            out = tmp_path / f"{command}.{threads}.json"
            assert run([command, "--config", cfg, "--threads", threads,
                        "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1], command


def test_seed_changes_output(tmp_path):
    cfg = write_config(tmp_path, {"model": EXP_EXP,
                                  "stationary": {"horizon": 50, "reps": 200}})
    a, b, c = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
    run(["stationary", "--config", cfg, "--seed", "1", "--out", str(a)])
    run(["stationary", "--config", cfg, "--seed", "2", "--out", str(b)])
    run(["stationary", "--config", cfg, "--seed", "1", "--out", str(c)])
    assert a.read_bytes() != b.read_bytes()
    assert a.read_bytes() == c.read_bytes()


def test_numpy_scalars_and_arrays_serialise_as_python_values():
    # numpy.bool_ is no bool, and float32 no float: each goes as its .item()
    for x in (np.bool_(True), np.float32(0.1), np.int64(-3), np.float64(np.inf)):
        got = _jsonable(x)
        assert type(got) is type(_jsonable(x.item())) and got == _jsonable(x.item())
    assert _jsonable(np.array([[1.5, np.inf], [np.nan, -0.0]])) == [[1.5, "inf"], ["nan", -0.0]]
    assert _jsonable(np.arange(3, dtype=np.int64)) == [0, 1, 2]
    assert json.dumps(_jsonable({"a": np.array([True, False])})) == '{"a": [true, false]}'


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
    # weights near the largest double would overflow their sum
    huge = {"weight": 1.7e308, "dist": {"kind": "exponential", "rate": 1.0}}
    cfg = write_config(tmp_path, {"model": {
        **EXP_EXP, "interarrival": {"kind": "mixture", "components": [huge, huge]}}})
    assert run(["simulate", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "config error: model.interarrival: mixture weights must be <= 1" in err


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
    # a flag is read as its field is: an int that no double holds is no size
    assert run(["stationary", "--config", cfg, "--reps", "9" * 401]) == 2
    err = capsys.readouterr().err
    assert "config error: --reps: must be finite" in err and "Traceback" not in err


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


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_pareto_closed_forms_at_extreme_scales_exit_cleanly(tmp_path, capsys, scale):
    # scale**alpha or scale**(1 - alpha) is past the doubles at these scales:
    # compare still reports finite integrals, and tails gives no prediction
    # where delta = scale**alpha is not a finite normal double
    model = {"interarrival": {"kind": "exponential", "rate": 1.0},
             "service": {"kind": "pareto", "alpha": 3.0, "scale": scale}}
    cfg = write_config(tmp_path, {"model": model, "tails": {"samples": 2000, "horizon": 50}})
    assert run(["compare", "--config", cfg]) == 0
    single = json.loads(capsys.readouterr().out)["result"]["single_server"]
    assert all(math.isfinite(v) for v in [single["j_plus"], single["j_minus"], *single["en_s1"]])
    assert run(["tails", "--config", cfg]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert (result["regime"], result["predicted"], result["ratio"]) == ("not_applicable", None, None)


def _src_env():
    """The environment with this package's source first on PYTHONPATH, for
    tests that start a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(maxdater.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


def _fresh(code, *args):
    """What ``code`` prints as JSON when a fresh interpreter on this
    package's source runs it with ``args``; it must exit 0."""
    out = subprocess.run([sys.executable, "-c", code, *args], env=_src_env(),
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


def test_cli_import_loads_no_scipy():
    # scipy's quadrature is imported where it is called, so starting the
    # command line loads no scipy module
    assert _fresh("import json, sys, maxdater.cli; print(json.dumps("
                  "[m for m in sys.modules if m.split('.')[0] == 'scipy']))") == []


_RUN_COMMANDS = """\
import contextlib, io, json, os, sys
from maxdater.cli import run
codes = []
for cfg in sys.argv[2:]:
    for command in ("simulate", "gg1", "stationary", "classify", "regen", "tails"):
        sizes = {"stationary": ["--reps", "2000", "--horizon", "100"],
                 "regen": ["--reps", "1000", "--horizon", "100"],
                 "tails": ["--reps", "2000", "--horizon", "100"]}.get(command, [])
        for threads in ("1", "2"):
            with contextlib.redirect_stdout(io.StringIO()):
                codes.append(run([command, "--config", cfg, "--threads", threads, *sizes]))
loaded = sorted(m for m in ("numpy.ma", "concurrent.futures", "logging", "csv")
                if m in sys.modules)
run(["simulate", "--config", sys.argv[2], "--out", os.devnull, "--csv", sys.argv[1]])
print(json.dumps({"codes": codes, "loaded": loaded, "csv": "csv" in sys.modules}))
"""


def test_commands_load_no_numpy_ma_and_no_thread_pool(tmp_path):
    # numpy's quantile, median and unique import numpy.ma, and a thread pool
    # imports concurrent.futures and logging: over 1.8 MB of each process
    # that no command uses.  csv loads only for --csv.  compare is left out:
    # scipy.integrate, which its quadrature needs, imports numpy.ma itself,
    # as tails does for a Laplace transform with no closed form (a pareto
    # inter-arrival law beside an exponential-tail service; none here).
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    configs = []
    for path in ("scripts/configs/exp_exp.json", "scripts/configs/pareto_phase.json",
                 "perfbench/configs/classify-mixture.json"):
        with open(os.path.join(root, path)) as fh:
            body = json.load(fh)
        body["classify"] = {"n_max": 1000, "reps": 100}
        if path.startswith("perfbench"):
            # a 1/x service tail keeps classify on its series route
            body["model"]["service"] = {"kind": "pareto", "alpha": 1.0, "scale": 1.0}
        configs.append(write_config(tmp_path, body, os.path.basename(path)))
    seen = _fresh(_RUN_COMMANDS, str(tmp_path / "out.csv"), *configs)
    # tails refuses the mixture model, which is not positive recurrent
    assert seen["codes"] == [0] * 34 + [4, 4], seen["codes"]
    assert seen["loaded"] == [] and seen["csv"]


_NO_ARRAYS = """\
import contextlib, io, json, sys
import maxdater, maxdater.cli
from maxdater.cli import run, validate_config
configs, mixture, bad = sys.argv[1:-2], sys.argv[-2], sys.argv[-1]
loaded, codes = {"import": "numpy" in sys.modules}, []
for cfg in configs:
    with open(cfg) as fh:
        validate_config(fh.read())
loaded["validate"] = "numpy" in sys.modules
runs = [("config error", ["classify", "--config", bad])]
runs += [("classify", ["classify", "--config", cfg]) for cfg in configs]
runs += [("tails", ["tails", "--config", mixture]),
         ("stationary", ["stationary", "--config", configs[-1], "--reps", "2000"])]
for step, argv in runs:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes.append(run(argv))
    loaded[step] = "numpy" in sys.modules
numpy = sys.modules["numpy"]
bound = sorted(name for name, m in sys.modules.items()
               if name.startswith("maxdater.") and getattr(m, "np", numpy) is not numpy)
print(json.dumps({"codes": codes, "loaded": loaded, "not_numpy": bound}))
"""


def test_runs_that_compute_no_arrays_load_no_numpy(tmp_path):
    # a law's overflow bound is closed form, classify settles every shipped
    # model in closed form, and tails refuses the transient benchmark model
    # before it draws: numpy (about 13 MB) loads at the first array operation
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    mixture = os.path.join(root, "perfbench/configs/classify-mixture.json")
    configs = [os.path.join(root, "scripts/configs", name)
               for name in ("det_heavy.json", "exp_exp.json", "pareto_phase.json")]
    configs += [os.path.join(root, "perfbench/configs", name)
                for name in ("classify-mixture.json", "regen-exp.json", "stationary-exp.json")]
    # a Pareto law whose largest draw overflows is a config error
    bad = write_config(tmp_path, {"model": {
        "interarrival": {"kind": "exponential", "rate": 1.0},
        "service": {"kind": "pareto", "alpha": 0.0517, "scale": 1.0}}})
    seen = _fresh(_NO_ARRAYS, *configs, mixture, bad)
    assert seen["codes"] == [2] + [0] * 6 + [4, 0], seen["codes"]
    assert seen["loaded"] == {"import": False, "validate": False, "config error": False,
                              "classify": False, "tails": False, "stationary": True}
    # after the first array operation every module's np is numpy itself
    assert seen["not_numpy"] == []


_HELPER_START = """\
import contextlib, io, json, sys, threading
from maxdater.cli import run
loaded, start = [], threading.Thread.start

def spy(self):
    loaded.append("numpy.random" in sys.modules)
    start(self)

threading.Thread.start = spy
with contextlib.redirect_stdout(io.StringIO()):
    code = run(["stationary", "--config", sys.argv[1], "--threads", "2", "--reps", "2000"])
print(json.dumps({"code": code, "loaded": loaded}))
"""


def test_numpy_random_loads_on_the_caller_before_a_helper_starts():
    # run_chunked builds every chunk stream on the calling thread, so the
    # first split loads numpy.random there; a first load on a helper thread
    # costs that thread's arena about 0.6 MB of peak RSS
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    seen = _fresh(_HELPER_START, os.path.join(root, "perfbench/configs/stationary-exp.json"))
    assert seen["code"] == 0 and seen["loaded"] and all(seen["loaded"]), seen


def test_scripts_write_their_csv(tmp_path):
    # the experiments under scripts/, at small sizes, each in its own process
    scripts = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")
    runs = [
        ("critical_line.py", ["--d1", "0.5", "2.0", "--n-max", "1000",
                              "--csv", str(tmp_path / "critical.csv")],
         ["critical.csv"]),
        ("phase_diagram.py", ["--indices", "0.8", "1.5", "--n-max", "1000",
                              "--reps", "100", "--csv", str(tmp_path / "phase.csv")],
         ["phase.csv"]),
        ("tail_study.py", ["--samples", "2000", "--horizon", "50", "--threads", "1",
                           "--csv-prefix", str(tmp_path / "tails_")],
         ["tails_exp.csv", "tails_pareto.csv"]),
    ]
    for script, args, outputs in runs:
        out = subprocess.run(
            [sys.executable, os.path.join(scripts, script), *args],
            env=_src_env(), capture_output=True, text=True, timeout=300)
        assert out.returncode == 0, (script, out.stderr)
        for name in outputs:
            assert (tmp_path / name).is_file(), (script, name)


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


# verdict and source of classify on every shipped config; the benchmark's
# classify check reads the classify-mixture row
SHIPPED_VERDICTS = {
    "scripts/configs/det_heavy.json": ("transient", "analytic"),
    "scripts/configs/exp_exp.json": ("positive_recurrent", "analytic"),
    "scripts/configs/pareto_phase.json": ("positive_recurrent", "analytic"),
    "perfbench/configs/classify-mixture.json": ("transient", "analytic"),
    "perfbench/configs/regen-exp.json": ("positive_recurrent", "analytic"),
    "perfbench/configs/stationary-exp.json": ("positive_recurrent", "analytic"),
}


@pytest.mark.parametrize("path", sorted(SHIPPED_VERDICTS))
def test_shipped_configs_keep_their_verdicts(tmp_path, capsys, path):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, path)) as fh:
        body = json.load(fh)
    body["classify"] = {**body.get("classify", {}), "n_max": 1000, "reps": 100}
    assert run(["classify", "--config", write_config(tmp_path, body)]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert (result["verdict"], result["source"]) == SHIPPED_VERDICTS[path]
