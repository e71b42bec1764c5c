"""Experiment driver: validated JSON configs in, structured reports out.

Every run is a pure function of the config (plus flag overrides): the
seed fixes all randomness through a splittable stream, replication work
is carved into a fixed chunk plan, and reports serialize with sorted
keys, so identical configs produce byte-identical reports at any thread
count.  CSV files carry the bulk numeric output; the JSON report embeds
the resolved config (execution-only fields excluded) so results stay
auditable.

Exit codes: 0 success, 2 config error, 3 inconclusive verdict under
--strict, 4 runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
from dataclasses import dataclass, is_dataclass, fields as dc_fields
from enum import Enum
from typing import get_type_hints

import numpy as np

from . import __version__
from .classify import ClassifierConfig, SeriesThresholds, Verdict, classify, compare_queues
from .dists import CATALOGUE, Distribution, bound_problem
from .engine import ModelSpec, simulate_gg1, simulate_path
from .loynes import DivergenceSuspected, stationary_batch
from .regen import detect, find_params, phi_sample, renewal_tests
from .streams import Stream
from .tails import NotPositiveRecurrent, empirical_tail

__all__ = ["ValidationError", "ExperimentConfig", "validate_config", "run", "main"]

_SCHEMA = 1
_EMBED_CAP = 10_000  # arrays longer than this go to CSV, not the report


class ValidationError(ValueError):
    """All config violations at once, each tagged with its field path."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("\n".join(self.problems))


@dataclass
class ExperimentConfig:
    seed: int
    threads: int
    model: ModelSpec
    sections: dict


# ------------------------------------------------------------ validation


class _Ctx:
    def __init__(self):
        self.problems = []

    def err(self, path, msg):
        self.problems.append(f"{path}: {msg}")


def _is_num(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _num(ctx, node, key, path, *, default=None, required=False,
         integer=False, minimum=None, exclusive_minimum=None,
         allow_none=False):
    if key not in node:
        if required:
            ctx.err(f"{path}.{key}", "required field missing")
        return default
    v = node[key]
    if v is None and allow_none:
        return None
    if not _is_num(v) or (integer and not float(v).is_integer()):
        ctx.err(f"{path}.{key}", "expected {}".format(
            "an integer" if integer else "a number"))
        return default
    v = int(v) if integer else float(v)
    problem = bound_problem(v, minimum, exclusive_minimum)
    if problem:
        ctx.err(f"{path}.{key}", problem)
        return default
    return v


def _reject_unknown(ctx, node, path, allowed):
    for k in sorted(set(node) - set(allowed)):
        ctx.err(f"{path}.{k}", "unknown field")


def _law_numbers(ctx, node, key, path, **bound):
    vals = node.get(key)
    if not isinstance(vals, list) or not vals:
        ctx.err(f"{path}.{key}", "expected a non-empty list of positive numbers")
        return None
    bad = [i for i, v in enumerate(vals) if not _is_num(v) or bound_problem(v, **bound)]
    for i in bad:
        ctx.err(f"{path}.{key}[{i}]", "must be a positive number")
    return None if bad else tuple(float(v) for v in vals)


def _law_weighted(ctx, node, key, path, **bound):
    comps = node.get(key)
    if not isinstance(comps, list) or not comps:
        ctx.err(f"{path}.{key}", "expected a non-empty list")
        return None
    parsed = []
    for i, comp in enumerate(comps):
        cpath = f"{path}.{key}[{i}]"
        if not isinstance(comp, dict):
            ctx.err(cpath, "expected an object with weight and dist")
            continue
        _reject_unknown(ctx, comp, cpath, {"weight", "dist"})
        parsed.append((_num(ctx, comp, "weight", cpath, required=True, **bound),
                       _parse_dist(ctx, comp.get("dist"), f"{cpath}.dist")))
    return tuple(parsed)


# How each field type of a law reads from a config node and echoes back.
# Every reader that returns None has reported why.
_LAW_FIELDS = {
    float: (functools.partial(_num, required=True), lambda v: v),
    tuple[float, ...]: (_law_numbers, list),
    tuple[tuple[float, Distribution], ...]: (
        _law_weighted,
        lambda v: [{"weight": w, "dist": _dist_node(d)} for w, d in v]),
}


@functools.cache  # get_type_hints evaluates the annotation strings anew
def _law_params(law):
    """(config key, field, reader, echo) for each field of a law."""
    hints = get_type_hints(law)
    return tuple((f.metadata.get("key") or f.name, f, *_LAW_FIELDS[hints[f.name]])
                 for f in dc_fields(law))


def _parse_dist(ctx, node, path):
    if not isinstance(node, dict):
        ctx.err(path, "expected an object with a 'kind' field")
        return None
    kind = node.get("kind")
    law = CATALOGUE.get(kind) if isinstance(kind, str) else None
    if law is None:
        ctx.err(f"{path}.kind", "expected one of {}".format(", ".join(sorted(CATALOGUE))))
        return None
    params = _law_params(law)
    _reject_unknown(ctx, node, path, {key for key, *_ in params} | {"kind"})
    before = len(ctx.problems)
    args = [read(ctx, node, key, path, **f.metadata.get("bound", {}))
            for key, f, read, _ in params]
    if len(ctx.problems) > before:
        return None
    try:
        return law(*args)
    except (ValueError, TypeError) as exc:
        ctx.err(path, str(exc))
        return None


def _setting(ctx, node, key, path, *, default, **bounds):
    if not isinstance(default, bool):
        return _num(ctx, node, key, path, default=default, **bounds)
    v = node.get(key, default)
    if not isinstance(v, bool):
        ctx.err(f"{path}.{key}", "expected true or false")
        return default
    return v


def _parse_section(ctx, node, path, specs):
    """A section's settings: each spec is either the keywords of
    ``_setting`` (the default and bounds) or a parser of its own."""
    _reject_unknown(ctx, node, path, specs)
    return {key: spec(ctx, node, key, path) if callable(spec)
            else _setting(ctx, node, key, path, **spec)
            for key, spec in specs.items()}


def _thresholds(ctx, node, key, path):
    sub = node.get(key, {})
    if not isinstance(sub, dict):
        ctx.err(f"{path}.{key}", "expected an object")
        sub = {}
    return _parse_section(ctx, sub, f"{path}.{key}", {
        f.name: dict(default=f.default, exclusive_minimum=0.0)
        for f in dc_fields(SeriesThresholds)})


def _grid(ctx, node, key, path):
    grid = node.get(key)
    if grid is None:
        return None
    if not isinstance(grid, list) or not grid:
        ctx.err(f"{path}.{key}", "expected a non-empty list of increasing positives")
        return None
    vals = [float(v) for v in grid if _is_num(v)]
    if (not all(_is_num(v) and v > 0 for v in grid)
            or any(b <= a for a, b in zip(vals, vals[1:]))):
        ctx.err(f"{path}.{key}", "values must be positive and strictly increasing")
        return None
    return vals


_CLASSIFY = ClassifierConfig()

# Each section's settings.  Flag overrides are held to the same bounds.
_SECTIONS = {
    "simulate": {
        "x0": dict(default=0.0, minimum=0.0),
        "n": dict(default=100, integer=True, minimum=0),
    },
    "gg1": {
        "w0": dict(default=0.0, minimum=0.0),
        "n": dict(default=100, integer=True, minimum=0),
    },
    "stationary": {
        "horizon": dict(default=1000, integer=True, minimum=1),
        "reps": dict(default=10_000, integer=True, minimum=1),
        "check_divergence": dict(default=True),
    },
    "classify": {
        "thresholds": _thresholds,
        "n_max": dict(default=_CLASSIFY.n_max, integer=True, minimum=1000),
        "reps": dict(default=_CLASSIFY.reps, integer=True, minimum=100),
        "c": dict(default=_CLASSIFY.c, exclusive_minimum=1.0),
        "y": dict(default=_CLASSIFY.y, minimum=0.0, allow_none=True),
        "w0": dict(default=_CLASSIFY.w0, minimum=0.0, allow_none=True),
        "force_series": dict(default=_CLASSIFY.force_series),
    },
    "regen": {
        "reps": dict(default=1000, integer=True, minimum=1000),
        "horizon": dict(default=10_000, integer=True, minimum=1),
    },
    "tails": {
        "grid": _grid,
        "samples": dict(default=100_000, integer=True, minimum=1),
        "horizon": dict(default=1000, integer=True, minimum=1),
        "points": dict(default=8, integer=True, minimum=1),
    },
}


def validate_config(text: str) -> ExperimentConfig:
    """Parse and validate a JSON config, reporting every violation with
    its field path; defaults are filled for everything optional."""
    ctx = _Ctx()
    try:
        root = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError([f"(root): not valid JSON ({exc})"])
    if not isinstance(root, dict):
        raise ValidationError(["(root): expected a JSON object"])
    allowed = {"schema", "seed", "threads", "model"} | set(_SECTIONS)
    _reject_unknown(ctx, root, "(root)", allowed)
    schema = _num(ctx, root, "schema", "(root)", default=_SCHEMA, integer=True)
    if schema is not None and schema != _SCHEMA:
        ctx.err("(root).schema", f"unsupported schema version {schema}")
    seed = _num(ctx, root, "seed", "(root)", default=0, integer=True, minimum=0)
    threads = _num(ctx, root, "threads", "(root)", default=1, integer=True, minimum=1)
    model = None
    if "model" not in root:
        ctx.err("(root).model", "required field missing")
    elif not isinstance(root["model"], dict):
        ctx.err("(root).model", "expected an object")
    else:
        mnode = root["model"]
        _reject_unknown(ctx, mnode, "model", {"interarrival", "service"})
        inter = serv = None
        if "interarrival" not in mnode:
            ctx.err("model.interarrival", "required field missing")
        else:
            inter = _parse_dist(ctx, mnode["interarrival"], "model.interarrival")
        if "service" not in mnode:
            ctx.err("model.service", "required field missing")
        else:
            serv = _parse_dist(ctx, mnode["service"], "model.service")
        if inter is not None and serv is not None:
            model = ModelSpec(interarrival=inter, service=serv)
    sections = {}
    for name, specs in _SECTIONS.items():
        node = root.get(name, {})
        if not isinstance(node, dict):
            ctx.err(name, "expected an object")
            node = {}
        sections[name] = _parse_section(ctx, node, name, specs)
    if ctx.problems:
        raise ValidationError(ctx.problems)
    return ExperimentConfig(seed=seed, threads=threads, model=model,
                            sections=sections)


# -------------------------------------------------------- serialization


def _jsonable(obj):
    if obj is None or isinstance(obj, (str, bool, int)):
        return obj
    if isinstance(obj, float):
        if math.isnan(obj):
            return "nan"
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return obj
    if isinstance(obj, (np.floating, np.integer)):
        return _jsonable(obj.item())
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if is_dataclass(obj):
        return {f.name: _jsonable(getattr(obj, f.name)) for f in dc_fields(obj)}
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _array_block(arr):
    """Arrays small enough go into the report verbatim; longer ones keep a
    summary and rely on the CSV export."""
    arr = np.asarray(arr)
    block = {"length": int(arr.size)}
    if arr.size:
        block["min"] = _jsonable(float(np.min(arr)))
        block["max"] = _jsonable(float(np.max(arr)))
        block["mean"] = _jsonable(float(np.mean(arr)))
    block["values"] = _jsonable(arr) if arr.size <= _EMBED_CAP else None
    return block


def _blocks(obj):
    """A dataclass as the dict of its fields, recursively, with each array
    as an ``_array_block``."""
    if isinstance(obj, np.ndarray):
        return _array_block(obj)
    if is_dataclass(obj):
        return {f.name: _blocks(getattr(obj, f.name)) for f in dc_fields(obj)}
    if isinstance(obj, list):
        return [_blocks(v) for v in obj]
    return obj


def _dist_node(d: Distribution) -> dict:
    node = {"kind": d.kind}
    for key, f, _, echo in _law_params(type(d)):
        node[key] = echo(getattr(d, f.name))
    return node


def _resolved_config(cfg: ExperimentConfig, command: str) -> dict:
    # threads and output paths are execution details: they may not change
    # any numbers, so they stay out of the report to keep it byte-stable
    config = {
        "schema": _SCHEMA,
        "seed": cfg.seed,
        "model": {
            "interarrival": _dist_node(cfg.model.interarrival),
            "service": _dist_node(cfg.model.service),
        },
        command: _jsonable(cfg.sections["classify" if command == "compare"
                                        else command]),
    }
    if command == "tails":  # tails classifies the model with this section
        config["classify"] = _jsonable(cfg.sections["classify"])
    return config


# ------------------------------------------------------------- commands


def _cmd_simulate(cfg: ExperimentConfig, stream: Stream, strict: bool):
    sec = cfg.sections["simulate"]
    path = simulate_path(cfg.model, sec["x0"], sec["n"], stream)
    result = {
        "x0": sec["x0"],
        "n": sec["n"],
        "final_workload": float(path.x[-1]),
        "max_workload": float(path.x.max()),
        "final_arrival_epoch": float(path.arrivals[-1]),
        "workload": _array_block(path.x),
        "arrival_epochs": _array_block(path.arrivals),
    }
    rows = [("n", "t_n", "s_n", "T_n", "X_n"), (0, "", "", 0.0, path.x[0])]
    rows += [(k + 1, path.t[k], path.s[k], path.arrivals[k + 1], path.x[k + 1])
             for k in range(sec["n"])]
    return result, rows, 0


def _cmd_gg1(cfg: ExperimentConfig, stream: Stream, strict: bool):
    sec = cfg.sections["gg1"]
    path = simulate_gg1(cfg.model, sec["w0"], sec["n"], stream)
    result = {
        "w0": sec["w0"],
        "n": sec["n"],
        "final_wait": float(path.w[-1]),
        "final_walk": float(path.gamma[-1]),
        "running_max": float(path.m[-1]),
        "wait": _array_block(path.w),
        "walk": _array_block(path.gamma),
    }
    rows = [("n", "w_n", "gamma_n", "m_n")]
    rows += [(k, path.w[k], path.gamma[k], path.m[k])
             for k in range(sec["n"] + 1)]
    return result, rows, 0


def _cmd_stationary(cfg: ExperimentConfig, stream: Stream, strict: bool):
    sec = cfg.sections["stationary"]
    try:
        batch = stationary_batch(cfg.model, sec["horizon"], sec["reps"], stream,
                                 threads=cfg.threads,
                                 check_divergence=sec["check_divergence"])
    except DivergenceSuspected as exc:
        result = {
            "divergence_suspected": True,
            "record_fraction": exc.fraction,
            "horizon": exc.horizon,
        }
        return result, [("value",)], 0
    values = batch.values
    qs = {q: float(np.quantile(values, q)) for q in (0.5, 0.9, 0.99)}
    result = {
        "divergence_suspected": False,
        "reps": batch.reps,
        "horizon": batch.horizon,
        "exact": batch.exact,
        "residual_bound": _jsonable(batch.residual_bound),
        "record_fraction": batch.record_fraction,
        "mean": float(values.mean()),
        "sd": float(values.std(ddof=1)) if len(values) > 1 else 0.0,
        "quantiles": {str(k): v for k, v in qs.items()},
        "values": _array_block(values),
    }
    rows = [("value",)] + [(v,) for v in values]
    return result, rows, 0


def _classifier_config(cfg: ExperimentConfig) -> ClassifierConfig:
    sec = cfg.sections["classify"]
    return ClassifierConfig(**{**sec, "thresholds": SeriesThresholds(**sec["thresholds"])},
                            threads=cfg.threads)


def _series_rows(diagnostics):
    rows = [("kind", "n", "partial_sum")]
    for diag in diagnostics:
        rows += [(diag.kind.value, int(n), float(sn))
                 for n, sn in zip(diag.grid, diag.partial_sums)]
    return rows


def _cmd_classify(cfg: ExperimentConfig, stream: Stream, strict: bool):
    report = classify(cfg.model, _classifier_config(cfg), stream)
    result = _blocks(report)
    code = 3 if strict and report.verdict is Verdict.INCONCLUSIVE else 0
    return result, _series_rows(report.diagnostics), code


def _cmd_compare(cfg: ExperimentConfig, stream: Stream, strict: bool):
    infinite, single, commentary = compare_queues(
        cfg.model, _classifier_config(cfg), stream)
    result = {
        "infinite_server": _blocks(infinite),
        "single_server": _jsonable(single) if single is not None else None,
        "commentary": commentary,
    }
    code = 3 if strict and infinite.verdict is Verdict.INCONCLUSIVE else 0
    return result, _series_rows(infinite.diagnostics), code


def _cmd_regen(cfg: ExperimentConfig, stream: Stream, strict: bool):
    sec = cfg.sections["regen"]
    params = find_params(cfg.model)
    summary = renewal_tests(cfg.model, params, sec["reps"], sec["horizon"],
                            stream.child(0), threads=cfg.threads)
    trace_steps = min(sec["horizon"], _EMBED_CAP)
    trace_steps -= trace_steps % params.m0
    x0 = phi_sample(cfg.model, params, stream.child(1))
    taus = np.array([], dtype=np.int64)
    if trace_steps >= params.m0:
        path = simulate_path(cfg.model, x0, trace_steps, stream.child(2))
        taus = detect(path, params).taus
    result = {
        "params": params,
        "renewal": _blocks(summary),
        "trace": {"steps": int(trace_steps), "count": int(len(taus)),
                  "taus": _array_block(taus)},
    }
    rows = [("i", "tau_i")] + [(i + 1, int(tau)) for i, tau in enumerate(taus)]
    return result, rows, 0


def _cmd_tails(cfg: ExperimentConfig, stream: Stream, strict: bool):
    sec = cfg.sections["tails"]
    # no stream: classify's default seed, as empirical_tail would use
    verdict = classify(cfg.model, _classifier_config(cfg))
    report = empirical_tail(cfg.model, sec["grid"], sec["samples"],
                            sec["horizon"], stream, classification=verdict,
                            points=sec["points"], threads=cfg.threads)
    rows = [("x", "predicted", "empirical", "lo", "hi", "ratio")]
    for i, x in enumerate(report.grid):
        rows.append((
            float(x),
            float(report.predicted[i]) if report.predicted is not None else "",
            float(report.empirical[i]), float(report.lo[i]), float(report.hi[i]),
            float(report.ratio[i]) if report.ratio is not None else "",
        ))
    return report, rows, 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "stationary": _cmd_stationary,
    "classify": _cmd_classify,
    "regen": _cmd_regen,
    "tails": _cmd_tails,
    "gg1": _cmd_gg1,
    "compare": _cmd_compare,
}


# ----------------------------------------------------------------- driver


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maxdater",
        description="simulation and recurrence analysis of the "
                    "infinite-server workload recursion",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None, help="report path (default stdout)")
        p.add_argument("--csv", default=None, help="CSV export path")
        p.add_argument("--reps", type=int, default=None)
        p.add_argument("--horizon", type=int, default=None)
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--threads", type=int, default=None)
        p.add_argument("--strict", action="store_true")
    return parser


def _apply_overrides(cfg: ExperimentConfig, command: str, args) -> list:
    problems = []
    for flag, low in (("seed", 0), ("threads", 1)):
        value = getattr(args, flag)
        if value is not None and value < low:
            problems.append(f"--{flag}: must be >= {low}")
        elif value is not None:
            setattr(cfg, flag, value)
    name = "classify" if command == "compare" else command
    for flag in ("reps", "horizon", "n"):
        value = getattr(args, flag)
        if value is None:
            continue
        key = "samples" if flag == "reps" and command == "tails" else flag
        spec = _SECTIONS[name].get(key)
        if spec is None:
            problems.append(f"--{flag}: not applicable to {command}")
            continue
        problem = bound_problem(value, spec.get("minimum"), spec.get("exclusive_minimum"))
        if problem:
            problems.append(f"--{flag}: {problem}")
        else:
            cfg.sections[name][key] = value
    return problems


def _write_csv(path: str, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerows(rows)


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        with open(args.config) as fh:
            text = fh.read()
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        cfg = validate_config(text)
    except ValidationError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return 2
    problems = _apply_overrides(cfg, args.command, args)
    if problems:
        for problem in problems:
            print(f"config error: {problem}", file=sys.stderr)
        return 2
    stream = Stream.from_seed(cfg.seed)
    try:
        result, rows, code = _COMMANDS[args.command](cfg, stream, args.strict)
    except (ValueError, RuntimeError, NotPositiveRecurrent) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 4
    report = {
        "schema": _SCHEMA,
        "version": __version__,
        "command": args.command,
        "config": _resolved_config(cfg, args.command),
        "result": _jsonable(result),
    }
    text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if args.csv:
        _write_csv(args.csv, rows)
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
