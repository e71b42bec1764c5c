"""Per-layer measurements of maxdater, taken from outside the package.

Two kinds of numbers:

* A traced run: ``maxdater.cli.run(argv)`` in-process, with the public
  functions and methods of each layer wrapped in spans.  A layer's self
  time is the summed duration of its spans minus the part of each span
  that its child spans cover.  Draws, ``sample`` calls and chunks are
  exact counts and must not depend on the thread count.
* Isolated unit costs: fixed-size calls into one layer, timed without
  tracing, each the median of a few repeats.

The caller puts the checkout's ``src`` first on ``sys.path`` before
importing this module.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from maxdater.dists import (
    DiscreteUniform,
    Distribution,
    Deterministic,
    Exponential,
    Mixture,
    Pareto,
    TruncatedParetoOne,
    Uniform,
)
from maxdater.engine import ModelSpec
from maxdater.streams import Stream

# import_module, not attribute access: the package re-exports a function
# named classify that shadows the module
cli, streams, engine, loynes, classify, regen, tails = (
    importlib.import_module(f"maxdater.{name}")
    for name in ("cli", "streams", "engine", "loynes", "classify", "regen", "tails"))

LAYERS = ("cli", "streams", "dists", "engine", "loynes", "classify", "regen", "tails")
# exact counts, equal at every thread count
COUNTS = ("streams.draws", "dists.sample_calls", "streams.chunks", "streams.rows")

# Public entry points wrapped in spans, by defining module.  Every module
# that imported one of them by name gets the wrapper too.
_FUNCTIONS = {
    loynes: ("stationary_batch",),
    classify: ("tail_series", "transience_series", "recurrence_series"),
    regen: ("find_params", "renewal_tests", "phi_sample", "detect"),
    engine: ("simulate_path",),
    tails: ("empirical_tail",),
}


def _layer(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


class Tracer:
    """Spans kept in memory: [layer, parent index, start, end]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, layer: str, parent: int | None = None) -> int:
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        with self._lock:
            sid = len(self.spans)
            self.spans.append([layer, parent, time.perf_counter(), None])
        stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][3] = time.perf_counter()
        self._stack().pop()

    def add(self, key: str, n: int) -> None:
        with self._lock:
            self.counts[key] += n

    def wrap(self, layer: str, fn, count_as: str | None = None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count_as:
                self.add(count_as, 1)
            sid = self.open(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(sid)
        return traced

    def self_times(self) -> dict[str, float]:
        """Per layer: span durations minus the union of their children's
        intervals, so concurrent children are not subtracted twice."""
        children = defaultdict(list)
        for layer, parent, start, end in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        out = dict.fromkeys(LAYERS, 0.0)
        for sid, (layer, _, start, end) in enumerate(self.spans):
            covered, reach = 0.0, start
            for c0, c1 in sorted(children.get(sid, ())):
                c0, c1 = max(c0, reach), min(c1, end)
                if c1 > c0:
                    covered += c1 - c0
                    reach = c1
            out[layer] = out.get(layer, 0.0) + (end - start) - covered
        return out


@contextmanager
def instrumented(tracer: Tracer):
    """Swap traced wrappers in for the layers' public callables; restore
    the originals on exit."""
    patches = []

    def patch(owner, name, new):
        patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, new)

    orig_uniform = Stream.uniform_open

    def uniform_open(stream, size=None):
        out = orig_uniform(stream, size)
        tracer.add("streams.draws", int(np.size(out)))
        return out

    patch(Stream, "uniform_open", tracer.wrap("streams", uniform_open))
    patch(Distribution, "sample",
          tracer.wrap("dists", Distribution.sample, count_as="dists.sample_calls"))
    todo = list(Distribution.__subclasses__())
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        for name in ("quantile", "tail"):
            if name in cls.__dict__:
                patch(cls, name, tracer.wrap("dists", cls.__dict__[name]))

    package = [m for n, m in sys.modules.items() if n.split(".")[0] == "maxdater"]

    def patch_everywhere(orig, new):
        for mod in package:
            for name, value in list(vars(mod).items()):
                if value is orig:
                    patch(mod, name, new)

    for mod, names in _FUNCTIONS.items():
        for name in names:
            orig = getattr(mod, name)
            patch_everywhere(orig, tracer.wrap(_layer(mod.__name__), orig))

    orig_chunked = streams.run_chunked

    def run_chunked(worker, total, stream, *args, **kwargs):
        sid = tracer.open("streams")
        layer = _layer(worker.__module__)

        def traced_worker(st, start, count):
            tracer.add("streams.chunks", 1)
            tracer.add("streams.rows", count)
            wid = tracer.open(layer, parent=sid)
            try:
                return worker(st, start, count)
            finally:
                tracer.close(wid)

        try:
            return orig_chunked(traced_worker, total, stream, *args, **kwargs)
        finally:
            tracer.close(sid)

    patch_everywhere(orig_chunked, run_chunked)
    try:
        yield tracer
    finally:
        for owner, name, orig in reversed(patches):
            setattr(owner, name, orig)


def _cli_run(argv: list[str], tracer: Tracer | None = None):
    """One in-process CLI run; returns (exit code, wall seconds)."""
    t0 = time.perf_counter()
    if tracer is None:
        code = cli.run(argv)
    else:
        sid = tracer.open("cli")
        try:
            code = cli.run(argv)
        finally:
            tracer.close(sid)
    return code, time.perf_counter() - t0


def traced_runs(command: str, config: Path, work: Path, check):
    """Untraced runs at 2 and 1 threads, then traced runs at 1 and 2.

    The first run only warms the process (the allocator keeps large blocks
    after it), so the tracing overhead compares two warm runs.
    ``check(text)`` returns the problems in one report.  Returns
    (metrics, attempted, failed, problems).
    """
    problems, failed = [], 0
    first_report = None
    walls = {}
    counts = {}
    selfs = None
    runs = (("warm", 2, False), ("plain", 1, False), ("t1", 1, True), ("t2", 2, True))
    for label, threads, traced in runs:
        out = work / f"report-{label}.json"
        argv = [command, "--config", str(config), "--out", str(out),
                "--threads", str(threads)]
        if traced:
            tracer = Tracer()
            with instrumented(tracer):
                code, wall = _cli_run(argv, tracer)
            counts[label] = {k: tracer.counts[k] for k in COUNTS}
            if label == "t1":
                selfs = tracer.self_times()
        else:
            code, wall = _cli_run(argv)
        walls[label] = wall
        run_problems = [f"{label}: exit code {code}"] if code != 0 else []
        text = out.read_bytes() if out.exists() else b""
        if not run_problems:
            run_problems = check(text)
        if first_report is None:
            first_report = text
        elif not run_problems and text != first_report:
            run_problems = [f"{label}: report differs from the first report"]
        if label == "t2" and counts["t1"] != counts["t2"]:
            run_problems.append(f"exact counts differ across thread counts: "
                                f"{counts['t1']} vs {counts['t2']}")
        failed += bool(run_problems)
        problems += run_problems

    c = counts["t1"]
    metrics = {f"{layer}.self_s": (selfs[layer], "s") for layer in LAYERS}
    metrics["streams.draws"] = (c["streams.draws"], "count")
    metrics["dists.sample_calls"] = (c["dists.sample_calls"], "count")
    metrics["streams.chunks"] = (c["streams.chunks"], "count")
    metrics["streams.rows_per_chunk"] = (
        c["streams.rows"] / c["streams.chunks"] if c["streams.chunks"] else 0.0, "rows")
    metrics["trace.overhead_s"] = (walls["t1"] - walls["plain"], "s")
    return metrics, len(runs), failed, problems


# ------------------------------------------------------- unit costs


def _median_s(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


EXP_EXP = ModelSpec(Exponential(1.0), Exponential(1.0))
MIXTURE = Mixture(((0.7, Exponential(1.5)), (0.3, Pareto(1.5, 0.5))))
QUANTILE_LAWS = {
    "exponential": Exponential(1.0),
    "pareto": Pareto(1.5, 0.5),
    "uniform": Uniform(0.0, 2.0),
    "truncated_pareto_one": TruncatedParetoOne(2.0, 2.0),
    "discrete_uniform": DiscreteUniform((1.0, 2.0, 3.0, 4.0)),
    "mixture": MIXTURE,
}
TAIL_LAWS = {"exponential": Exponential(1.0), "pareto": Pareto(0.8, 1.0)}


def unit_costs(seed: int) -> dict:
    """Fixed-size calls into single layers, timed without tracing."""
    m = {}
    n = 1 << 20
    st = Stream.from_seed(seed, 1)
    m["streams.ns_per_draw"] = (_median_s(lambda: st.uniform_open(n), 5) / n * 1e9, "ns")

    u = Stream.from_seed(seed, 2).uniform_open(n)
    for name, law in QUANTILE_LAWS.items():
        k = (1 << 16) if name == "mixture" else n
        uk = u[:k]
        m[f"dists.quantile_ns.{name}"] = (
            _median_s(lambda: law.quantile(uk), 3) / k * 1e9, "ns")
    x = 10.0 * u
    for name, law in TAIL_LAWS.items():
        m[f"dists.tail_ns.{name}"] = (_median_s(lambda: law.tail(x), 3) / n * 1e9, "ns")

    steps = 1 << 16
    t = EXP_EXP.interarrival.sample(Stream.from_seed(seed, 3), steps + 1)
    s = EXP_EXP.service.sample(Stream.from_seed(seed, 4), steps)
    m["engine.path_ns_per_step"] = (
        _median_s(lambda: engine.path_from_draws(0.0, t[:steps], s), 3) / steps * 1e9, "ns")
    m["engine.gg1_ns_per_step"] = (
        _median_s(lambda: engine.gg1_from_draws(0.0, t, s), 3) / steps * 1e9, "ns")

    horizon, reps = 1000, 4096
    m["loynes.scan_ns_per_element"] = (_median_s(
        lambda: loynes.stationary_batch(EXP_EXP, horizon, reps, Stream.from_seed(seed, 5)),
        3) / (horizon * reps) * 1e9, "ns")
    # bounded service takes the exact absorbing scan; count its draws once
    bounded = ModelSpec(Deterministic(1.0), Uniform(0.0, 8.0))
    absorb = lambda: loynes.stationary_batch(bounded, 1, 1 << 14, Stream.from_seed(seed, 6))
    tracer = Tracer()
    with instrumented(tracer):
        absorb()
    m["loynes.absorb_ns_per_draw"] = (
        _median_s(absorb, 3) / tracer.counts["streams.draws"] * 1e9, "ns")

    heavy = ModelSpec(Exponential(1.0), Pareto(0.8, 1.0))
    n_max, reps = 10_000, 128
    m["classify.series_ns_per_element"] = (_median_s(
        lambda: classify.tail_series(heavy, n_max, reps, Stream.from_seed(seed, 7)),
        3) / (n_max * reps) * 1e9, "ns")
    for reps in (64, 6400):
        m[f"classify.occupation_s.reps{reps}"] = (_median_s(
            lambda: classify.occupation_estimate(EXP_EXP, 0.0, 1.0, 1000, reps,
                                                 Stream.from_seed(seed, 8)), 1), "s")

    params = regen.find_params(EXP_EXP)
    reps, horizon = 1000, 2000
    m["regen.renewal_ns_per_step_element"] = (_median_s(
        lambda: regen.renewal_tests(EXP_EXP, params, reps, horizon, Stream.from_seed(seed, 9)),
        3) / (reps * horizon) * 1e9, "ns")
    m["regen.find_params_s"] = (_median_s(lambda: regen.find_params(EXP_EXP), 3), "s")

    return m
