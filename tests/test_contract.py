"""The names the benchmark harness and the package's exports reach into.

``perfbench/layers.py`` wraps and times library functions by name; a
deletion that broke it would surface only as a failed benchmark run, so its
contract is pinned here."""

import importlib
import inspect
import pkgutil
import sys
from pathlib import Path

import numpy as np

import maxdater
from maxdater import Stream

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _layers():
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    return importlib.import_module("layers")


def test_benchmark_harness_names_resolve():
    layers = _layers()
    for mod, names in layers._FUNCTIONS.items():
        for name in names:
            assert callable(getattr(mod, name)), f"{mod.__name__}.{name}"
    for mod, name in [(layers.engine, "path_from_draws"), (layers.engine, "gg1_from_draws"),
                      (layers.classify, "occupation_estimate"), (layers.regen, "find_params"),
                      (layers.cli, "run"), (layers.cli, "validate_config")]:
        assert callable(getattr(mod, name)), f"{mod.__name__}.{name}"


def test_run_chunked_calls_worker_with_stream_start_count():
    streams = _layers().streams
    assert list(inspect.signature(streams.run_chunked).parameters) == [
        "worker", "total", "stream", "threads"]
    for threads in (1, 2):
        calls = []

        def worker(*args, **kwargs):
            calls.append((args, kwargs))
            return args[1]

        starts = streams.run_chunked(worker, 70, Stream.from_seed(0), threads=threads)
        assert sum(args[2] for args, _ in calls) == 70
        for args, kwargs in calls:
            st, start, count = args
            assert kwargs == {} and isinstance(st, Stream)
            assert isinstance(start, int) and isinstance(count, int)
        assert starts == [start for start, _ in streams.chunk_plan(70)]


def test_every_exported_name_resolves():
    modules = [maxdater] + [importlib.import_module(f"maxdater.{info.name}")
                            for info in pkgutil.iter_modules(maxdater.__path__)]
    for mod in modules:
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"{mod.__name__}.__all__ lists missing {name}"


def test_benchmark_call_shapes_bind():
    # the positional calls ``unit_costs`` makes: a changed signature there
    # would surface only as a failed benchmark run
    layers = _layers()
    m, st, draws = layers.EXP_EXP, Stream.from_seed(0), np.zeros(4)
    params = layers.regen.find_params(m)
    for f, args in [(layers.loynes.stationary_batch, (m, 1000, 4096, st)),
                    (layers.loynes.stationary_batch, (m, 1, 1 << 14, st)),
                    (layers.classify.tail_series, (m, 10_000, 128, st)),
                    (layers.classify.occupation_estimate, (m, 0.0, 1.0, 1000, 64, st)),
                    (layers.regen.renewal_tests, (m, params, 1000, 2000, st)),
                    (layers.regen.find_params, (m,)),
                    (layers.engine.path_from_draws, (0.0, draws, draws)),
                    (layers.engine.gg1_from_draws, (0.0, draws, draws))]:
        inspect.signature(f).bind(*args)
