"""Uniform draws behind every sampler."""

import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from maxdater import Stream
from maxdater.dists import Exponential
from maxdater.streams import N_CHUNKS, chunk_plan, run_chunked


class _FixedGenerator:
    """Stands in for the Philox generator: ``random`` always gives ``value``."""

    def __init__(self, value):
        self.value = value

    def random(self, size=None):
        return np.full(size, self.value) if size is not None else self.value


def _fixed_stream(value):
    st = Stream.from_seed(0)
    st._gen = _FixedGenerator(value)
    return st


def _top_stream():
    # the largest double below 1 that ``random`` gives, (2**53 - 1) / 2**53
    return _fixed_stream((2.0 ** 53 - 1.0) * 2.0 ** -53)


def test_uniform_open_top_draw_stays_below_one():
    # (2**53 - 1 + 1/2) / 2**53 rounds to 1.0
    top = 1.0 - 2.0 ** -53
    assert np.all(_top_stream().uniform_open(4) == top)
    assert np.all(np.isfinite(Exponential(1.0).sample(_top_stream(), 4)))


def test_uniform_open_top_draw_every_shape():
    top = 1.0 - 2.0 ** -53
    for size in (1, 4, (2, 3), (3, 1, 2)):
        u = _top_stream().uniform_open(size)
        assert np.shape(u) == np.empty(size).shape and np.all(u == top)


def test_uniform_open_is_the_formula_for_every_shape():
    # the draws are converted in place to (k + 1/2) / 2**53, bit for bit
    for size in (1, (3, 5), (64, 300)):
        k = Stream.from_seed(7, 4).gen.integers(0, 1 << 53, size=size, dtype=np.int64)
        u = Stream.from_seed(7, 4).uniform_open(size)
        want = (k + 0.5) * 2.0 ** -53
        assert np.shape(u) == np.shape(want)
        assert np.array_equal(np.asarray(u).view(np.int64), np.asarray(want).view(np.int64))


def test_uniform_open_other_draws_unchanged():
    k = Stream.from_seed(7, 3).gen.integers(0, 1 << 53, size=100_000, dtype=np.int64)
    u = Stream.from_seed(7, 3).uniform_open(100_000)
    assert np.array_equal(u, (k + 0.5) * 2.0 ** -53)
    assert np.all((u > 0.0) & (u < 1.0))


def _plain(state):
    """A bit generator's state with its arrays as lists, for ``==``."""
    if isinstance(state, dict):
        return {k: _plain(v) for k, v in state.items()}
    return state.tolist() if isinstance(state, np.ndarray) else state


def test_uniform_open_leaves_the_generator_where_integers_does():
    # one Philox word per draw either way, so every later draw of the
    # stream is unchanged
    for size in (1, 5, (7, 13), (64, 300)):
        a, b = Stream.from_seed(7, 5), Stream.from_seed(7, 5)
        a.uniform_open(size)
        b.gen.integers(0, 1 << 53, size=size, dtype=np.int64)
        assert _plain(a.gen.bit_generator.state) == _plain(b.gen.bit_generator.state)
        assert a.uniform_open(3).tolist() == b.uniform_open(3).tolist()


def test_uniform_open_peak_memory():
    # timing-free: the draws are made and shifted in one buffer
    size = (512, 1000)
    Stream.from_seed(3).uniform_open(size)
    tracemalloc.start()
    try:
        Stream.from_seed(3).uniform_open(size)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * size[0] * size[1] * 8


def _philox_uniform_open(seed, path, size=None):
    """uniform_open's transform of numpy's own Philox draws at (seed, path),
    the stream's definition: (k + 1/2) / 2**53 clamped to 1 - 2**-53."""
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=path)))
    return np.minimum(gen.random(size) + 2.0 ** -54, 1.0 - 2.0 ** -53)


_KEYS = st.lists(st.integers(0, 2**64), max_size=3)


@given(seed=st.integers(0, 2**128), p=_KEYS, qs=st.lists(_KEYS, max_size=3),
       n=st.integers(0, 300))
@settings(max_examples=100, deadline=None)
def test_streams_are_philox_at_their_seed_and_path(seed, p, qs, n):
    # a root stream, and children split from it one call or several calls
    # at a time, draw numpy's bits at (seed, path) whenever they are built
    q = [k for part in qs for k in part]
    for stream, key in ((Stream.from_seed(seed, *p), p),
                     (Stream.from_seed(seed, *p).child(*q), p + q)):
        want = _philox_uniform_open(seed, tuple(key), n)
        assert np.array_equal(stream.uniform_open(n).view(np.int64), want.view(np.int64))
    nested = Stream.from_seed(seed, *p)
    for part in qs:
        nested = nested.child(*part)
    want = _philox_uniform_open(seed, tuple(p + q), n)
    assert np.array_equal(nested.uniform_open(n).view(np.int64), want.view(np.int64))


def test_chunk_plan_tiles_the_replications():
    assert chunk_plan(0) == []
    for total in (1, 63, 64, 65, 1000, 12_345):
        plan = chunk_plan(total)
        assert len(plan) == min(total, N_CHUNKS)
        assert [start for start, _ in plan] == list(np.cumsum([0] + [c for _, c in plan])[:-1])
        counts = [c for _, c in plan]
        assert sum(counts) == total and max(counts) - min(counts) <= 1
        assert counts == sorted(counts, reverse=True)


@pytest.fixture
def switching_often():
    """Threads switch every microsecond, so that a result or an exception
    lost between lanes would show; yields the live thread count before."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield threading.active_count()
    finally:
        sys.setswitchinterval(interval)


def test_run_chunked_lanes_keep_chunk_order_and_the_lowest_failure(switching_often):
    # any thread count gives the one-thread results, in chunk order, and
    # joins every lane it starts
    before = switching_often

    def draws(st, start, count):
        return start, count, st.uniform_open(3).tolist()

    for total in (N_CHUNKS - 14, 3 * N_CHUNKS + 5):
        want = run_chunked(draws, total, Stream.from_seed(3))
        assert [w[:2] for w in want] == chunk_plan(total)
        for threads in (2, 3, 8):
            assert run_chunked(draws, total, Stream.from_seed(3), threads=threads) == want
            assert threading.active_count() == before

        plan = chunk_plan(total)

        def failing(st, start, count):
            i = plan.index((start, count))
            if i == 5:
                time.sleep(0.05)  # so chunk 40 fails first in time
            if i in (5, 40):
                raise ValueError(i)
            return i

        for threads in (1, 2, 3, 8):
            with pytest.raises(ValueError) as exc:
                run_chunked(failing, total, Stream.from_seed(3), threads=threads)
            assert exc.value.args == (5,)
            assert threading.active_count() == before


def test_run_chunked_runs_lane_0_on_the_caller(switching_often):
    # --threads N starts N - 1 helper threads: the caller runs chunks 0,
    # N, 2N, ... itself, every other chunk runs on a helper, the lowest
    # failing chunk still wins, and every helper is joined
    before = switching_often
    caller = threading.get_ident()
    total = 3 * N_CHUNKS + 5
    plan = chunk_plan(total)
    for threads in (2, 3, 8):
        seen = {}

        def where(st, start, count):
            seen[plan.index((start, count))] = (threading.get_ident(), threading.active_count())
            return start

        assert run_chunked(where, total, Stream.from_seed(3), threads=threads) == \
            [start for start, _ in plan]
        assert sorted(seen) == list(range(N_CHUNKS))
        for i, (ident, live) in seen.items():
            assert (ident == caller) == (i % threads == 0), (threads, i)
            assert live <= before + threads - 1, (threads, i, live)
        assert threading.active_count() == before

        def failing(st, start, count):
            i = plan.index((start, count))
            if i == 0:
                time.sleep(0.05)  # so chunk 40 fails first in time
            if i in (0, 40):
                raise ValueError(i)
            return i

        with pytest.raises(ValueError) as exc:
            run_chunked(failing, total, Stream.from_seed(3), threads=threads)
        assert exc.value.args == (0,)
        assert threading.active_count() == before
