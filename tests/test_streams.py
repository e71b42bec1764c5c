"""Uniform draws behind every sampler."""

import numpy as np

from maxdater import Stream
from maxdater.dists import Exponential
from maxdater.streams import N_CHUNKS, chunk_plan


class _TopGenerator:
    """Stands in for the Philox generator: always the largest integer."""

    def integers(self, low, high, size=None, dtype=np.int64):
        return np.full(size, high - 1, dtype=dtype) if size is not None else dtype(high - 1)


def _top_stream():
    st = Stream.from_seed(0)
    st._gen = _TopGenerator()
    return st


def test_uniform_open_top_draw_stays_below_one():
    # (2**53 - 1 + 1/2) / 2**53 rounds to 1.0
    top = 1.0 - 2.0 ** -53
    assert np.all(_top_stream().uniform_open(4) == top)
    assert _top_stream().uniform_open() == top
    assert np.all(np.isfinite(Exponential(1.0).sample(_top_stream(), 4)))


def test_uniform_open_other_draws_unchanged():
    k = Stream.from_seed(7, 3).gen.integers(0, 1 << 53, size=100_000, dtype=np.int64)
    u = Stream.from_seed(7, 3).uniform_open(100_000)
    assert np.array_equal(u, (k + 0.5) * 2.0 ** -53)
    assert np.all((u > 0.0) & (u < 1.0))


def test_chunk_plan_tiles_the_replications():
    assert chunk_plan(0) == []
    for total in (1, 63, 64, 65, 1000, 12_345):
        plan = chunk_plan(total)
        assert len(plan) == min(total, N_CHUNKS)
        assert [start for start, _ in plan] == list(np.cumsum([0] + [c for _, c in plan])[:-1])
        counts = [c for _, c in plan]
        assert sum(counts) == total and max(counts) - min(counts) <= 1
        assert counts == sorted(counts, reverse=True)
