"""Seeded, splittable uniform randomness.

Every stochastic operation in this package draws from a ``Stream``: a
counter-based Philox generator keyed by an experiment seed plus a spawn
path.  Child streams are derived from the (seed, path) pair alone, never
from generator state, so replication k of an experiment sees the same
draws no matter how work is batched or which thread runs it.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, TypeVar

import numpy as np

__all__ = ["Stream", "chunk_plan", "run_chunked"]

_T = TypeVar("_T")

# Fixed fan-out of replication work.  Results are combined in chunk order,
# so the thread count never changes what is computed.
N_CHUNKS = 64

_INV53 = 2.0 ** -53


class Stream:
    """Single-owner random source.

    A Stream should be consumed by exactly one operation; hand out
    children for sub-tasks instead of sharing the generator.
    """

    __slots__ = ("_seq", "_gen")

    def __init__(self, seq: np.random.SeedSequence):
        self._seq = seq
        self._gen: np.random.Generator | None = None

    @classmethod
    def from_seed(cls, seed: int, *path: int) -> "Stream":
        return cls(np.random.SeedSequence(seed, spawn_key=tuple(path)))

    def child(self, *path: int) -> "Stream":
        key = tuple(self._seq.spawn_key) + tuple(path)
        return Stream(np.random.SeedSequence(self._seq.entropy, spawn_key=key))

    def children(self, n: int) -> list["Stream"]:
        return [self.child(i) for i in range(n)]

    @property
    def gen(self) -> np.random.Generator:
        if self._gen is None:
            self._gen = np.random.Generator(np.random.Philox(self._seq))
        return self._gen

    def uniform_open(self, size=None):
        """Uniform draws strictly inside (0, 1).

        Returns (k + 1/2) / 2**53 rounded to double, for k uniform on
        {0, ..., 2**53 - 1}.  The one value that rounds to 1.0
        (k = 2**53 - 1) is clamped to 1 - 2**-53, the largest double below
        1, so quantile inversion never sees 0.0 or 1.0.
        """
        k = self.gen.integers(0, 1 << 53, size=size, dtype=np.int64)
        u = (k + 0.5) * _INV53
        return np.minimum(u, 1.0 - _INV53, out=None if size is None else u)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Stream(entropy={self._seq.entropy}, path={tuple(self._seq.spawn_key)})"


def chunk_plan(total: int) -> list[tuple[int, int]]:
    """Split ``total`` replications into at most ``N_CHUNKS`` (start, count)
    blocks.  The plan depends only on ``total``, never on thread count."""
    if total <= 0:
        return []
    n = min(N_CHUNKS, total)
    base, rem = divmod(total, n)
    return [(i * base + min(i, rem), base + (i < rem)) for i in range(n)]


def run_chunked(
    worker: Callable[[Stream, int, int], _T],
    total: int,
    stream: Stream,
    threads: int = 1,
) -> list[_T]:
    """Run ``worker(chunk_stream, start, count)`` over a fixed chunk plan.

    Chunk i always gets ``stream.child(i)``; results come back in chunk
    order.  ``threads`` only controls how many chunks run concurrently.
    """
    plan = chunk_plan(total)
    streams = [stream.child(i) for i in range(len(plan))]
    if threads <= 1 or len(plan) <= 1:
        return [worker(st, start, count) for st, (start, count) in zip(streams, plan)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [
            pool.submit(worker, st, start, count)
            for st, (start, count) in zip(streams, plan)
        ]
        return [f.result() for f in futures]
