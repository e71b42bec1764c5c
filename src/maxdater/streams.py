"""Seeded, splittable uniform randomness.

Every stochastic operation in this package draws from a ``Stream``: a
counter-based Philox generator keyed by an experiment seed plus a spawn
path.  Child streams are derived from the (seed, path) pair alone, never
from generator state, so replication k of an experiment sees the same
draws no matter how work is batched or which thread runs it.  At any
``threads`` >= 1, ``run_chunked`` runs lane 0 of its fixed chunk plan on the
calling thread and lanes 1 to threads - 1 on plain threads, lane j taking
chunks j, j + threads, ...: chunk i draws from ``stream.child(i)`` and
fills result slot i, whichever lane runs it.

Philox is counter-based (Salmon et al. 2011, "Parallel random numbers: as
easy as 1, 2, 3"), so when a stream builds its generator cannot change a
draw.  A root stream costs nothing until it is split or drawn from, and
``numpy.random`` loads only in runs that draw; a child builds its seed
sequence at once, on the thread that splits it (see ``Stream``).

numpy itself loads at a run's first array operation, not at import (see
``_Numpy``); in a run that draws, on the calling thread by its first split.
"""

from __future__ import annotations

import threading
from typing import Callable, TypeVar

__all__ = ["Stream", "chunk_plan", "run_chunked"]

_T = TypeVar("_T")


class _Numpy:
    """Stands for numpy as a module's ``np`` until an attribute is read.
    The first read, in any module, imports numpy and binds every such
    module's ``np`` to numpy itself, so later reads cost nothing extra."""

    _globals = []  # of every module that holds one

    def __init__(self, module_globals: dict):
        self._globals.append(module_globals)

    def __getattr__(self, name):
        import numpy

        for g in self._globals:
            g["np"] = numpy
        return getattr(numpy, name)


np = _Numpy(globals())

# Fixed fan-out of replication work.  Results are combined in chunk order,
# so the thread count never changes what is computed.
N_CHUNKS = 64

_INV53 = 2.0 ** -53
_INV54 = 2.0 ** -54
# the largest draw of uniform_open, the largest double below 1
_TOP_UNIFORM = 1.0 - _INV53


class Stream:
    """Single-owner random source, fully defined by its (seed, path) pair.

    A Stream should be consumed by exactly one operation; hand out
    children for sub-tasks instead of sharing the generator.  A stream
    from ``from_seed`` holds only that pair and imports nothing until it
    is split or drawn from, so a run that never draws never loads
    ``numpy.random``.  ``child`` builds its ``SeedSequence`` at once, so
    ``numpy.random`` loads on the thread that splits: ``run_chunked`` splits
    every chunk stream on the calling thread before any helper starts, and
    a first load on a helper would grow that thread's memory arena.
    """

    __slots__ = ("_seed", "_path", "_seq", "_gen")

    def __init__(self, seed: int, path: tuple[int, ...], seq=None):
        self._seed, self._path, self._seq = seed, path, seq
        self._gen: np.random.Generator | None = None

    @classmethod
    def from_seed(cls, seed: int, *path: int) -> "Stream":
        return cls(seed, path)

    def child(self, *path: int) -> "Stream":
        key = self._path + path
        return Stream(self._seed, key, np.random.SeedSequence(self._seed, spawn_key=key))

    @property
    def gen(self) -> np.random.Generator:
        if self._gen is None:
            seq = self._seq
            if seq is None:  # a root stream, drawn from before it was split
                seq = np.random.SeedSequence(self._seed, spawn_key=self._path)
            self._gen = np.random.Generator(np.random.Philox(seq))
        return self._gen

    def uniform_open(self, size):
        """An array of uniform draws strictly inside (0, 1), of shape ``size``.

        Returns (k + 1/2) / 2**53 rounded to double, k the top 53 bits of one
        Philox word: ``Generator.random`` gives k / 2**53 exactly, and adding
        2**-54 rounds as adding 1/2 to k does (rounding commutes with scaling
        by 2**-53).  k = 2**53 - 1 rounds to 1.0 and is clamped to 1 - 2**-53,
        the largest double below 1, so quantile inversion never sees 0.0 or
        1.0.  The caller owns an array of draws.
        """
        u = self.gen.random(size)
        u += _INV54
        return np.minimum(u, _TOP_UNIFORM, out=u)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Stream(entropy={self._seed}, path={self._path})"


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
    order.  ``threads`` >= 1 only sets how many chunks run at once, on one
    path at any count; the lowest failing chunk's exception is raised.
    """
    if threads < 1:
        raise ValueError("threads must be >= 1")
    plan = chunk_plan(total)
    streams = [stream.child(i) for i in range(len(plan))]
    out, errors = [None] * len(plan), {}

    def lane(first: int) -> None:
        for i in range(first, len(plan), threads):
            try:
                out[i] = worker(streams[i], *plan[i])
            except BaseException as exc:  # raised below, as a future would;
                errors[i] = exc  # the lane's later chunks cannot be lower
                return

    helpers = [threading.Thread(target=lane, args=(j,)) for j in range(1, min(threads, len(plan)))]
    try:
        for t in helpers:
            t.start()
        lane(0)  # on the caller
    finally:
        for t in helpers:
            if t.ident is not None:  # started
                t.join()
    if errors:
        raise errors[min(errors)]
    return out
