"""The serving layer's worker pool: evaluate batches against the arena.

Workers are plain :class:`concurrent.futures.ProcessPoolExecutor`
processes drawn from :func:`repro.parallel.executor.shared_pool` (one
memoized pool per arena — repeated services and the benchmarks share
the fork, counted by ``workers.pool_reuse``).  Each worker runs
:func:`_init_worker` once: detach the inherited trace sink, reset
metrics, and :func:`~repro.serve.tables.attach` the shared-memory arena
pinned to the publisher's content hash.  After that, every batch is a
pure function of the request bytes and the read-only arena — workers
never import a ``data_*`` module and hold no mutable state beyond
memoized kernels.

Crash containment: a worker that dies mid-batch breaks the pool
(``BrokenProcessPool``).  :meth:`WorkerPool.run` discards the broken
pool, forks a fresh one against the same arena, and retries the batch
once — a single crash costs latency, not availability, and the retry
path is exercised by ``tests/test_serve.py``.
"""

from __future__ import annotations

import asyncio
import time

from concurrent.futures.process import BrokenProcessPool

import numpy as np

from repro.obs import metrics
from repro.parallel.executor import discard_shared_pool, shared_pool
from repro.serve import tables
from repro.serve.protocol import OP_EVAL, OP_EVAL_BITS, OP_EVAL_FROM_BITS

__all__ = ["WorkerPool", "eval_task"]

# worker-process globals, set once by the pool initializer
_ARENA: tables.AttachedArena | None = None


def _init_worker(arena_name: str, content_hash: str) -> None:
    """Pool initializer: isolate obs state, attach the pinned arena."""
    from repro.obs.events import detach as detach_trace

    detach_trace()
    metrics.reset()
    global _ARENA
    _ARENA = tables.attach(arena_name, expect_hash=content_hash)


def eval_task(key: str, op: int, data: np.ndarray):
    """Evaluate one coalesced batch inside a worker process.

    Returns ``(result_array, busy_seconds)`` — the busy time feeds the
    parent's worker-utilization gauge.
    """
    if _ARENA is None:  # pragma: no cover - initializer always ran
        raise RuntimeError("worker has no attached arena")
    t0 = time.perf_counter()
    bf = _ARENA.batch_function(key)
    if op == OP_EVAL:
        out = bf.evaluate_many(data)
    elif op == OP_EVAL_BITS:
        out = bf.evaluate_bits_many(data)
    elif op == OP_EVAL_FROM_BITS:
        out = bf.evaluate_bits_many(_ARENA.decoder(key)(data))
    else:
        raise ValueError(f"unknown opcode {op}")
    return out, time.perf_counter() - t0


class WorkerPool:
    """Fixed-size process pool evaluating batches against one arena."""

    def __init__(self, arena_name: str, content_hash: str,
                 workers: int = 2):
        self.arena_name = arena_name
        self.content_hash = content_hash
        self.workers = max(1, int(workers))
        self._kind = f"serve:{arena_name}"
        self._pool = self._make_pool()
        self._busy_s = 0.0
        self._t_start = time.perf_counter()

    def _make_pool(self):
        return shared_pool(self.workers, kind=self._kind,
                           initializer=_init_worker,
                           initargs=(self.arena_name, self.content_hash))

    def _rebuild(self) -> None:
        metrics.counter("serve.worker.crashes").inc()
        discard_shared_pool(self._kind, self.workers, cancel=True)
        self._pool = self._make_pool()

    def _account(self, busy_s: float, lanes: int) -> None:
        self._busy_s += busy_s
        metrics.histogram("serve.dispatch_s").observe(busy_s)
        wall = time.perf_counter() - self._t_start
        if wall > 0.0:
            metrics.gauge("serve.worker.utilization").set(
                self._busy_s / (self.workers * wall))
        metrics.gauge("serve.worker.busy_s").set(self._busy_s)

    async def run(self, key: str, op: int,
                  data: np.ndarray) -> np.ndarray:
        """Evaluate one batch on the pool (retries once after a crash).

        The process pool's future is awaited on the event loop itself;
        no thread is parked waiting on it.
        """
        pool = self._pool
        try:
            out, busy_s = await asyncio.wrap_future(
                pool.submit(eval_task, key, op, data))
        except BrokenProcessPool:
            # batches in flight on the same broken pool all land here;
            # only the first rebuilds, the rest retry on its new pool
            if self._pool is pool:
                self._rebuild()
            out, busy_s = await asyncio.wrap_future(
                self._pool.submit(eval_task, key, op, data))
        self._account(busy_s, len(data))
        return out

    def close(self) -> None:
        """Shut the pool down and drop the memo (idempotent)."""
        discard_shared_pool(self._kind, self.workers, cancel=True)
