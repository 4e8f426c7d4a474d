"""Request coalescing: many small requests, few large worker batches.

The batch engine's throughput comes from amortizing per-batch overhead
over thousands of lanes; a service fed 256-lane requests would waste it
dispatching 256-lane batches under load.  The :class:`Coalescer` is
*work-conserving*: it counts batches in flight against ``slots`` (the
pool's worker count) and buffers requests per ``(key, opcode)`` only
while every slot is busy.  A buffer is flushed as one concatenated
batch to the worker pool when

* a request arrives while a slot is free (**idle-slot** trigger — a
  lone request is dispatched at once, never held on a clock),
* the buffered lane count reaches ``max_batch`` (**size** trigger,
  fires even while every slot is busy),
* a batch completes and frees its slot (**completion** trigger — the
  oldest pending buffer goes first, FIFO across keys), or
* the service is shutting down (**drain** trigger).

Batching therefore comes only from the workers being busy: the longer a
batch runs, the more requests pile up behind it and the larger the next
one is.  Each submitter gets a future resolving to its own slice of the
batch result; a worker failure fails every request in the batch (the
client sees ``STATUS_ERROR``, never a wrong answer) and still frees the
slot.  All bookkeeping runs on the event loop — no locks.
"""

from __future__ import annotations

import asyncio
from typing import Awaitable, Callable

import numpy as np

from repro.obs import metrics

__all__ = ["Coalescer"]


class _Buffer:
    __slots__ = ("items", "lanes")

    def __init__(self):
        self.items: list[tuple[np.ndarray, asyncio.Future]] = []
        self.lanes = 0


class Coalescer:
    """Work-conserving batcher in front of a worker pool.

    ``dispatch`` is an async callable ``(key, op, batch) -> results``
    (normally :meth:`repro.serve.workers.WorkerPool.run`); ``slots`` is
    how many batches it can evaluate at once (the pool's worker count).
    """

    def __init__(self, dispatch: Callable[..., Awaitable[np.ndarray]], *,
                 slots: int = 1, max_batch: int = 65536):
        self._dispatch = dispatch
        self.slots = max(1, int(slots))
        self.max_batch = int(max_batch)
        self._busy = 0
        # insertion order is the arrival order of each buffer's oldest
        # request, so the first key is the one that has waited longest
        self._buffers: dict[tuple[str, int], _Buffer] = {}
        self._tasks: set[asyncio.Task] = set()
        self._h_batch = metrics.histogram("serve.coalesce.batch")

    def submit(self, key: str, op: int,
               data: np.ndarray) -> "asyncio.Future[np.ndarray]":
        """Buffer one request; the future resolves to its result slice."""
        fut: asyncio.Future = asyncio.get_running_loop().create_future()
        buf = self._buffers.get((key, op))
        if buf is None:
            buf = self._buffers[(key, op)] = _Buffer()
        buf.items.append((data, fut))
        buf.lanes += len(data)
        if buf.lanes >= self.max_batch:
            self._flush((key, op), "size")
        elif self._busy < self.slots:
            self._flush((key, op), "idle")
        return fut

    def _flush(self, keyop: tuple[str, int], trigger: str) -> None:
        buf = self._buffers.pop(keyop)
        metrics.counter(f"serve.coalesce.flush.{trigger}").inc()
        self._h_batch.observe(buf.lanes)
        self._busy += 1
        task = asyncio.get_running_loop().create_task(
            self._run_batch(keyop, buf.items))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _run_batch(self, keyop: tuple[str, int],
                         items: list[tuple[np.ndarray, asyncio.Future]]) \
            -> None:
        key, op = keyop
        batch = items[0][0] if len(items) == 1 else \
            np.concatenate([d for d, _ in items])
        try:
            out = await self._dispatch(key, op, batch)
        except Exception as e:
            for _, fut in items:
                if not fut.done():
                    fut.set_exception(
                        RuntimeError(f"batch evaluation failed: {e}"))
            return
        finally:
            # the slot frees before this batch's replies go out, so the
            # worker is handed the next batch first
            self._busy -= 1
            while self._buffers and self._busy < self.slots:
                self._flush(next(iter(self._buffers)), "free")
        pos = 0
        for data, fut in items:
            n = len(data)
            if not fut.done():
                fut.set_result(out[pos:pos + n])
            pos += n

    async def drain(self) -> None:
        """Flush every buffer and wait for in-flight batches (shutdown)."""
        for keyop in list(self._buffers):
            self._flush(keyop, "drain")
        while self._tasks:
            await asyncio.gather(*list(self._tasks),
                                 return_exceptions=True)
