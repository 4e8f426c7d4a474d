"""The libm service frontend: asyncio socket server over the worker pool.

:func:`serve` wires the whole serving stack together and returns a
:class:`ServiceHandle`:

1. publish the requested functions' tables into a shared-memory arena
   (:mod:`repro.serve.tables` — the only step that imports frozen data
   modules, and it runs exactly once);
2. fork the worker pool against that arena
   (:mod:`repro.serve.workers`);
3. start an asyncio unix-socket server on a background thread, with a
   :class:`~repro.serve.coalesce.Coalescer` handing requests to idle
   workers (batching them only while every worker is busy) and an
   :class:`~repro.serve.admission.AdmissionController` shedding load
   past the configured bounds.

Each connection is handled by one task that reads frames and spawns a
task per request, so a client may pipeline: later requests in a
connection coalesce with earlier ones instead of waiting for their
replies.  Writes to a connection are serialized with a per-connection
lock (frames must not interleave).

Every request is timed into the ``serve.request_s`` histogram and its
lane count into ``serve.request.lanes``; together with the coalescer,
admission, and worker-pool instruments this is the service's SLO
surface (drained with :func:`repro.obs.metrics.snapshot`).
"""

from __future__ import annotations

import asyncio
import os
import tempfile
import threading
import time

from repro.obs import metrics
from repro.serve import protocol
from repro.serve.admission import AdmissionController
from repro.serve.coalesce import Coalescer
from repro.serve.tables import arena_key, publish
from repro.serve.workers import WorkerPool

__all__ = ["ServiceHandle", "serve"]


def default_address() -> str:
    """A fresh unix-socket path in the system temp directory."""
    return os.path.join(tempfile.gettempdir(),
                        f"repro-serve-{os.getpid()}-{os.urandom(4).hex()}.sock")


class _Frontend:
    """Event-loop half of the service; owned by the handle's thread."""

    def __init__(self, keys: set[str], pool: WorkerPool,
                 admission: AdmissionController, *,
                 max_batch: int):
        self.keys = keys
        self.pool = pool
        self.admission = admission
        self.coalescer = Coalescer(pool.run, slots=pool.workers,
                                   max_batch=max_batch)
        self.server: asyncio.AbstractServer | None = None
        self._client_seq = 0
        self._connections: set[asyncio.Task] = set()
        self._conn_tasks: set[asyncio.Task] = set()
        self._h_req = metrics.histogram("serve.request_s")
        self._h_lanes = metrics.histogram("serve.request.lanes")
        self._c_req = metrics.counter("serve.requests")
        self._c_err = metrics.counter("serve.errors")

    async def start(self, address: str) -> None:
        self.server = await asyncio.start_unix_server(
            self._handle_connection, path=address)

    async def stop(self) -> None:
        if self.server is not None:
            self.server.close()
            await self.server.wait_closed()
        # server.close() stops *listening*; established connections (and
        # their in-flight request tasks) must be ended explicitly
        for t in list(self._conn_tasks) + list(self._connections):
            t.cancel()
        pending = list(self._conn_tasks) + list(self._connections)
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        await self.coalescer.drain()

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        self._client_seq += 1
        client_id = self._client_seq
        lock = asyncio.Lock()
        tasks: set[asyncio.Task] = set()
        me = asyncio.current_task()
        if me is not None:
            self._connections.add(me)
        try:
            while True:
                payload = await protocol.read_frame(reader)
                if payload is None:
                    break
                task = asyncio.get_running_loop().create_task(
                    self._handle_request(client_id, payload, writer, lock))
                tasks.add(task)
                self._conn_tasks.add(task)
                task.add_done_callback(tasks.discard)
                task.add_done_callback(self._conn_tasks.discard)
        except protocol.ProtocolError:
            self._c_err.inc()
        except asyncio.CancelledError:
            pass  # service shutdown; fall through to the cleanup
        finally:
            if me is not None:
                self._connections.discard(me)
            for t in list(tasks):
                t.cancel()
            self.admission.forget(client_id)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _handle_request(self, client_id: int, payload: bytes,
                              writer: asyncio.StreamWriter,
                              lock: asyncio.Lock) -> None:
        t0 = time.perf_counter()
        self._c_req.inc()
        try:
            req = protocol.unpack_request(payload)
        except protocol.ProtocolError as e:
            self._c_err.inc()
            await self._reply(writer, lock, protocol.pack_reply(
                0, protocol.STATUS_ERROR, error=str(e)))
            return
        if req.op == protocol.OP_PING:
            await self._reply(writer, lock, protocol.pack_reply(
                req.req_id, protocol.STATUS_OK))
            return
        key = arena_key(req.function, req.target)
        if key not in self.keys:
            self._c_err.inc()
            await self._reply(writer, lock, protocol.pack_reply(
                req.req_id, protocol.STATUS_ERROR,
                error=f"service does not host {key!r}"))
            return
        lanes = len(req.data)
        if not self.admission.admit(client_id, lanes):
            await self._reply(writer, lock, protocol.pack_reply(
                req.req_id, protocol.STATUS_SHED))
            return
        try:
            # the request's buffer aliases the network frame; the copy
            # decouples batch lifetime from frame lifetime
            result = await self.coalescer.submit(
                key, req.op, req.data.copy())
            reply = protocol.pack_reply(req.req_id, protocol.STATUS_OK,
                                        data=result)
        except Exception as e:
            self._c_err.inc()
            reply = protocol.pack_reply(req.req_id, protocol.STATUS_ERROR,
                                        error=str(e))
        finally:
            self.admission.release(client_id, lanes)
        await self._reply(writer, lock, reply)
        self._h_req.observe(time.perf_counter() - t0)
        self._h_lanes.observe(lanes)

    @staticmethod
    async def _reply(writer: asyncio.StreamWriter, lock: asyncio.Lock,
                     payload: bytes) -> None:
        async with lock:
            try:
                protocol.write_frame(writer, payload)
                await writer.drain()
            except (ConnectionError, OSError):
                pass  # client went away; its budget is already released


class ServiceHandle:
    """A running libm service; close it to tear everything down.

    Usable as a context manager.  ``address`` is the unix-socket path
    clients dial; ``content_hash`` identifies the published tables.
    """

    def __init__(self, address: str, arena, pool: WorkerPool,
                 frontend: _Frontend, loop: asyncio.AbstractEventLoop,
                 thread: threading.Thread):
        self.address = address
        self.arena = arena
        self.arena_name = arena.name
        self.content_hash = arena.content_hash
        self.keys = sorted(frontend.keys)
        self._pool = pool
        self._frontend = frontend
        self._loop = loop
        self._thread = thread
        self._closed = False

    def connect(self, function: str, target: str = "float32", **kwargs):
        """A :class:`~repro.serve.client.ServiceClient` for this service."""
        from repro.serve.client import ServiceClient

        return ServiceClient(function, target, address=self.address,
                             **kwargs)

    def close(self, timeout: float = 10.0) -> None:
        """Stop the server, drain, shut the pool, unlink the arena."""
        if self._closed:
            return
        self._closed = True
        stop = asyncio.run_coroutine_threadsafe(self._frontend.stop(),
                                                self._loop)
        try:
            stop.result(timeout)
        except Exception:  # pragma: no cover - drain best-effort
            pass
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout)
        self._pool.close()
        self.arena.close()
        try:
            os.unlink(self.address)
        except OSError:
            pass

    def __enter__(self) -> "ServiceHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def serve(functions=None, targets=("float32",), *, address: str | None = None,
          workers: int = 2, max_batch: int = 65536,
          max_pending_evals: int = 4_000_000,
          max_client_inflight: int = 128) -> ServiceHandle:
    """Start the multi-process libm service; returns its handle.

    ``functions`` defaults to every function with frozen data for each
    target.  The pairs' tables are published into shared memory once;
    ``workers`` processes attach it and evaluate coalesced batches.
    """
    from repro.libm.runtime import available

    pairs = []
    for target in ([targets] if isinstance(targets, str) else targets):
        names = functions if functions is not None else available(target)
        pairs.extend((fn, target) for fn in names)
    if not pairs:
        raise ValueError("nothing to serve: no (function, target) pairs")

    arena = publish(pairs)
    try:
        pool = WorkerPool(arena.name, arena.content_hash, workers=workers)
    except Exception:
        arena.close()
        raise
    admission = AdmissionController(
        max_pending_evals=max_pending_evals,
        max_client_inflight=max_client_inflight)
    frontend = _Frontend({arena_key(f, t) for f, t in pairs}, pool,
                         admission, max_batch=max_batch)
    addr = address or default_address()

    loop = asyncio.new_event_loop()
    ready = threading.Event()
    boot_err: list[BaseException] = []

    def _run() -> None:
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(frontend.start(addr))
        except BaseException as e:  # pragma: no cover - bad address etc.
            boot_err.append(e)
            ready.set()
            return
        ready.set()
        loop.run_forever()
        # drain callbacks scheduled right before stop(), then close
        loop.run_until_complete(asyncio.sleep(0))
        loop.close()

    thread = threading.Thread(target=_run, name="repro-serve", daemon=True)
    thread.start()
    ready.wait(10.0)
    if boot_err:
        pool.close()
        arena.close()
        raise boot_err[0]
    return ServiceHandle(addr, arena, pool, frontend, loop, thread)
