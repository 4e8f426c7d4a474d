"""The serving layer: wire protocol, arena, coalescing, and the service.

The trust boundary under test (DESIGN.md, "Serving"): the service
answers **bit-identically to the scalar path** for every input, the
shared-memory arena is immutable and hash-pinned after publication,
and overload degrades by *refusing* work (``STATUS_SHED``), never by
answering wrong.

Tier-1 covers the composable pieces in-process: protocol framing
round-trips, arena publish/attach/verify, coalescer flush triggers
(idle slot / size / completion / drain), the worker pool's crash retry
against a fake process pool, and admission-control budgets.  The
fork-heavy end-to-end suite — a real service with real workers, the
stratified differential against :class:`repro.api.Library`, the replay
of every committed adversarial corpus through the socket, worker
crash+restart, and deterministic shedding — is marked ``serve`` and
excluded from tier-1 by ``addopts`` (run it with ``-m serve``).
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import os
import signal
import socket
import time
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro import api
from repro.obs import metrics
from repro.serve import protocol, tables
from repro.serve.admission import AdmissionController
from repro.serve.coalesce import Coalescer


# ---------------------------------------------------------------------------
# protocol


class TestProtocol:
    def test_request_round_trip_all_ops(self):
        cases = [
            (protocol.OP_EVAL, np.array([0.5, -1.25], dtype=np.float64)),
            (protocol.OP_EVAL_BITS, np.array([2.0], dtype=np.float64)),
            (protocol.OP_EVAL_FROM_BITS,
             np.array([0x3F800000, 0x7F800000], dtype=np.uint64)),
            (protocol.OP_PING, np.empty(0, dtype=np.float64)),
        ]
        for op, data in cases:
            payload = protocol.pack_request(7, op, "exp", "float32", data)
            req = protocol.unpack_request(payload)
            assert (req.req_id, req.op) == (7, op)
            assert (req.function, req.target) == ("exp", "float32")
            assert req.data.dtype == protocol.request_dtype(op)
            assert req.data.tobytes() == data.tobytes()

    def test_reply_round_trip(self):
        out = np.array([0x42, 0x43], dtype=np.uint64)
        rep = protocol.unpack_reply(
            protocol.pack_reply(9, protocol.STATUS_OK, out),
            protocol.OP_EVAL_BITS)
        assert rep.req_id == 9 and rep.status == protocol.STATUS_OK
        assert rep.data.tobytes() == out.tobytes()

        shed = protocol.unpack_reply(
            protocol.pack_reply(3, protocol.STATUS_SHED),
            protocol.OP_EVAL)
        assert shed.status == protocol.STATUS_SHED and shed.data.size == 0

        err = protocol.unpack_reply(
            protocol.pack_reply(4, protocol.STATUS_ERROR,
                                error="no such function"),
            protocol.OP_EVAL)
        assert err.status == protocol.STATUS_ERROR
        assert "no such function" in err.error

    def test_malformed_frames_raise(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.unpack_request(b"\x00")          # shorter than header
        with pytest.raises(protocol.ProtocolError):
            protocol.unpack_request(protocol.pack_request(
                1, protocol.OP_PING, "f", "t",
                np.empty(0, dtype=np.float64))[:-1] + b"\xff" * 8)
        with pytest.raises(protocol.ProtocolError):
            protocol.pack_request(1, protocol.OP_EVAL, "x" * 300, "t",
                                  np.empty(0, dtype=np.float64))

    def test_blocking_frames_over_socketpair(self):
        a, b = socket.socketpair()
        try:
            payload = protocol.pack_request(
                11, protocol.OP_EVAL, "ln", "float32",
                np.array([1.0, 2.0], dtype=np.float64))
            protocol.send_frame(a, payload)
            assert protocol.recv_frame(b) == payload
            with pytest.raises(protocol.ProtocolError):
                protocol.send_frame(a, b"x" * (protocol.MAX_FRAME + 1))
        finally:
            a.close()
            b.close()

    def test_async_read_frame_eof_returns_none(self):
        async def run():
            a, b = socket.socketpair()
            reader, writer = await asyncio.open_connection(sock=b)
            try:
                protocol.send_frame(a, b"hello")
                a.close()  # peer vanishes after one frame
                assert await protocol.read_frame(reader) == b"hello"
                assert await protocol.read_frame(reader) is None
            finally:
                writer.close()

        asyncio.run(run())


# ---------------------------------------------------------------------------
# shared-memory arena


class TestArena:
    def test_publish_attach_bit_identical(self):
        lib = api.load("exp", target="float32")
        xs = np.linspace(-40.0, 40.0, 4096)
        with tables.publish([("exp", "float32")]) as pub:
            arena = tables.attach(pub.name, expect_hash=pub.content_hash)
            try:
                bf = arena.batch_function(tables.arena_key("exp", "float32"))
                assert bf.evaluate_bits_many(xs).tobytes() == \
                    lib.evaluate_bits_batch(xs).tobytes()
                assert bf.evaluate_many(xs).tobytes() == \
                    lib.evaluate_batch(xs).tobytes()
            finally:
                arena.close()

    def test_attach_is_read_only(self):
        with tables.publish([("exp", "float32")]) as pub:
            arena = tables.attach(pub.name)
            try:
                key = tables.arena_key("exp", "float32")
                arena.batch_function(key)
                with pytest.raises(ValueError):
                    arena._arena[0] = 1.0
            finally:
                arena.close()

    def test_hash_pin_rejects_other_arena(self):
        with tables.publish([("exp", "float32")]) as pub:
            with pytest.raises(tables.ArenaError, match="expected"):
                tables.attach(pub.name, expect_hash="0" * 64)

    def test_torn_write_fails_content_hash(self):
        with tables.publish([("exp", "float32")]) as pub:
            pub.shm.buf[-8:] = b"\xff" * 8      # scribble on the arena
            with pytest.raises(tables.ArenaError, match="content hash"):
                tables.attach(pub.name)

    def test_attach_unknown_name(self):
        with pytest.raises(tables.ArenaError, match="no shared-memory"):
            tables.attach("rlserve-does-not-exist")

    def test_decoder_matches_input_value(self):
        from repro.eval.adversarial.generators import input_value
        from repro.posit.format import POSIT32

        with tables.publish([("exp", "posit32")]) as pub:
            arena = tables.attach(pub.name)
            try:
                dec = arena.decoder(tables.arena_key("exp", "posit32"))
                bits = np.array([0, 1, 0x40000000, 0x80000000, 0xFFFFFFFF],
                                dtype=np.uint64)
                got = dec(bits)
                for b, g in zip(bits.tolist(), got.tolist()):
                    assert np.float64(input_value(POSIT32, b)).tobytes() \
                        == np.float64(g).tobytes()
            finally:
                arena.close()


# ---------------------------------------------------------------------------
# coalescer


class _Dispatch:
    """Recording fake dispatch; its first ``held`` calls park on ``gate``
    (a worker busy on a batch) until the test sets it."""

    def __init__(self, held: int = 0):
        self.batches: list[tuple[str, list[float]]] = []
        self.held = held
        self.gate = asyncio.Event()

    async def __call__(self, key, op, data):
        self.batches.append((key, data.tolist()))
        if len(self.batches) <= self.held:
            await self.gate.wait()
        return data * 2.0


async def _settle():
    """Let every ready task run a step (no clock involved)."""
    for _ in range(5):
        await asyncio.sleep(0)


def _flushes(trigger: str) -> int:
    return metrics.counter(f"serve.coalesce.flush.{trigger}").value


class TestCoalescer:
    def test_lone_submit_dispatches_before_the_loop_sleeps(self):
        before = _flushes("idle")

        async def main():
            loop = asyncio.get_running_loop()
            timers = []
            call_at = loop.call_at

            def recording_call_at(when, *args, **kwargs):
                timers.append(when)
                return call_at(when, *args, **kwargs)

            loop.call_at = recording_call_at
            d = _Dispatch()
            co = Coalescer(d, slots=1, max_batch=8)
            fut = co.submit("k", protocol.OP_EVAL, np.array([1.5]))
            await asyncio.sleep(0)          # one loop turn, no clock
            assert d.batches == [("k", [1.5])]
            assert (await fut).tolist() == [3.0]
            assert timers == []             # nothing was scheduled to wait

        asyncio.run(main())
        assert _flushes("idle") == before + 1

    def test_busy_slot_coalesces_into_one_batch(self):
        before = _flushes("free")

        async def main():
            d = _Dispatch(held=1)
            co = Coalescer(d, slots=1, max_batch=64)
            first = co.submit("k", protocol.OP_EVAL, np.array([0.5]))
            futs = [co.submit("k", protocol.OP_EVAL, np.array(xs))
                    for xs in ([1.0], [2.0, 3.0], [4.0, 5.0, 6.0])]
            await _settle()
            assert d.batches == [("k", [0.5])]      # the rest wait
            d.gate.set()
            out = await asyncio.gather(first, *futs)
            assert d.batches[1] == ("k", [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
            assert len(d.batches) == 2
            return [o.tolist() for o in out]

        assert asyncio.run(main()) == [[1.0], [2.0], [4.0, 6.0],
                                       [8.0, 10.0, 12.0]]
        assert _flushes("free") == before + 1

    def test_size_trigger_concatenates_and_slices(self):
        before = _flushes("size")

        async def main():
            d = _Dispatch(held=1)
            co = Coalescer(d, slots=1, max_batch=8)
            held = co.submit("k", protocol.OP_EVAL, np.array([0.0]))
            f1 = co.submit("k", protocol.OP_EVAL, np.array([1.0, 2.0, 3.0]))
            f2 = co.submit("k", protocol.OP_EVAL,
                           np.array([4.0, 5.0, 6.0, 7.0, 8.0]))
            await _settle()
            # dispatched at 8 lanes though the only slot is still held
            assert len(d.batches) == 2 and len(d.batches[1][1]) == 8
            d.gate.set()
            await held
            return (await f1).tolist(), (await f2).tolist()

        r1, r2 = asyncio.run(main())
        assert r1 == [2.0, 4.0, 6.0]
        assert r2 == [8.0, 10.0, 12.0, 14.0, 16.0]
        assert _flushes("size") == before + 1

    def test_pending_keys_flush_fifo(self):
        async def main():
            d = _Dispatch(held=1)
            co = Coalescer(d, slots=1, max_batch=64)
            futs = [co.submit(k, protocol.OP_EVAL, np.array([x]))
                    for k, x in (("x", 0.0), ("b", 1.0), ("a", 2.0),
                                 ("b", 3.0))]
            await _settle()
            d.gate.set()
            await asyncio.gather(*futs)
            return d.batches

        assert asyncio.run(main()) == [("x", [0.0]), ("b", [1.0, 3.0]),
                                       ("a", [2.0])]

    def test_separate_keys_never_share_a_batch(self):
        async def main():
            d = _Dispatch()
            co = Coalescer(d, slots=1, max_batch=8)
            fa = co.submit("a", protocol.OP_EVAL, np.array([1.0]))
            fb = co.submit("b", protocol.OP_EVAL, np.array([10.0]))
            await co.drain()
            ra, rb = await asyncio.gather(fa, fb)
            return d.batches, ra.tolist(), rb.tolist()

        batches, ra, rb = asyncio.run(main())
        assert len(batches) == 2 and ra == [2.0] and rb == [20.0]

    def test_drain_flushes_without_waiting(self):
        before = _flushes("drain")

        async def main():
            d = _Dispatch(held=1)
            co = Coalescer(d, slots=1, max_batch=64)
            held = co.submit("k", protocol.OP_EVAL, np.array([1.0]))
            waiting = co.submit("k", protocol.OP_EVAL, np.array([2.0]))
            drain = asyncio.get_running_loop().create_task(co.drain())
            await _settle()
            # flushed past the busy slot; drain still awaits the held batch
            assert d.batches == [("k", [1.0]), ("k", [2.0])]
            assert waiting.done() and not drain.done()
            d.gate.set()
            await drain
            return held.result().tolist(), waiting.result().tolist()

        assert asyncio.run(main()) == ([2.0], [4.0])
        assert _flushes("drain") == before + 1

    def test_dispatch_failure_fails_every_request(self):
        async def dispatch(key, op, data):
            await asyncio.sleep(0)
            raise RuntimeError("worker exploded")

        async def main():
            co = Coalescer(dispatch, slots=1, max_batch=8)
            f1 = co.submit("k", protocol.OP_EVAL, np.array([1.0]))
            f2 = co.submit("k", protocol.OP_EVAL, np.array([2.0]))
            f3 = co.submit("k", protocol.OP_EVAL, np.array([3.0]))
            await co.drain()
            for fut in (f1, f2, f3):
                with pytest.raises(RuntimeError, match="worker exploded"):
                    await fut

        asyncio.run(main())

    def test_failed_dispatch_releases_its_slot(self):
        calls = []

        async def dispatch(key, op, data):
            calls.append(data.tolist())
            if len(calls) == 1:
                raise RuntimeError("worker exploded")
            return data * 2.0

        async def main():
            co = Coalescer(dispatch, slots=1, max_batch=8)
            with pytest.raises(RuntimeError, match="worker exploded"):
                await co.submit("k", protocol.OP_EVAL, np.array([1.0]))
            fut = co.submit("k", protocol.OP_EVAL, np.array([2.0]))
            await asyncio.sleep(0)
            assert calls == [[1.0], [2.0]]  # dispatched, not buffered
            return (await asyncio.wait_for(fut, timeout=2.0)).tolist()

        assert asyncio.run(main()) == [4.0]


# ---------------------------------------------------------------------------
# worker pool (fake process pool: no fork)


class _FakeProcessPool:
    """Stands in for the ProcessPoolExecutor; a broken one raises
    ``BrokenProcessPool`` from ``submit`` itself or from its future."""

    def __init__(self, broken: str | None = None):
        self.broken = broken

    def submit(self, fn, key, op, data):
        if self.broken == "submit":
            raise BrokenProcessPool("a worker died")
        fut: concurrent.futures.Future = concurrent.futures.Future()
        if self.broken == "future":
            fut.set_exception(BrokenProcessPool("a worker died"))
        else:
            fut.set_result((data * 2.0, 0.001))
        return fut


class TestWorkerPoolRun:
    @pytest.mark.parametrize("broken", ["submit", "future"])
    def test_broken_pool_is_rebuilt_and_retried(self, monkeypatch, broken):
        from repro.serve.workers import WorkerPool

        pools = [_FakeProcessPool(broken), _FakeProcessPool()]
        monkeypatch.setattr(WorkerPool, "_make_pool",
                            lambda self: pools.pop(0))
        crashes = metrics.counter("serve.worker.crashes")
        before = crashes.value
        wp = WorkerPool("rlserve-fake", "0" * 64, workers=1)
        out = asyncio.run(wp.run("k", protocol.OP_EVAL, np.array([1.0, 2.0])))
        assert out.tolist() == [2.0, 4.0]
        assert pools == [] and crashes.value == before + 1

    def test_one_rebuild_per_broken_pool(self, monkeypatch):
        """Batches in flight when the pool breaks retry on one new pool;
        the later ones must not tear down the pool the first one built."""
        from repro.serve.workers import WorkerPool

        pools = [_FakeProcessPool("future"), _FakeProcessPool()]
        monkeypatch.setattr(WorkerPool, "_make_pool",
                            lambda self: pools.pop(0))
        crashes = metrics.counter("serve.worker.crashes")
        before = crashes.value
        wp = WorkerPool("rlserve-fake", "0" * 64, workers=2)

        async def main():
            return await asyncio.gather(*(
                wp.run("k", protocol.OP_EVAL, np.array([x]))
                for x in (1.0, 2.0, 3.0)))

        assert [o.tolist() for o in asyncio.run(main())] == \
            [[2.0], [4.0], [6.0]]
        assert pools == [] and crashes.value == before + 1


# ---------------------------------------------------------------------------
# admission control


class TestAdmission:
    def test_lane_budget_sheds_then_recovers(self):
        adm = AdmissionController(max_pending_evals=100,
                                  max_client_inflight=10)
        assert adm.admit(1, 60)
        assert not adm.admit(2, 60)          # 120 > 100: shed
        adm.release(1, 60)
        assert adm.admit(2, 60)              # budget returned

    def test_client_inflight_cap(self):
        adm = AdmissionController(max_pending_evals=10_000,
                                  max_client_inflight=2)
        before = metrics.counter("serve.shed.client_cap").value
        assert adm.admit(7, 1) and adm.admit(7, 1)
        assert not adm.admit(7, 1)           # third in-flight: shed
        assert adm.admit(8, 1)               # other clients unaffected
        assert metrics.counter("serve.shed.client_cap").value == before + 1
        adm.release(7, 1)
        assert adm.admit(7, 1)

    def test_forget_drops_disconnected_client(self):
        adm = AdmissionController(max_client_inflight=1)
        assert adm.admit(5, 1)
        adm.forget(5)
        assert adm.admit(5, 1)


# ---------------------------------------------------------------------------
# the real service (fork-heavy: -m serve)


def _random_bits_inputs(n, seed):
    """float64 inputs drawn from random float32 bit patterns — covers
    every special class (NaN, infinities, denormals, out-of-domain)."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 1 << 32, n, dtype=np.uint64).astype(np.uint32)
    with np.errstate(invalid="ignore"):      # signaling NaNs in the draw
        return bits.view(np.float32).astype(np.float64)


@pytest.fixture(scope="module")
def svc_all():
    """One service publishing every shipped (function, target) pair."""
    from repro.serve import serve

    svc = serve(None, targets=("float32", "posit32"), workers=2)
    yield svc
    t0 = time.perf_counter()
    svc.close()
    assert time.perf_counter() - t0 < 10.0, "shutdown blew the deadline"


@pytest.mark.serve
class TestServiceEndToEnd:
    def test_ping(self, svc_all):
        with svc_all.connect("exp") as client:
            assert client.ping()

    @pytest.mark.parametrize("fn_name", ["exp", "log2", "sinh", "cospi"])
    def test_float32_stratified_bit_identical(self, svc_all, fn_name):
        lib = api.load(fn_name, target="float32")
        xs = _random_bits_inputs(2000, seed=hash(fn_name) % 1000)
        with svc_all.connect(fn_name, "float32") as client:
            got_bits = client.evaluate_bits_batch(xs)
            got_vals = client.evaluate_batch(xs)
        assert got_bits.tobytes() == lib.evaluate_bits_batch(xs).tobytes()
        assert got_vals.tobytes() == lib.evaluate_batch(xs).tobytes()

    @pytest.mark.parametrize("fn_name", ["exp", "log10", "cosh"])
    def test_posit32_stratified_bit_identical(self, svc_all, fn_name):
        lib = api.load(fn_name, target="posit32")
        rng = np.random.default_rng(hash(fn_name) % 1000)
        xs = rng.uniform(-30.0, 30.0, 2000)
        with svc_all.connect(fn_name, "posit32") as client:
            got = client.evaluate_bits_batch(xs)
        assert got.tobytes() == lib.evaluate_bits_batch(xs).tobytes()

    def test_all_adversarial_corpora_replay(self, svc_all):
        """Every committed hostile input, through the socket, bit-exact."""
        from repro.eval.adversarial import default_corpus_dir, \
            list_corpora, load_corpus

        repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        corpora = list_corpora(default_corpus_dir(repo))
        assert len(corpora) >= 18
        for function, target, path in corpora:
            corpus = load_corpus(path)
            x = np.array([e.x_bits for e in corpus], dtype=np.uint64)
            want = np.array([e.want_bits for e in corpus], dtype=np.uint64)
            with svc_all.connect(function, target) as client:
                got = client.evaluate_bits_from_bits(x)
            bad = np.nonzero(got != want)[0]
            assert bad.size == 0, (
                f"{function}.{target}: {bad.size}/{len(corpus)} serving "
                f"replies diverge from the frozen corpus")

    def test_unknown_function_is_an_error_not_a_hang(self, svc_all):
        from repro.serve import ServiceClient, ServiceError

        with ServiceClient("tanh", "float32",
                           address=svc_all.address) as client:
            with pytest.raises(ServiceError):
                client.evaluate_batch(np.array([1.0]))

    def test_doubles_path_matches_bits_path(self, svc_all):
        lib = api.load("ln", target="float32")
        xs = np.array([0.5, 1.0, 2.718281828459045, 1e30, -1.0])
        with svc_all.connect("ln") as client:
            vals = client.evaluate_batch(xs)
        assert vals.tobytes() == lib.evaluate_batch(xs).tobytes()


@pytest.mark.serve
def test_lone_request_flushes_on_idle_slot():
    """With the one worker idle, a lone request is dispatched on arrival
    (``flush.idle``); it neither fills a batch nor waits on a clock."""
    from repro.serve import serve

    idle = metrics.counter("serve.coalesce.flush.idle")
    size = metrics.counter("serve.coalesce.flush.size")
    xs = np.linspace(-1.0, 1.0, 256)
    with serve(["exp"], targets=("float32",), workers=1) as svc:
        with svc.connect("exp") as client:
            client.evaluate_bits_batch(xs)      # fork + warm the worker
            idle0, size0 = idle.value, size.value
            client.evaluate_bits_batch(xs)
    assert (idle.value, size.value) == (idle0 + 1, size0)


@pytest.mark.serve
class TestServiceFailureModes:
    def test_worker_crash_is_contained(self):
        """SIGKILL a worker mid-service: the pool re-forks, the retried
        request still answers bit-identically against the same arena."""
        from repro.serve import serve

        lib = api.load("exp", target="float32")
        xs = np.linspace(-10.0, 10.0, 512)
        crashes = metrics.counter("serve.worker.crashes")
        before = crashes.value
        with serve(["exp"], targets=("float32",), workers=2) as svc:
            with svc.connect("exp") as client:
                first = client.evaluate_bits_batch(xs)
                victims = list(svc._pool._pool._processes)
                os.kill(victims[0], signal.SIGKILL)
                second = client.evaluate_bits_batch(xs)
        assert first.tobytes() == lib.evaluate_bits_batch(xs).tobytes()
        assert second.tobytes() == first.tobytes()
        assert crashes.value >= before + 1

    def test_saturation_sheds_deterministically(self):
        """A request larger than the lane budget is refused outright;
        the client surfaces ServiceOverloaded after its retries."""
        from repro.serve import ServiceOverloaded, serve

        shed = metrics.counter("serve.shed")
        before = shed.value
        with serve(["exp"], targets=("float32",), workers=1,
                   max_pending_evals=64) as svc:
            with svc.connect("exp", chunk=128, shed_retries=1,
                             shed_backoff_s=0.001) as client:
                with pytest.raises(ServiceOverloaded):
                    client.evaluate_batch(np.zeros(128))
                # within budget still answers correctly after shedding
                assert client.evaluate(0.0) == 1.0
        assert shed.value > before
