"""Spans around the program's layers, recorded from the suite's own files.

Nothing here lives in ``src/``: a traced run wraps the public callables
each layer exposes, records a span per call (name, start, end, parent,
request id) in memory, and derives self times from them.

* :class:`Tracer` is the in-process recorder.  Spans nest through a
  stack; every span's self time (duration minus its children's) is
  summed per name as calls happen, and the first ``KEEP`` spans are
  kept for the dump.  :meth:`Tracer.calibrate` measures what a span
  itself costs where it runs, inside and outside the interval it
  records, so derived self times can be corrected for it.
* :func:`traced_libraries` swaps in scalar and batch wrappers for the
  duration of a ``with`` block: range reduction (``rr.special/reduce/
  compensate`` and their ``_batch`` forms), the compiled polynomials,
  final rounding and bit encoding, and the batch engine's kernel
  factories (patched before the functions' first ``.batch`` access).
* :class:`ServerTrace` runs inside the service process (installed by
  ``launcher.py``) around the protocol, admission, coalescing and worker
  pool entry points.
"""

from __future__ import annotations

import contextvars
import itertools
import time
from contextlib import contextmanager

from inputs import FAMILY, PAIRS


#: spans kept for the dump (per tracer); self times cover every span
KEEP = 100_000


class Tracer:
    """In-process span recorder with running per-name self-time sums."""

    def __init__(self):
        self.spans: list[tuple] = []    # (id, parent id, name, t0, t1)
        #: name -> [calls, self ns, items, direct children, extra]
        self.agg: dict[str, list] = {}
        self._stack: list[list] = []    # open spans: [id, child ns, children]
        self._ids = itertools.count()
        self.inner_ns = 0.0   # span cost inside the interval it records
        self.outer_ns = 0.0   # span cost charged to the parent's self time

    def wrap(self, fn, name: str, items=None, extra=None):
        """``fn`` recording a span per call.

        ``items(args)`` counts the work items (lanes) of a call and
        ``extra(result)`` an additional per-call count; both run after
        the span's end time is taken.
        """
        stack = self._stack
        spans = self.spans
        ids = self._ids
        agg = self.agg.setdefault(name, [0, 0, 0, 0, 0])
        pc = time.perf_counter_ns

        def traced(*args):
            parent = stack[-1] if stack else None
            frame = [next(ids), 0, 0]
            stack.append(frame)
            t0 = pc()
            try:
                out = fn(*args)
            finally:
                t1 = pc()
                stack.pop()
            dur = t1 - t0
            agg[0] += 1
            agg[1] += dur - frame[1]
            agg[3] += frame[2]
            if items is not None:
                agg[2] += items(args)
            if extra is not None:
                agg[4] += extra(out)
            if parent is not None:
                parent[1] += dur
                parent[2] += 1
            if len(spans) < KEEP:
                spans.append((frame[0], parent[0] if parent else -1, name,
                              t0, t1))
            return out

        return traced

    def take(self) -> dict:
        """The per-name sums so far; starts new sums."""
        out = {k: list(v) for k, v in self.agg.items()}
        for v in self.agg.values():
            v[:] = [0, 0, 0, 0, 0]
        return out

    def restart(self) -> None:
        """Forget what was recorded so far (set-up, calibration)."""
        self.take()
        self.spans.clear()

    def self_ns(self, agg: dict, name: str) -> float:
        """Total self time of ``name``, less the spans' own cost."""
        calls, ns, _, children, _ = agg.get(name, (0, 0, 0, 0, 0))
        return ns - calls * self.inner_ns - children * self.outer_ns

    def calibrate(self, plain: list, traced: list, unpatched,
                  repeats: int = 25) -> None:
        """Measure what a span costs on the code it wraps.

        ``plain`` and ``traced`` are the same calls as ``(fn, arg)``
        pairs, without and with spans, each traced call one span tree
        with a single root; ``unpatched`` restores the patched module
        attributes for the plain repeats.  Plain and traced repeats
        alternate; from the fastest of each, per call: with S spans,
        traced - plain = S * (inner + outer), and traced - recorded =
        outer, since only the root's outer cost falls outside what the
        spans record.  (A span timed on a no-op in a tight loop costs
        much less than one among real calls.)
        """
        self.take()
        plain_ns, best = float("inf"), None
        for _ in range(repeats):
            with unpatched():
                plain_ns = min(plain_ns, _ns_per_call(plain))
            traced_ns = _ns_per_call(traced)
            agg = self.take()
            if best is None or traced_ns < best[0]:
                best = traced_ns, agg
        traced_ns, agg = best
        recorded = sum(v[1] for v in agg.values()) / len(traced)
        spans = sum(v[0] for v in agg.values()) / len(traced)
        self.outer_ns = max(traced_ns - recorded, 0.0)
        self.inner_ns = max((traced_ns - plain_ns) / spans - self.outer_ns,
                            0.0)

    def dump(self) -> dict:
        return {"inner_ns": self.inner_ns, "outer_ns": self.outer_ns,
                "spans": [list(s) for s in self.spans],
                "span_fields": ["id", "parent", "name", "t0_ns", "t1_ns"]}


def _ns_per_call(calls: list) -> float:
    """Mean ns per call over one pass of ``(fn, arg)`` pairs."""
    t0 = time.perf_counter_ns()
    for fn, arg in calls:
        fn(arg)
    return (time.perf_counter_ns() - t0) / len(calls)


def _lanes(args) -> int:
    return len(args[0])


def _special_lanes(out) -> int:
    return int(out[0].sum())


@contextmanager
def traced_libraries(tracer: Tracer, pairs=PAIRS):
    """Freshly loaded, traced ``Library`` handles for ``pairs``.

    Yields ``(libs, unpatched)``: ``libs`` maps each pair to its handle,
    and ``with unpatched():`` restores the patched module attributes for
    a while, so handles loaded before the block run untraced.  The
    wrappers go on fresh copies (``api.reload``); on exit the module
    attributes are restored and the pairs reloaded again, so the handles
    ``api.load`` returns afterwards are clean.
    """
    from repro import api
    import repro.batch.engine as engine
    import repro.core.generator as generator

    patched = [(generator, "target_bits"), (generator, "target_rounder"),
               (engine, "compile_approx"), (engine, "bits_kernel"),
               (engine, "round_kernel")]
    orig = {attr: getattr(mod, attr) for mod, attr in patched}
    family = [""]    # family whose batch pipeline is being built
    bits_by_fmt: dict = {}

    def target_bits(fmt, v):
        w = bits_by_fmt.get(fmt)
        if w is None:
            w = bits_by_fmt[fmt] = tracer.wrap(orig["target_bits"],
                                               f"fp.{fmt}.bits")
        return w(fmt, v)

    def target_rounder(fmt):
        return tracer.wrap(orig["target_rounder"](fmt), f"fp.{fmt}.round")

    def compile_approx(af):
        return tracer.wrap(orig["compile_approx"](af),
                           f"batch.{family[0]}.horner", items=_lanes)

    def bits_kernel(fmt):
        return tracer.wrap(orig["bits_kernel"](fmt),
                           f"batch.{family[0]}.round", items=_lanes)

    def round_kernel(fmt):
        return tracer.wrap(orig["round_kernel"](fmt),
                           f"batch.{family[0]}.round", items=_lanes)

    wrappers = {"target_bits": target_bits, "target_rounder": target_rounder,
                "compile_approx": compile_approx, "bits_kernel": bits_kernel,
                "round_kernel": round_kernel}

    def patch(table):
        for mod, attr in patched:
            setattr(mod, attr, table[attr])

    @contextmanager
    def unpatched():
        patch(orig)
        try:
            yield
        finally:
            patch(wrappers)

    patch(wrappers)
    try:
        libs = {}
        for fn_name, target in pairs:
            lib = api.reload(fn_name, target)
            fam = FAMILY[fn_name]
            rr = lib.fn.spec.rr
            for stage in ("special", "reduce", "compensate"):
                setattr(rr, stage, tracer.wrap(
                    getattr(rr, stage), f"rangereduction.{fam}.{stage}"))
            for af in lib.fn.approx.values():
                # ``compiled`` is a cached property; its cache slot is
                # what GeneratedFunction.evaluate_bits reads per call
                object.__setattr__(af, "_compiled", tracer.wrap(
                    af.compiled, f"core.polynomials.{fam}.approx"))
            lib.fn.evaluate = tracer.wrap(lib.fn.evaluate, "api.evaluate")
            lib.fn.evaluate_bits = tracer.wrap(lib.fn.evaluate_bits,
                                               "api.evaluate_bits")
            rr.special_batch = tracer.wrap(
                rr.special_batch, f"batch.{fam}.special", items=_lanes,
                extra=_special_lanes)
            rr.reduce_batch = tracer.wrap(rr.reduce_batch,
                                          f"batch.{fam}.reduce", items=_lanes)
            rr.compensate_batch = tracer.wrap(
                rr.compensate_batch, f"batch.{fam}.compensate",
                items=lambda args: len(args[0][0]))
            family[0] = fam
            bf = lib.fn.batch
            bf.evaluate_bits_many = tracer.wrap(
                bf.evaluate_bits_many, "api.evaluate_bits_batch",
                items=lambda args: args[0].size)
            libs[(fn_name, target)] = lib
        yield libs, unpatched
    finally:
        patch(orig)
        for fn_name, target in pairs:
            api.reload(fn_name, target)


class ServerTrace:
    """Spans of the service's request path, recorded in its process.

    Each span is ``(name, t0_ns, t1_ns, request id, key, lanes, extra)``;
    the request id comes from the frame being handled, and ``extra``
    is the worker's own compute time for ``run`` spans.  Timestamps are
    ``perf_counter_ns`` (CLOCK_MONOTONIC), comparable with the load
    generator's in the benchmark process.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.publish_s = 0.0
        self.attach_s = 0.0
        self._busy = contextvars.ContextVar("busy")

    def _add(self, *span) -> None:
        self.spans.append(span)

    def install(self) -> None:
        """Patch the serving modules; call before ``api.serve``."""
        import repro.serve.frontend as frontend
        import repro.serve.protocol as protocol
        from repro.serve.admission import AdmissionController
        from repro.serve.coalesce import Coalescer
        from repro.serve.workers import WorkerPool

        pc = time.perf_counter_ns
        add = self._add
        busy = self._busy
        rid = contextvars.ContextVar("rid", default=-1)
        trace = self

        read_frame = protocol.read_frame
        unpack_request = protocol.unpack_request
        pack_reply = protocol.pack_reply
        write_frame = protocol.write_frame
        admit = AdmissionController.admit
        submit = Coalescer.submit
        run = WorkerPool.run
        account = getattr(WorkerPool, "_account", None)
        publish = frontend.publish

        async def t_read_frame(reader):
            out = await read_frame(reader)
            if out is not None and len(out) >= 4:
                t = pc()
                add("read_frame", t, t, int.from_bytes(out[:4], "little"),
                    "", 0, 0.0)
            return out

        def t_unpack_request(payload):
            t0 = pc()
            req = unpack_request(payload)
            t1 = pc()
            rid.set(req.req_id)
            add("unpack_request", t0, t1, req.req_id, "", len(req.data), 0.0)
            return req

        def t_pack_reply(req_id, status, data=None, error=None):
            t0 = pc()
            out = pack_reply(req_id, status, data, error)
            add("pack_reply", t0, pc(), req_id, "",
                0 if data is None else len(data), float(status))
            return out

        def t_write_frame(writer, payload):
            t0 = pc()
            write_frame(writer, payload)
            add("write_frame", t0, pc(), int.from_bytes(payload[:4], "little"),
                "", 0, 0.0)

        def t_admit(self, client_id, lanes):
            t0 = pc()
            ok = admit(self, client_id, lanes)
            add("admit", t0, pc(), rid.get(), "", lanes, float(ok))
            return ok

        def t_submit(self, key, op, data):
            t0 = pc()
            fut = submit(self, key, op, data)
            add("submit", t0, pc(), rid.get(), key, len(data), float(op))
            return fut

        async def t_run(self, key, op, data):
            cell = [0.0]
            busy.set(cell)
            t0 = pc()
            out = await run(self, key, op, data)
            add("run", t0, pc(), -1, key, len(data), cell[0])
            return out

        def t_account(self, busy_s, lanes):
            cell = busy.get(None)
            if cell is not None:
                cell[0] = busy_s
            return account(self, busy_s, lanes)

        def t_publish(*args, **kwargs):
            t0 = time.perf_counter()
            out = publish(*args, **kwargs)
            trace.publish_s = time.perf_counter() - t0
            return out

        protocol.read_frame = t_read_frame
        protocol.unpack_request = t_unpack_request
        protocol.pack_reply = t_pack_reply
        protocol.write_frame = t_write_frame
        AdmissionController.admit = t_admit
        Coalescer.submit = t_submit
        WorkerPool.run = t_run
        if account is not None:
            WorkerPool._account = t_account
        frontend.publish = t_publish

    def dump(self) -> dict:
        return {"spans": [list(s) for s in self.spans],
                "span_fields": ["name", "t0_ns", "t1_ns", "req", "key",
                                "lanes", "extra"],
                "publish_s": self.publish_s, "attach_s": self.attach_s}
