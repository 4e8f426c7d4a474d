"""The serving workloads: open-loop small requests and closed-loop bulk.

Both talk to a service that ``launcher.py`` runs in a child process
(``repro.api.serve``, one worker, every shipped pair).  ``serve_open``
drives it from one asyncio thread over two connections with a fixed
arrival schedule, built from ``repro.serve.protocol`` frames;
``serve_bulk`` (traced runs only) calls
``ServiceClient.evaluate_bits_batch`` in a closed loop.  Every reply is
checked against the in-process ``Library`` and the corpus wants.
"""

from __future__ import annotations

import asyncio
import os
import secrets
import struct
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np

import inputs as inp
from common import Outcome, pct, read_json_line, spawn, stop

LOW_RATE = 500          # req/s: requests arrive alone
MID_RATE = 4000         # req/s: some coalescing
CAPACITY_START = 1000   # req/s, doubled until a probe fails
BISECT_STEPS = 4
P90_LIMIT_MS = 20.0
SHED_RETRIES = 8
SHED_BACKOFF_S = 0.005
CONNECTIONS = 2
MAX_BATCH = 65536       # the service's default coalescing size trigger


class Service:
    """The libm service in a launcher child process."""

    def __init__(self, trace: bool = False):
        name = f"repro-bench-{os.getpid()}-{secrets.token_hex(4)}"
        # an abstract unix socket: nothing is written to the file system
        self.address = "\0" + name
        self.trace = trace
        self.proc = spawn("launcher.py", "--address", name,
                          *(["--trace"] if trace else []))
        try:
            read_json_line(self.proc, "READY")
        except BaseException:
            stop(self.proc)
            raise

    def close(self) -> dict | None:
        """Stop the service; returns its span dump when tracing."""
        try:
            if self.trace:
                self.proc.stdin.close()      # stop, then read the dump
                return read_json_line(self.proc, "TRACE")
            return None
        finally:
            stop(self.proc)


def boot(first: inp.PairInputs, key, trace: bool, out: Outcome):
    """Start a service and time it to its first correct reply."""
    from repro import api

    t0 = time.perf_counter()
    svc = Service(trace)
    try:
        with api.connect(*key, address=svc.address) as client:
            bits = client.evaluate_bits_batch(
                first.xs.reshape(-1)[first.want_at])
    except BaseException:
        svc.close()
        raise
    took = time.perf_counter() - t0
    out.count(len(first.want), np.count_nonzero(bits != first.want))
    return svc, took


def boot_many(first, key, reps: int, trace: bool, out: Outcome):
    """``reps`` timed boots (median -> setup_s); the last one is kept."""
    times = []
    svc = None
    n = max(reps, 1)
    for i in range(n):
        if svc is not None:
            svc.close()
        svc, took = boot(first, key, trace and i == n - 1, out)
        times.append(took)
    if reps:
        out.e2e["setup_s"] = float(np.median(times))
    return svc


# -- serve_open: the open-loop generator ------------------------------------


@dataclass
class Phase:
    """One fixed-rate stretch of the schedule and what happened to it."""

    rate: float
    base: int              # request id of the first request
    due: np.ndarray        # int64 ns
    sent: np.ndarray
    done: np.ndarray
    state: np.ndarray      # 0 pending, 1 ok, 2 wrong/error, 3 shed, 4 timeout
    tries: np.ndarray
    backlog_end: int = 0
    backlog_max: int = 0

    @property
    def n(self) -> int:
        return len(self.due)

    def latencies_ms(self) -> np.ndarray:
        """Per request, from its due time; a failed request is a miss,
        charged the time it had waited when given up."""
        return (self.done - self.due) / 1e6

    def failed(self) -> int:
        return int(np.count_nonzero(self.state != 1))


class OpenLoop:
    """Fixed-schedule sender and reply checker on one asyncio loop.

    Send times come from a timer thread that sleeps to each due time and
    wakes the loop (asyncio's own timers round to whole milliseconds);
    the loop thread does all socket I/O.
    """

    def __init__(self, address: str, requests: dict, expected: dict):
        from repro.serve import protocol

        self.protocol = protocol
        self.address = address
        self.keys = list(requests)
        self.expected = [expected[k] for k in self.keys]
        # one framed request per (key, payload), request id patched per send
        self.frames = []
        for key in self.keys:
            row = []
            for lanes in requests[key]:
                payload = protocol.pack_request(
                    0xFFFFFFFF, protocol.OP_EVAL_BITS, key[0], key[1], lanes)
                row.append(bytearray(struct.pack("<I", len(payload))
                                     + payload))
            self.frames.append(row)
        self._check_frame_layout()
        self.next_id = 1
        self.phase: Phase | None = None
        self.outstanding = 0

    def _check_frame_layout(self) -> None:
        """The request id is patched in place; make sure it is where the
        protocol reads it."""
        frame = bytearray(self.frames[0][0])
        struct.pack_into("<I", frame, 4, 12345)
        if self.protocol.unpack_request(bytes(frame[4:])).req_id != 12345:
            raise RuntimeError("request header layout changed; the load "
                               "generator cannot patch request ids")

    def _frame(self, rid: int) -> bytes:
        g = rid - 1
        buf = self.frames[g % len(self.keys)][(g // len(self.keys))
                                              % inp.SERVE_SLICES]
        struct.pack_into("<I", buf, 4, rid)
        return bytes(buf)

    async def start(self) -> None:
        self.loop = asyncio.get_running_loop()
        self.writers = []
        self.readers = []
        for _ in range(CONNECTIONS):
            r, w = await asyncio.open_unix_connection(self.address)
            self.writers.append(w)
            self.readers.append(asyncio.ensure_future(self._read(r)))

    async def close(self) -> None:
        for w in self.writers:
            w.close()
        for t in self.readers:
            t.cancel()
        await asyncio.gather(*self.readers, return_exceptions=True)

    async def _read(self, reader) -> None:
        protocol = self.protocol
        pc = time.perf_counter_ns
        while True:
            payload = await protocol.read_frame(reader)
            if payload is None:
                return
            self._on_reply(protocol.unpack_reply(payload,
                                                 protocol.OP_EVAL_BITS), pc())

    def _on_reply(self, rep, t: int) -> None:
        self.outstanding -= 1
        ph = self.phase
        i = rep.req_id - ph.base if ph is not None else -1
        if i < 0 or i >= ph.n or ph.state[i] != 0:
            return                       # a reply given up on earlier
        protocol = self.protocol
        if rep.status == protocol.STATUS_SHED:
            ph.tries[i] += 1
            if ph.tries[i] <= SHED_RETRIES:
                self.loop.call_later(
                    SHED_BACKOFF_S * 2 ** (ph.tries[i] - 1), self._send,
                    rep.req_id)
                return
            ph.state[i] = 3
        elif rep.status == protocol.STATUS_OK:
            g = rep.req_id - 1
            want = self.expected[g % len(self.keys)][
                (g // len(self.keys)) % inp.SERVE_SLICES]
            ph.state[i] = 1 if np.array_equal(rep.data, want) else 2
        else:
            ph.state[i] = 2
        ph.done[i] = t
        self._left -= 1
        if self._left == 0:
            self._finished.set()

    def _send(self, rid: int) -> None:
        self.writers[rid % CONNECTIONS].write(self._frame(rid))
        self.outstanding += 1

    def _pump(self, upto: int) -> None:
        ph = self.phase
        pc = time.perf_counter_ns
        for i in range(self._next, upto):
            self._send(ph.base + i)
            ph.sent[i] = pc()
        self._next = max(self._next, upto)
        inflight = self._next - (ph.n - self._left)
        ph.backlog_max = max(ph.backlog_max, inflight)
        if self._next == ph.n:
            ph.backlog_end = inflight

    def _timer(self, due: np.ndarray) -> None:
        pc = time.perf_counter_ns
        i, n = 0, len(due)
        while i < n:
            wait = (due[i] - pc()) / 1e9
            if wait > 0:
                time.sleep(wait)
            j = max(int(np.searchsorted(due, pc(), "right")), i + 1)
            self.loop.call_soon_threadsafe(self._pump, j)
            i = j

    async def run_phase(self, rate: float, seconds: float,
                        drain_s: float) -> Phase:
        n = max(1, int(rate * seconds))
        t0 = time.perf_counter_ns() + 2_000_000
        due = t0 + (np.arange(n) * (1e9 / rate)).astype(np.int64)
        ph = Phase(rate, self.next_id, due, np.zeros(n, np.int64),
                   np.zeros(n, np.int64), np.zeros(n, np.int8),
                   np.zeros(n, np.int16))
        self.next_id += n
        self.phase = ph
        self._next = 0
        self._left = n
        self._finished = asyncio.Event()
        timer = threading.Thread(target=self._timer, args=(due,), daemon=True)
        timer.start()
        try:
            await asyncio.wait_for(self._finished.wait(),
                                   seconds + drain_s + 1.0)
        except asyncio.TimeoutError:
            pass
        timer.join()                     # done: the schedule ended earlier
        now = time.perf_counter_ns()
        ph.sent[self._next:] = now       # never sent: generator fell behind
        pending = ph.state == 0
        ph.state[pending] = 4
        ph.done[pending] = now
        self.phase = None
        # let requests given up on leave the service before the next phase
        for _ in range(int(drain_s * 100)):
            if self.outstanding <= 0:
                break
            await asyncio.sleep(0.01)
        return ph


def _probe_ok(ph: Phase) -> bool:
    return (ph.failed() == 0
            and pct(ph.latencies_ms(), 90) <= P90_LIMIT_MS
            and ph.backlog_end <= ph.rate * P90_LIMIT_MS / 1e3)


async def _open_schedule(gen: OpenLoop, seconds: float):
    """Warm-up, the two fixed rates, then the capacity search."""
    await gen.start()
    try:
        warm = await gen.run_phase(1000, 0.2, 2.0)      # not timed
        low = await gen.run_phase(LOW_RATE, 0.3 * seconds, 5.0)
        mid = await gen.run_phase(MID_RATE, 0.3 * seconds, 5.0)
        probe_s = max(0.04 * seconds, 0.25)
        probes = []

        async def probe(rate):
            ph = await gen.run_phase(rate, probe_s, 2.0)
            probes.append(ph)
            return _probe_ok(ph)

        lo, hi = 0.0, float(CAPACITY_START)
        while hi <= 64 * CAPACITY_START and await probe(hi):
            lo, hi = hi, 2 * hi
        if lo == 0.0:                    # even the start rate failed
            while hi > CAPACITY_START / 16:
                hi /= 2
                if await probe(hi):
                    lo = hi
                    break
            hi = 2 * lo
        if lo > 0.0:
            for _ in range(BISECT_STEPS):
                rate = (lo * hi) ** 0.5
                if await probe(rate):
                    lo = rate
                else:
                    hi = rate
        return warm, low, mid, probes, lo
    finally:
        await gen.close()


def run_serve_open(seed: int, seconds: float, *, tracer,
                   setup_reps: int, out: Outcome) -> None:
    """Open loop; ``tracer`` (any non-None) runs a traced service."""
    from repro import api

    data = inp.serve_open_inputs(seed)
    out.input_hash = inp.input_hash(data)
    requests, expected = {}, {}
    for key, pi in data.items():
        ref = api.load(*key).evaluate_bits_batch(pi.xs)
        bad = np.count_nonzero(ref.reshape(-1)[pi.want_at] != pi.want)
        out.count(len(pi.want), bad)
        requests[key] = list(pi.xs)
        expected[key] = list(ref)
    key0 = inp.SERVE_OPEN_KEYS[0]
    svc = boot_many(data[key0], key0, setup_reps, tracer is not None, out)
    old_switch = sys.getswitchinterval()
    # the timer thread must get the interpreter lock promptly to send on
    # time while the loop thread is busy reading replies
    sys.setswitchinterval(0.0005)
    try:
        gen = OpenLoop(svc.address, requests, expected)
        warm, low, mid, probes, capacity = asyncio.run(
            _open_schedule(gen, seconds))
    finally:
        sys.setswitchinterval(old_switch)
        dump = svc.close()
    for ph in (warm, low, mid):
        out.count(ph.n, ph.failed())
    for ph in probes:
        # overload is what a capacity probe looks for: a shed or timed-out
        # request there is the signal, a wrong answer is still a failure
        out.count(ph.n, np.count_nonzero(ph.state == 2))
    lo_ms, mid_ms = low.latencies_ms(), mid.latencies_ms()
    # lanes answered correctly per second of the 4000 req/s phase, from
    # its first due time to its last reply: falls when the service stops
    # keeping up (capacity itself tracks the host's speed too closely to
    # hold a regression bound, so it is a per-layer number)
    goodput = np.count_nonzero(mid.state == 1) * inp.SLICE \
        / (mid.done.max() - mid.due[0]) * 1e3
    out.e2e.update(latency_p50_us=pct(lo_ms, 50) * 1e3,
                   latency_p90_us=pct(lo_ms, 90) * 1e3,
                   throughput_meval_s=goodput)
    out.detail.update(
        serve_low_p50_ms=(pct(lo_ms, 50), "ms"),
        serve_low_p99_ms=(pct(lo_ms, 99), "ms"),
        serve_mid_p50_ms=(pct(mid_ms, 50), "ms"),
        serve_mid_p99_ms=(pct(mid_ms, 99), "ms"),
        serve_capacity_rps=(capacity, "req/s"),
        capacity_probes=(len(probes), "count"))
    out.layer["serve.capacity_rps"] = capacity
    late = np.concatenate([low.sent - low.due, mid.sent - mid.due]) / 1e6
    out.layer["loadgen.late_ms_p99"] = pct(late, 99)
    out.layer["loadgen.backlog_max"] = float(max(low.backlog_max,
                                                 mid.backlog_max))
    if dump is not None:
        out.spans["server"] = dump
        out.layer.update(serve_layers(dump, low, mid))
        out.layer.update(boot_layers(dump))


# -- serve_bulk: the closed-loop bulk client --------------------------------


def run_serve_bulk(seed: int, seconds: float, *, tracer,
                   setup_reps: int, out: Outcome) -> None:
    """Closed loop; ``tracer`` (any non-None) runs a traced service.

    Run by traced runs only: bulk throughput needs both cores of a
    2-core host and follows other tenants' load too closely to hold a
    regression bound, so its numbers are per-layer (see README.md).
    """
    from repro import api
    from repro.serve.client import ServiceError, ServiceOverloaded

    data = inp.serve_bulk_inputs(seed)
    out.input_hash = inp.input_hash(data)
    refs = {}
    for key, pi in data.items():
        refs[key] = api.load(*key).evaluate_bits_batch(pi.xs)
        out.count(len(pi.want),
                  np.count_nonzero(refs[key][pi.want_at] != pi.want))
    key0 = inp.SERVE_BULK_KEYS[0]
    svc = boot_many(data[key0], key0, setup_reps, tracer is not None, out)
    passes = []          # per pass (one call per key): mean call time, ns
    t_start = time.perf_counter_ns()
    try:
        clients = [api.connect(*key, address=svc.address, chunk=MAX_BATCH)
                   for key in inp.SERVE_BULK_KEYS]
        try:
            for client, key in zip(clients, inp.SERVE_BULK_KEYS):
                client.evaluate_bits_batch(data[key].xs[:MAX_BATCH])  # warm
            deadline = time.perf_counter() + seconds
            t_start = time.perf_counter_ns()
            while time.perf_counter() < deadline:
                spent = 0
                for client, key in zip(clients, inp.SERVE_BULK_KEYS):
                    t0 = time.perf_counter_ns()
                    try:
                        got = client.evaluate_bits_batch(data[key].xs)
                    except (ServiceError, ServiceOverloaded):
                        out.count(1, 1)
                        continue
                    spent += time.perf_counter_ns() - t0
                    out.count(1, not np.array_equal(got, refs[key]))
                passes.append(spent / len(clients))
        finally:
            for c in clients:
                c.close()
    finally:
        dump = svc.close()
    t_end = time.perf_counter_ns()
    # the two keys differ in speed, so statistics are over passes, never
    # over single calls (whose distribution has two modes)
    call_ms = np.asarray(passes, np.float64) / 1e6
    rate = float(np.median(inp.BULK_LANES / call_ms / 1e3))
    out.layer.update({"serve.bulk.meval_s": rate,
                      "serve.bulk.call_ms_p50": pct(call_ms, 50)})
    out.detail.update(bulk_meval_s=(rate, "Meval/s"),
                      bulk_call_ms_p90=(pct(call_ms, 90), "ms"),
                      bulk_passes=(len(passes), "count"))
    if dump is not None:
        out.spans["server"] = dump
        out.layer.update(bulk_layers(dump, t_start, t_end))
        out.layer.update(boot_layers(dump))


# -- per-layer numbers from the service's spans -----------------------------


def _spans(dump: dict) -> dict:
    """Server spans grouped by name as numpy columns."""
    by: dict = {}
    for name, t0, t1, req, key, lanes, extra in dump["spans"]:
        by.setdefault(name, []).append((t0, t1, req, key, lanes, extra))
    out = {}
    for name, rows in by.items():
        t0, t1, req, key, lanes, extra = zip(*rows)
        out[name] = {"t0": np.array(t0, np.int64),
                     "t1": np.array(t1, np.int64),
                     "req": np.array(req, np.int64), "key": np.array(key),
                     "lanes": np.array(lanes, np.int64),
                     "extra": np.array(extra, np.float64)}
    return out


def _mean_us(col: dict, mask) -> float:
    sel = mask if mask is not None else slice(None)
    d = (col["t1"][sel] - col["t0"][sel]) / 1e3
    return float(d.mean()) if d.size else 0.0


def _runs_in(runs: dict, t_lo: int, t_hi: int):
    return (runs["t0"] >= t_lo) & (runs["t0"] < t_hi)


def boot_layers(dump: dict) -> dict:
    return {"serve.tables.publish_s": float(dump.get("publish_s", 0.0)),
            "serve.tables.attach_s": float(dump.get("attach_s", 0.0))}


def _dispatch_layers(runs: dict, sel) -> dict:
    """Worker-pool run time split into worker compute and the rest (IPC:
    the thread hop, pickling and the pipe)."""
    dur_ms = (runs["t1"][sel] - runs["t0"][sel]) / 1e6
    busy_ms = runs["extra"][sel] * 1e3
    if not dur_ms.size:
        return {}
    return {"serve.workers.dispatch_ms_p50": pct(dur_ms, 50),
            "serve.workers.compute_ms_mean": float(busy_ms.mean()),
            "serve.workers.ipc_ms": float((dur_ms - busy_ms).mean())}


def _utilization(runs: dict, t_lo: int, t_hi: int) -> float:
    """Worker busy time over wall time (the service has one worker)."""
    sel = _runs_in(runs, t_lo, t_hi)
    return float(runs["extra"][sel].sum() * 1e9 / max(t_hi - t_lo, 1))


def request_breakdown(sp: dict, ph: Phase) -> dict:
    """Per request of one phase, the parts of its latency from due time.

    ``late``: due to sent (the generator); ``transport``: what the
    client waited beyond the server's own time (sockets, client reads);
    ``wait``: the request's submit to the next worker-pool run start for
    the same key (coalescing); ``dispatch``: that run; ``self``: the
    rest of the server's time from reading the frame to writing the
    reply (the frontend).
    """
    ids = np.arange(ph.base, ph.base + ph.n)

    def at(name, field):
        # a request id seen twice (the boot client's ids restart at 1)
        # maps to its last span, the load generator's
        col = sp[name]
        pos = {int(r): i for i, r in enumerate(col["req"])}
        return [col[field][pos[r]] if r in pos else None
                for r in ids.tolist()]

    runs = sp["run"]
    read = at("read_frame", "t1")
    sub_end = at("submit", "t1")
    key_of = at("submit", "key")
    write_end = at("write_frame", "t1")
    wait, disp, self_, transport, late = [], [], [], [], []
    order = {}
    for k in set(runs["key"].tolist()):
        m = runs["key"] == k
        o = np.argsort(runs["t0"][m])
        order[k] = (runs["t0"][m][o], runs["t1"][m][o])
    for i in range(ph.n):
        k = key_of[i]
        if k is None or ph.state[i] != 1 or read[i] is None \
                or write_end[i] is None:
            continue
        t0s, t1s = order[k]
        j = int(np.searchsorted(t0s, sub_end[i]))
        if j == len(t0s):
            continue
        w = t0s[j] - sub_end[i]
        d = t1s[j] - t0s[j]
        server = write_end[i] - read[i]
        wait.append(w)
        disp.append(d)
        self_.append(server - w - d)
        transport.append((ph.done[i] - ph.sent[i]) - server)
        late.append(ph.sent[i] - ph.due[i])
    return {k: np.array(v, np.float64) / 1e6 for k, v in
            (("wait", wait), ("dispatch", disp), ("self", self_),
             ("transport", transport), ("late", late))}


def serve_layers(dump: dict, low: Phase, mid: Phase) -> dict:
    """serve_open's per-layer numbers: the lone-request breakdown from
    the low-rate phase, coalescing and utilization from the mid rate.

    ``serve.stage_sum_ms`` (the medians of every part of a request's
    latency) is turned into a share of the untraced latency by the
    caller.
    """
    sp = _spans(dump)
    need = ("read_frame", "unpack_request", "admit", "submit", "run",
            "pack_reply", "write_frame")
    if any(n not in sp for n in need):
        return {}
    b = request_breakdown(sp, low)
    out = {}
    if b["wait"].size:
        out.update({
            "serve.coalesce.wait_ms_p50": pct(b["wait"], 50),
            "serve.frontend.self_ms_p50": pct(b["self"], 50),
            "loadgen.transport_ms_p50": pct(b["transport"], 50),
            "serve.stage_sum_ms": sum(pct(v, 50) for v in b.values())})
    runs = sp["run"]
    out.update(_dispatch_layers(
        runs, _runs_in(runs, int(low.due[0]), int(low.done.max()) + 1)))
    mid_lo, mid_hi = int(mid.due[0]), int(mid.due[-1])
    out["serve.workers.utilization"] = _utilization(runs, mid_lo, mid_hi)
    lanes = runs["lanes"][_runs_in(runs, mid_lo, mid_hi)]
    if lanes.size:
        out["serve.coalesce.batch_lanes_mean"] = float(lanes.mean())
        out["serve.coalesce.deadline_flush_share"] = float(
            np.mean(lanes < MAX_BATCH))
    unpack, pack = sp["unpack_request"], sp["pack_reply"]
    out["serve.protocol.unpack_request_us_256"] = _mean_us(
        unpack, unpack["lanes"] == inp.SLICE)
    out["serve.protocol.pack_reply_us_256"] = _mean_us(
        pack, pack["lanes"] == inp.SLICE)
    out["serve.admission.admit_us"] = _mean_us(sp["admit"], None)
    return out


def bulk_layers(dump: dict, t_start: int, t_end: int) -> dict:
    """serve_bulk's per-layer numbers over the measured calls."""
    sp = _spans(dump)
    if "run" not in sp or "unpack_request" not in sp:
        return {}
    runs = sp["run"]
    out = _dispatch_layers(runs, _runs_in(runs, t_start, t_end))
    out["serve.workers.utilization"] = _utilization(runs, t_start, t_end)
    unpack, pack = sp["unpack_request"], sp["pack_reply"]
    out["serve.protocol.unpack_request_us_64k"] = _mean_us(
        unpack, unpack["lanes"] == MAX_BATCH)
    out["serve.protocol.pack_reply_us_64k"] = _mean_us(
        pack, pack["lanes"] == MAX_BATCH)
    return out
