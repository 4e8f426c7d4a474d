"""Serving-path load generator: throughput, latency SLOs, memory win.

Boots the multi-process libm service (2 workers, shared-memory arena)
on the shipped float32 ``exp`` and drives it through the unix socket
three ways:

* a pipelined bulk phase (large chunked batches) that must sustain
  >= 1,000,000 evals/second aggregate — the issue's acceptance floor,
  declared on the registry entry;
* a small-request phase whose per-request wall times yield the p50/p99
  latency gauges (quantiles are computed client-side from the raw
  samples; the service-side ``serve.request_s`` histogram is log2-
  bucketed and too coarse for an SLO figure);
* a bit-identity spot check of the service replies against the
  in-process :class:`repro.api.Library` — the trust boundary says the
  socket changes *where* the answer is computed, never the answer.

It also measures (in fresh subprocesses, so import caches can't lie)
what the shared-memory arena buys at boot: importing every frozen data
module vs attaching the published arena, wall time and peak RSS each.

Gauges land in the ``serving_latency.metrics.json`` sidecar and the
``BENCH_<host>.json`` trajectory (suite ``serving``): throughput,
p50/p99 ms, shed rate, coalesced-batch count, pool-reuse hits, and the
import-vs-attach startup costs.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from repro import api
from repro.obs import metrics
from repro.obs.bench import benchmark, emit_report

#: lanes pushed through the socket in the bulk-throughput phase
N_BULK = int(os.environ.get("REPRO_BENCH_SERVE_N", "2000000"))
#: small-request phase: per-request latency sampling
N_REQUESTS = 2000
REQUEST_LANES = 256
IDENTITY_SAMPLE = 50000
SEED = 2021
EVALS_PER_S_FLOOR = 1_000_000.0

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: both snippets measure past the common interpreter/numpy baseline
#: (imported before t0), so the deltas isolate what actually differs:
#: executing eighteen frozen data modules vs mapping one arena.
_RSS_HELPER = """\
def _rss_mb():
    with open("/proc/self/status") as fh:
        line = next(l for l in fh if l.startswith("VmRSS"))
    return int(line.split()[1]) / 1024.0
"""

#: boot cost of the status quo: import every frozen data module
_IMPORT_SNIPPET = _RSS_HELPER + """\
import json, time
from repro.libm import runtime
r0, t0 = _rss_mb(), time.perf_counter()
for target in ("float32", "posit32"):
    for name in runtime.available(target):
        runtime.load_function(name, target)
print(json.dumps({"time_s": time.perf_counter() - t0,
                  "rss_mb": _rss_mb() - r0}))
"""

#: boot cost of a serving worker: attach the arena, build every kernel
_ATTACH_SNIPPET = _RSS_HELPER + """\
import json, os, time
from repro.serve import tables
r0, t0 = _rss_mb(), time.perf_counter()
arena = tables.attach(os.environ["RLSERVE_ARENA"],
                      expect_hash=os.environ["RLSERVE_HASH"],
                      untrack=True)
for key in arena.keys():
    arena.batch_function(key)
print(json.dumps({"time_s": time.perf_counter() - t0,
                  "rss_mb": _rss_mb() - r0}))
arena.close()
"""


def _subprocess_cost(snippet: str, extra_env: dict[str, str]) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(_REPO, "src")
    env.update(extra_env)
    out = subprocess.run([sys.executable, "-c", snippet], env=env,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


@benchmark("serving_latency", suite="serving",
           floors={"evals_per_s": EVALS_PER_S_FLOOR})
def run_serving_latency() -> dict[str, float]:
    """2-worker service on float32 exp: >=1M evals/s through the socket."""
    from repro.serve import serve

    rng = np.random.default_rng(SEED)
    xs = rng.uniform(-80.0, 80.0, N_BULK).astype(np.float32).astype(np.float64)
    lib = api.load("exp", target="float32")
    want = lib.evaluate_bits_batch(xs[:IDENTITY_SAMPLE])

    shed_before = metrics.counter("serve.shed").value
    req_before = metrics.counter("serve.requests").value
    reuse_before = metrics.counter("workers.pool_reuse").value

    # startup-cost comparison on the FULL shipped surface: publish an
    # arena holding all eighteen (function, target) pairs and measure,
    # in fresh interpreters, attaching it vs importing the data modules
    from repro.serve import tables

    full_pairs = [(f, t) for t in ("float32", "posit32")
                  for f in api.available(t)]
    with tables.publish(full_pairs) as full_arena:
        import_cost = _subprocess_cost(_IMPORT_SNIPPET, {})
        attach_cost = _subprocess_cost(_ATTACH_SNIPPET, {
            "RLSERVE_ARENA": full_arena.name,
            "RLSERVE_HASH": full_arena.content_hash,
        })

    with serve(["exp"], targets=("float32",), workers=2) as svc:
        with svc.connect("exp") as client:
            client.ping()
            got = client.evaluate_bits_batch(xs[:IDENTITY_SAMPLE])
            assert got.tobytes() == want.tobytes(), (
                "service replies diverged from the in-process library")

            # bulk throughput: pipelined 64k-lane chunks, best of two
            # (first pass pays worker warm-up: kernel compilation from
            # the arena happens on first touch per process)
            bulk_s = float("inf")
            for _ in range(2):
                t0 = time.perf_counter()
                client.evaluate_bits_batch(xs)
                bulk_s = min(bulk_s, time.perf_counter() - t0)

            # per-request latency on SLO-shaped small requests
            small = xs[:REQUEST_LANES]
            lat = np.empty(N_REQUESTS)
            for i in range(N_REQUESTS):
                t0 = time.perf_counter()
                client.evaluate_bits_batch(small)
                lat[i] = time.perf_counter() - t0

    evals_per_s = N_BULK / bulk_s
    p50_ms = float(np.quantile(lat, 0.50)) * 1e3
    p99_ms = float(np.quantile(lat, 0.99)) * 1e3
    requests = metrics.counter("serve.requests").value - req_before
    shed = metrics.counter("serve.shed").value - shed_before
    shed_rate = shed / max(1, requests + shed)
    pool_reuse = metrics.counter("workers.pool_reuse").value - reuse_before

    gauges = {
        "evals_per_s": evals_per_s,
        "p50_ms": p50_ms,
        "p99_ms": p99_ms,
        "shed_rate": shed_rate,
        "pool_reuse": float(pool_reuse),
        "import_s": import_cost["time_s"],
        "import_rss_mb": import_cost["rss_mb"],
        "attach_s": attach_cost["time_s"],
        "attach_rss_mb": attach_cost["rss_mb"],
    }
    for name, value in gauges.items():
        metrics.gauge(f"serve.bench.{name}").set(float(value))
    metrics.gauge("serve.bench.n").set(float(N_BULK))

    lines = [
        f"Serving-path load test (float32 exp, 2 workers, {N_BULK} lanes)",
        f"  bulk throughput : {evals_per_s / 1e6:8.2f} Meval/s "
        f"(floor: {EVALS_PER_S_FLOOR / 1e6:.0f})",
        f"  request latency : p50 {p50_ms:7.3f} ms   p99 {p99_ms:7.3f} ms "
        f"({N_REQUESTS} x {REQUEST_LANES}-lane requests)",
        f"  shed rate       : {shed_rate:8.4f} ({shed} shed / "
        f"{requests} served)",
        f"  pool reuse hits : {pool_reuse}",
        "",
        "Startup cost past the interpreter baseline (fresh process, "
        "all 18 shipped function/target pairs):",
        f"  import frozen data modules : {import_cost['time_s']:6.3f} s  "
        f"+{import_cost['rss_mb']:6.1f} MB RSS",
        f"  attach shared-memory arena : {attach_cost['time_s']:6.3f} s  "
        f"+{attach_cost['rss_mb']:6.1f} MB RSS",
    ]
    emit_report("serving_latency.txt", "\n".join(lines) + "\n")
    return gauges


@pytest.mark.serve
@pytest.mark.bench
@pytest.mark.benchmark(group="serve")
def test_serving_latency(benchmark, report_dir):
    gauges = benchmark.pedantic(run_serving_latency, rounds=1, iterations=1)
    assert gauges["evals_per_s"] >= EVALS_PER_S_FLOOR, (
        f"serving throughput {gauges['evals_per_s'] / 1e6:.2f} Meval/s "
        f"fell below the 1 Meval/s acceptance floor")
    # a lone request goes straight to an idle worker; a fixed coalescing
    # wait in front of it would push p50 past this
    assert gauges["p50_ms"] < 2.0, (
        f"lone-request p50 {gauges['p50_ms']:.2f} ms: requests are waiting "
        f"to be batched while a worker is idle")
