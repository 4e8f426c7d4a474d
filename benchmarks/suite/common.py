"""Shared pieces of the benchmark suite: metric names, results, helpers."""

from __future__ import annotations

import json
import os
import select
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from inputs import ROOT

SRC = ROOT / "src"
SUITE = Path(__file__).resolve().parent

WORKLOADS = ("scalar_mixed", "batch_sweep", "serve_open")
#: Run only by traced runs; its numbers are per-layer metrics.
TRACE_ONLY = ("serve_bulk",)

#: End-to-end metrics, reported by every workload (see README.md for
#: what each means on each workload).
E2E_UNITS = {"setup_s": "s", "latency_p50_us": "us", "latency_p90_us": "us",
             "throughput_meval_s": "Meval/s"}


@dataclass
class Outcome:
    """What one run of one workload measured."""

    attempted: int = 0
    failed: int = 0
    e2e: dict = field(default_factory=dict)      # name -> value
    detail: dict = field(default_factory=dict)   # name -> (value, unit)
    layer: dict = field(default_factory=dict)    # per-layer name -> value
    input_hash: str = ""
    spans: dict = field(default_factory=dict)    # source -> span dump

    def count(self, attempted: int, failed: int) -> None:
        self.attempted += int(attempted)
        self.failed += int(failed)


def pct(values, q: float) -> float:
    """The q-th percentile (linear interpolation) of a sample."""
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def per_input_median(values, keys) -> np.ndarray:
    """The median of each input's repeated timings, one value per input.

    A closed loop that cycles its inputs times each one many times; the
    median of those repeats drops bursts of interference from other
    processes on the host, so the spread over inputs that remains is
    the cost of the inputs themselves.
    """
    values = np.asarray(values, dtype=np.float64)
    keys = np.asarray(keys)
    order = np.argsort(keys, kind="stable")
    cuts = np.flatnonzero(np.diff(keys[order])) + 1
    return np.array([np.median(g) for g in np.split(values[order], cuts)])


def same_doubles(got, want) -> np.ndarray:
    """Lane-wise bit identity of two float64 arrays (any NaN matches NaN)."""
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    return (got.view(np.uint64) == want.view(np.uint64)) \
        | (np.isnan(got) & np.isnan(want))


def child_env() -> dict:
    """Environment for child interpreters: the repo's src on the path and
    no bytecode written, so every set-up imports the program from source
    the same way on every host and nothing lands in the source tree."""
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def spawn(script: str, *args: str) -> subprocess.Popen:
    """Start one of the suite's scripts in a fresh interpreter."""
    return subprocess.Popen(
        [sys.executable, str(SUITE / script), *args], cwd=str(ROOT),
        env=child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        bufsize=0)


def read_json_line(proc: subprocess.Popen, prefix: str,
                   timeout_s: float = 60.0) -> dict:
    """Read the child's stdout until a ``<prefix> {json}`` line.

    Raises RuntimeError when the child exits or stays silent for
    ``timeout_s`` first, so a hung child cannot hang the benchmark.
    """
    fd = proc.stdout.fileno()
    buf = bytearray()      # a traced service's span line runs to megabytes
    start = scan = 0       # the current line's start; where its end may be
    tag = prefix.encode() + b" "
    deadline = time.monotonic() + timeout_s
    while True:
        end = buf.find(b"\n", scan)
        while end >= 0:
            if buf.startswith(tag, start):
                return json.loads(buf[start + len(tag):end])
            start = end + 1
            end = buf.find(b"\n", start)
        scan = len(buf)
        left = deadline - time.monotonic()
        ready = select.select([fd], [], [], max(left, 0.0))[0] \
            if left > 0 else []
        chunk = os.read(fd, 1 << 16) if ready else b""
        if not chunk:
            raise RuntimeError(f"{Path(proc.args[1]).name} exited or "
                               f"stalled before printing {prefix!r}")
        buf += chunk


def stop(proc: subprocess.Popen, timeout_s: float = 30.0) -> None:
    """Close the child's stdin (its stop signal) and wait for it."""
    try:
        proc.stdin.close()
    except OSError:
        pass
    try:
        proc.wait(timeout_s)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    proc.stdout.close()
