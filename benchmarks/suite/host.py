"""Host context recorded with every result: what machine ran it.

These numbers are never compared between runs; they let a reader tell
a regression from a run on a different or busier machine.
"""

from __future__ import annotations

import os
import platform
import statistics
import time
from pathlib import Path

import numpy as np

_MIB = 1 << 20


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _llc_bytes() -> int:
    """Size of the largest CPU cache the kernel reports (0 if none)."""
    sizes = []
    for f in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*/size"):
        try:
            text = f.read_text().strip()
        except OSError:
            continue
        scale = {"K": 1024, "M": _MIB, "G": 1 << 30}.get(text[-1:], 1)
        sizes.append(int(text.rstrip("KMG")) * scale)
    return max(sizes, default=0)


def calibration_ns_per_iter(n: int = 200_000, repeats: int = 5) -> float:
    """A fixed pure-Python loop, ns per iteration (median of repeats)."""
    def loop(n):
        acc = 0
        for i in range(n):
            acc = (acc + i * 7) & 0xFFFF
        return acc

    times = []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        loop(n)
        times.append((time.perf_counter_ns() - t0) / n)
    return statistics.median(times)


def stream_gb_s(llc: int, repeats: int = 3) -> tuple[float, int]:
    """numpy in-place add over an array of 4x the last-level cache
    (64 MiB to 512 MiB), read + write bytes per second, best of repeats."""
    nbytes = min(max(4 * llc, 64 * _MIB), 512 * _MIB)
    a = np.ones(nbytes // 8)
    best = 0.0
    for _ in range(repeats):
        t0 = time.perf_counter()
        np.add(a, 1.0, out=a)
        best = max(best, 2 * a.nbytes / (time.perf_counter() - t0) / 1e9)
    return best, a.nbytes


def host_context() -> dict:
    llc = _llc_bytes()
    gbs, nbytes = stream_gb_s(llc)
    return {"nproc": len(os.sched_getaffinity(0)),
            "cpu": _cpu_model(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "llc_mib": round(llc / _MIB, 1),
            "calib_ns_per_iter": calibration_ns_per_iter(),
            "stream_gb_s": gbs,
            "stream_mib": nbytes // _MIB}
