"""Run the libm service in its own process for the serving workloads.

``launcher.py --address NAME [--trace]`` starts ``repro.api.serve`` with
one worker over every shipped pair on the abstract unix socket ``NAME``
(Linux; no file is created) and prints ``READY {}`` once it accepts
connections.  It serves until its stdin closes, then shuts the service
down (workers, arena) and, when tracing, prints the recorded spans and
the service's own metrics snapshot as one ``TRACE {...}`` line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

#: One worker on every host, so the service's frontend and its worker
#: each get a core of a 2-core machine.
WORKERS = 1


def main(argv: list[str]) -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--address", required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    trace = None
    if args.trace:
        from tracing import ServerTrace

        trace = ServerTrace()
        trace.install()
    from repro import api

    handle = api.serve(None, targets=("float32", "posit32"),
                       address="\0" + args.address, workers=WORKERS)
    try:
        if trace is not None:
            # what each worker does once at start, timed here
            from repro.serve import tables

            t0 = time.perf_counter()
            tables.attach(handle.arena_name).close()
            trace.attach_s = time.perf_counter() - t0
        print("READY {}", flush=True)
        # serve until the suite closes stdin.  Read the raw descriptor:
        # the worker pool forks on the first request, and a fork taken
        # while this thread holds sys.stdin's buffer lock deadlocks when
        # the child closes its inherited sys.stdin.
        while os.read(sys.stdin.fileno(), 4096):
            pass
    finally:
        try:
            handle.close()
        except ValueError:
            # the handle's last step unlinks its socket path; an abstract
            # address has none (os.unlink rejects the leading NUL)
            pass
    if trace is not None:
        out = trace.dump()
        # the service's metrics registry, if it keeps one; attached for
        # reading, never used to compute a benchmark metric
        reg = sys.modules.get("repro.obs.metrics")
        out["snapshot"] = reg.snapshot() if hasattr(reg, "snapshot") else None
        print("TRACE " + json.dumps(out, default=str), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
