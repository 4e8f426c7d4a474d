"""The repository's benchmark: three workloads, end to end and by layer.

Usage, from anywhere::

    python benchmarks/suite/run.py --workload <name|all> --seed <int>
        [--seconds S] [--trace [0|1]] [--out PATH]

Workloads: ``scalar_mixed``, ``batch_sweep``, ``serve_open`` (see
README.md).  A plain run prints every end-to-end metric by name and
unit; ``--trace`` runs each workload, and the trace-only ``serve_bulk``,
untraced and then traced, and prints every per-layer metric and the
tracing overhead.
Every answer is checked.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import sys

# a run writes no bytecode into the source tree (child interpreters
# get the same setting from common.child_env)
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

from common import (E2E_UNITS, SRC, TRACE_ONLY, WORKLOADS,  # noqa: E402
                    Outcome)
from inputs import FAMILIES, ROOT  # noqa: E402

#: Per-layer metrics and their units; BENCHMARK.json lists the same.
LAYER_UNITS = {
    "libm.import_s": "s", "libm.load_ms": "ms", "batch.first_call_ms": "ms",
    **{f"rangereduction.{fam}.{st}_ns": "ns" for fam in FAMILIES
       for st in ("special", "reduce", "compensate")},
    **{f"core.polynomials.{fam}.approx_ns": "ns" for fam in FAMILIES},
    **{f"fp.{fmt}.{op}_ns": "ns" for fmt in ("float32", "posit32")
       for op in ("round", "bits")},
    "api.evaluate_bits.self_ns": "ns",
    "scalar.bits_over_eval": "ratio",
    "scalar.stage_sum_share": "ratio",
    **{f"batch.{fam}.{st}_ns_per_elem": "ns/elem" for fam in FAMILIES
       for st in ("special", "reduce", "horner", "compensate", "round")},
    "batch.glue_ns_per_elem": "ns/elem",
    "batch.special_lane_share": "ratio",
    "batch.fixed_us_per_call": "us",
    "batch.stage_sum_share": "ratio",
    "serve.tables.publish_s": "s", "serve.tables.attach_s": "s",
    "serve.protocol.unpack_request_us_256": "us",
    "serve.protocol.pack_reply_us_256": "us",
    "serve.protocol.unpack_request_us_64k": "us",
    "serve.protocol.pack_reply_us_64k": "us",
    "serve.admission.admit_us": "us",
    "serve.coalesce.wait_ms_p50": "ms",
    "serve.coalesce.batch_lanes_mean": "count",
    "serve.coalesce.deadline_flush_share": "ratio",
    "serve.workers.dispatch_ms_p50": "ms",
    "serve.workers.compute_ms_mean": "ms",
    "serve.workers.ipc_ms": "ms",
    "serve.workers.utilization": "ratio",
    "serve.frontend.self_ms_p50": "ms",
    "serve.capacity_rps": "req/s",
    "serve.bulk.meval_s": "Meval/s", "serve.bulk.call_ms_p50": "ms",
    "serve.stage_sum_share": "ratio",
    "loadgen.late_ms_p99": "ms", "loadgen.backlog_max": "count",
    "loadgen.transport_ms_p50": "ms",
    **{f"trace.overhead.{m}": "ratio"
       for m in ("latency_p50_us", "latency_p90_us", "throughput_meval_s")},
}

#: a traced run also runs the other workloads (and the trace-only one)
#: for this share of the time, so every per-layer metric is measured
#: whichever one is named
SIDE_SHARE = 0.25
#: set-ups per plain run; setup_s is their median
SETUP_REPS = 3


def _runner(name: str):
    if name in ("scalar_mixed", "batch_sweep"):
        import inproc

        return getattr(inproc, f"run_{name}")
    import serving

    return getattr(serving, f"run_{name}")


def run_traced(name: str, seed: int, seconds: float, spans_file):
    """(untraced, traced) halves of one workload's run; the traced half's
    spans are appended to ``spans_file`` (JSON lines, if given) as soon as
    it ends, so they are not held in memory while the next workload runs."""
    from tracing import Tracer

    base = Outcome()
    _runner(name)(seed, seconds / 2, tracer=None, setup_reps=1, out=base)
    tracer = Tracer()
    traced = Outcome()
    _runner(name)(seed, seconds / 2, tracer=tracer, setup_reps=0, out=traced)
    if spans_file is not None:
        traced.spans["inprocess"] = tracer.dump()
        for source, dump in traced.spans.items():
            spans_file.write(json.dumps({"workload": name, "source": source,
                                         **dump}, default=str) + "\n")
    traced.spans.clear()
    return base, traced


def layer_metrics(halves: dict, order: list[str]) -> dict:
    """Per-layer values, each from the first workload in ``order`` that
    measured it, from its untraced half if both halves did; stage sums
    become shares of the untraced time."""
    vals: dict = {}
    for name in order:
        base, traced = halves[name]
        for k, v in {**traced.layer, **base.layer}.items():
            vals.setdefault(k, v)
    # (share, workload, traced stage sum, the untraced time it covers)
    shares = (
        ("scalar.stage_sum_share", "scalar_mixed", "scalar.stage_sum_ns",
         lambda b: b.detail["scalar_bits_ns_p50"][0]),
        ("batch.stage_sum_share", "batch_sweep",
         "batch.stage_sum_ns_per_elem",
         lambda b: 1e3 / b.e2e["throughput_meval_s"]),
        ("serve.stage_sum_share", "serve_open", "serve.stage_sum_ms",
         lambda b: b.e2e["latency_p50_us"] / 1e3),
    )
    for metric, w, raw, untraced in shares:
        if w in halves and raw in halves[w][1].layer:
            vals[metric] = halves[w][1].layer[raw] / untraced(halves[w][0])
    base, traced = halves[order[0]]
    for m in ("latency_p50_us", "latency_p90_us", "throughput_meval_s"):
        vals[f"trace.overhead.{m}"] = traced.e2e[m] / base.e2e[m] - 1.0
    return vals


def _print_outcome(name: str, out: Outcome, seed: int) -> None:
    print(f"[{name}] seed={seed} inputs=sha256:{out.input_hash[:16]}")
    for m, unit in E2E_UNITS.items():
        if m in out.e2e:
            print(f"[{name}] {m} = {out.e2e[m]:.6g} {unit}")
    for k, (v, unit) in out.detail.items():
        print(f"[{name}]   {k} = {v:.6g} {unit}")
    frac = out.failed / out.attempted if out.attempted else 1.0
    print(f"[{name}] fail_frac = {frac:.6g} ratio "
          f"({out.failed} of {out.attempted} operations)")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0,
                    help="measured time per workload (default 15)")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1))
    ap.add_argument("--out", help="also write the full result as JSON here")
    args = ap.parse_args(argv)

    if not (SRC / "repro" / "api" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run the benchmark "
              "from a full checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    out_path = Path(args.out).resolve() if args.out else None
    os.chdir(ROOT)

    from host import host_context

    host = host_context()
    print("host (context only): " + " ".join(f"{k}={v}"
                                             for k, v in host.items()))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    result: dict = {"host": host, "seed": args.seed,
                    "seconds": args.seconds, "workloads": {}}
    attempted = failed = 0
    metrics: dict = {}
    if not args.trace:
        for name in names:
            out = Outcome()
            _runner(name)(args.seed, args.seconds, tracer=None,
                          setup_reps=SETUP_REPS, out=out)
            _print_outcome(name, out, args.seed)
            attempted += out.attempted
            failed += out.failed
            result["workloads"][name] = _summary(out)
            prefix = f"{name}." if len(names) > 1 else ""
            for m, unit in E2E_UNITS.items():
                metrics[prefix + m] = {"value": out.e2e[m], "unit": unit}
    else:
        order = names + [w for w in WORKLOADS + TRACE_ONLY
                         if w not in names]
        halves = {}
        # spans are kept only next to a requested result file
        spans_path = out_path.with_suffix(".spans.jsonl") if out_path \
            else None
        with (open(spans_path, "w") if spans_path else nullcontext()) \
                as spans_file:
            for name in order:
                secs = args.seconds * (1.0 if name in names else SIDE_SHARE)
                halves[name] = run_traced(name, args.seed, secs, spans_file)
        for name in order:
            for label, out in zip(("untraced", "traced"), halves[name]):
                _print_outcome(f"{name} {label}", out, args.seed)
                attempted += out.attempted
                failed += out.failed
            result["workloads"][name] = {
                label: _summary(out)
                for label, out in zip(("untraced", "traced"), halves[name])}
        vals = layer_metrics(halves, order)
        for m, unit in LAYER_UNITS.items():
            if m not in vals:
                print(f"warning: per-layer metric {m} was not measured")
            v = float(vals.get(m, 0.0))
            print(f"[layer] {m} = {v:.6g} {unit}")
            metrics[m] = {"value": v, "unit": unit}
        if spans_path:
            print(f"spans written to {spans_path}")
            result["spans"] = str(spans_path)
    result["metrics"] = metrics
    if out_path:
        out_path.write_text(json.dumps(result, indent=1))
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _summary(out: Outcome) -> dict:
    return {"e2e": out.e2e, "detail": {k: v for k, (v, _) in
                                       out.detail.items()},
            "layer": out.layer, "attempted": out.attempted,
            "failed": out.failed, "input_hash": out.input_hash}


if __name__ == "__main__":
    sys.exit(main())
