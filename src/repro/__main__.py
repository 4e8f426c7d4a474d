"""Command line interface: ``python -m repro <command>``.

Commands
--------

``eval``      evaluate a shipped correctly rounded function at a point
              and cross-check it against the oracle
``audit``     a mini Table-1 row: wrong-result counts for one function
              across RLIBM-32 and the baseline stand-ins
``generate``  run the generator for a target format and freeze the
              coefficient tables into the library's data packages
``serve``     start the multi-process libm service: shared-memory
              tables, coalesced batches, load shedding (Ctrl-C stops)
``table3``    print the generation statistics of the shipped tables
``trace``     run another repro command with structured tracing enabled
              and write the JSONL trace (``trace -- generate ...``)
``stats``     render a JSONL trace into a Table-3-style summary and a
              flame-style phase breakdown
``lint``      run the floating-point-safety linter (fplint) and the
              frozen-table static verifier (tablecheck)
``certify``   verify (or emit) the proof-carrying certificates that
              accompany the shipped coefficient tables
``cache``     inspect, verify, warm, or compact the persistent
              generation cache (``cache stats|verify|warm|gc``)
``bench``     benchmark registry + append-only performance trajectory
              (``bench run|list|compare|history|export``)
``report``    unified performance health summary: newest trajectory
              record with drift status, cache/oracle hit rates,
              worker utilization, profiler phases
``adversarial``  mine hostile-input corpora for the shipped tables, or
              replay the committed corpora through every evaluation
              path (``adversarial mine|check``)
"""

from __future__ import annotations

import argparse
import sys


def _cmd_eval(args: argparse.Namespace) -> int:
    from repro.api import load
    from repro.core.generator import target_bits
    from repro.libm.serialize import TARGETS_BY_NAME
    from repro.oracle import default_oracle as orc
    from repro.rangereduction import reduction_for

    fmt = TARGETS_BY_NAME[args.target]
    x = fmt.to_double(fmt.from_double(args.x))
    g = load(args.function, args.target)
    got = g.evaluate(x)
    got_bits = g.evaluate_bits(x)
    print(f"{args.function}({x!r}) [{args.target}]")
    print(f"  result: {got!r}  bits: {got_bits:#x}")
    rr = reduction_for(args.function, fmt)
    s = rr.special(x)
    want = (target_bits(fmt, s) if s is not None
            else orc.round_to_bits(args.function, x, fmt))
    print(f"  oracle: {'agrees' if want == got_bits else 'DISAGREES'} "
          f"(bits {want:#x})")
    return 0 if want == got_bits else 1


def _cmd_audit(args: argparse.Namespace) -> int:
    from repro.api import load
    from repro.baselines import correctness_baselines, posit_baselines
    from repro.eval.correctness import audit_function, build_pool, render_rows
    from repro.libm.serialize import TARGETS_BY_NAME

    from repro.parallel import parse_workers

    fmt = TARGETS_BY_NAME[args.target]
    libs = (posit_baselines() if args.target.startswith("posit")
            else correctness_baselines())
    corpus_dir = None
    if args.adversarial:
        from repro.eval.adversarial import default_corpus_dir

        corpus_dir = default_corpus_dir(".")
    pool = build_pool(args.function, fmt, n_random=args.n,
                      n_hard=args.hard, hard_candidates=4 * args.hard + 100,
                      corpus_dir=corpus_dir)
    rlibm = load(args.function, args.target).fn
    row = audit_function(args.function, fmt, rlibm, libs, pool,
                         workers=parse_workers(args.workers))
    print(render_rows([row], f"audit: {args.function} [{args.target}]"))
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.api.generate import generate_library

    generate_library(args.functions or None, args.target,
                     args.out, quick=args.quick, seed=args.seed,
                     workers=args.workers, checkpoint=args.checkpoint)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal

    from repro import api

    svc = api.serve(args.functions or None, targets=tuple(args.targets),
                    address=args.address, workers=args.workers,
                    max_batch=args.max_batch)
    print(f"serving {', '.join(svc.keys)}")
    print(f"  address: {svc.address}")
    print(f"  workers: {args.workers}  tables: {svc.content_hash[:12]}…")
    try:
        signal.pause()
    except KeyboardInterrupt:
        pass
    finally:
        print("shutting down…", file=sys.stderr)
        svc.close()
    return 0


def _cmd_table3(args: argparse.Namespace) -> int:
    from repro.eval.tables import render_table3, table3_rows

    rows = table3_rows(args.target)
    if not rows:
        print(f"no frozen data for target {args.target!r}")
        return 1
    print(render_table3(rows, f"Table 3 ({args.target})"))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro import obs

    cmd = list(args.cmd)
    if cmd and cmd[0] == "--":
        cmd = cmd[1:]
    if not cmd:
        print("trace: missing command (usage: trace [--out t.jsonl] "
              "-- <repro command...>)", file=sys.stderr)
        return 2
    if cmd[0] in ("trace", "stats"):
        print(f"trace: refusing to trace {cmd[0]!r}", file=sys.stderr)
        return 2
    obs.enable(args.out)
    try:
        rc = main(cmd)
    finally:
        obs.disable()
    print(f"trace written to {args.out}", file=sys.stderr)
    return rc


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.obs.report import (load_trace, render_metrics, render_summary,
                                  render_tree, summarize)

    try:
        events = load_trace(args.trace)
    except (OSError, ValueError) as e:
        print(f"stats: {e}", file=sys.stderr)
        return 1
    summary = summarize(events)
    print(render_summary(summary, f"trace summary ({args.trace})"))
    if not args.no_tree:
        print(render_tree(events))
    if not args.no_metrics:
        print(render_metrics(summary["metrics"]))
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import cli as analysis_cli

    return analysis_cli.run(args)


def _cmd_certify(args: argparse.Namespace) -> int:
    from repro.analysis import cli as analysis_cli

    return analysis_cli.run_certify(args)


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.cache import cli as cache_cli

    return cache_cli.run(args)


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.obs import cli as obs_cli

    return obs_cli.run_bench(args)


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.obs import cli as obs_cli

    return obs_cli.run_report(args)


def _cmd_adversarial(args: argparse.Namespace) -> int:
    from repro.eval.adversarial import cli as adversarial_cli

    return adversarial_cli.run(args)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro",
                                     description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a shipped function")
    p.add_argument("function")
    p.add_argument("x", type=float)
    p.add_argument("--target", default="float32")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("audit", help="mini Table-1 row for one function")
    p.add_argument("function")
    p.add_argument("--target", default="float32")
    p.add_argument("--n", type=int, default=800)
    p.add_argument("--hard", type=int, default=60)
    p.add_argument("--workers", default=None, metavar="N|auto",
                   help="parallelize the audit over a process pool "
                        "(default: serial; results are identical)")
    p.add_argument("--adversarial", action="store_true",
                   help="merge the committed adversarial corpus for this "
                        "function into the audit pool")
    p.set_defaults(fn=_cmd_audit)

    p = sub.add_parser("generate", help="generate + freeze a library")
    p.add_argument("--target", default="bfloat16")
    p.add_argument("--functions", nargs="*")
    p.add_argument("--quick", action="store_true")
    p.add_argument("--seed", type=int, default=2021)
    p.add_argument("--out")
    p.add_argument("--workers", default=None, metavar="N|auto",
                   help="generate functions in parallel worker processes "
                        "(default: serial; results are identical)")
    p.add_argument("--checkpoint", metavar="DIR",
                   help="checkpoint directory: finished functions are "
                        "saved and a restarted run resumes from them")
    p.set_defaults(fn=_cmd_generate)

    p = sub.add_parser("serve",
                       help="start the multi-process libm service "
                            "(unix socket; Ctrl-C to stop)")
    p.add_argument("--functions", nargs="*",
                   help="functions to serve (default: all shipped)")
    p.add_argument("--targets", nargs="*", default=["float32"],
                   help="target formats to serve (default: float32)")
    p.add_argument("--address", default=None,
                   help="unix-socket path (default: a fresh tmp path)")
    p.add_argument("--workers", type=int, default=2,
                   help="worker processes (default: 2)")
    p.add_argument("--max-batch", type=int, default=65536,
                   help="coalescer flush size in lanes (default: 65536)")
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser("table3", help="generation statistics")
    p.add_argument("--target", default="float32")
    p.set_defaults(fn=_cmd_table3)

    p = sub.add_parser("trace",
                       help="run a repro command with tracing enabled")
    p.add_argument("--out", default="trace.jsonl",
                   help="JSONL trace path (default: trace.jsonl)")
    p.add_argument("cmd", nargs=argparse.REMAINDER,
                   help="the repro command to run, after '--'")
    p.set_defaults(fn=_cmd_trace)

    p = sub.add_parser("stats", help="render a JSONL trace report")
    p.add_argument("trace", help="path to a trace written by 'trace'")
    p.add_argument("--no-tree", action="store_true",
                   help="skip the flame-style phase breakdown")
    p.add_argument("--no-metrics", action="store_true",
                   help="skip the metrics snapshot section")
    p.set_defaults(fn=_cmd_stats)

    p = sub.add_parser("lint",
                       help="floating-point-safety linter + table verifier")
    from repro.analysis.cli import add_arguments as _lint_args
    _lint_args(p)
    p.set_defaults(fn=_cmd_lint)

    p = sub.add_parser("certify",
                       help="verify/emit the proof-carrying table "
                            "certificates")
    from repro.analysis.cli import add_certify_arguments as _certify_args
    _certify_args(p)
    p.set_defaults(fn=_cmd_certify)

    p = sub.add_parser("cache",
                       help="persistent generation cache maintenance")
    from repro.cache.cli import add_arguments as _cache_args
    _cache_args(p)
    p.set_defaults(fn=_cmd_cache)

    p = sub.add_parser("bench",
                       help="benchmark registry + performance trajectory")
    from repro.obs.cli import add_bench_arguments as _bench_args
    _bench_args(p)
    p.set_defaults(fn=_cmd_bench)

    p = sub.add_parser("report",
                       help="performance health summary (trajectory, "
                            "hit rates, utilization, profiler)")
    from repro.obs.cli import add_report_arguments as _report_args
    _report_args(p)
    p.set_defaults(fn=_cmd_report)

    p = sub.add_parser("adversarial",
                       help="mine or replay the hostile-input corpora "
                            "(adversarial mine|check)")
    from repro.eval.adversarial.cli import add_arguments as _adv_args
    _adv_args(p)
    p.set_defaults(fn=_cmd_adversarial)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
