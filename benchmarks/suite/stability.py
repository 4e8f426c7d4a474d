"""Run-to-run spread of the benchmark's end-to-end metrics.

Collect a set of runs (each workload ``--runs`` times, seeds
``seed*1000 + i``) and print, per workload and metric, the median, the
quartiles, the relative spread between the quartiles (IQR / median),
the largest relative spread (range / median) and the bound it suggests,
``max(0.10, 3 x IQR / median)``::

    python benchmarks/suite/stability.py --runs 5 --seed 1 --save a.json
    python benchmarks/suite/stability.py --runs 5 --seed 2 --save b.json
    python benchmarks/suite/stability.py --compare a.json b.json

``--compare`` checks that the second set's median is within each
metric's ``bound`` in BENCHMARK.json of the first set's.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True    # as run.py: nothing lands in the tree

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

from common import SUITE, WORKLOADS  # noqa: E402
from inputs import ROOT  # noqa: E402


def collect(runs: int, seed: int) -> dict:
    """{workload: {metric: [value per run]}} from fresh run.py processes,
    every workload at run.py's default length."""
    out: dict = {}
    for w in WORKLOADS:
        for i in range(runs):
            cmd = [sys.executable, str(SUITE / "run.py"), "--workload", w,
                   "--seed", str(seed * 1000 + i)]
            res = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                 text=True, timeout=600)
            if res.returncode != 0:
                sys.stderr.write(res.stdout + res.stderr)
                raise SystemExit(f"run {i} of {w} failed")
            last = json.loads(res.stdout.strip().splitlines()[-1])
            if not last["correct"]:
                raise SystemExit(f"run {i} of {w} reported failures: "
                                 f"{last['failed']} of {last['attempted']}")
            for m, v in last["metrics"].items():
                out.setdefault(w, {}).setdefault(m, []).append(v["value"])
            print(f"  {w} run {i + 1}/{runs} done", file=sys.stderr)
    return out


def spread(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    rel_iqr = (q3 - q1) / med
    return {"median": med, "q1": q1, "q3": q3, "rel_iqr": rel_iqr,
            "max_spread": (max(values) - min(values)) / med,
            # above 0.25, the largest bound allowed, the metric's run is
            # too short or the metric too noisy to be end-to-end
            "suggested_bound": max(0.10, 3 * rel_iqr)}


def report(data: dict) -> None:
    print(f"{'workload':14s} {'metric':20s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s} {'iqr/med':>8s} {'max/med':>8s} {'bound?':>7s}")
    for w, metrics in data.items():
        for m, vals in metrics.items():
            s = spread(vals)
            print(f"{w:14s} {m:20s} {s['median']:12.5g} {s['q1']:12.5g} "
                  f"{s['q3']:12.5g} {s['rel_iqr']:8.3f} "
                  f"{s['max_spread']:8.3f} {s['suggested_bound']:7.2f}")


def compare(a: dict, b: dict) -> bool:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {e["name"]: (e["bound"], e["better"]) for e in spec["end_to_end"]}
    ok = True
    print(f"{'workload':14s} {'metric':20s} {'median A':>12s} "
          f"{'median B':>12s} {'B/A-1':>8s} {'bound':>6s}  verdict")
    for w in a:
        for m, (bound, better) in bounds.items():
            ma = statistics.median(a[w][m])
            mb = statistics.median(b[w][m])
            change = mb / ma - 1.0
            worse = change if better == "lower" else -change
            agree = abs(change) <= bound
            ok &= agree
            verdict = "agree" if agree else \
                ("B worse" if worse > 0 else "B better")
            print(f"{w:14s} {m:20s} {ma:12.5g} {mb:12.5g} {change:8.3f} "
                  f"{bound:6.2f}  {verdict}")
    return ok


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--save", help="write the collected values here")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"),
                    help="compare two saved sets instead of running")
    args = ap.parse_args()
    if args.compare:
        a, b = (json.loads(Path(p).read_text()) for p in args.compare)
        return 0 if compare(a, b) else 1
    data = collect(args.runs, args.seed)
    if args.save:
        Path(args.save).write_text(json.dumps(data, indent=1))
    report(data)
    return 0


if __name__ == "__main__":
    sys.exit(main())
