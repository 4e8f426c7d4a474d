"""The in-process workloads: scalar calls and batch calls.

Both load every shipped pair through ``repro.api`` in the benchmark's
own process, compute a batch reference at set-up (checked against the
corpus wants and, on a sample, against the scalar path), and check
every measured answer against it.  Set-up time itself is taken in fresh
processes by ``probe.py``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext

import numpy as np

import inputs as inp
from common import (Outcome, pct, per_input_median, read_json_line,
                    same_doubles, spawn, stop)
from tracing import Tracer, traced_libraries

#: scalar cross-check of the batch reference, per pair and input set
CROSS_CHECK = 512
#: input rows (one input per pair) timed to calibrate scalar spans
CALIBRATION_ROWS = 64


def probe_setup(kind: str, reps: int, out: Outcome) -> None:
    """setup_s: median over ``reps`` fresh processes of import + load of
    every pair + first correct answer; their split goes to ``out.layer``.
    """
    corpus = inp.load_corpus(*inp.PAIRS[0])
    n = 1 if kind == "scalar" else len(corpus.x)
    args = [float(x).hex() for x in corpus.x[:n]]
    walls, parts = [], []
    for _ in range(reps):
        t0 = time.perf_counter()
        proc = spawn("probe.py", kind, *args)
        try:
            res = read_json_line(proc, "PROBE")
            walls.append(time.perf_counter() - t0)
        finally:
            stop(proc)
        got = np.array(res["bits"], dtype=np.uint64)
        out.count(n, np.count_nonzero(got != corpus.want[:n]))
        parts.append(res)
    if not reps:
        return
    out.e2e["setup_s"] = float(np.median(walls))
    out.layer["libm.import_s"] = float(np.median([p["import_s"]
                                                  for p in parts]))
    out.layer["libm.load_ms"] = float(np.median([p["load_ms"]
                                                 for p in parts]))
    if kind == "batch":
        out.layer["batch.first_call_ms"] = float(np.median(
            [p["first_ms"] for p in parts]))


@contextmanager
def libraries(tracer: Tracer | None):
    """Library handles for every pair, plain or traced for the block, and
    the traced block's ``unpatched`` (see traced_libraries)."""
    if tracer is None:
        from repro import api

        yield {p: api.load(*p) for p in inp.PAIRS}, nullcontext
    else:
        with traced_libraries(tracer) as libs:
            yield libs


def _cross_check(lib, xs: np.ndarray, ref: np.ndarray, rng,
                 out: Outcome) -> None:
    """Scalar evaluate_bits on a sample of lanes against the reference."""
    pick = rng.choice(xs.size, min(CROSS_CHECK, xs.size), replace=False)
    got = np.array([lib.evaluate_bits(x) for x in xs.reshape(-1)[pick]
                    .tolist()], dtype=np.uint64)
    out.count(len(pick), np.count_nonzero(got != ref.reshape(-1)[pick]))


# -- scalar_mixed ------------------------------------------------------------


def run_scalar_mixed(seed: int, seconds: float, *, tracer: Tracer | None,
                     setup_reps: int, out: Outcome) -> None:
    data = inp.scalar_inputs(seed)
    out.input_hash = inp.input_hash(data)
    probe_setup("scalar", setup_reps, out)
    xs = np.stack([data[p].xs for p in inp.PAIRS], axis=1)   # (lanes, pairs)
    # span-cost calibration sample: the first rows, every pair
    sample = [(j, x) for row in xs[:CALIBRATION_ROWS].tolist()
              for j, x in enumerate(row)]
    if tracer is not None:
        from repro import api

        plain = [api.load(*p).evaluate_bits for p in inp.PAIRS]
    with libraries(tracer) as (by_pair, unpatched):
        libs = [by_pair[p] for p in inp.PAIRS]
        ref_f = np.empty_like(xs)
        ref_b = np.empty(xs.shape, dtype=np.uint64)
        for j, (p, lib) in enumerate(zip(inp.PAIRS, libs)):
            col = np.ascontiguousarray(xs[:, j])
            ref_f[:, j] = lib.evaluate_batch(col)
            ref_b[:, j] = lib.evaluate_bits_batch(col)
            pi = data[p]
            want_f = inp.values(p[1], pi.want)
            out.count(2 * len(pi.want),
                      np.count_nonzero(ref_b[pi.want_at, j] != pi.want)
                      + np.count_nonzero(~same_doubles(ref_f[pi.want_at, j],
                                                       want_f)))
        if tracer is not None:
            tracer.calibrate([(plain[j], x) for j, x in sample],
                             [(libs[j].evaluate_bits, x) for j, x in sample],
                             unpatched)
            tracer.restart()
        t_ev, t_bits = _scalar_blocks(libs, xs, ref_f, ref_b, seconds, out)
        agg = tracer.take() if tracer is not None else None
    # ns per call of each input row (one input per pair), the median of
    # the row's repeats; block b timed row b % rows
    rows = np.arange(len(t_ev)) % xs.shape[0]
    per_eval = per_input_median(t_ev, rows) / len(libs)
    per_bits = per_input_median(t_bits, rows) / len(libs)
    per_call = per_input_median(np.add(t_ev, t_bits), rows) / (2 * len(libs))
    out.e2e.update(latency_p50_us=pct(per_call, 50) / 1e3,
                   latency_p90_us=pct(per_call, 90) / 1e3,
                   throughput_meval_s=1e3 / per_call.mean())
    out.detail.update(scalar_ns_p50=(pct(per_eval, 50), "ns/call"),
                      scalar_ns_p99=(pct(per_eval, 99), "ns/call"),
                      scalar_bits_ns_p50=(pct(per_bits, 50), "ns/call"),
                      blocks=(len(t_ev), "count"))
    out.layer["scalar.bits_over_eval"] = pct(per_bits, 50) / pct(per_eval, 50)
    if agg is not None:
        out.layer.update(scalar_layers(tracer, agg))


def _scalar_blocks(libs, xs, ref_f, ref_b, seconds, out):
    """Timed blocks until the deadline; one block is one pass of
    ``evaluate`` over every pair, then one of ``evaluate_bits``."""
    rows = xs.tolist()
    ev = [lib.evaluate for lib in libs]
    eb = [lib.evaluate_bits for lib in libs]
    n = len(rows)
    pc = time.perf_counter_ns
    t_ev, t_bits = [], []
    got_f, got_b = [], []
    start = i = 0
    deadline = pc() + int(seconds * 1e9)
    while True:
        row = rows[i]
        t0 = pc()
        fo = [f(x) for f, x in zip(ev, row)]
        t1 = pc()
        bo = [g(x) for g, x in zip(eb, row)]
        t2 = pc()
        t_ev.append(t1 - t0)
        t_bits.append(t2 - t1)
        got_f.append(fo)
        got_b.append(bo)
        i += 1
        if i == n or t2 > deadline:
            f = np.array(got_f, dtype=np.float64)
            b = np.array(got_b, dtype=np.uint64)
            bad = np.count_nonzero(~same_doubles(f, ref_f[start:i])) \
                + np.count_nonzero(b != ref_b[start:i])
            out.count(f.size + b.size, bad)
            got_f, got_b = [], []
            start = i = i % n
            if t2 > deadline:
                return t_ev, t_bits


def scalar_layers(tracer: Tracer, agg: dict) -> dict:
    """Per-stage self time of traced scalar calls, per call of a stage.

    ``scalar.stage_sum_ns`` is the whole traced ``evaluate_bits`` tree
    per call, turned into a share of the untraced time by the caller.
    """
    def per_call(name):
        calls = agg.get(name, [0])[0]
        return tracer.self_ns(agg, name) / calls if calls else 0.0

    out = {}
    tree = ["api.evaluate_bits"]
    for fam in inp.FAMILIES:
        for stage in ("special", "reduce", "compensate"):
            name = f"rangereduction.{fam}.{stage}"
            out[f"{name}_ns"] = per_call(name)
            tree.append(name)
        name = f"core.polynomials.{fam}.approx"
        out[f"{name}_ns"] = per_call(name)
        tree.append(name)
    for fmt in ("float32", "posit32"):
        out[f"fp.{fmt}.round_ns"] = per_call(f"fp.{fmt}.round")
        out[f"fp.{fmt}.bits_ns"] = per_call(f"fp.{fmt}.bits")
        tree.append(f"fp.{fmt}.bits")
    out["api.evaluate_bits.self_ns"] = per_call("api.evaluate_bits")
    calls = agg.get("api.evaluate_bits", [0])[0]
    if calls:
        out["scalar.stage_sum_ns"] = sum(tracer.self_ns(agg, n)
                                         for n in tree) / calls
    return out


# -- batch_sweep -------------------------------------------------------------


def run_batch_sweep(seed: int, seconds: float, *, tracer: Tracer | None,
                    setup_reps: int, out: Outcome) -> None:
    data = inp.batch_inputs(seed)
    out.input_hash = inp.input_hash(data)
    probe_setup("batch", setup_reps, out)
    rng = np.random.default_rng(seed)
    with libraries(tracer) as (by_pair, _):
        libs = [by_pair[p] for p in inp.PAIRS]
        large, small = [], []
        for p, lib in zip(inp.PAIRS, libs):
            big, walk = data[p]
            ref_big = lib.evaluate_bits_batch(big)
            ref_walk = lib.evaluate_bits_batch(walk.xs)
            out.count(len(walk.want), np.count_nonzero(
                ref_walk.reshape(-1)[walk.want_at] != walk.want))
            _cross_check(lib, big, ref_big, rng, out)
            _cross_check(lib, walk.xs, ref_walk, rng, out)
            large.append((big, ref_big.astype(np.uint32)))
            small.append((walk.xs, ref_walk))
        if tracer is not None:
            tracer.restart()
        res = _batch_passes(libs, large, small, seconds, tracer, out)
    pass_rates, t_large, t_small, agg_large, agg_small = res
    # each (pair, slice) small call is one input, timed on every cycle
    per_slice = per_input_median(
        t_small, np.arange(len(t_small)) % (len(libs) * small[0][0].shape[0]))
    lat_p50 = pct(per_slice, 50)
    out.e2e.update(latency_p50_us=lat_p50,
                   latency_p90_us=pct(per_slice, 90),
                   throughput_meval_s=float(np.median(pass_rates)))
    out.detail.update(
        batch_large_melem_s=(float(np.median(pass_rates)), "Melem/s"),
        batch_small_melem_s=(inp.SLICE / lat_p50, "Melem/s"),
        large_passes=(len(pass_rates), "count"),
        small_calls=(len(t_small), "count"))
    # time = fixed + lanes * per_lane, through the two call shapes' means
    per_lane = (np.mean(t_large) - per_slice.mean()) \
        / (inp.LARGE_LANES - inp.SLICE)
    out.layer["batch.fixed_us_per_call"] = float(
        per_slice.mean() - per_lane * inp.SLICE)
    if tracer is not None:
        out.layer.update(batch_layers(tracer, agg_large, agg_small))


def _batch_passes(libs, large, small, seconds, tracer, out):
    """Alternate one large call per pair with as long a stretch of small
    calls (cycling pairs and slices) until the deadline."""
    pc = time.perf_counter_ns
    calls = [lib.evaluate_bits_batch for lib in libs]
    pass_rates, t_large, t_small = [], [], []
    agg_large: dict = {}
    agg_small: dict = {}
    n_slices = small[0][0].shape[0]
    k = 0
    deadline = pc() + int(seconds * 1e9)
    while True:
        spent = 0
        for call, (xs, ref) in zip(calls, large):
            t0 = pc()
            got = call(xs)
            dt = pc() - t0
            out.count(1, not np.array_equal(got, ref))
            t_large.append(dt / 1e3)
            spent += dt
        pass_rates.append(len(calls) * inp.LARGE_LANES / spent * 1e3)
        _merge(agg_large, tracer)
        stretch = pc() + spent
        while True:
            j, s = k % len(calls), (k // len(calls)) % n_slices
            xs, ref = small[j]
            t0 = pc()
            got = calls[j](xs[s])
            t1 = pc()
            out.count(1, not np.array_equal(got, ref[s]))
            t_small.append((t1 - t0) / 1e3)
            k += 1
            if t1 > stretch:
                break
        _merge(agg_small, tracer)
        if pc() > deadline:
            return pass_rates, t_large, t_small, agg_large, agg_small


def _merge(into: dict, tracer: Tracer | None) -> None:
    if tracer is None:
        return
    for name, sums in tracer.take().items():
        acc = into.setdefault(name, [0] * len(sums))
        for i, v in enumerate(sums):
            acc[i] += v


def batch_layers(tracer: Tracer, agg_large: dict, agg_small: dict) -> dict:
    """Per-stage ns per element over the large calls, the share of
    special lanes over the small ones.

    ``batch.stage_sum_ns_per_elem`` (all stages plus the engine's own
    time) is turned into a share of the untraced time by the caller.
    """
    def per_elem(name):
        items = agg_large.get(name, [0, 0, 0])[2]
        return tracer.self_ns(agg_large, name) / items if items else 0.0

    out = {}
    for fam in inp.FAMILIES:
        for stage in ("special", "reduce", "horner", "compensate", "round"):
            out[f"batch.{fam}.{stage}_ns_per_elem"] = per_elem(
                f"batch.{fam}.{stage}")
    out["batch.glue_ns_per_elem"] = per_elem("api.evaluate_bits_batch")
    lanes = agg_large.get("api.evaluate_bits_batch", [0, 0, 0])[2]
    if lanes:
        out["batch.stage_sum_ns_per_elem"] = sum(
            tracer.self_ns(agg_large, n) for n in agg_large
            if n.startswith("batch.") or n == "api.evaluate_bits_batch") \
            / lanes
    special = [v for n, v in agg_small.items()
               if n.startswith("batch.") and n.endswith(".special")]
    seen = sum(v[2] for v in special)
    out["batch.special_lane_share"] = (sum(v[4] for v in special) / seen
                                       if seen else 0.0)
    return out
