"""Smoke tests of the benchmark suite (short runs).

    PYTHONPATH=src python -m pytest benchmarks/suite -q
"""

from __future__ import annotations

import json
import subprocess
import sys

import numpy as np
import pytest

import inputs
import inproc
from common import E2E_UNITS, SUITE, Outcome
from inputs import ROOT

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SECONDS = "0.3"


def _run(*args: str) -> tuple[str, dict]:
    res = subprocess.run(
        [sys.executable, str(SUITE / "run.py"), "--seed", "7",
         "--seconds", SECONDS, *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stdout + res.stderr
    return res.stdout, json.loads(res.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced():
    return _run("--workload", "scalar_mixed", "--trace", "1")


def test_end_to_end_metrics_emitted_with_units():
    text, last = _run("--workload", "scalar_mixed")
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0
    for m in SPEC["end_to_end"]:
        assert last["metrics"][m["name"]]["unit"] == m["unit"]
        assert last["metrics"][m["name"]]["value"] > 0
        assert f"{m['name']} = " in text
    assert set(last["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert "fail_frac = 0 " in text


def test_per_layer_metrics_emitted_with_units(traced):
    text, last = traced
    assert last["correct"] and last["failed"] == 0
    assert set(last["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert last["metrics"][m["name"]]["unit"] == m["unit"]
    assert "not measured" not in text
    assert "trace.overhead.latency_p50_us" in last["metrics"]


def test_spec_matches_the_code():
    from run import LAYER_UNITS

    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == E2E_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == LAYER_UNITS


def test_tampered_reference_is_counted_as_failure(monkeypatch):
    load = inputs.load_corpus

    def tampered(fn, target):
        corpus = load(fn, target)
        corpus.want = corpus.want.copy()
        corpus.want[0] ^= np.uint64(1)
        return corpus

    monkeypatch.setattr(inputs, "load_corpus", tampered)
    out = Outcome()
    inproc.run_scalar_mixed(7, 0.1, tracer=None, setup_reps=0, out=out)
    assert out.attempted > 0
    assert out.failed >= len(inputs.PAIRS)


@pytest.mark.parametrize("make", [inputs.scalar_inputs,
                                  inputs.serve_open_inputs,
                                  inputs.serve_bulk_inputs])
def test_inputs_depend_on_the_seed_only(make):
    assert inputs.input_hash(make(1)) == inputs.input_hash(make(1))
    assert inputs.input_hash(make(1)) != inputs.input_hash(make(2))


def test_decoders_agree_with_the_program():
    from repro.batch.rounding import decode_kernel
    from repro.libm.serialize import TARGETS_BY_NAME

    rng = np.random.default_rng(0)
    bits = np.concatenate([rng.integers(0, 1 << 32, 100_000, dtype=np.int64),
                           [0, 1, 0x7FFFFFFF, 0x80000000, 0x80000001,
                            0xFFFFFFFF, 0x7F800000, 0x00800000]])
    for target in ("float32", "posit32"):
        want = decode_kernel(TARGETS_BY_NAME[target])(bits.astype(np.uint64))
        got = inputs.values(target, bits)
        same = (got.view(np.uint64) == want.view(np.uint64)) \
            | (np.isnan(got) & np.isnan(want))
        assert same.all(), target
