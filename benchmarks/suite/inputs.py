"""Seeded workload inputs, made and decoded by the benchmark itself.

Every input is an exact value of its target format: the suite draws bit
patterns from a seeded generator and decodes them here, with its own
float32 and posit32 decoders, so the program under test receives only
arrays of doubles.  A workload's inputs always include the committed
adversarial corpus of each pair it uses (``tests/data/adversarial``),
whose ``want`` bits check every path independently of the program.

Domain values are drawn uniformly over the bit patterns of a range that
is inside every shipped table's non-special domain (the paper times
"all inputs" the same way), so a batch of domain values takes the batch
engine's no-specials path.  Special values are NaN, infinities, zeros
and out-of-domain patterns.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[2]
CORPUS_DIR = ROOT / "tests" / "data" / "adversarial"

FLOAT32_FUNCTIONS = ("ln", "log2", "log10", "exp", "exp2", "exp10",
                     "sinh", "cosh", "sinpi", "cospi")
POSIT32_FUNCTIONS = ("ln", "log2", "log10", "exp", "exp2", "exp10",
                     "sinh", "cosh")
#: The 18 shipped (function, target) pairs.  Fixed here, not asked of
#: the program, so a later change to what ships cannot move the inputs.
PAIRS = tuple([(f, "float32") for f in FLOAT32_FUNCTIONS]
              + [(f, "posit32") for f in POSIT32_FUNCTIONS])

FAMILIES = ("exp", "log", "sinhcosh", "sinpi")
FAMILY = {"exp": "exp", "exp2": "exp", "exp10": "exp",
          "ln": "log", "log2": "log", "log10": "log",
          "sinh": "sinhcosh", "cosh": "sinhcosh",
          "sinpi": "sinpi", "cospi": "sinpi"}

#: Largest |x| drawn as a domain value, a margin inside the shipped
#: tables' overflow / saturation thresholds (exp float32 overflows past
#: 88.72, posit32 exp saturates past 81.79, sinpi treats |x| >= 2**23 as
#: an integer).  The log family takes every positive finite value.
_DOMAIN_LIMIT = {
    ("exp", "float32"): 88.5, ("exp2", "float32"): 127.5,
    ("exp10", "float32"): 38.5, ("sinh", "float32"): 89.0,
    ("cosh", "float32"): 89.0, ("sinpi", "float32"): 8388607.5,
    ("cospi", "float32"): 8388607.5,
    ("exp", "posit32"): 81.5, ("exp2", "posit32"): 117.5,
    ("exp10", "posit32"): 35.5, ("sinh", "posit32"): 82.0,
    ("cosh", "posit32"): 82.0,
}
#: Smallest |x| drawn as an out-of-domain special (every exp-family and
#: sinh/cosh threshold is below 256; sinpi/cospi are special from 2**23).
_SPECIAL_FLOOR = {"exp": 256.0, "sinhcosh": 256.0, "sinpi": 8388608.0}

SPECIAL_SHARE = 0.02
SCALAR_LANES = 4096          # per pair, cycled by scalar_mixed
LARGE_LANES = 1 << 20        # batch_sweep large call
SLICE = 256                  # small batch call and serve_open request
WALK_SLICES = 256            # ascending-walk slices per pair
SERVE_SLICES = 64            # request payloads per serve_open key
BULK_LANES = 1 << 20         # serve_bulk call

SERVE_OPEN_KEYS = (("exp", "float32"), ("ln", "float32"),
                   ("sinpi", "float32"), ("cosh", "posit32"))
SERVE_BULK_KEYS = (("exp", "float32"), ("ln", "posit32"))

_F32_MAX = 0x7F7FFFFF
_P32_MAX = 0x7FFFFFFF
_P32_NAR = 0x80000000


# -- decoding ---------------------------------------------------------------


def f32_values(bits) -> np.ndarray:
    """float32 bit patterns -> the exact doubles (keeps -0.0, NaN)."""
    f = np.asarray(bits, dtype=np.uint64).astype(np.uint32).view(np.float32)
    with np.errstate(invalid="ignore"):     # signalling-NaN patterns
        return f.astype(np.float64)


def p32_values(bits) -> np.ndarray:
    """posit32 (es=2) bit patterns -> the exact doubles (NaR -> NaN)."""
    p = np.asarray(bits, dtype=np.uint64).astype(np.int64) & 0xFFFFFFFF
    neg = p >= _P32_NAR
    mag = np.where(neg, (-p) & 0xFFFFFFFF, p)        # two's complement
    body = mag & _P32_MAX                            # 31 bits after sign
    first = body >> 30
    run_bits = np.where(first == 1, ~body & _P32_MAX, body)
    # regime run length from the highest set bit of the run-bits word
    # (int -> double is exact below 2**53, so its exponent is floor(log2))
    hb = (run_bits.astype(np.float64).view(np.int64) >> 52) - 1023
    run = np.where(run_bits > 0, 30 - hb, 31)
    k = np.where(first == 1, run - 1, -run)
    rest = np.maximum(30 - run, 0)                   # bits after terminator
    rem = body & ((np.int64(1) << rest) - 1)
    exp_bits = np.where(rest >= 2, rem >> np.maximum(rest - 2, 0),
                        rem << np.maximum(2 - rest, 0))
    fbits = np.maximum(rest - 2, 0)
    frac = rem & ((np.int64(1) << fbits) - 1)
    sig = (np.int64(1) << fbits) + frac
    val = np.ldexp(sig.astype(np.float64),
                   (4 * k + exp_bits - fbits).astype(np.int32))
    val = np.where(neg, -val, val)
    val[p == 0] = 0.0
    val[p == _P32_NAR] = np.nan
    return val


def values(target: str, bits) -> np.ndarray:
    """Decode target bit patterns to the doubles the program receives."""
    return f32_values(bits) if target == "float32" else p32_values(bits)


def _last_pattern_at_most(target: str, limit: float) -> int:
    """Largest positive pattern whose value is <= limit (bisection)."""
    lo, hi = 1, _F32_MAX if target == "float32" else _P32_MAX
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if values(target, [mid])[0] <= limit:
            lo = mid
        else:
            hi = mid - 1
    return lo


def _with_sign(target: str, mag: np.ndarray, negative: np.ndarray):
    if target == "float32":
        return np.where(negative, mag | 0x80000000, mag)
    return np.where(negative, (-mag) & 0xFFFFFFFF, mag)


# -- drawing values ---------------------------------------------------------


def domain_bits(rng, fn: str, target: str, n: int) -> np.ndarray:
    """n patterns uniform over the pair's non-special domain."""
    if FAMILY[fn] == "log":
        top = _F32_MAX if target == "float32" else _P32_MAX
        return rng.integers(1, top, n, endpoint=True, dtype=np.int64)
    top = _last_pattern_at_most(target, _DOMAIN_LIMIT[(fn, target)])
    mag = rng.integers(1, top, n, endpoint=True, dtype=np.int64)
    return _with_sign(target, mag, rng.random(n) < 0.5)


def special_bits(rng, fn: str, target: str, n: int) -> np.ndarray:
    """n special-case patterns: NaN/inf/zeros and out-of-domain values."""
    if target == "float32":
        fixed = np.array([0x7FC00000, 0x7F800000, 0xFF800000, 0, 0x80000000],
                         dtype=np.int64)
        top = _F32_MAX
    else:
        fixed = np.array([_P32_NAR, 0], dtype=np.int64)
        top = _P32_MAX
    if FAMILY[fn] == "log":
        out = _with_sign(target, rng.integers(1, top, n, endpoint=True,
                                              dtype=np.int64),
                         np.ones(n, dtype=bool))
    else:
        floor = _last_pattern_at_most(target, _SPECIAL_FLOOR[FAMILY[fn]]) + 1
        mag = rng.integers(floor, top, n, endpoint=True, dtype=np.int64)
        out = _with_sign(target, mag, rng.random(n) < 0.5)
    pick = rng.random(n) < 0.25
    out[pick] = rng.choice(fixed, int(pick.sum()))
    return out


@dataclass
class Corpus:
    """One pair's committed adversarial entries: input bits and wants."""

    x: np.ndarray       # float64 inputs
    want: np.ndarray    # uint64 correctly rounded result bits


def load_corpus(fn: str, target: str) -> Corpus:
    doc = json.loads((CORPUS_DIR / f"{fn}.{target}.json").read_text())
    xb = [int(e["x"], 16) for e in doc["entries"]]
    want = np.array([int(e["want"], 16) for e in doc["entries"]],
                    dtype=np.uint64)
    return Corpus(values(target, xb), want)


@dataclass
class PairInputs:
    """Inputs of one pair: ``xs`` plus the positions carrying a want."""

    xs: np.ndarray          # float64, any shape
    want_at: np.ndarray     # flat indices into xs
    want: np.ndarray        # uint64 wanted bits at those indices


def mixed_values(rng, fn: str, target: str, n: int) -> np.ndarray:
    """n values in random order, SPECIAL_SHARE of them special."""
    n_special = round(n * SPECIAL_SHARE)
    bits = np.concatenate([special_bits(rng, fn, target, n_special),
                           domain_bits(rng, fn, target, n - n_special)])
    return values(target, rng.permutation(bits))


def _rng(seed: int, workload: str, pair_index: int):
    tag = int.from_bytes(hashlib.sha256(workload.encode()).digest()[:4],
                         "little")
    return np.random.default_rng([seed, tag, pair_index])


def scalar_inputs(seed: int) -> dict:
    """scalar_mixed: SCALAR_LANES values per pair, the corpus among them
    at random places."""
    out = {}
    for i, p in enumerate(PAIRS):
        rng = _rng(seed, "scalar_mixed", i)
        corpus = load_corpus(*p)
        at = rng.choice(SCALAR_LANES, len(corpus.x), replace=False)
        rest = np.ones(SCALAR_LANES, dtype=bool)
        rest[at] = False
        xs = np.empty(SCALAR_LANES)
        xs[at] = corpus.x
        xs[rest] = mixed_values(rng, *p, SCALAR_LANES - len(at))
        out[p] = PairInputs(xs, at, corpus.want)
    return out


def batch_inputs(seed: int) -> dict:
    """batch_sweep: per pair the large call's domain values and the
    small calls' slices.

    The small slices are the corpus (repeated to SLICE lanes) followed
    by WALK_SLICES runs of SLICE consecutive bit patterns, one run per
    equal stride of the whole 32-bit pattern space in ascending order,
    the shape of an exhaustive sweep.
    """
    out = {}
    stride = (1 << 32) // WALK_SLICES
    for i, p in enumerate(PAIRS):
        rng = _rng(seed, "batch_sweep", i)
        fn, target = p
        corpus = load_corpus(fn, target)
        large = values(target, domain_bits(rng, fn, target, LARGE_LANES))
        off = int(rng.integers(0, stride - SLICE))
        walk = (np.arange(WALK_SLICES, dtype=np.int64)[:, None] * stride
                + off + np.arange(SLICE, dtype=np.int64))
        reps = np.resize(np.arange(len(corpus.x)), SLICE)
        small = np.concatenate([corpus.x[reps][None, :],
                                values(target, walk.reshape(-1))
                                .reshape(WALK_SLICES, SLICE)])
        out[p] = (large,
                  PairInputs(small, np.arange(SLICE), corpus.want[reps]))
    return out


def serve_open_inputs(seed: int) -> dict:
    """serve_open: SERVE_SLICES request payloads of SLICE lanes per key.

    Payload 0 is the key's corpus (repeated to SLICE lanes); the rest
    are mixed domain and special values.
    """
    out = {}
    for i, p in enumerate(SERVE_OPEN_KEYS):
        rng = _rng(seed, "serve_open", i)
        corpus = load_corpus(*p)
        reps = np.resize(np.arange(len(corpus.x)), SLICE)
        rest = mixed_values(rng, *p, (SERVE_SLICES - 1) * SLICE)
        xs = np.concatenate([corpus.x[reps], rest]) \
            .reshape(SERVE_SLICES, SLICE)
        out[p] = PairInputs(xs, np.arange(SLICE), corpus.want[reps])
    return out


def serve_bulk_inputs(seed: int) -> dict:
    """serve_bulk: one BULK_LANES array per key, corpus first."""
    out = {}
    for i, p in enumerate(SERVE_BULK_KEYS):
        rng = _rng(seed, "serve_bulk", i)
        corpus = load_corpus(*p)
        k = len(corpus.x)
        dom = values(p[1], domain_bits(rng, *p, BULK_LANES - k))
        out[p] = PairInputs(np.concatenate([corpus.x, dom]), np.arange(k),
                            corpus.want)
    return out


def input_hash(inputs: dict) -> str:
    """sha256 over every array the workload passes to the program."""
    h = hashlib.sha256()
    for key in sorted(inputs):
        val = inputs[key]
        for part in (val if isinstance(val, tuple) else (val,)):
            h.update(repr(key).encode())
            h.update(np.ascontiguousarray(getattr(part, "xs", part))
                     .tobytes())
    return h.hexdigest()
