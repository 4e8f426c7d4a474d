"""Fresh-process set-up probe: import, load every pair, first answer.

Run by the suite as ``probe.py <scalar|batch> <x-hex>...``.  It imports
``repro.api``, loads all 18 shipped pairs, evaluates the given inputs on
the first pair (one scalar ``evaluate_bits`` call per input, or one
``evaluate_bits_batch`` call on all of them) and prints one line::

    PROBE {"import_s": ..., "load_ms": ..., "first_ms": ..., "bits": [...]}

The suite times the whole process from spawn to that line and checks
the bits.
"""

from __future__ import annotations

import json
import sys
import time


def main(argv: list[str]) -> None:
    kind, xs = argv[0], [float.fromhex(a) for a in argv[1:]]
    t0 = time.perf_counter()
    from repro import api
    t1 = time.perf_counter()
    # after the timed import: the suite's own module pulls in numpy,
    # whose import cost belongs to repro.api's
    import numpy as np
    from inputs import PAIRS

    libs = [api.load(fn, target) for fn, target in PAIRS]
    t2 = time.perf_counter()
    if kind == "scalar":
        bits = [libs[0].evaluate_bits(x) for x in xs]
    else:
        bits = libs[0].evaluate_bits_batch(
            np.array(xs, dtype=np.float64)).tolist()
    t3 = time.perf_counter()
    print("PROBE " + json.dumps({"import_s": t1 - t0,
                                 "load_ms": (t2 - t1) * 1e3,
                                 "first_ms": (t3 - t2) * 1e3,
                                 "bits": [int(b) for b in bits]}),
          flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
