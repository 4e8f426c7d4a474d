"""Production serving layer: a multi-process libm service.

The in-process API (:mod:`repro.api`) evaluates on the caller's CPU
with the caller's memory; this package serves the same correctly
rounded functions *as a service*::

    from repro import serve

    with serve.serve(["exp"], targets=("float32",), workers=2) as svc:
        client = svc.connect("exp")
        bits = client.evaluate_bits_batch(xs)   # == Library's, bit for bit

Pieces (one module each, composable and individually testable):

* :mod:`~repro.serve.tables` — frozen coefficient tables published once
  into a shared-memory arena; workers attach zero-copy, read-only,
  pinned to a content hash.
* :mod:`~repro.serve.workers` — the process pool evaluating batches
  against the arena, with crash containment and utilization gauges.
* :mod:`~repro.serve.protocol` — the framed binary wire format.
* :mod:`~repro.serve.coalesce` — idle-slot/size/completion/shutdown-
  triggered batching: a request goes to an idle worker at once, and
  requests pile up into large batches only while every worker is busy.
* :mod:`~repro.serve.admission` — bounded queues and explicit SHED
  replies under overload.
* :mod:`~repro.serve.frontend` — the asyncio unix-socket server tying
  it together; :func:`serve` lives there.
* :mod:`~repro.serve.client` — the blocking :class:`ServiceClient`
  mirroring :class:`repro.api.Library`'s batch surface.

The service's trust boundary (DESIGN.md, "Serving"): replies are
bit-identical to the scalar path for every input, the arena is
immutable after publication, and overload degrades by *refusing* work,
never by answering wrong.
"""

from __future__ import annotations

from repro.serve.client import (ServiceClient, ServiceError,
                                ServiceOverloaded, connect)
from repro.serve.frontend import ServiceHandle, serve

__all__ = ["ServiceClient", "ServiceError", "ServiceHandle",
           "ServiceOverloaded", "connect", "serve"]
