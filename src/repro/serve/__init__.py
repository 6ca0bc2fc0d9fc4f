"""``repro.serve``: the long-lived, memoizing service tier.

The plan/execute split (:mod:`repro.specs`, :mod:`repro.api`) makes an
experiment a frozen value with a canonical content hash; this package is
what that buys at scale.  A :class:`~repro.serve.server.ReproServer` is
an asyncio daemon speaking newline-delimited JSON (the CLI's
``{"command", "ok", "data", "metrics"}`` envelope) over TCP and/or a
unix socket, admitting ``{"command": "execute", "spec", "deadline"}``
jobs and:

* **memoizing** results behind ``spec.content_hash()`` -- an identical
  request never recomputes (:mod:`repro.serve.cache`);
* **coalescing** concurrent identical requests into one in-flight
  computation (single-flight);
* **multiplexing** distinct jobs onto the warm worker pool through
  :func:`repro.perf.pool.dispatch_one`, which enforces per-request
  deadlines with the pool's per-task timeout machinery;
* **batching** compatible batch sweeps that arrive within an admission
  window into one pool job (:func:`repro.serve.jobs.dispatch_batch_job`)
  that runs :func:`repro.perf.batch.run_batch_specs` -- the same path a
  local ``execute`` of a batch spec takes;
* applying **bounded-queue back-pressure**: a saturated daemon answers
  ``{"ok": false, "error": "busy", "retry_after": ...}`` instead of
  growing an unbounded queue;
* **streaming** large observability payloads as incremental
  metrics/trace frames (:mod:`repro.obs.stream`).

Client side, :class:`~repro.serve.client.ServeClient` (and the
``repro submit`` CLI) submits specs and reassembles streamed frames.
The served response payload is byte-for-byte the canonical local
serialization (:func:`repro.serve.protocol.payload_for` of a direct
``repro.api.execute``), cached or not.
"""

from repro.serve.cache import MemoCache
from repro.serve.client import ServeClient
from repro.serve.protocol import payload_for
from repro.serve.server import ReproServer, ServeConfig

__all__ = [
    "MemoCache",
    "ServeClient",
    "ReproServer",
    "ServeConfig",
    "payload_for",
]
