"""The serve wire contract: canonical result payloads and envelopes.

One function, :func:`payload_for`, defines how an executed spec's result
serializes -- and it is used on *both* sides: the daemon's workers build
payloads with it, and a client (or test) comparing against a direct
``repro.api.execute`` builds the reference the same way.  Byte-for-byte
response identity between served and local execution is therefore a
property of sharing this code path, not of careful re-implementation.

Payload shape (JSON-safe, deterministic)::

    {"data": {...}, "metrics": {...} | null, "trace": [...] | null}

Determinism rules:

* execution details are stripped: batch rows lose
  ``transitions_per_sec`` (host wall clock) and ``backend`` (picked by
  the row count of the population that ran them, so a merged request
  and a solo one would name different backends) -- simulated time
  (``elapsed_ns``, ``elapsed_us``) is deterministic DES time and stays;
* the experiment report's embedded ``metrics``/``trace`` are hoisted to
  the payload's top level (nulled inside ``data``), so streaming can
  deliver them as frames without re-encoding the report;
* ``metrics``/``trace`` honour the spec's observability flags: a
  ``trace=False`` spec serves ``"trace": null`` even though the daemon
  could have traced.

Responses reuse the CLI envelope ``{"command", "ok", "data", "metrics"}``
plus serve-specific fields (``hash``, ``cached``, ``retry_after``, ...).
A request served through the continuous-batching path additionally
carries ``batched: true`` and ``population`` (the sealed population's
row count) -- annotations only: ``data`` stays byte-identical to the
one-at-a-time path, because both paths run the same kernel on the same
per-spec schedules and serialize through :func:`payload_for`, whose
execution-detail strip (:data:`_EXECUTION_DETAIL_ROW_FIELDS`) removes
the only fields a merged run could not reproduce.
"""

from __future__ import annotations

from typing import Optional

from repro.specs import canonical_json

__all__ = [
    "payload_for",
    "response_envelope",
    "payload_json",
]

#: Batch sweep row fields that say how a row was computed, not what it
#: is -- the host wall clock and the kernel backend (neither enters the
#: content hash) -- stripped so a cached payload equals a recomputed one
#: and a merged row equals a solo one.
_EXECUTION_DETAIL_ROW_FIELDS = ("backend", "transitions_per_sec")


def _experiment_payload(spec, result) -> dict:
    report = result.report.to_dict()
    # Hoist observability out of the report: metrics/trace stream as
    # frames and must not be double-encoded inside data.
    report["metrics"] = None
    report["trace"] = None
    return {
        "data": {
            "kind": "experiment",
            "label": result.label,
            "ok": result.ok,
            "violations": [str(v) for v in result.violations],
            "report": report,
        },
        "metrics": (result.metrics or None) if spec.metrics else None,
        "trace": result.trace if spec.trace else None,
    }


def _verify_payload(spec, result) -> dict:
    return {
        "data": {
            "kind": "verify",
            "ok": result.ok,
            "rows": result.rows,
        },
        "metrics": None,
        "trace": result.trace if spec.trace else None,
    }


def _fuzz_payload(spec, result) -> dict:
    return {
        "data": {
            "kind": "fuzz",
            "ok": result.ok,
            "report": result.report.to_dict(),
        },
        "metrics": None,
        "trace": result.trace if spec.trace else None,
    }


def _rows_payload(kind: str, rows: list, strip: tuple = ()) -> dict:
    if strip:
        rows = [
            {key: value for key, value in row.items() if key not in strip}
            for row in rows
        ]
    return {
        "data": {"kind": kind, "rows": rows},
        "metrics": None,
        "trace": None,
    }


def payload_for(spec, result) -> dict:
    """The canonical JSON-safe payload for ``result`` of ``spec``.

    This is what the daemon memoizes under ``spec.content_hash()`` and
    what a byte-identity check recomputes locally."""
    from repro.specs import (
        BatchSpec,
        ExperimentSpec,
        FuzzSpec,
        ShootoutSpec,
        VerifySpec,
    )

    if isinstance(spec, ExperimentSpec):
        return _experiment_payload(spec, result)
    if isinstance(spec, VerifySpec):
        return _verify_payload(spec, result)
    if isinstance(spec, FuzzSpec):
        return _fuzz_payload(spec, result)
    if isinstance(spec, ShootoutSpec):
        return _rows_payload("shootout", result)
    if isinstance(spec, BatchSpec):
        return _rows_payload(
            "batch", result, strip=_EXECUTION_DETAIL_ROW_FIELDS
        )
    raise TypeError(f"no payload serialization for {type(spec).__name__}")


def payload_json(payload: dict) -> str:
    """Canonical JSON encoding of a payload (the byte-identity form)."""
    return canonical_json(payload)


def response_envelope(
    command: str,
    ok: bool,
    data=None,
    metrics: Optional[dict] = None,
    **extra,
) -> dict:
    """The CLI-compatible response envelope with serve extensions."""
    envelope = {"command": command, "ok": ok, "data": data,
                "metrics": metrics}
    envelope.update(extra)
    return envelope
