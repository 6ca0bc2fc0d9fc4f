"""Golden pin for traced runs of the object engine.

A traced experiment records every bus transaction (with its snoop
responses, supplier, connectors and retries) and every protocol
decision on every board.  This module pins the sha256 of that stream
in its three output forms -- ``Tracer.export()`` dicts (key order
included), JSON-lines and the Chrome trace -- for three runs:

* four homogeneous Illinois boards (BS abort-push retries);
* a mixed backplane with write-through and non-caching boards
  (broadcast connectors, cacheless masters);
* an arbitrated (``discipline``) run of Illinois and Berkeley boards,
  whose transaction order follows the round-robin grants.

Regenerate (only when a change is *meant* to alter trace output)::

    PYTHONPATH=src python tests/test_trace_golden.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.api import Session
from repro.obs.export import to_chrome_trace, to_jsonl
from repro.specs import ExperimentSpec, WorkloadSpec

GOLDEN = Path(__file__).parent / "golden" / "trace_sha256.json"

_WORKLOAD = WorkloadSpec(references=600, seed=7, p_shared=0.5)


def golden_specs() -> list[ExperimentSpec]:
    """The pinned specs, in golden-file order."""
    return [
        ExperimentSpec(protocol="illinois", workload=_WORKLOAD),
        ExperimentSpec(
            protocols=("moesi", "dragon", "write-through", "non-caching"),
            workload=_WORKLOAD,
        ),
        ExperimentSpec(
            protocols=("illinois", "berkeley", "illinois", "berkeley"),
            workload=_WORKLOAD,
            discipline="round-robin",
        ),
    ]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def trace_hashes(spec: ExperimentSpec) -> dict:
    """sha256 of one traced run's stream in each output form."""
    session = Session(label="golden", trace=True)
    session.execute(spec)
    events = session.tracer.export()
    chrome = to_chrome_trace(events, label="golden")
    return {
        "events": len(events),
        "export": _sha(json.dumps(events)),
        "jsonl": _sha(to_jsonl(events)),
        "chrome": _sha(json.dumps(chrome, sort_keys=True, indent=1)),
    }


def _golden() -> list[dict]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_the_pinned_specs():
    assert [row["spec"] for row in _golden()] == [
        spec.canonical() for spec in golden_specs()
    ]


@pytest.mark.parametrize(
    "index", range(len(golden_specs())),
    ids=[spec.run_label()
         + (f"/{spec.discipline}" if spec.discipline else "")
         for spec in golden_specs()],
)
def test_trace_matches_golden(index):
    row = _golden()[index]
    spec = golden_specs()[index]
    assert trace_hashes(spec) == row["hashes"], row["spec"]


def test_materialized_events_match_export():
    """Reading ``Tracer.events`` first (materializing the pending
    records) must not change what ``export()`` returns."""
    session = Session(label="golden", trace=True)
    session.execute(golden_specs()[0])
    tracer = session.tracer
    half = tracer.export()
    assert [event.to_dict() for event in tracer.events] == half
    assert tracer.export() == half


if __name__ == "__main__":
    rows = [
        {"spec": spec.canonical(), "hashes": trace_hashes(spec)}
        for spec in golden_specs()
    ]
    GOLDEN.write_text(json.dumps(rows, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(rows)} rows to {GOLDEN}")
