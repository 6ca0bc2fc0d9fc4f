"""Golden pin for the object engine's own output.

The object engine (:class:`repro.system.system.System` with its
per-access coherence check) is the oracle the batch kernel, the fuzzer
and the serve daemon are compared against.  This module pins what the
oracle itself produces: the sha256 of the canonical
``execute_payload`` for a fixed set of experiment specs, covering every
registry protocol on four boards, mixed systems with write-through and
non-caching boards, small geometries that force evictions, a timed run
and an arbitrated (``discipline``) run.

Regenerate (only when a change is *meant* to alter engine output)::

    PYTHONPATH=src python tests/test_experiment_golden.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.protocols.registry import protocol_names
from repro.serve.jobs import execute_payload
from repro.serve.protocol import payload_json
from repro.specs import ExperimentSpec, GeometrySpec, WorkloadSpec

GOLDEN = Path(__file__).parent / "golden" / "experiment_payloads.json"

_WORKLOAD = WorkloadSpec(references=600, seed=7)


def golden_specs() -> list[ExperimentSpec]:
    """The pinned specs, in golden-file order."""
    specs = [
        ExperimentSpec(protocol=name, workload=_WORKLOAD)
        for name in protocol_names()
    ]
    mixed = ("moesi", "dragon", "write-through", "non-caching")
    specs += [
        ExperimentSpec(protocols=mixed, workload=_WORKLOAD),
        ExperimentSpec(
            protocols=("moesi-invalidate", "write-through-alloc",
                       "moesi-update", "non-caching-bc"),
            workload=WorkloadSpec(references=600, seed=3, p_shared=0.6),
            geometry=GeometrySpec(num_sets=4, associativity=2),
        ),
        ExperimentSpec(
            protocol="moesi",
            workload=WorkloadSpec(references=600, seed=5, p_write=0.5),
            geometry=GeometrySpec(num_sets=1, associativity=4),
        ),
        ExperimentSpec(
            protocols=("moesi-random", "moesi-round-robin",
                       "moesi-adaptive-threshold", "moesi"),
            workload=_WORKLOAD,
            geometry=GeometrySpec(num_sets=64, associativity=1,
                                  replacement="random"),
        ),
        ExperimentSpec(protocols=mixed, workload=_WORKLOAD, timed=True),
        ExperimentSpec(
            protocols=mixed, workload=_WORKLOAD,
            discipline="priority:cpu0=1",
        ),
    ]
    return specs


def payload_sha256(spec: ExperimentSpec) -> str:
    payload = execute_payload(spec.canonical())
    return hashlib.sha256(payload_json(payload).encode("utf-8")).hexdigest()


def _golden() -> list[dict]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_the_pinned_specs():
    assert [row["spec"] for row in _golden()] == [
        spec.canonical() for spec in golden_specs()
    ]


@pytest.mark.parametrize(
    "index", range(len(golden_specs())),
    ids=[spec.run_label() + ("/timed" if spec.timed else "")
         + (f"/{spec.discipline}" if spec.discipline else "")
         + f"/{spec.geometry.num_sets}x{spec.geometry.associativity}"
         for spec in golden_specs()],
)
def test_payload_matches_golden(index):
    row = _golden()[index]
    spec = golden_specs()[index]
    assert payload_sha256(spec) == row["sha256"], row["spec"]


if __name__ == "__main__":
    rows = [
        {"spec": spec.canonical(), "sha256": payload_sha256(spec)}
        for spec in golden_specs()
    ]
    GOLDEN.write_text(json.dumps(rows, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(rows)} rows to {GOLDEN}")
