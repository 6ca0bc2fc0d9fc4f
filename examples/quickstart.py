#!/usr/bin/env python3
"""Quickstart: run a small mixed-protocol multiprocessor through the
:mod:`repro.api` verbs (``plan`` then ``execute``), inspect coherence
and traffic, and export a structured trace viewable in Perfetto.

Run:  python examples/quickstart.py
"""

from repro import Session, plan
from repro.workloads import ping_pong


def main() -> None:
    # One session owns the trace; every run it performs lands in the
    # same timeline.
    session = Session(label="quickstart", trace=True)

    # Three boards on one Futurebus, each running a *different* protocol
    # from the MOESI class -- the paper's headline capability.  Two
    # processors ping-pong a shared line; the third watches.  ``plan``
    # builds a frozen, hashable spec; the session executes it.
    spec = plan(
        "experiment",
        protocols=["moesi", "dragon", "write-through"],
        workload=ping_pong(rounds=50, processors=3),
        label="quickstart",
    )
    result = session.execute(spec)

    # Every read was checked against the last write at run time; the
    # result carries a final whole-memory invariant sweep.
    print(f"coherence violations: {len(result.violations)}")
    assert result.ok

    report = result.report
    print(f"accesses:            {report.accesses}")
    print(f"miss ratio:          {report.miss_ratio:.3f}")
    print(f"bus transactions:    {report.bus.transactions}")
    print(f"per access:          {report.bus_transactions_per_access:.3f}")
    print(f"invalidations:       {report.invalidations}")
    print(f"updates received:    {report.updates_received}")
    print(f"interventions:       {report.bus.interventions}")

    # The metrics snapshot has the per-state hit breakdown and more.
    for name in sorted(result.metrics):
        if name.startswith("cache.hits_in_state."):
            print(f"{name}: {result.metrics[name]}")

    # Peek at the final per-board state of the contended line.
    for unit_id, board in result.system.controllers.items():
        print(f"{unit_id}: line 0 in state {board.state_of(0)}")

    # Export the structured trace (bus signals + MOESI transitions) in
    # Chrome trace-event format -- open it at https://ui.perfetto.dev.
    path = result.write_trace("quickstart.trace.json")
    print(f"trace written to {path} ({len(result.trace)} events)")


if __name__ == "__main__":
    main()
