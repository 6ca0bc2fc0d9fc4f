#!/usr/bin/env python3
"""Futurebus electrical behaviour: the wired-OR broadcast handshake.

Regenerates the paper's Figures 1 and 2 from the line/handshake models,
shows how the same machinery prices a real transaction mix, then
captures a live ping-pong run through the structured tracer and renders
the consistency lines (CA/IM/BC and the wired-OR CH/DI/SL/BS responses)
as a logic-analyzer-style waveform via :mod:`repro.obs`.

Run:  python examples/futurebus_waveforms.py
"""

from repro import Session, plan
from repro.analysis import (
    figure1_broadcast_handshake,
    figure2_parallel_protocol,
)
from repro.bus import DEFAULT_TIMING, BusTiming
from repro.core.actions import BusOp
from repro.core.signals import MasterSignals
from repro.obs.export import render_waveforms
from repro.workloads import ping_pong


def main() -> None:
    print(figure1_broadcast_handshake())
    print()
    print(figure2_parallel_protocol())
    print()

    timing: BusTiming = DEFAULT_TIMING
    print("Transaction pricing under the default timing model:")
    cases = [
        ("address-only invalidate (CA,IM)",
         BusOp.NONE, MasterSignals(ca=True, im=True), {}),
        ("line read from memory (CA,R)",
         BusOp.READ, MasterSignals(ca=True), {}),
        ("line read by intervention (CA,R + DI)",
         BusOp.READ, MasterSignals(ca=True), {"intervened": True}),
        ("word write past a WT cache (IM,W)",
         BusOp.WRITE, MasterSignals(im=True), {}),
        ("broadcast line write (CA,IM,BC,W)",
         BusOp.WRITE, MasterSignals(ca=True, im=True, bc=True), {}),
    ]
    for label, op, signals, kwargs in cases:
        cost = timing.transaction_ns(op, signals, **kwargs)
        print(f"  {label:<42} {cost:7.0f} ns")
    print(f"  {'one aborted attempt (BS)':<42} "
          f"{timing.abort_ns():7.0f} ns (plus the push and the retry)")
    print()

    # Now watch those lines on a live bus: two MOESI caches ping-pong a
    # shared line while the session's tracer records every transaction.
    session = Session(label="waveforms", trace=True)
    session.execute(plan(
        "experiment",
        protocol="moesi",
        workload=ping_pong(rounds=4, processors=2),
    ))
    print(render_waveforms(
        session.tracer.export(),
        "Consistency lines during a 2-CPU MOESI ping-pong "
        "(# = asserted/low)",
    ))


if __name__ == "__main__":
    main()
