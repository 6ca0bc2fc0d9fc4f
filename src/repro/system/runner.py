"""Timed multiprocessor simulation: processors + system + event queue.

The single shared bus serializes every coherence action, so the timed
model keeps transaction *semantics* atomic (exactly as the paper's tables
describe them) and layers time on top:

* each processor issues its next reference after a think time;
* a reference that stays in the cache completes after the hit time;
* a reference that generated bus work occupies the bus for the measured
  transaction time (including any aborted attempts and pushes it
  triggered), *after* waiting for the bus to become free -- this is where
  bus contention, the paper's second motivating constraint ("no feasible
  bus design can provide adequate bandwidth ... for any reasonable number
  of high performance processors"), becomes visible.

Determinism: ties are broken by event scheduling order, so a run is fully
reproducible given its streams.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.system.des import Simulator
from repro.system.processor import Processor, ProcessorTiming
from repro.system.stats import SystemReport
from repro.system.system import System
from repro.workloads.trace import Op, Trace

__all__ = ["TimedRun", "timed_run_from_trace"]


class TimedRun:
    """Drive a :class:`~repro.system.system.System` with timed processors."""

    def __init__(
        self,
        system: System,
        processors: Iterable[Processor],
    ) -> None:
        self.system = system
        self.processors = list(processors)
        unknown = [
            p.unit_id
            for p in self.processors
            if p.unit_id not in system.controllers
        ]
        if unknown:
            raise ValueError(f"processors without boards: {unknown}")
        self.sim = Simulator()
        self._bus_free_at = 0.0

    # ------------------------------------------------------------------
    def run(self, until_ns: Optional[float] = None) -> SystemReport:
        """Run every stream to exhaustion (or the time limit); returns the
        system report with elapsed time filled in."""
        tracer = self.system.tracer
        for index, processor in enumerate(self.processors):
            # Stagger initial issues so start order is deterministic but
            # not all at t=0.
            self.sim.at(float(index), self._make_step(processor))
            if tracer is not None:
                tracer.des(
                    "schedule", float(index), processor.unit_id, initial=True
                )
        self.sim.run(until=until_ns)
        elapsed = self.sim.now
        for processor in self.processors:
            processor.stats.finished_at = min(
                processor.stats.finished_at or elapsed, elapsed
            )
        return self.system.report(elapsed_ns=elapsed)

    # ------------------------------------------------------------------
    def _make_step(self, processor: Processor):
        # step() runs once per memory reference -- the DES hot path.
        # Everything invariant across steps is hoisted into closure
        # locals; only the tracer (attachable mid-run) and the shared
        # bus-free horizon are re-read through ``self``.
        system = self.system
        sim = self.sim
        bus = system.bus
        unit_id = processor.unit_id
        stats = processor.stats
        hit_ns = processor.timing.hit_ns
        think_ns = processor.timing.think_ns
        next_reference = processor.next_reference

        def step() -> None:
            tracer = system.tracer
            ref = next_reference()
            if ref is None:
                stats.finished_at = sim.now
                if tracer is not None:
                    tracer.des("retire", sim.now, unit_id, drained=True)
                return
            op, address = ref
            if tracer is not None:
                tracer.des("fire", sim.now, unit_id,
                           op=op.value, address=address)
            busy_before = bus.busy_ns
            if op is Op.READ:
                system.read(unit_id, address)
            else:
                system.write(unit_id, address)
            bus_time = bus.busy_ns - busy_before

            now = sim.now
            if bus_time > 0:
                start = max(now, self._bus_free_at)
                finish = start + bus_time
                self._bus_free_at = finish
                stats.bus_wait_ns += start - now
                stats.stall_ns += finish - now
            else:
                finish = now + hit_ns
                stats.stall_ns += hit_ns
            stats.completed += 1
            next_at = finish + think_ns
            sim.at(next_at, step)
            if tracer is not None:
                tracer.des("retire", finish, unit_id,
                           op=op.value, address=address,
                           stall_ns=round(finish - now, 3))
                tracer.des("schedule", finish, unit_id,
                           at_ns=round(next_at, 3))

        return step


def timed_run_from_trace(
    system: System,
    trace: Trace,
    timing: Optional[ProcessorTiming] = None,
) -> TimedRun:
    """Partition a global trace per unit and build a timed run.

    Each unit replays its own subsequence; the global interleaving then
    emerges from the timing model rather than the trace order.
    """
    per_unit: dict[str, list[tuple[Op, int]]] = {}
    for record in trace:
        per_unit.setdefault(record.unit, []).append((record.op, record.address))
    processors = [
        Processor(unit_id, iter(refs), timing)
        for unit_id, refs in per_unit.items()
    ]
    return TimedRun(system, processors)
