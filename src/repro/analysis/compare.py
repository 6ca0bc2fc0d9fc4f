"""Protocol performance comparison -- the [Arch85] substitute.

The paper's preferred-choice recommendations (section 5.2) rest on the
Archibald & Baer simulation study, which compared the same protocol set
under a probabilistic program model.  These harnesses rerun that style of
comparison on our simulator and produce the rows the benchmarks print:

* :func:`protocol_comparison` -- every protocol, one workload (E2);
* :func:`update_vs_invalidate_sweep` -- the section 5.2 headline: the
  broadcast-update vs invalidate choice as sharing intensity varies (E3);
* :func:`write_through_vs_copy_back` -- bus traffic of the simplest class
  members vs the ownership protocols;
* :func:`heterogeneous_mix_sweep` -- board-mix effects (E8);
* :func:`broadcast_penalty_sweep` -- sensitivity of the preferred choice
  to the bus's broadcast surcharge (E5; "the preferred protocol is
  sensitive to the implementation of the bus");
* :func:`arbitration_discipline_sweep` -- the Nikolov & Lerato
  (arXiv:1004.3560) comparative study of bus-arbiter service
  disciplines (FCFS vs fixed-priority vs round-robin), on our DES.
"""

from __future__ import annotations

import functools
from typing import Optional, Sequence

from repro.bus.timing import BusTiming
from repro.perf.pool import parallel_map
from repro.system.runner import timed_run_from_trace
from repro.system.stats import SystemReport
from repro.system.system import BoardSpec, System
from repro.workloads.patterns import migratory, ping_pong, producer_consumer
from repro.workloads.synthetic import SyntheticConfig, SyntheticWorkload
from repro.workloads.trace import Trace

__all__ = [
    "DEFAULT_PROTOCOLS",
    "DEFAULT_DISCIPLINES",
    "HETEROGENEOUS_MIXES",
    "arbitration_discipline_row",
    "arbitration_discipline_sweep",
    "run_protocol_on_trace",
    "comparison_row",
    "comparison_row_traced",
    "update_vs_invalidate_row",
    "heterogeneous_row",
    "protocol_comparison",
    "update_vs_invalidate_sweep",
    "write_through_vs_copy_back",
    "heterogeneous_mix_sweep",
    "broadcast_penalty_sweep",
    "memory_latency_sweep",
]

#: The protocol set of the paper's section 4 plus the class under its two
#: pure policies.
DEFAULT_PROTOCOLS = (
    "moesi",
    "moesi-invalidate",
    "moesi-update",
    "berkeley",
    "dragon",
    "write-once",
    "illinois",
    "firefly",
    # Out-of-class negative fixture: rejected by the membership
    # validator, but a perfectly usable comparison baseline.
    "mesif",
    "write-through",
)


def run_protocol_on_trace(
    protocol: str,
    trace: Trace,
    n_boards: Optional[int] = None,
    timing: Optional[BusTiming] = None,
    timed: bool = True,
    check: bool = False,
    tracer=None,
    **board_kwargs,
) -> SystemReport:
    """Run one homogeneous system over a trace; return its report.

    ``timed=True`` uses the event-driven runner (contention modeled);
    otherwise references execute atomically in trace order.  A
    :class:`repro.obs.trace.Tracer` captures the structured trace (and
    the report then embeds its export).
    """
    units = trace.units()
    n = n_boards if n_boards is not None else len(units)
    boards = [
        BoardSpec(unit_id=unit, protocol=protocol, **board_kwargs)
        for unit in units[:n]
    ]
    system = System(boards, timing=timing, check=check, label=protocol)
    if tracer is not None:
        system.attach_tracer(tracer)
    if timed:
        report = timed_run_from_trace(system, trace).run()
    else:
        system.run_trace(trace)
        report = system.report()
    return report


def comparison_row(protocol: str, trace: Trace, timed: bool = True) -> dict:
    """One E2 row: run ``protocol`` over ``trace`` (module-level, so
    worker processes can execute it)."""
    report = run_protocol_on_trace(protocol, trace, timed=timed)
    row = report.row()
    if report.elapsed_ns:
        row["elapsed_us"] = round(report.elapsed_ns / 1000.0, 1)
    return row


def comparison_row_traced(
    protocol: str, trace: Trace, timed: bool = True
) -> dict:
    """Like :func:`comparison_row`, but run under a per-protocol child
    :class:`~repro.obs.trace.Tracer` and ship the exported event stream
    alongside the row.  Module-level and fully deterministic, so serial
    and pooled shootouts absorb identical streams."""
    from repro.obs.trace import Tracer

    tracer = Tracer(stream=protocol)
    report = run_protocol_on_trace(protocol, trace, timed=timed, tracer=tracer)
    row = report.row()
    if report.elapsed_ns:
        row["elapsed_us"] = round(report.elapsed_ns / 1000.0, 1)
    return {"row": row, "events": tracer.export()}


def protocol_comparison(
    trace: Optional[Trace] = None,
    protocols: Sequence[str] = DEFAULT_PROTOCOLS,
    references: int = 4000,
    seed: int = 7,
    timed: bool = True,
    workers: int = 0,
    tracer=None,
    profiler=None,
) -> list[dict]:
    """E2: all protocols on one synthetic workload; one row each.

    ``workers`` > 1 fans the per-protocol runs out across a process pool
    (same rows, same order).  With a ``tracer``, each protocol runs
    under its own stream and the streams are absorbed in protocol order
    -- byte-identical whether the rows came from the pool or not.
    """
    if trace is None:
        config = SyntheticConfig(processors=4, p_shared=0.3, p_write=0.3)
        trace = SyntheticWorkload(config, seed=seed).trace(references)
    row_fn = comparison_row if tracer is None else comparison_row_traced
    results = parallel_map(
        functools.partial(row_fn, trace=trace, timed=timed),
        protocols,
        workers=workers,
        profiler=profiler,
    )
    if tracer is None:
        return results
    rows = []
    for payload in results:
        tracer.absorb(payload["events"])
        rows.append(payload["row"])
    return rows


def update_vs_invalidate_row(
    p_shared: float,
    references: int = 3000,
    seed: int = 11,
    processors: int = 4,
) -> dict:
    """One E3 row: both policies at one sharing level.  The trace is
    regenerated from (config, seed), so workers reproduce the serial
    sweep's workload exactly."""
    config = SyntheticConfig(
        processors=processors, p_shared=p_shared, p_write=0.3
    )
    trace = SyntheticWorkload(config, seed=seed).trace(references)
    update = run_protocol_on_trace("moesi-update", trace)
    invalidate = run_protocol_on_trace("moesi-invalidate", trace)
    return {
        "p_shared": p_shared,
        "update_ns_per_access": round(update.bus_ns_per_access, 1),
        "invalidate_ns_per_access": round(
            invalidate.bus_ns_per_access, 1
        ),
        "update_miss_ratio": round(update.miss_ratio, 4),
        "invalidate_miss_ratio": round(invalidate.miss_ratio, 4),
        "winner": (
            "update"
            if update.bus_ns_per_access <= invalidate.bus_ns_per_access
            else "invalidate"
        ),
    }


def update_vs_invalidate_sweep(
    sharing_levels: Sequence[float] = (0.05, 0.1, 0.2, 0.4, 0.6),
    references: int = 3000,
    seed: int = 11,
    processors: int = 4,
    workers: int = 0,
) -> list[dict]:
    """E3: broadcast-update vs invalidate as sharing intensity grows.

    [Arch85]'s observation, which the paper adopts as the preferred
    choice: for actively shared data it is better to broadcast writes than
    to invalidate.  Each row reports the bus cost of both policies at one
    sharing level.  ``workers`` > 1 fans the levels out across processes.
    """
    return parallel_map(
        functools.partial(
            update_vs_invalidate_row,
            references=references,
            seed=seed,
            processors=processors,
        ),
        sharing_levels,
        workers=workers,
    )


def write_through_vs_copy_back(
    write_fractions: Sequence[float] = (0.1, 0.3, 0.5),
    references: int = 3000,
    seed: int = 13,
) -> list[dict]:
    """Copy-back's raison d'etre (section 3.1): bus traffic vs
    write-through as the write fraction varies, on private data."""
    rows = []
    for p_write in write_fractions:
        config = SyntheticConfig(
            processors=4, p_shared=0.05, p_write=p_write
        )
        trace = SyntheticWorkload(config, seed=seed).trace(references)
        copy_back = run_protocol_on_trace("moesi", trace)
        write_through = run_protocol_on_trace("write-through", trace)
        rows.append(
            {
                "p_write": p_write,
                "copy_back_txns_per_access": round(
                    copy_back.bus_transactions_per_access, 3
                ),
                "write_through_txns_per_access": round(
                    write_through.bus_transactions_per_access, 3
                ),
                "traffic_ratio": round(
                    write_through.bus.transactions
                    / max(1, copy_back.bus.transactions),
                    2,
                ),
            }
        )
    return rows


#: The E8 board mixes, fixed workload.
HETEROGENEOUS_MIXES: dict[str, tuple[str, ...]] = {
    "4x copy-back (MOESI)": ("moesi",) * 4,
    "3x MOESI + 1x write-through": ("moesi",) * 3 + ("write-through",),
    "2x MOESI + 2x write-through": ("moesi",) * 2 + ("write-through",) * 2,
    "3x MOESI + 1x non-caching": ("moesi",) * 3 + ("non-caching",),
    "MOESI+Berkeley+Dragon+WT": (
        "moesi", "berkeley", "dragon", "write-through",
    ),
    "4x write-through": ("write-through",) * 4,
}


def heterogeneous_row(label: str, trace: Trace) -> dict:
    """One E8 row: the :data:`HETEROGENEOUS_MIXES` board mix ``label``
    over ``trace``."""
    boards = [
        BoardSpec(unit_id=unit, protocol=protocol)
        for unit, protocol in zip(trace.units(), HETEROGENEOUS_MIXES[label])
    ]
    system = System(boards, check=False, label=label)
    report = timed_run_from_trace(system, trace).run()
    row = report.row()
    row["elapsed_us"] = round(report.elapsed_ns / 1000.0, 1)
    return row


def heterogeneous_mix_sweep(
    references: int = 3000,
    seed: int = 17,
    workers: int = 0,
) -> list[dict]:
    """E8: keep the workload fixed, vary the board mix (``workers`` > 1
    fans the mixes out across processes)."""
    config = SyntheticConfig(processors=4, p_shared=0.25, p_write=0.3)
    trace = SyntheticWorkload(config, seed=seed).trace(references)
    return parallel_map(
        functools.partial(heterogeneous_row, trace=trace),
        list(HETEROGENEOUS_MIXES),
        workers=workers,
    )


def broadcast_penalty_sweep(
    surcharges: Sequence[float] = (0.0, 25.0, 100.0, 300.0),
    references: int = 2500,
    seed: int = 19,
) -> list[dict]:
    """E5: how the wired-OR broadcast surcharge shifts the
    update-vs-invalidate preference."""
    config = SyntheticConfig(processors=4, p_shared=0.35, p_write=0.35)
    trace = SyntheticWorkload(config, seed=seed).trace(references)
    rows = []
    for surcharge in surcharges:
        timing = BusTiming(broadcast_surcharge_ns=surcharge)
        update = run_protocol_on_trace("moesi-update", trace, timing=timing)
        invalidate = run_protocol_on_trace(
            "moesi-invalidate", trace, timing=timing
        )
        rows.append(
            {
                "broadcast_surcharge_ns": surcharge,
                "update_ns_per_access": round(update.bus_ns_per_access, 1),
                "invalidate_ns_per_access": round(
                    invalidate.bus_ns_per_access, 1
                ),
                "winner": (
                    "update"
                    if update.bus_ns_per_access
                    <= invalidate.bus_ns_per_access
                    else "invalidate"
                ),
            }
        )
    return rows


#: The service disciplines the Nikolov & Lerato sweep compares.  The
#: priority entry pins an explicit table (cpu0 is the favored "I/O slot"
#: board of the backplane tradition; everyone else shares the default).
DEFAULT_DISCIPLINES = ("fcfs", "priority:cpu0=1", "round-robin")


def arbitration_discipline_row(
    discipline: str, trace: Trace, protocol: str = "moesi"
) -> dict:
    """One discipline row: run ``trace`` under an arbitrated bus and
    report per-master waiting behaviour.

    The row carries the study's comparison quantities: total elapsed
    time, mean and worst per-master bus-wait, and the fairness spread
    (worst wait / best wait among masters that waited at all) -- FCFS
    and round-robin keep the spread small, fixed priority trades it for
    a short wait on the favored master.
    """
    from repro.system.arbitrated import arbitrated_run_from_trace

    units = trace.units()
    boards = [BoardSpec(unit_id=unit, protocol=protocol) for unit in units]
    system = System(boards, check=False, label=f"arb:{discipline}")
    run = arbitrated_run_from_trace(system, trace, arbiter=discipline)
    report = run.run()
    waits = {
        unit: run.processors[unit].stats.bus_wait_ns for unit in units
    }
    positive = [w for w in waits.values() if w > 0] or [0.0]
    mean_wait = sum(waits.values()) / len(waits)
    row = {
        "discipline": discipline,
        "elapsed_us": round(report.elapsed_ns / 1000.0, 1),
        "mean_wait_us": round(mean_wait / 1000.0, 1),
        "max_wait_us": round(max(waits.values()) / 1000.0, 1),
        "wait_spread": round(max(positive) / max(min(positive), 1e-9), 2),
        "per_unit_wait_us": {
            unit: round(wait / 1000.0, 1) for unit, wait in waits.items()
        },
    }
    return row


def arbitration_discipline_sweep(
    disciplines: Sequence[str] = DEFAULT_DISCIPLINES,
    protocol: str = "moesi",
    references: int = 2000,
    seed: int = 23,
    processors: int = 4,
    p_shared: float = 0.4,
) -> list[dict]:
    """The Nikolov & Lerato comparative study on our simulator: the same
    workload under each bus service discipline, one row per discipline.

    All disciplines replay the identical trace, so differences are pure
    arbitration effects: who waits, for how long, and how evenly.
    """
    config = SyntheticConfig(
        processors=processors, p_shared=p_shared, p_write=0.4
    )
    trace = SyntheticWorkload(config, seed=seed).trace(references)
    return [
        arbitration_discipline_row(discipline, trace, protocol=protocol)
        for discipline in disciplines
    ]


def memory_latency_sweep(
    latencies: Sequence[float] = (100.0, 200.0, 400.0, 800.0),
    references: int = 2500,
    seed: int = 67,
) -> list[dict]:
    """Section 5.2's other sensitivity: "changes in their relative
    performance can change the cost of various bus operations (e.g.
    memory read, intervenient cache read)".

    As main memory slows relative to caches, intervention-capable
    ownership protocols (the MOESI class) pull further ahead of the
    BS-adapted protocols (Illinois), whose every dirty handoff goes
    through memory twice (push + refetch).
    """
    config = SyntheticConfig(processors=4, p_shared=0.35, p_write=0.4)
    trace = SyntheticWorkload(config, seed=seed).trace(references)
    rows = []
    for latency in latencies:
        timing = BusTiming(memory_latency_ns=latency)
        moesi = run_protocol_on_trace("moesi", trace, timing=timing)
        illinois = run_protocol_on_trace("illinois", trace, timing=timing)
        rows.append(
            {
                "memory_latency_ns": latency,
                "moesi_ns_per_access": round(moesi.bus_ns_per_access, 1),
                "illinois_ns_per_access": round(
                    illinois.bus_ns_per_access, 1
                ),
                "illinois_penalty": round(
                    illinois.bus_ns_per_access / moesi.bus_ns_per_access, 2
                ),
            }
        )
    return rows
