"""The ``repro bench`` suite, written to ``BENCH_perf.json``.

The suite is the :data:`SECTIONS` table.  Each :class:`Section` names
one report key, the runner that measures it (its docstring says what it
times), the summary ``repro bench`` prints, and its :class:`Gate` rows;
:func:`regression_report` evaluates every gate of the table against the
committed baseline.  The sections are fixed so successive revisions can
track the trajectory.

Wall-clock speedups depend on the host (a single-core container cannot
beat serial): the JSON records ``cpu_count`` next to every ratio, and a
serial-vs-parallel speedup is reported only where at least two cores
can run the parallel leg.
"""

from __future__ import annotations

import json
import operator
import os
import platform
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

__all__ = [
    "SECTIONS",
    "Section",
    "Gate",
    "run_bench_suite",
    "write_bench_json",
    "load_baseline",
    "regression_report",
    "BENCH_FILENAME",
    "MIN_TPS_RATIO",
    "MAX_TRACED_OVERHEAD_PCT",
    "MAX_DISABLED_OVERHEAD_PCT",
    "BATCH_MIN_EXPLORER_MULTIPLE",
    "MAX_SERVE_HIT_S",
    "MIN_SERVE_BATCH_SPEEDUP",
]

BENCH_FILENAME = "BENCH_perf.json"

#: Regression budgets the bench smoke job enforces: the explorer may not
#: lose more than 10% transitions/sec against the committed baseline,
#: and the observability tax must stay within budget, traced and with
#: tracing off (the disabled path is guards only).
MIN_TPS_RATIO = 0.9
MAX_TRACED_OVERHEAD_PCT = 25.0
MAX_DISABLED_OVERHEAD_PCT = 5.0

#: The batch kernel's floor: aggregate transitions/sec must stay at
#: least this multiple of the committed explorer baseline
#: (calibration-normalized, like the explorer gate).
BATCH_MIN_EXPLORER_MULTIPLE = 10.0

#: Absolute budget on the serve tier's memo-hit latency.  A healthy hit
#: is a dict lookup (~1 microsecond); the budget sits far above timer
#: jitter but ~50x below the cold miss, so it fires only when "hit"
#: starts doing real work (hashing the payload, re-canonicalizing,
#: touching the pool) rather than on a noisy run.
MAX_SERVE_HIT_S = 500e-6

#: Memo lookups timed one by one for the serve section's hit percentiles.
SERVE_HIT_LOOKUPS = 2000

#: Paired rounds behind each obs overhead median, in both modes.  On a
#: 2-vCPU host the quick leg's disabled-overhead median read 2.0-6.2%
#: over 5 trials at 7 rounds, 0.4-4.9% over 10 trials at 21 and
#: -0.1-3.4% over 15 trials at 41: fewer rounds cannot resolve the 5%
#: budget.  Per-leg CPU time (``time.process_time_ns``) was no steadier
#: (3.1-6.4% at 41 rounds), so the legs stay wall-clock pairs.
OBS_ROUNDS = 41

#: Floor on the continuous-batching speedup: a coalesced compatible
#: burst must sustain at least this many times the one-at-a-time
#: requests/sec.  Gated only on the numpy backend -- that is where
#: coalescing buys vectorization width on top of amortized fixed costs;
#: the scalar interpreter does the same per-event work either way.
MIN_SERVE_BATCH_SPEEDUP = 5.0

#: The experiment section's miss: protocols cycled, references per run.
EXPERIMENT_PROTOCOLS = ("moesi", "berkeley", "dragon", "illinois")
EXPERIMENT_REFERENCES = 1000

#: Explorer mixes timed by the hot-path section: (label, specs, lines).
EXPLORER_MIXES = (
    ("full-class+full-class", ("full-class", "full-class"), 1),
    ("moesi-scripted x2", ("moesi-scripted", "moesi-scripted"), 1),
    ("moesi x2 / 2 lines", ("moesi", "moesi"), 2),
)


#: Iterations of the calibration kernel (fixed, so ops/sec is comparable
#: across reports).
_CALIBRATION_N = 50_000


def _calibration_kernel(n: int = _CALIBRATION_N) -> int:
    """A fixed pure-Python kernel shaped like the explorer's inner loop
    (tuple-keyed dict lookups, small-int arithmetic, tuple builds).

    Timing it next to the explorer gives an interpreter-speed yardstick
    taken in the *same* host phase, so the regression gate can separate
    "this host/runner is slower right now" from "the code got slower".
    """
    table = {(i, j): (i, j) for i in range(5) for j in range(6)}
    acc = 0
    pair = (3, 4)
    for i in range(n):
        a, b = table[pair]
        acc += a + b + (i & 7)
        pair = (acc % 5, i % 6)
    return acc


def _p50_p99(ordered: list) -> tuple:
    """The median and 99th-percentile entries of sorted samples."""
    return ordered[len(ordered) // 2], ordered[(len(ordered) * 99) // 100]


def _bench_explorer(quick: bool) -> tuple[list[dict], float]:
    """Time the explorer mixes on the object engine (not the compiled
    search ``explore()`` picks: these rows are the per-object baseline);
    returns ``(rows, calibration_ops_per_sec)`` with the calibration
    kernel interleaved between exploration runs."""
    from repro.verify.explorer import Explorer

    mixes = EXPLORER_MIXES[:1] if quick else EXPLORER_MIXES
    repeats = 3
    rows = []
    cal_seconds = float("inf")
    for label, specs, lines in mixes:
        # Best-of-N: one exploration runs for tens of milliseconds, so a
        # single sample is at the mercy of scheduler noise; the minimum
        # is the stable throughput estimate the regression gate compares.
        seconds = float("inf")
        result = None
        for _ in range(repeats):
            start = time.perf_counter()
            result = Explorer(list(specs), lines=lines, label=label).run()
            seconds = min(seconds, time.perf_counter() - start)
            start = time.perf_counter()
            _calibration_kernel()
            cal_seconds = min(cal_seconds, time.perf_counter() - start)
        rows.append(
            {
                "mix": label,
                "states": result.states_explored,
                "transitions": result.transitions_taken,
                "seconds": round(seconds, 4),
                "states_per_sec": round(result.states_explored / seconds, 1),
                "transitions_per_sec": round(
                    result.transitions_taken / seconds, 1
                ),
            }
        )
    return rows, round(_CALIBRATION_N / cal_seconds, 1)


def _speedup(
    serial_s: float, parallel_s: float, workers: int, pooled_maps: int
) -> dict:
    """The serial/parallel ratio, or ``None`` and the reason when the
    parallel leg did not measure parallelism: with fewer than two usable
    cores the ratio measures pool overhead, and when no map of the leg
    reached the pool (``pooled_maps`` is 0) it compares two in-process
    runs."""
    from repro.perf.pool import ADAPTIVE_CUTOVER_S

    cores = min(os.cpu_count() or 1, workers)
    if cores < 2:
        note = (f"not measured: {cores} usable core "
                f"(cpu_count {os.cpu_count()}, workers {workers})")
    elif not pooled_maps:
        note = ("not measured: the parallel leg never reached the pool "
                "(every map projected below the adaptive cutover, "
                f"ADAPTIVE_CUTOVER_S = {ADAPTIVE_CUTOVER_S:g} s)")
    else:
        return {
            "speedup": round(serial_s / parallel_s, 2) if parallel_s else None
        }
    return {"speedup": None, "speedup_note": note}


def _bench_matrix(quick: bool, workers: int) -> dict:
    """The E1 compatibility matrix, serial then pooled, rows compared."""
    from repro.perf.pool import pool_stats
    from repro.verify.mixes import (
        class_member_mixes,
        homogeneous_foreign,
        incompatible_mixes,
        mutant_mixes,
        run_matrix,
    )

    cases = class_member_mixes() + homogeneous_foreign()
    if not quick:
        cases += incompatible_mixes() + mutant_mixes()
    start = time.perf_counter()
    serial_rows = run_matrix(cases)
    serial_s = time.perf_counter() - start
    maps = pool_stats()["maps"]
    start = time.perf_counter()
    parallel_rows = run_matrix(cases, workers=workers)
    parallel_s = time.perf_counter() - start
    pooled_maps = pool_stats()["maps"] - maps
    return {
        "cases": len(cases),
        "all_ok": all(r["ok"] for r in serial_rows),
        "rows_identical": serial_rows == parallel_rows,
        "serial_s": round(serial_s, 4),
        "parallel_s": round(parallel_s, 4),
        **_speedup(serial_s, parallel_s, workers, pooled_maps),
    }


def _bench_des(quick: bool, workers: int) -> dict:
    """The E2 protocol-comparison sweep, serial then pooled."""
    from repro.analysis.compare import protocol_comparison
    from repro.perf.pool import pool_stats

    references = 1000 if quick else 4000
    start = time.perf_counter()
    serial_rows = protocol_comparison(references=references)
    serial_s = time.perf_counter() - start
    maps = pool_stats()["maps"]
    start = time.perf_counter()
    parallel_rows = protocol_comparison(
        references=references, workers=workers
    )
    parallel_s = time.perf_counter() - start
    pooled_maps = pool_stats()["maps"] - maps
    return {
        "protocols": len(serial_rows),
        "references": references,
        "rows_identical": serial_rows == parallel_rows,
        "serial_s": round(serial_s, 4),
        "parallel_s": round(parallel_s, 4),
        **_speedup(serial_s, parallel_s, workers, pooled_maps),
    }


def _bench_obs(quick: bool) -> dict:
    """Observability tax on one heterogeneous DES-free run.

    ``baseline`` builds and drives the System directly (how pre-facade
    callers did); ``disabled`` goes through ``Session.execute(plan(...))``
    with no tracer (every emission site evaluates its ``is not None``
    guard);
    ``traced`` records the full structured stream.  Each round times the
    three legs back to back (the order reversing every round), and each
    overhead is the median over rounds of that round's leg against its
    own baseline, so a background stall charges one pair, not a leg.
    """
    from statistics import median

    from repro.api import Session, plan
    from repro.system.system import BoardSpec, System
    from repro.workloads.synthetic import SyntheticConfig, SyntheticWorkload

    # Enough references that the facade's fixed per-session setup cost
    # cannot dominate the percentage on a fast run.
    references = 1500 if quick else 3000
    config = SyntheticConfig(processors=4, p_shared=0.3, p_write=0.3)
    workload = SyntheticWorkload(config, seed=11).trace(references)
    protocols = ("moesi", "dragon", "berkeley", "write-through")
    units = workload.units()

    def _direct() -> None:
        system = System(
            [BoardSpec(unit, name)
             for unit, name in zip(units, protocols)],
            check=False,
        )
        system.run_trace(workload)
        system.check_coherence()
        system.report()

    def _facade(trace: bool) -> None:
        session = Session(label="bench-obs", trace=trace)
        session.execute(plan(
            "experiment", protocols=protocols, workload=workload, check=False
        ))

    legs = {
        "baseline": _direct,
        "disabled": lambda: _facade(False),
        "traced": lambda: _facade(True),
    }
    # One untimed warm-up per leg: first calls pay lazy imports, table
    # compilation and interning that belong to neither leg's steady state.
    for fn in legs.values():
        fn()
    rounds: list[dict[str, float]] = []
    for index in range(OBS_ROUNDS):
        order = list(legs) if index % 2 == 0 else list(reversed(legs))
        times = {}
        for name in order:
            start = time.perf_counter()
            legs[name]()
            times[name] = time.perf_counter() - start
        rounds.append(times)

    def _overhead_pct(name: str) -> float:
        return round(median(
            (r[name] - r["baseline"]) / r["baseline"] * 100.0 for r in rounds
        ), 2)

    return {
        "references": references,
        "repeats": OBS_ROUNDS,
        **{
            f"{name}_s": round(median(r[name] for r in rounds), 4)
            for name in legs
        },
        "overhead_disabled_pct": _overhead_pct("disabled"),
        "overhead_traced_pct": _overhead_pct("traced"),
    }


def _bench_batch(quick: bool) -> dict:
    """Batch-kernel throughput: one hit-heavy single-unit population
    timed (best-of-N) on every available backend, with the first rows
    spot-verified against the object engine.

    The population is single-unit and replacement-free so nearly every
    event is a silent hit -- the regime the vectorized fast path exists
    for; transitions are identical across backends by construction."""
    from repro.perf.batch import (
        BatchGeometry,
        available_backends,
        default_backend,
        make_synthetic_population,
        run_population,
        verify_rows,
    )

    rows = 256 if quick else 1024
    events_per_row = 200
    pop = make_synthetic_population(
        rows=rows,
        units=("moesi",),
        geometry=BatchGeometry(4, 2, 32, 8),
        events_per_row=events_per_row,
        seed=0,
        p_write=0.35,
        p_flush=0.0,
        p_pass=0.0,
    )
    repeats = 2 if quick else 3
    sample = list(range(min(3, rows)))
    verified_ok = True
    backends = {}
    for backend in available_backends():
        seconds = float("inf")
        result = None
        for _ in range(repeats):
            start = time.perf_counter()
            result = run_population(pop, backend=backend)
            seconds = min(seconds, time.perf_counter() - start)
        verified_ok = verified_ok and not verify_rows(pop, result, rows=sample)
        backends[backend] = {
            "seconds": round(seconds, 4),
            "transitions": result.transitions,
            "transitions_per_sec": round(result.transitions / seconds, 1),
            # Vectorization coverage: fraction of events the backend fed
            # to the scalar interpreter (1.0 by definition for python).
            "scalar_residual": round(result.scalar_residual, 4),
        }
    return {
        "rows": rows,
        "events_per_row": events_per_row,
        "units": ["moesi"],
        "default_backend": default_backend(rows),
        "backends": backends,
        "verified_rows": len(sample),
        "verified_ok": verified_ok,
    }


def _bench_serve(quick: bool) -> dict:
    """Service-tier latency: the same spec answered by a cold execute
    (cache miss) and by the memo cache (hit), plus the counters the
    serve ``status`` command exposes.  The miss runs the real job body
    (:func:`repro.serve.jobs.execute_payload`) in-process and stays
    informational (its cost is the experiment, not the tier); the hit
    side is gated by :func:`regression_report` against the absolute
    :data:`MAX_SERVE_HIT_S` budget -- a hit/miss *ratio* would only
    measure noise, microseconds against tens of milliseconds."""
    from repro.perf.pool import pool_stats
    from repro.serve.cache import MemoCache
    from repro.serve.jobs import execute_payload
    from repro.specs import ExperimentSpec, WorkloadSpec

    references = 300 if quick else 1500
    spec = ExperimentSpec(
        workload=WorkloadSpec(references=references, seed=7), timed=True
    )
    canonical = spec.canonical()
    key = spec.content_hash()
    cache = MemoCache(capacity=8)

    miss_s = float("inf")
    payload = None
    for _ in range(2):
        lookup = cache.get(key)  # always a miss: counted, never stored
        assert lookup is None
        start = time.perf_counter()
        payload = execute_payload(canonical)
        miss_s = min(miss_s, time.perf_counter() - start)
    cache.put(key, payload)
    # One timing per lookup, in integer ns: a hit takes about a
    # microsecond, so a single min() rounded to 1 us cannot resolve it.
    # Each sample includes one perf_counter_ns() call of overhead.
    samples = []
    for _ in range(SERVE_HIT_LOOKUPS):
        start = time.perf_counter_ns()
        hit = cache.get(key)
        samples.append(time.perf_counter_ns() - start)
        assert hit is payload
    samples.sort()
    hit_ns_p50, hit_ns_p99 = _p50_p99(samples)
    response_p50, response_p99 = _p50_p99(_hit_response_ns(spec, payload))
    return {
        "references": references,
        "spec_hash": key,
        "miss_s": round(miss_s, 4),
        "hit_s": round(samples[0] * 1e-9, 6),
        "hit_lookups": len(samples),
        "hit_ns_p50": hit_ns_p50,
        "hit_ns_p99": hit_ns_p99,
        "hit_speedup": round(miss_s / (hit_ns_p50 * 1e-9), 1),
        "hit_response_us_p50": round(response_p50 / 1e3, 2),
        "hit_response_us_p99": round(response_p99 / 1e3, 2),
        "cache": cache.stats(),
        "pool": pool_stats(),
    }


def _hit_response_ns(spec, payload: dict) -> list:
    """Sorted ns timings of an in-process daemon answering one repeated
    execute line from its memo over one loopback connection: the line's
    write, the line map, the content hash, the memo lookup, the entry's
    encoded reply and its read."""
    import asyncio

    from repro.serve.server import ReproServer, ServeConfig

    line = json.dumps(
        {"command": "execute", "spec": spec.to_dict()}
    ).encode("ascii") + b"\n"

    async def answer_all() -> tuple:
        server = ReproServer(ServeConfig(
            batch_window_s=-1.0,
            dispatcher=lambda canonical, deadline_s: payload,
        ))
        endpoints = await server.start()
        reader, writer = await asyncio.open_connection(
            endpoints["host"], endpoints["port"]
        )
        try:
            # The miss memoizes the payload and the first hit encodes
            # the entry's reply; neither is a steady-state hit.
            for _ in range(2):
                writer.write(line)
                await reader.readline()
            samples = []
            for _ in range(SERVE_HIT_LOOKUPS):
                start = time.perf_counter_ns()
                writer.write(line)
                reply = await reader.readline()
                samples.append(time.perf_counter_ns() - start)
        finally:
            writer.close()
            await writer.wait_closed()
            await server.close()
        return samples, reply

    samples, reply = asyncio.run(answer_all())
    assert json.loads(reply)["cached"] is True
    return sorted(samples)


def _bench_experiment(quick: bool) -> dict:
    """Experiment-miss latency: the job body of a ``repro serve`` cache
    miss, one checked 1000-reference run per spec, timed one by one
    over :data:`EXPERIMENT_PROTOCOLS` x a few seeds.  Informational: a
    miss is tens of milliseconds of object-engine time, so its
    percentiles say more about the host than a budget could."""
    from repro.serve.jobs import execute_payload
    from repro.specs import ExperimentSpec, WorkloadSpec

    seeds = 3 if quick else 10
    canonicals = [
        ExperimentSpec(
            protocol=protocol,
            workload=WorkloadSpec(seed=seed, references=EXPERIMENT_REFERENCES),
        ).canonical()
        for seed in range(seeds)
        for protocol in EXPERIMENT_PROTOCOLS
    ]
    # Imports and per-process table builds are not a miss's cost.
    execute_payload(canonicals[0])
    samples = []
    for canonical in canonicals:
        start = time.perf_counter_ns()
        execute_payload(canonical)
        samples.append(time.perf_counter_ns() - start)
    p50, p99 = _p50_p99(sorted(samples))
    return {
        "references": EXPERIMENT_REFERENCES,
        "protocols": list(EXPERIMENT_PROTOCOLS),
        "seeds": seeds,
        "runs": len(samples),
        "p50_ms": round(p50 / 1e6, 3),
        "p99_ms": round(p99 / 1e6, 3),
        "host": {
            "cpu_count": os.cpu_count(),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "system": platform.system(),
        },
    }


def _bench_serve_batch(quick: bool) -> dict:
    """Continuous-batching throughput: one compatible burst dispatched
    one spec at a time (the scalar serve path) and then as a single
    coalesced population, byte-compared payload by payload.

    The burst is what the daemon's admission window sees from
    ``ServeClient.execute_many``: N distinct-seed batch specs sharing a
    ``batch_key()``.  Both legs run in-process (no daemon, no sockets)
    so the ratio isolates the kernel-side win -- amortized population
    synthesis, one shared-tables epoch, one SoA run instead of N.

    The gated ``speedup`` runs both legs on one pinned backend (numpy
    when it imports), so it measures vectorization width, not the
    backend choice.  ``served_scalar_rps``/``served_speedup`` report
    what the daemon does: one-at-a-time requests on the default backend
    for their 4 rows (python) against the same coalesced burst, whose
    ``requests * 4`` rows are past :data:`repro.perf.batch.NUMPY_MIN_ROWS`
    and so default to the pinned backend anyway."""
    from repro.api import execute
    from repro.perf.batch import available_backends, default_backend
    from repro.serve.jobs import execute_batch_payloads, execute_payload
    from repro.serve.protocol import payload_for, payload_json
    from repro.specs import BatchSpec, spec_from_canonical

    requests = 64 if quick else 256
    rows_per_request = 4
    specs = [
        BatchSpec(
            protocols=("moesi",), rows=rows_per_request, events_per_row=60,
            seed=seed,
        )
        for seed in range(requests)
    ]
    canonicals = [spec.canonical() for spec in specs]
    assert len({spec.batch_key() for spec in specs}) == 1
    pinned = available_backends()[0]
    assert default_backend(requests * rows_per_request) == pinned

    def best_of(repeats, run):
        best_s, payloads = float("inf"), None
        for _ in range(repeats):
            start = time.perf_counter()
            payloads = run()
            best_s = min(best_s, time.perf_counter() - start)
        return best_s, [payload_json(p) for p in payloads]

    def one_pinned(canonical):
        spec = spec_from_canonical(canonical)
        return payload_for(spec, execute(spec, workers=1, backend=pinned))

    scalar_s, scalar_payloads = best_of(2, lambda: [
        one_pinned(canonical) for canonical in canonicals
    ])
    # The merged population is past NUMPY_MIN_ROWS: it defaults to the
    # pinned backend, as in the daemon.
    batched_s, batched_payloads = best_of(
        3, lambda: execute_batch_payloads(tuple(canonicals))
    )
    served_s, served_payloads = best_of(2, lambda: [
        execute_payload(canonical) for canonical in canonicals
    ])
    identical = scalar_payloads == batched_payloads == served_payloads
    return {
        "requests": requests,
        "rows_per_request": rows_per_request,
        "events_per_row": 60,
        "backend": pinned,
        "scalar_s": round(scalar_s, 4),
        "batched_s": round(batched_s, 4),
        "scalar_rps": round(requests / scalar_s, 1),
        "batched_rps": round(requests / batched_s, 1),
        "speedup": round(scalar_s / batched_s, 2) if batched_s else None,
        "served_scalar_rps": round(requests / served_s, 1),
        "served_speedup": (
            round(served_s / batched_s, 2) if batched_s else None
        ),
        "identical": identical,
    }


def load_baseline(path: str = BENCH_FILENAME) -> Optional[dict]:
    """The committed baseline report, or None when absent/unreadable."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None


@dataclass(frozen=True)
class Gate:
    """One verdict row of a section, read from ``report[section]``.

    ``op`` and ``budget`` make the row a gate: ``">="`` a floor, ``"<="``
    or ``"<"`` a ceiling, ``"=="`` (budget ``True``) an equality check.
    Without an ``op`` the row is reported next to the baseline, never
    gated.  ``read`` derives the metric from the section (default: the
    ``metric`` key); ``reference`` reads the baseline's counterpart from
    the whole baseline report (default: ``read`` on the baseline's same
    section).  A ``ratio`` gate judges ``current / reference``; a
    ``host`` gate passes on the better of its raw value and the value
    normalized to the baseline host's speed; ``when(section,
    baseline_section)`` says whether the budget applies at all.
    """

    metric: str
    op: Optional[str] = None
    budget: Any = None
    read: Optional[Callable[[Any], Any]] = None
    reference: Optional[Callable[[dict], Any]] = None
    ratio: bool = False
    host: bool = False
    when: Optional[Callable[[dict, Optional[dict]], bool]] = None


@dataclass(frozen=True)
class Section:
    """One entry of the suite: ``report[name] = run(quick, workers)``,
    judged by ``gates``.  ``summary`` is a one-line format template over
    the section's keys (and ``report``), or a callable ``(section,
    report) -> str`` for a table."""

    name: str
    run: Callable[[bool, int], Any]
    summary: Any
    gates: tuple

    def describe(self, report: dict) -> str:
        """The section's summary as ``repro bench`` prints it."""
        value = report[self.name]
        if callable(self.summary):
            return self.summary(value, report)
        return self.summary.format(**value, report=report)


def _mix_tps(label: str) -> Callable[[list], float]:
    def read(rows: list) -> float:
        return {row["mix"]: row for row in rows}[label]["transitions_per_sec"]
    return read


def _best_tps(batch: dict) -> float:
    return max(leg["transitions_per_sec"] for leg in batch["backends"].values())


def _explorer_summary(rows: list, report: dict) -> str:
    from repro.analysis.report import format_rows

    return format_rows(
        rows,
        "Object-explorer baseline (single worker, exhaustive; the "
        "compiled search's oracle)",
    )


def _batch_summary(batch: dict, report: dict) -> str:
    from repro.analysis.report import format_rows

    return format_rows(
        [{"backend": name, **leg} for name, leg in batch["backends"].items()],
        f"Batch kernel ({batch['rows']} rows x {batch['events_per_row']} "
        f"events/row, oracle check on {batch['verified_rows']} rows: "
        f"{'ok' if batch['verified_ok'] else 'MISMATCH'})",
    )


#: The suite, in report order.  Budgets are the module constants above;
#: gates without an ``op`` are reported only.
SECTIONS = (
    Section(
        "explorer", lambda quick, workers: _bench_explorer(quick),
        _explorer_summary,
        tuple(
            Gate(f"{label} transitions_per_sec vs baseline", ">=",
                 MIN_TPS_RATIO, read=_mix_tps(label), ratio=True, host=True)
            for label, _, _ in EXPLORER_MIXES
        ),
    ),
    Section("matrix", _bench_matrix, (
        "Serial vs parallel E1 matrix ({cases} cases, {report[workers]} "
        "workers, {report[cpu_count]} cpus): serial {serial_s}s, parallel "
        "{parallel_s}s, speedup {speedup}; rows identical: {rows_identical}"
    ), (
        Gate("all_ok", "==", True),
        Gate("rows_identical", "==", True),
        Gate("speedup"),
    )),
    Section("des", _bench_des, (
        "Serial vs parallel E2 sweep ({protocols} protocols, "
        "{report[workers]} workers): serial {serial_s}s, parallel "
        "{parallel_s}s, speedup {speedup}; rows identical: {rows_identical}"
    ), (
        Gate("rows_identical", "==", True),
        Gate("speedup"),
    )),
    Section("obs", lambda quick, workers: _bench_obs(quick), (
        "observability tax ({references} refs, median of {repeats} paired "
        "rounds): disabled {overhead_disabled_pct:+.2f}%, traced "
        "{overhead_traced_pct:+.2f}% vs direct"
    ), (
        # Strict: the disabled path's budget is "under 5%".
        Gate("overhead_disabled_pct", "<", MAX_DISABLED_OVERHEAD_PCT),
        Gate("overhead_traced_pct", "<=", MAX_TRACED_OVERHEAD_PCT),
    )),
    Section("batch", lambda quick, workers: _bench_batch(quick),
            _batch_summary, (
        Gate("verified_ok", "==", True),
        # Like for like only: a quick run's smaller population amortizes
        # its setup worse, so its tps is not comparable to a full-suite
        # baseline (the ratio is still reported).
        Gate("transitions_per_sec vs baseline", ">=", MIN_TPS_RATIO,
             read=_best_tps, ratio=True, host=True,
             when=lambda batch, base: batch.get("rows") == base.get("rows")),
        # The "10x the per-object engine" claim, in both modes.
        Gate("transitions_per_sec vs explorer", ">=",
             BATCH_MIN_EXPLORER_MULTIPLE, read=_best_tps,
             reference=lambda baseline: _mix_tps(EXPLORER_MIXES[0][0])(
                 baseline["explorer"]),
             ratio=True, host=True),
    )),
    Section("serve", lambda quick, workers: _bench_serve(quick), (
        "serve tier ({references} refs): miss {miss_s:.4f}s, hit p50 "
        "{hit_ns_p50} ns p99 {hit_ns_p99} ns ({hit_speedup}x at p50); "
        "loopback hit reply p50 {hit_response_us_p50} us p99 "
        "{hit_response_us_p99} us; cache hits {cache[hits]}, misses "
        "{cache[misses]}"
    ), (
        # Unrounded percentiles, never ``hit_s``: the rounded best case
        # cannot show a slow tail.
        Gate("hit_ns_p50", "<=", MAX_SERVE_HIT_S * 1e9, host=True),
        Gate("hit_ns_p99", "<=", MAX_SERVE_HIT_S * 1e9, host=True),
        Gate("hit_response_us_p50"),
        Gate("hit_response_us_p99"),
    )),
    Section("experiment", lambda quick, workers: _bench_experiment(quick), (
        "experiment miss ({references} refs, checked, {runs} runs over "
        "{protocols} x {seeds} seeds): p50 {p50_ms} ms p99 {p99_ms} ms on "
        "{host[cpu_count]} cpus (reported, not gated)"
    ), (Gate("p50_ms"), Gate("p99_ms"))),
    Section("serve_batch", lambda quick, workers: _bench_serve_batch(quick), (
        "serve batch ({requests} compatible requests, {backend} backend): "
        "{scalar_rps}/s one-at-a-time -> {batched_rps}/s coalesced "
        "({speedup}x; as served {served_scalar_rps}/s one-at-a-time, "
        "{served_speedup}x); payloads identical: {identical}"
    ), (
        Gate("identical", "==", True),
        # Only numpy carries the vectorization-width claim the floor
        # encodes; the scalar interpreter does the same per-event work
        # either way.  Both legs run back to back on one host, so the
        # ratio gets no host credit.
        Gate("speedup", ">=", MIN_SERVE_BATCH_SPEEDUP,
             when=lambda serve_batch, base: (
                 serve_batch.get("backend") == "numpy")),
        Gate("served_speedup"),
    )),
)

_OPS = {">=": operator.ge, "<=": operator.le, "<": operator.lt,
        "==": operator.eq}


def _lookup(read: Callable[[Any], Any], source: Any) -> Any:
    """``read(source)``, or None when the source predates the metric."""
    if source is None:
        return None
    try:
        return read(source)
    except KeyError:
        return None


def _judge(name: str, gate: Gate, section: Any, baseline: dict,
           host_factor: Optional[float]) -> Optional[dict]:
    """One gate's row, or None when the report does not carry the
    metric."""
    read = gate.read or operator.itemgetter(gate.metric)
    current = _lookup(read, section)
    if current is None:
        return None
    reference = _lookup(
        gate.reference or (lambda base: read(base[name])), baseline
    )
    value = current
    if gate.ratio:
        value = current / reference if reference else None
    if gate.host and value is not None and host_factor:
        # A genuine code regression depresses both the raw and the
        # host-normalized value; a throttled host depresses only the raw
        # one and calibration drift only the normalized one.  Judging the
        # better of the two flags real regressions without tripping on
        # either noise source alone.
        higher_is_better = gate.op == ">="
        normalized = (
            value * host_factor if higher_is_better else value / host_factor
        )
        value = (max if higher_is_better else min)(value, normalized)
    applies = (
        gate.op is not None
        and value is not None
        and (gate.when is None or gate.when(section, baseline.get(name)))
    )
    return {
        "section": name,
        "metric": gate.metric,
        "current": current,
        "baseline": reference,
        "value": round(value, 3) if isinstance(value, float) else value,
        "op": gate.op,
        "budget": gate.budget,
        "ok": _OPS[gate.op](value, gate.budget) if applies else None,
    }


def regression_report(report: dict, baseline: dict) -> dict:
    """Judge a fresh bench report by every gate of :data:`SECTIONS`.

    ``gates`` holds one row per gate whose metric the report carries:
    the current value, the baseline's counterpart, the judged ``value``
    (the ratio of the two for ``ratio`` gates, host-credited for
    ``host`` gates), the budget and the verdict (``None`` when not
    gated: report-only rows, a ``when`` that does not hold, or a ratio
    the baseline cannot supply).  Host normalization uses the ``calibration_ops_per_sec`` yardstick (see
    :func:`_calibration_kernel`) when both reports carry it: raw
    throughput on a CI runner or a throttled container says more about
    the host than the code, and the yardstick cancels host speed out.
    Absolute budgets hold even when the baseline itself was over them,
    and gates that need no baseline are judged against an empty one.
    """
    cal_current = report.get("calibration_ops_per_sec")
    cal_baseline = baseline.get("calibration_ops_per_sec")
    # normalized tps ratio = (tps_cur / cal_cur) / (tps_base / cal_base)
    host_factor = (
        cal_baseline / cal_current if cal_current and cal_baseline else None
    )
    rows = []
    for section in SECTIONS:
        for gate in section.gates:
            row = _judge(section.name, gate, report.get(section.name),
                         baseline, host_factor)
            if row is not None:
                rows.append(row)
    failures = [
        f"{row['section']}: {row['metric']} {row['value']} is not "
        f"{row['op']} {row['budget']}"
        for row in rows if row["ok"] is False
    ]
    return {
        "baseline_timestamp": baseline.get("timestamp"),
        "gates": rows,
        "budgets": {
            "min_tps_ratio": MIN_TPS_RATIO,
            "max_traced_overhead_pct": MAX_TRACED_OVERHEAD_PCT,
            "max_disabled_overhead_pct": MAX_DISABLED_OVERHEAD_PCT,
            "min_batch_explorer_multiple": BATCH_MIN_EXPLORER_MULTIPLE,
            "max_serve_hit_s": MAX_SERVE_HIT_S,
            "min_serve_batch_speedup": MIN_SERVE_BATCH_SPEEDUP,
        },
        "failures": failures,
        "ok": not failures,
    }


def run_bench_suite(
    workers: Optional[int] = None,
    quick: bool = False,
    baseline_path: Optional[str] = None,
    only: Optional[tuple] = None,
) -> dict:
    """Run the suite (every section, or those named in ``only``);
    returns the machine-readable report dict.

    Its ``regression`` entry is :func:`regression_report` against the
    baseline report at ``baseline_path`` (default: the committed
    ``BENCH_perf.json`` in the working directory); without one, only
    the gates that need no baseline are judged.
    """
    from repro.perf.pool import resolve_workers

    effective = resolve_workers(workers) if workers is None else max(1, workers)
    baseline = load_baseline(baseline_path or BENCH_FILENAME)
    report = {
        "suite": "repro-bench",
        "version": 1,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "workers": effective,
        "quick": quick,
    }
    for section in SECTIONS:
        if only and section.name not in only:
            continue
        value = section.run(quick, effective)
        if section.name == "explorer":
            # The calibration yardstick is timed between explorer runs,
            # in the same host phase as the rows it normalizes.
            value, report["calibration_ops_per_sec"] = value
        report[section.name] = value
    report["regression"] = regression_report(report, baseline or {})
    return report


def write_bench_json(report: dict, path: str = BENCH_FILENAME) -> str:
    """Persist the bench report; returns the path written."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=False)
        handle.write("\n")
    return path
