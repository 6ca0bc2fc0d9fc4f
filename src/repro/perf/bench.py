"""The ``repro bench`` suite: serial vs parallel wall time, explorer
throughput, written to ``BENCH_perf.json``.

The suite is fixed so successive PRs can track the trajectory:

* **explorer** -- single-worker exhaustive exploration of canonical
  mixes on the *object* :class:`~repro.verify.explorer.Explorer`, the
  oracle of the compiled search ``explore()`` runs; reports states/sec
  and is the per-object baseline the batch gate multiplies;
* **matrix** -- the full E1 compatibility matrix, serial then pooled;
* **des** -- the E2 protocol-comparison sweep, serial then pooled;
* **obs** -- observability overhead: the same heterogeneous run driven
  directly (pre-facade style), through :class:`repro.api.Session` with
  tracing disabled (the guard-only path, budgeted at <5%), and with
  tracing enabled;
* **batch** -- the struct-of-arrays population kernel: one hit-heavy
  population timed on every available backend and spot-verified against
  the object engine, gated at >=10x the baseline explorer's
  transitions/sec (calibration-normalized);
* **serve** -- the memoizing service tier: one spec executed cold
  (cache miss, full job body) then answered warm (cache hit), with the
  cache hit/miss counters and the warm-pool dispatch stats recorded.
  The memo-hit latency is gated against an absolute budget
  (:data:`MAX_SERVE_HIT_S`); the miss side stays informational;
* **serve_batch** -- continuous batching: a burst of compatible batch
  specs executed one at a time (the pre-batching serve path) and then
  as one coalesced population
  (:func:`repro.serve.jobs.execute_batch_payloads`), byte-compared,
  with the sustained requests/sec of both legs recorded.  On the numpy
  backend the speedup is gated at :data:`MIN_SERVE_BATCH_SPEEDUP`
  (host-normalized like the throughput gates); the pure-Python backend
  only saves the per-request fixed costs, so there the ratio stays
  informational.

Wall-clock speedups depend on the host (a single-core container cannot
beat serial); the JSON records ``cpu_count`` next to every ratio so the
numbers stay interpretable.
"""

from __future__ import annotations

import json
import os
import platform
import time
from typing import Optional

__all__ = [
    "run_bench_suite",
    "write_bench_json",
    "load_baseline",
    "regression_report",
    "BENCH_FILENAME",
    "MIN_TPS_RATIO",
    "MAX_TRACED_OVERHEAD_PCT",
    "BATCH_MIN_EXPLORER_MULTIPLE",
    "MAX_SERVE_HIT_S",
    "MIN_SERVE_BATCH_SPEEDUP",
]

BENCH_FILENAME = "BENCH_perf.json"

#: Regression budgets the bench smoke job enforces: the explorer may not
#: lose more than 10% transitions/sec against the committed baseline,
#: and the traced-run observability tax must stay within budget.
MIN_TPS_RATIO = 0.9
MAX_TRACED_OVERHEAD_PCT = 25.0

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

#: Floor on the continuous-batching speedup: a coalesced compatible
#: burst must sustain at least this many times the one-at-a-time
#: requests/sec.  Gated only on the numpy backend -- that is where
#: coalescing buys vectorization width on top of amortized fixed costs;
#: the scalar interpreter does the same per-event work either way.
MIN_SERVE_BATCH_SPEEDUP = 5.0

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


def _bench_matrix(workers: int, quick: bool) -> dict:
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
    start = time.perf_counter()
    parallel_rows = run_matrix(cases, workers=workers)
    parallel_s = time.perf_counter() - start
    return {
        "cases": len(cases),
        "all_ok": all(r["ok"] for r in serial_rows),
        "rows_identical": serial_rows == parallel_rows,
        "serial_s": round(serial_s, 4),
        "parallel_s": round(parallel_s, 4),
        "speedup": round(serial_s / parallel_s, 2) if parallel_s else None,
    }


def _bench_des(workers: int, quick: bool) -> dict:
    from repro.analysis.compare import protocol_comparison

    references = 1000 if quick else 4000
    start = time.perf_counter()
    serial_rows = protocol_comparison(references=references)
    serial_s = time.perf_counter() - start
    start = time.perf_counter()
    parallel_rows = protocol_comparison(
        references=references, workers=workers
    )
    parallel_s = time.perf_counter() - start
    return {
        "protocols": len(serial_rows),
        "references": references,
        "rows_identical": serial_rows == parallel_rows,
        "serial_s": round(serial_s, 4),
        "parallel_s": round(parallel_s, 4),
        "speedup": round(serial_s / parallel_s, 2) if parallel_s else None,
    }


def _bench_obs(quick: bool) -> dict:
    """Observability tax on one heterogeneous DES-free run.

    ``baseline`` builds and drives the System directly (how pre-facade
    callers did); ``disabled`` goes through ``Session.execute(plan(...))``
    with no tracer (every emission site evaluates its ``is not None``
    guard);
    ``traced`` records the full structured stream.  Legs are interleaved
    and the per-leg minimum taken, so a background stall cannot charge
    one leg only.
    """
    from repro.api import Session, plan
    from repro.system.system import BoardSpec, System
    from repro.workloads.synthetic import SyntheticConfig, SyntheticWorkload

    # Enough references that the facade's fixed per-session setup cost
    # cannot dominate the percentage on a fast run.
    references = 1500 if quick else 3000
    repeats = 3 if quick else 5
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

    def _time(fn) -> float:
        start = time.perf_counter()
        fn()
        return time.perf_counter() - start

    # One untimed warm-up per leg: first calls pay lazy imports, table
    # compilation and interning that belong to neither leg's steady state.
    _direct()
    _facade(False)
    _facade(True)
    legs: dict[str, list[float]] = {
        "baseline": [], "disabled": [], "traced": []
    }
    for _ in range(repeats):
        legs["baseline"].append(_time(_direct))
        legs["disabled"].append(_time(lambda: _facade(False)))
        legs["traced"].append(_time(lambda: _facade(True)))
    baseline_s = min(legs["baseline"])
    disabled_s = min(legs["disabled"])
    traced_s = min(legs["traced"])
    return {
        "references": references,
        "repeats": repeats,
        "baseline_s": round(baseline_s, 4),
        "disabled_s": round(disabled_s, 4),
        "traced_s": round(traced_s, 4),
        "overhead_disabled_pct": round(
            (disabled_s - baseline_s) / baseline_s * 100.0, 2
        ),
        "overhead_traced_pct": round(
            (traced_s - baseline_s) / baseline_s * 100.0, 2
        ),
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
        "default_backend": default_backend(),
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
    hit_ns_p50 = samples[len(samples) // 2]
    hit_ns_p99 = samples[(len(samples) * 99) // 100]
    return {
        "references": references,
        "spec_hash": key,
        "miss_s": round(miss_s, 4),
        "hit_s": round(samples[0] * 1e-9, 6),
        "hit_lookups": len(samples),
        "hit_ns_p50": hit_ns_p50,
        "hit_ns_p99": hit_ns_p99,
        "hit_speedup": round(miss_s / (hit_ns_p50 * 1e-9), 1),
        "cache": cache.stats(),
        "pool": pool_stats(),
    }


def _bench_serve_batch(quick: bool) -> dict:
    """Continuous-batching throughput: one compatible burst dispatched
    one spec at a time (the scalar serve path) and then as a single
    coalesced population, byte-compared payload by payload.

    The burst is what the daemon's admission window sees from
    ``ServeClient.execute_many``: N distinct-seed batch specs sharing a
    ``batch_key()``.  Both legs run in-process (no daemon, no sockets)
    so the ratio isolates the kernel-side win -- amortized population
    synthesis, one shared-tables epoch, one SoA run instead of N."""
    from repro.perf.batch import default_backend
    from repro.serve.jobs import execute_batch_payloads, execute_payload
    from repro.serve.protocol import payload_json
    from repro.specs import BatchSpec

    requests = 64 if quick else 256
    specs = [
        BatchSpec(
            protocols=("moesi",), rows=4, events_per_row=60, seed=seed
        )
        for seed in range(requests)
    ]
    canonicals = [spec.canonical() for spec in specs]
    assert len({spec.batch_key() for spec in specs}) == 1

    scalar_payloads = None
    scalar_s = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        scalar_payloads = [
            execute_payload(canonical) for canonical in canonicals
        ]
        scalar_s = min(scalar_s, time.perf_counter() - start)
    batched_payloads = None
    batched_s = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        batched_payloads = execute_batch_payloads(tuple(canonicals))
        batched_s = min(batched_s, time.perf_counter() - start)
    identical = [payload_json(p) for p in scalar_payloads] == [
        payload_json(p) for p in batched_payloads
    ]
    return {
        "requests": requests,
        "rows_per_request": 4,
        "events_per_row": 60,
        "backend": default_backend(),
        "scalar_s": round(scalar_s, 4),
        "batched_s": round(batched_s, 4),
        "scalar_rps": round(requests / scalar_s, 1),
        "batched_rps": round(requests / batched_s, 1),
        "speedup": round(scalar_s / batched_s, 2) if batched_s else None,
        "identical": identical,
    }


def load_baseline(path: str = BENCH_FILENAME) -> Optional[dict]:
    """The committed baseline report, or None when absent/unreadable."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None


def regression_report(report: dict, baseline: dict) -> dict:
    """Compare a fresh bench report against a committed baseline.

    Per explorer mix present in both reports: the transitions/sec ratio
    (current / baseline; < :data:`MIN_TPS_RATIO` is a failure).  When
    both reports carry a ``calibration_ops_per_sec`` yardstick (see
    :func:`_calibration_kernel`) the gated ratio is *normalized* by the
    calibration ratio first -- raw transitions/sec on a CI runner or a
    throttled container says more about the host than the code, and the
    yardstick cancels host speed out.  The serial-vs-parallel speedups
    and the observability overheads are reported side by side; the
    traced overhead is additionally checked against
    :data:`MAX_TRACED_OVERHEAD_PCT` (an absolute budget, so it holds
    even when the baseline itself was over), and the serve tier's
    memo-hit latency against :data:`MAX_SERVE_HIT_S` (absolute,
    host-discounted the same way as the throughput gates).
    """
    failures: list[str] = []
    explorer_rows = []
    baseline_mixes = {row["mix"]: row for row in baseline.get("explorer", ())}
    cal_current = report.get("calibration_ops_per_sec")
    cal_baseline = baseline.get("calibration_ops_per_sec")
    # raw_ratio * host_factor = (tps_cur / cal_cur) / (tps_base / cal_base)
    host_factor = (
        cal_baseline / cal_current if cal_current and cal_baseline else None
    )
    for row in report["explorer"]:
        base = baseline_mixes.get(row["mix"])
        if base is None:
            continue
        ratio = (
            row["transitions_per_sec"] / base["transitions_per_sec"]
            if base["transitions_per_sec"]
            else None
        )
        normalized = (
            ratio * host_factor
            if ratio is not None and host_factor is not None
            else None
        )
        # A genuine code regression depresses both the raw and the
        # host-normalized ratio; a throttled host depresses only the raw
        # one and calibration drift only the normalized one.  Gating on
        # the better of the two flags real regressions without tripping
        # on either noise source alone.
        if ratio is not None and normalized is not None:
            gated = max(ratio, normalized)
        else:
            gated = normalized if normalized is not None else ratio
        explorer_rows.append(
            {
                "mix": row["mix"],
                "baseline_tps": base["transitions_per_sec"],
                "current_tps": row["transitions_per_sec"],
                "ratio": round(ratio, 3) if ratio is not None else None,
                "ratio_normalized": (
                    round(normalized, 3) if normalized is not None else None
                ),
            }
        )
        if gated is not None and gated < MIN_TPS_RATIO:
            kind = "normalized " if normalized is not None else ""
            failures.append(
                f"explorer {row['mix']}: {kind}transitions/sec regressed "
                f"to {gated:.2f}x baseline (budget {MIN_TPS_RATIO}x)"
            )
    speedups = {
        name: {
            "baseline": baseline.get(name, {}).get("speedup"),
            "current": report[name]["speedup"],
        }
        for name in ("matrix", "des")
    }
    traced = report["obs"]["overhead_traced_pct"]
    if traced > MAX_TRACED_OVERHEAD_PCT:
        failures.append(
            f"obs: traced overhead {traced:.2f}% exceeds budget "
            f"{MAX_TRACED_OVERHEAD_PCT:.0f}%"
        )
    batch = report.get("batch")
    batch_section = None
    if batch is not None:
        if not batch.get("verified_ok", True):
            failures.append(
                "batch: kernel diverged from the object engine on "
                "sampled rows"
            )
        best_tps = max(
            leg["transitions_per_sec"] for leg in batch["backends"].values()
        )

        def _gated(raw: Optional[float]) -> Optional[float]:
            if raw is None:
                return None
            if host_factor is None:
                return raw
            return max(raw, raw * host_factor)

        # Floor: the kernel's aggregate throughput against the committed
        # explorer baseline (the "10x the per-object engine" claim).
        explorer_base = baseline_mixes.get("full-class+full-class")
        multiple = (
            best_tps / explorer_base["transitions_per_sec"]
            if explorer_base and explorer_base["transitions_per_sec"]
            else None
        )
        gated_multiple = _gated(multiple)
        if (
            gated_multiple is not None
            and gated_multiple < BATCH_MIN_EXPLORER_MULTIPLE
        ):
            failures.append(
                f"batch: {gated_multiple:.1f}x the baseline explorer "
                f"transitions/sec, below the "
                f"{BATCH_MIN_EXPLORER_MULTIPLE:.0f}x floor"
            )
        # Budget: batch-vs-batch regression once a baseline carries a
        # batch section (same gate shape as the explorer rows). The gate
        # only fires like-for-like: quick runs use a smaller population
        # whose fixed setup costs amortize worse, so their tps is not
        # comparable to a full-suite baseline — the ratio is still
        # reported, and the explorer-multiple floor above applies in
        # both modes.
        base_batch = baseline.get("batch")
        ratio = None
        if base_batch:
            base_tps = max(
                leg["transitions_per_sec"]
                for leg in base_batch["backends"].values()
            )
            ratio = best_tps / base_tps if base_tps else None
            gated_ratio = _gated(ratio)
            if (
                base_batch.get("rows") == batch.get("rows")
                and gated_ratio is not None
                and gated_ratio < MIN_TPS_RATIO
            ):
                failures.append(
                    f"batch: transitions/sec regressed to "
                    f"{gated_ratio:.2f}x baseline (budget "
                    f"{MIN_TPS_RATIO}x)"
                )
        batch_section = {
            "current_tps": best_tps,
            "baseline_tps": (
                max(
                    leg["transitions_per_sec"]
                    for leg in base_batch["backends"].values()
                )
                if base_batch
                else None
            ),
            "ratio": round(ratio, 3) if ratio is not None else None,
            "explorer_multiple": (
                round(multiple, 1) if multiple is not None else None
            ),
            "explorer_multiple_normalized": (
                round(multiple * host_factor, 1)
                if multiple is not None and host_factor is not None
                else None
            ),
        }
    serve_batch = report.get("serve_batch")
    serve_batch_section = None
    if serve_batch is not None:
        if not serve_batch.get("identical", True):
            failures.append(
                "serve_batch: coalesced payloads diverged from "
                "one-at-a-time execution"
            )
        speedup = serve_batch.get("speedup")
        normalized_speedup = (
            speedup * host_factor
            if speedup is not None and host_factor is not None
            else None
        )
        # Same better-of-raw/normalized shape as the tps gates; only the
        # numpy backend carries the vectorization-width claim the 5x
        # floor encodes.
        if normalized_speedup is not None:
            gated_speedup = max(speedup, normalized_speedup)
        else:
            gated_speedup = speedup
        if (
            serve_batch.get("backend") == "numpy"
            and gated_speedup is not None
            and gated_speedup < MIN_SERVE_BATCH_SPEEDUP
        ):
            failures.append(
                f"serve_batch: coalesced burst only {gated_speedup:.1f}x "
                f"one-at-a-time dispatch, below the "
                f"{MIN_SERVE_BATCH_SPEEDUP:.0f}x floor"
            )
        serve_batch_section = {
            "backend": serve_batch.get("backend"),
            "requests": serve_batch.get("requests"),
            "baseline_speedup": baseline.get("serve_batch", {}).get(
                "speedup"
            ),
            "current_speedup": speedup,
            "current_speedup_normalized": (
                round(normalized_speedup, 2)
                if normalized_speedup is not None
                else None
            ),
        }
    serve = report.get("serve")
    serve_section = None
    if serve is not None and serve.get("hit_s") is not None:
        hit_s = serve["hit_s"]
        # Lower-is-better normalization, mirroring the tps gates: a
        # slower host (host_factor > 1) inflates the raw latency, so the
        # host-discounted value is hit_s / host_factor and the gate
        # takes whichever of the two clears the budget -- a real memo
        # regression inflates both.
        normalized_hit = (
            hit_s / host_factor if host_factor else None
        )
        gated_hit = (
            min(hit_s, normalized_hit) if normalized_hit is not None else hit_s
        )
        if gated_hit > MAX_SERVE_HIT_S:
            failures.append(
                f"serve: memo-hit latency {gated_hit * 1e6:.0f}us exceeds "
                f"the {MAX_SERVE_HIT_S * 1e6:.0f}us budget"
            )
        serve_section = {
            "baseline_hit_s": baseline.get("serve", {}).get("hit_s"),
            "current_hit_s": hit_s,
            "current_hit_s_normalized": (
                round(normalized_hit, 6)
                if normalized_hit is not None
                else None
            ),
        }
    return {
        "baseline_timestamp": baseline.get("timestamp"),
        "explorer": explorer_rows,
        "speedups": speedups,
        "obs": {
            "baseline_traced_pct": baseline.get("obs", {}).get(
                "overhead_traced_pct"
            ),
            "current_traced_pct": traced,
        },
        "batch": batch_section,
        "serve": serve_section,
        "serve_batch": serve_batch_section,
        "budgets": {
            "min_tps_ratio": MIN_TPS_RATIO,
            "max_traced_overhead_pct": MAX_TRACED_OVERHEAD_PCT,
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
) -> dict:
    """Run the fixed suite; returns the machine-readable report dict.

    When a baseline report exists (``baseline_path``, defaulting to the
    committed ``BENCH_perf.json`` in the working directory) the report
    gains a ``regression`` section comparing against it.
    """
    from repro.perf.pool import resolve_workers

    effective = resolve_workers(workers) if workers is None else max(1, workers)
    baseline = load_baseline(baseline_path or BENCH_FILENAME)
    explorer_rows, calibration = _bench_explorer(quick)
    report = {
        "suite": "repro-bench",
        "version": 1,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "workers": effective,
        "quick": quick,
        "calibration_ops_per_sec": calibration,
        "explorer": explorer_rows,
        "matrix": _bench_matrix(effective, quick),
        "des": _bench_des(effective, quick),
        "obs": _bench_obs(quick),
        "batch": _bench_batch(quick),
        "serve": _bench_serve(quick),
        "serve_batch": _bench_serve_batch(quick),
    }
    if baseline is not None:
        report["regression"] = regression_report(report, baseline)
    return report


def write_bench_json(report: dict, path: str = BENCH_FILENAME) -> str:
    """Persist the bench report; returns the path written."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=False)
        handle.write("\n")
    return path
