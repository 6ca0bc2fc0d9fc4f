"""The unified front door: plan/execute, sessions, typed results.

Everything the toolkit can do -- run a (possibly heterogeneous) system
over a workload, exhaustively verify a protocol mix, fuzz with the
differential oracles, race the protocols against each other, sweep the
batch kernel -- is now expressed in two verbs over frozen spec values
(:mod:`repro.specs`):

* :func:`plan` builds a frozen, picklable, canonically-hashable spec
  (``ExperimentSpec``, ``VerifySpec``, ``FuzzSpec``, ``BatchSpec``,
  ``ShootoutSpec``) describing *what* to compute;
* :func:`execute` runs one and returns the typed result.  Execution
  details that cannot change the answer -- worker counts, backends,
  output directories -- ride on ``execute``, never on the spec, so one
  ``spec.content_hash()`` covers every way of computing the same result
  (the memoization key :mod:`repro.serve` caches under).

Quickstart::

    from repro import plan, execute

    spec = plan("experiment", protocol="illinois", references=500)
    result = execute(spec)
    assert result.ok
    assert execute(spec).report.to_json() == result.report.to_json()

A :class:`Session` owns one :class:`~repro.obs.trace.Tracer` and one
:class:`~repro.obs.profile.Profiler` and threads them through every
layer; ``Session(trace=True).execute(spec)`` merges several runs into
one trace.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Optional, Sequence, Union

from repro.obs.export import (
    to_jsonl,
    validate_chrome_trace,  # noqa: F401  (re-exported convenience)
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.profile import Profiler
from repro.obs.trace import Tracer
from repro.specs import (
    BatchSpec,
    ExperimentSpec,
    FuzzSpec,
    GeometrySpec,
    ShootoutSpec,
    VerifySpec,
    WorkloadSpec,
    spec_from_canonical,
    spec_from_dict,
)
from repro.system.stats import SystemReport, _trace_get, _trace_set
from repro.system.system import BoardSpec, System
from repro.workloads.trace import Trace

__all__ = [
    "Session",
    "ExperimentResult",
    "VerifyResult",
    "FuzzResult",
    "plan",
    "execute",
    "shutdown_pool",
    "warm_pool",
]

def _write_events(
    events: list, path: Union[str, Path], fmt: str, label: str
) -> Path:
    if fmt == "chrome":
        return write_chrome_trace(path, events, label=label)
    if fmt == "jsonl":
        return write_jsonl(path, events)
    raise ValueError(f"unknown trace format {fmt!r} (chrome or jsonl)")


@dataclasses.dataclass
class ExperimentResult:
    """One workload run: report + coherence verdict + observability."""

    label: str
    report: SystemReport
    #: Final whole-memory coherence sweep (empty means coherent).
    violations: list
    #: Whole-system metrics snapshot (``MetricsRegistry.to_dict``).
    metrics: dict
    #: Exported structured trace events, or None if tracing was off.
    #: Accepts the report's lazy ``(tracer, count)`` handle; the
    #: property installed below exports on first access.
    trace: Optional[list] = None
    profile: Optional[Profiler] = None
    #: The live system, for state inspection after the run.
    system: Optional[System] = dataclasses.field(
        default=None, repr=False, compare=False
    )

    @property
    def ok(self) -> bool:
        return not self.violations

    def write_trace(
        self, path: Union[str, Path], fmt: str = "chrome"
    ) -> Path:
        """Export the attached trace (``chrome`` for Perfetto, or
        ``jsonl``)."""
        if self.trace is None:
            raise ValueError(
                "experiment ran without tracing; pass trace=True"
            )
        return _write_events(self.trace, path, fmt, self.label)

    def to_json(self) -> str:
        return self.report.to_json()


#: The lazy-trace property of :class:`repro.system.stats.SystemReport`:
#: a traced run hands the result a cheap handle, and the export encoding
#: is paid when (and only when) ``result.trace`` is read.
ExperimentResult.trace = property(  # type: ignore[assignment]
    _trace_get,
    _trace_set,
    doc="Exported structured trace events, or None if tracing was off.",
)


@dataclasses.dataclass
class VerifyResult:
    """One verification matrix run: per-mix rows + observability."""

    rows: list
    trace: Optional[list] = None
    profile: Optional[Profiler] = None

    @property
    def ok(self) -> bool:
        return all(row["ok"] for row in self.rows)

    @property
    def failures(self) -> list:
        return [row for row in self.rows if not row["ok"]]


@dataclasses.dataclass
class FuzzResult:
    """One fuzz campaign: the deterministic report + observability."""

    report: object  # CampaignReport, or runner.ScenarioReplayReport
    trace: Optional[list] = None
    profile: Optional[Profiler] = None

    @property
    def ok(self) -> bool:
        return self.report.ok

    @property
    def failures(self) -> list:
        return self.report.failures


# ----------------------------------------------------------------------
# plan(...): kwargs -> frozen spec.
# ----------------------------------------------------------------------
def _experiment_spec(
    protocol: str = "moesi",
    protocols: Optional[Sequence[str]] = None,
    workload: Optional[Union[Trace, WorkloadSpec]] = None,
    processors: int = 4,
    references: int = 2000,
    seed: int = 7,
    p_shared: float = 0.3,
    p_write: float = 0.3,
    timed: bool = False,
    check: bool = True,
    label: Optional[str] = None,
    discipline: Optional[str] = None,
    geometry: Optional[GeometrySpec] = None,
    trace: bool = False,
    metrics: bool = True,
) -> ExperimentSpec:
    """Plan one system run.  ``workload`` may be a literal
    :class:`~repro.workloads.trace.Trace` (embedded record-for-record), a
    :class:`~repro.specs.WorkloadSpec`, or ``None`` for the synthetic
    recipe ``(processors, references, seed, p_shared, p_write)``.

    ``protocols`` gives each board its own protocol (the paper's
    mixed-backplane capability); otherwise every board runs
    ``protocol``.  ``discipline`` selects a bus arbitration service
    discipline (``"fcfs"``, ``"priority[:m=p,...]"``, ``"round-robin"``)
    and implies a timed, arbitrated run."""
    if workload is None:
        workload_spec = WorkloadSpec(
            processors=processors,
            references=references,
            seed=seed,
            p_shared=p_shared,
            p_write=p_write,
        )
    elif isinstance(workload, WorkloadSpec):
        workload_spec = workload
    else:
        workload_spec = WorkloadSpec.literal(workload)
    return ExperimentSpec(
        protocol=protocol,
        protocols=tuple(protocols) if protocols else None,
        workload=workload_spec,
        geometry=geometry or GeometrySpec(),
        timed=timed,
        check=check,
        discipline=discipline,
        label=label,
        trace=trace,
        metrics=metrics,
    )


def _verify_spec(
    suites: Optional[Sequence[str]] = None,
    trace: bool = False,
    metrics: bool = True,
) -> VerifySpec:
    """Plan the verification matrix (all suites by default; names from
    :data:`repro.verify.mixes.SUITES`)."""
    kwargs = {} if suites is None else {"suites": tuple(suites)}
    return VerifySpec(trace=trace, metrics=metrics, **kwargs)


def _fuzz_spec(
    seeds: int = 200,
    seed_base: int = 0,
    scenario=None,
    shrink: bool = True,
    scenario_json: Optional[str] = None,
    trace: bool = False,
    metrics: bool = True,
) -> FuzzSpec:
    """Plan a fuzz campaign; ``scenario_json`` (a canonical
    :meth:`Scenario.canonical` string) plans a single-scenario replay
    instead of a seeded campaign."""
    return FuzzSpec(
        seeds=seeds,
        seed_base=seed_base,
        scenario=scenario,
        shrink=shrink,
        scenario_json=scenario_json,
        trace=trace,
        metrics=metrics,
    )


def _shootout_spec(
    workload: Optional[Union[Trace, WorkloadSpec]] = None,
    protocols: Optional[Sequence[str]] = None,
    references: int = 4000,
    seed: int = 7,
    timed: bool = True,
    trace: bool = False,
    metrics: bool = True,
) -> ShootoutSpec:
    """Plan the protocol shootout.  ``protocols`` resolves to the
    comparison defaults *now* (at plan time), so the hash pins the
    protocol list rather than "whatever the registry holds later"."""
    from repro.analysis.compare import DEFAULT_PROTOCOLS

    if workload is not None and not isinstance(workload, WorkloadSpec):
        workload = WorkloadSpec.literal(workload)
    return ShootoutSpec(
        protocols=tuple(protocols) if protocols else tuple(DEFAULT_PROTOCOLS),
        references=references,
        seed=seed,
        timed=timed,
        workload=workload,
        trace=trace,
        metrics=metrics,
    )


def _batch_spec(
    protocols: Optional[Sequence[str]] = None,
    rows: int = 64,
    events_per_row: int = 100,
    seed: int = 0,
    n_units: int = 2,
    geometry: Sequence[int] = (4, 2, 32, 8),
    metrics: bool = True,
) -> BatchSpec:
    """Plan a batch-kernel population sweep; ``protocols`` resolves to
    every batchable registry spec at plan time."""
    if protocols is None:
        from repro.perf.batch import batchable_specs

        protocols = batchable_specs()
    return BatchSpec(
        protocols=tuple(protocols),
        rows=rows,
        events_per_row=events_per_row,
        seed=seed,
        n_units=n_units,
        geometry=tuple(geometry),
        metrics=metrics,
    )


_PLANNERS = {
    "experiment": _experiment_spec,
    "verify": _verify_spec,
    "fuzz": _fuzz_spec,
    "shootout": _shootout_spec,
    "batch": _batch_spec,
}


def plan(kind: str = "experiment", **kwargs):
    """Build a frozen spec for ``kind``; the first of the two verbs.

    ==============  ====================================================
    ``experiment``  ``protocol`` or per-board ``protocols``;
                    ``workload`` (a Trace, a WorkloadSpec, or ``None``
                    for the synthetic recipe ``processors``,
                    ``references``, ``seed``, ``p_shared``,
                    ``p_write``); ``geometry``, ``timed``, ``check``,
                    ``discipline``, ``label``
    ``verify``      ``suites`` (names in repro.verify.mixes.SUITES)
    ``fuzz``        ``seeds``, ``seed_base``, ``scenario``, ``shrink``,
                    ``scenario_json``
    ``shootout``    ``protocols``, ``references``, ``seed``, ``timed``,
                    ``workload``
    ``batch``       ``protocols``, ``rows``, ``events_per_row``,
                    ``seed``, ``n_units``, ``geometry``
    ==============  ====================================================

    Every kind takes ``metrics``, and all but ``batch`` take ``trace``.
    """
    planner = _PLANNERS.get(kind)
    if planner is None:
        known = ", ".join(sorted(_PLANNERS))
        raise ValueError(f"unknown plan kind {kind!r}; known: {known}")
    return planner(**kwargs)


def _coerce_spec(spec):
    """Accept a spec object, its dict payload, or its canonical string."""
    if isinstance(spec, str):
        return spec_from_canonical(spec)
    if isinstance(spec, dict):
        return spec_from_dict(spec)
    return spec


class Session:
    """One observability context threaded through every entry point.

    ``trace=True`` attaches a structured :class:`Tracer` (logical time,
    deterministic); ``profile=True`` a wall-clock :class:`Profiler`.
    Both default off, preserving the zero-overhead discipline.  Results
    returned by a session share the session's tracer stream, so one
    session tracing several runs yields one merged timeline.
    """

    def __init__(
        self,
        label: str = "session",
        trace: bool = False,
        profile: bool = False,
    ) -> None:
        self.label = label
        self.tracer: Optional[Tracer] = Tracer(stream=label) if trace else None
        self.profiler: Optional[Profiler] = Profiler() if profile else None

    # ------------------------------------------------------------------
    def _snapshot_trace(self) -> Optional[list]:
        return None if self.tracer is None else self.tracer.export()

    # ------------------------------------------------------------------
    # The second verb.
    # ------------------------------------------------------------------
    def execute(
        self,
        spec,
        *,
        workers: Optional[int] = None,
        out_dir: Optional[Union[str, Path]] = None,
        backend: Optional[str] = None,
        timing=None,
        **kwargs,
    ):
        """Execute a spec under this session's observability.

        ``spec`` may be a spec object, its ``to_dict()`` payload, or its
        canonical string.  ``workers``/``out_dir``/``backend``/``timing``
        are execution details: they select *how* the answer is computed
        (and where artifacts land) without entering the spec's content
        hash.  ``workers`` of ``None``, 0 or 1 runs every kind
        in-process; N > 1 lets the run fan out over N pool workers.
        Tracing follows the session, not ``spec.trace`` -- the
        module-level :func:`execute` honours the flag by building the
        session from it.
        """
        spec = _coerce_spec(spec)
        workers = workers or 0
        if isinstance(spec, ExperimentSpec):
            return self._execute_experiment(spec, timing=timing)
        if isinstance(spec, VerifySpec):
            return self._execute_verify(spec, workers=workers, **kwargs)
        if isinstance(spec, FuzzSpec):
            return self._execute_fuzz(
                spec, workers=workers, out_dir=out_dir, **kwargs
            )
        if isinstance(spec, ShootoutSpec):
            return self._execute_shootout(spec, workers=workers, **kwargs)
        if isinstance(spec, BatchSpec):
            return self._execute_batch(
                spec, backend=backend, workers=workers, **kwargs
            )
        raise TypeError(
            f"cannot execute {type(spec).__name__}; expected a repro.specs "
            "spec, its dict payload, or its canonical string"
        )

    # ------------------------------------------------------------------
    def _execute_experiment(
        self, spec: ExperimentSpec, timing=None
    ) -> ExperimentResult:
        workload = spec.workload.build()
        units = workload.units()
        names = (
            list(spec.protocols)
            if spec.protocols
            else [spec.protocol] * len(units)
        )
        if len(names) < len(units):
            raise ValueError(
                f"{len(units)} workload units but only "
                f"{len(names)} protocols"
            )
        run_label = spec.label or (
            spec.protocol if not spec.protocols else "+".join(names)
        )
        boards = [
            BoardSpec(
                unit_id=unit, protocol=name, **spec.geometry.board_kwargs()
            )
            for unit, name in zip(units, names)
        ]
        system = System(
            boards, timing=timing, check=spec.check, label=run_label
        )
        if self.tracer is not None:
            system.attach_tracer(self.tracer)

        def _run() -> SystemReport:
            if spec.discipline is not None:
                from repro.system.arbitrated import arbitrated_run_from_trace

                return arbitrated_run_from_trace(
                    system, workload, arbiter=spec.discipline
                ).run()
            if spec.timed:
                from repro.system.runner import timed_run_from_trace

                return timed_run_from_trace(system, workload).run()
            system.run_trace(workload)
            return system.report()

        if self.profiler is not None:
            with self.profiler.region(
                "experiment", label=run_label, references=len(workload)
            ):
                report = _run()
        else:
            report = _run()
        violations = system.check_coherence()
        return ExperimentResult(
            label=run_label,
            report=report,
            violations=violations,
            metrics=report.metrics or {},
            trace=report.trace_handle(),
            profile=self.profiler,
            system=system,
        )

    def _execute_verify(
        self, spec: VerifySpec, workers: int = 0, **kwargs
    ) -> VerifyResult:
        from repro.verify.mixes import SUITES, run_matrix

        cases = []
        for name in spec.suites:
            factory = SUITES.get(name)
            if factory is None:
                known = ", ".join(SUITES)
                raise ValueError(
                    f"unknown verify suite {name!r}; known: {known}"
                )
            cases.extend(factory())
        rows = run_matrix(
            cases,
            workers=workers,
            tracer=self.tracer,
            profiler=self.profiler,
            **kwargs,
        )
        return VerifyResult(
            rows=rows,
            trace=self._snapshot_trace(),
            profile=self.profiler,
        )

    def _execute_fuzz(
        self,
        spec: FuzzSpec,
        workers: int = 0,
        out_dir: Optional[Union[str, Path]] = None,
    ) -> FuzzResult:
        if spec.scenario_json is not None:
            from repro.fuzz.runner import run_fuzz_spec

            report = run_fuzz_spec(spec)
            if self.tracer is not None:
                self.tracer.mark(
                    "fuzz.replay",
                    seed=report.scenario.seed,
                    ok=report.ok,
                    steps=report.steps_run,
                )
            return FuzzResult(
                report=report,
                trace=self._snapshot_trace(),
                profile=self.profiler,
            )
        from repro.fuzz.campaign import CampaignConfig, run_campaign

        config = CampaignConfig(
            seeds=spec.seeds,
            seed_base=spec.seed_base,
            scenario=spec.scenario_config(),
            shrink=spec.shrink,
        )
        report = run_campaign(
            config,
            workers=workers,
            out_dir=out_dir,
            profiler=self.profiler,
            tracer=self.tracer,
        )
        return FuzzResult(
            report=report,
            trace=self._snapshot_trace(),
            profile=self.profiler,
        )

    def _execute_shootout(
        self,
        spec: ShootoutSpec,
        workers: int = 0,
        **kwargs,
    ) -> list:
        from repro.analysis.compare import protocol_comparison

        return protocol_comparison(
            trace=(
                spec.workload.build() if spec.workload is not None else None
            ),
            protocols=spec.protocols,
            references=spec.references,
            seed=spec.seed,
            timed=spec.timed,
            workers=workers,
            tracer=self.tracer,
            profiler=self.profiler,
            **kwargs,
        )

    def _execute_batch(
        self,
        spec: BatchSpec,
        backend: Optional[str] = None,
        workers: int = 0,
        **kwargs,
    ) -> list:
        from repro.perf.batch import batch_protocol_sweep

        return batch_protocol_sweep(
            protocols=spec.protocols,
            rows=spec.rows,
            events_per_row=spec.events_per_row,
            seed=spec.seed,
            n_units=spec.n_units,
            geometry=spec.geometry,
            backend=backend,
            workers=workers,
            **kwargs,
        )

    # ------------------------------------------------------------------
    def write_trace(
        self, path: Union[str, Path], fmt: str = "chrome"
    ) -> Path:
        """Export everything this session's tracer has collected."""
        if self.tracer is None:
            raise ValueError("session created without trace=True")
        return _write_events(self.tracer.export(), path, fmt, self.label)

    def trace_jsonl(self) -> str:
        """The session's trace as JSON-lines text (byte-stable)."""
        if self.tracer is None:
            raise ValueError("session created without trace=True")
        return to_jsonl(self.tracer.export())


# ----------------------------------------------------------------------
# Module-level verbs and conveniences (one-shot sessions).
# ----------------------------------------------------------------------
def execute(
    spec,
    *,
    profile: bool = False,
    workers: Optional[int] = None,
    out_dir: Optional[Union[str, Path]] = None,
    backend: Optional[str] = None,
    timing=None,
    **kwargs,
):
    """Execute a spec in a fresh one-shot session; the second verb.

    The spec's ``trace`` flag decides whether the session traces, so
    ``execute(spec)`` of a ``trace=True`` spec is byte-identical to
    ``Session(trace=True).execute(spec)`` -- including the exported
    event stream."""
    spec = _coerce_spec(spec)
    session = Session(trace=bool(getattr(spec, "trace", False)),
                      profile=profile)
    return session.execute(
        spec,
        workers=workers,
        out_dir=out_dir,
        backend=backend,
        timing=timing,
        **kwargs,
    )


def __getattr__(name: str):
    """Re-export the pool controls (:func:`repro.perf.pool.warm_pool`,
    :func:`repro.perf.pool.shutdown_pool`) lazily: importing
    :mod:`repro.perf` loads the batch kernel, which a plain
    ``import repro`` should not pay for."""
    if name in ("shutdown_pool", "warm_pool"):
        from repro.perf import pool

        return getattr(pool, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
