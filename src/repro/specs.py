"""Frozen, picklable, canonically-hashable experiment specifications.

The plan/execute split: a *spec* is a pure value describing an
experiment -- protocol spec strings, geometry, workload recipe or
embedded trace, seeds, discipline, observability flags -- with no
behaviour of its own.  ``repro.api.plan(...)`` builds one;
``repro.api.execute(spec)`` runs it.  Because a spec is frozen and
hashable it can key caches, travel to pool workers, and land in JSON:

* :meth:`~ExperimentSpec.canonical` -- the canonical spec string: JSON
  with sorted keys and compact separators over :meth:`to_dict`.  Two
  equal specs canonicalize to identical bytes in any process on any
  platform (nothing here depends on hash seeds, dict order, or id()).
* :meth:`~ExperimentSpec.content_hash` -- sha256 of the canonical
  string; the content-addressed memoization key ``repro.serve`` caches
  results under.
* :func:`spec_from_dict` / :func:`spec_from_canonical` -- the inverse:
  every spec round-trips through its canonical string.

Spec classes
------------
:class:`ExperimentSpec`   one system over one workload (``repro run``)
:class:`VerifySpec`       the model-checking matrix, by suite name
:class:`FuzzSpec`         a fuzz campaign, or one embedded scenario
:class:`BatchSpec`        a struct-of-arrays batch-kernel sweep
:class:`ShootoutSpec`     the Arch85-style protocol comparison

Execution details that cannot change the *result* -- worker counts,
backend selection, output directories, per-request deadlines -- are
deliberately not spec fields: they ride on ``execute(...)`` so that one
canonical hash covers every way of computing the same answer.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Optional, Union

__all__ = [
    "SPEC_VERSION",
    "GeometrySpec",
    "WorkloadSpec",
    "ExperimentSpec",
    "VerifySpec",
    "FuzzSpec",
    "BatchSpec",
    "ShootoutSpec",
    "SPEC_KINDS",
    "canonical_json",
    "spec_from_dict",
    "spec_from_canonical",
]

#: Bumped when the canonical encoding changes shape; part of every
#: canonical string, so stale service caches can never alias new specs.
SPEC_VERSION = 1


def canonical_json(payload) -> str:
    """Canonical JSON: sorted keys, compact separators, ASCII-safe.

    The byte-stable encoding used for spec strings, content hashes, and
    the serve tier's memoized result payloads."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    )


class _SpecBase:
    """Shared canonicalization for every spec dataclass."""

    kind: str = ""

    def to_dict(self) -> dict:  # pragma: no cover - overridden
        raise NotImplementedError

    def canonical(self) -> str:
        """The canonical spec string (deterministic bytes).

        Computed lazily once and cached on the (frozen) instance, like
        :meth:`content_hash`'s digest: the serve tier canonicalizes a
        first-seen request and then hashes it, and the string never
        changes after construction."""
        cached = self.__dict__.get("_canonical")
        if cached is None:
            cached = canonical_json(self.to_dict())
            object.__setattr__(self, "_canonical", cached)
        return cached

    def content_hash(self) -> str:
        """sha256 hex digest of :meth:`canonical` -- the memoization key.

        Computed lazily once and cached on the (frozen) instance: the
        serve tier hashes every request on its admission hot path, and
        a spec's canonical string never changes after construction.
        The caches ride in ``__dict__`` (specs are not slotted), so they
        survive pickling harmlessly and never participate in
        ``__eq__``/``to_dict``."""
        cached = self.__dict__.get("_content_hash")
        if cached is None:
            cached = hashlib.sha256(
                self.canonical().encode("ascii")
            ).hexdigest()
            object.__setattr__(self, "_content_hash", cached)
        return cached

    def batch_key(self) -> Optional[str]:
        """The coalescing compatibility fingerprint, or ``None``.

        Two specs with equal non-``None`` keys may be merged into one
        SoA batch-kernel population and de-multiplexed row-by-row
        (:func:`repro.perf.batch.run_batch_specs`).  The base spec is
        never batch-lowerable; :class:`BatchSpec` overrides this with
        the real lowering check."""
        return None


@dataclasses.dataclass(frozen=True)
class GeometrySpec(_SpecBase):
    """Per-board cache geometry (defaults mirror
    :class:`repro.system.system.BoardSpec`)."""

    kind = "geometry"

    num_sets: int = 64
    associativity: int = 2
    line_size: int = 32
    replacement: str = "lru"

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "v": SPEC_VERSION,
            "num_sets": self.num_sets,
            "associativity": self.associativity,
            "line_size": self.line_size,
            "replacement": self.replacement,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GeometrySpec":
        return cls(
            num_sets=int(data.get("num_sets", 64)),
            associativity=int(data.get("associativity", 2)),
            line_size=int(data.get("line_size", 32)),
            replacement=str(data.get("replacement", "lru")),
        )

    def board_kwargs(self) -> dict:
        """The BoardSpec constructor kwargs this geometry carries."""
        return {
            "num_sets": self.num_sets,
            "associativity": self.associativity,
            "line_size": self.line_size,
            "replacement": self.replacement,
        }


@dataclasses.dataclass(frozen=True)
class WorkloadSpec(_SpecBase):
    """A hashable workload: a synthetic recipe, or a literal trace.

    ``source="synthetic"`` regenerates the reference stream from
    ``(processors, references, seed, p_shared, p_write)`` -- byte-identical
    in every process.  ``source="literal"`` embeds the records outright
    (frozen :class:`~repro.workloads.trace.ReferenceRecord` values,
    encoded as ``[unit, "R"|"W", address]`` lists), so arbitrary traces --
    file loads, :func:`repro.workloads.ping_pong`, hand-built streams --
    are just as hashable."""

    kind = "workload"

    source: str = "synthetic"
    processors: int = 4
    references: int = 2000
    seed: int = 7
    p_shared: float = 0.3
    p_write: float = 0.3
    records: tuple = ()

    def __post_init__(self) -> None:
        if self.source not in ("synthetic", "literal"):
            raise ValueError(f"unknown workload source {self.source!r}")

    @classmethod
    def literal(cls, trace) -> "WorkloadSpec":
        """Embed an existing :class:`repro.workloads.trace.Trace`.

        The trace's own records are frozen values, so they are shared,
        not copied.  Its unit order rides along outside the fields (like
        the cached canonical string), so :meth:`build` need not scan."""
        spec = cls(source="literal", records=tuple(trace))
        object.__setattr__(spec, "_units", tuple(trace.units()))
        return spec

    def build(self):
        """Materialize the :class:`~repro.workloads.trace.Trace`."""
        from repro.workloads.trace import Trace

        if self.source == "literal":
            return Trace(self.records, units=self.__dict__.get("_units"))
        from repro.workloads.synthetic import SyntheticConfig, SyntheticWorkload

        config = SyntheticConfig(
            processors=self.processors,
            p_shared=self.p_shared,
            p_write=self.p_write,
        )
        return SyntheticWorkload(config, seed=self.seed).trace(self.references)

    def to_dict(self) -> dict:
        data = {"kind": self.kind, "v": SPEC_VERSION, "source": self.source}
        if self.source == "literal":
            data["records"] = [
                [record.unit, record.op.value, record.address]
                for record in self.records
            ]
        else:
            data.update(
                processors=self.processors,
                references=self.references,
                seed=self.seed,
                p_shared=self.p_shared,
                p_write=self.p_write,
            )
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "WorkloadSpec":
        if data.get("source") == "literal":
            return cls(
                source="literal",
                records=tuple(
                    _literal_record(item) for item in data.get("records", ())
                ),
            )
        return cls(
            source="synthetic",
            processors=int(data.get("processors", 4)),
            references=int(data.get("references", 2000)),
            seed=int(data.get("seed", 7)),
            p_shared=float(data.get("p_shared", 0.3)),
            p_write=float(data.get("p_write", 0.3)),
        )


def _literal_record(item):
    """One ``[unit, op, address]`` payload entry -> a ReferenceRecord.

    Held to the trace-file rules (:meth:`ReferenceRecord.from_line`):
    exactly three fields, op ``"R"`` or ``"W"``, a non-negative integer
    address.  Payloads arrive from outside the program (the serve
    protocol), so a bad record fails here, at parse time."""
    from repro.workloads.trace import Op, ReferenceRecord

    if not isinstance(item, (list, tuple)) or len(item) != 3:
        raise ValueError(
            f"literal record must be [unit, op, address], got {item!r}"
        )
    unit, op, address = item
    if op not in ("R", "W"):
        raise ValueError(f"literal record op must be 'R' or 'W': {item!r}")
    if isinstance(address, bool) or not isinstance(address, int):
        raise ValueError(f"literal record address must be an int: {item!r}")
    if address < 0:
        raise ValueError(f"negative address in literal record: {item!r}")
    return ReferenceRecord(str(unit), Op(op), address)


@dataclasses.dataclass(frozen=True)
class ExperimentSpec(_SpecBase):
    """One (possibly heterogeneous) system over one workload.

    ``protocols`` gives each board its own registry spec string
    (``None`` replicates ``protocol`` per workload unit), ``workload``
    and ``geometry`` are nested specs, and ``trace``/``metrics`` are the
    observability flags the executed result (and the serve payload)
    honours."""

    kind = "experiment"

    protocol: str = "moesi"
    protocols: Optional[tuple] = None
    workload: WorkloadSpec = dataclasses.field(default_factory=WorkloadSpec)
    geometry: GeometrySpec = dataclasses.field(default_factory=GeometrySpec)
    timed: bool = False
    check: bool = True
    discipline: Optional[str] = None
    label: Optional[str] = None
    trace: bool = False
    metrics: bool = True

    def __post_init__(self) -> None:
        if self.protocols is not None and not isinstance(
            self.protocols, tuple
        ):
            object.__setattr__(self, "protocols", tuple(self.protocols))

    def run_label(self) -> str:
        if self.label:
            return self.label
        if self.protocols:
            return "+".join(self.protocols)
        return self.protocol

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "v": SPEC_VERSION,
            "protocol": self.protocol,
            "protocols": (
                list(self.protocols) if self.protocols is not None else None
            ),
            "workload": self.workload.to_dict(),
            "geometry": self.geometry.to_dict(),
            "timed": self.timed,
            "check": self.check,
            "discipline": self.discipline,
            "label": self.label,
            "trace": self.trace,
            "metrics": self.metrics,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentSpec":
        protocols = data.get("protocols")
        return cls(
            protocol=str(data.get("protocol", "moesi")),
            protocols=tuple(protocols) if protocols is not None else None,
            workload=WorkloadSpec.from_dict(data.get("workload", {})),
            geometry=GeometrySpec.from_dict(data.get("geometry", {})),
            timed=bool(data.get("timed", False)),
            check=bool(data.get("check", True)),
            discipline=data.get("discipline"),
            label=data.get("label"),
            trace=bool(data.get("trace", False)),
            metrics=bool(data.get("metrics", True)),
        )


@dataclasses.dataclass(frozen=True)
class VerifySpec(_SpecBase):
    """The model-checking matrix, addressed by suite name.

    Suites are the named case factories in
    :data:`repro.verify.mixes.SUITES`; naming them (rather than
    embedding case objects) keeps the spec canonical and lets workers
    rebuild every case, including the unpicklable mutants."""

    kind = "verify"

    suites: tuple = (
        "class-members",
        "homogeneous-foreign",
        "incompatible",
        "mutants",
    )
    trace: bool = False
    metrics: bool = True

    def __post_init__(self) -> None:
        if not isinstance(self.suites, tuple):
            object.__setattr__(self, "suites", tuple(self.suites))

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "v": SPEC_VERSION,
            "suites": list(self.suites),
            "trace": self.trace,
            "metrics": self.metrics,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "VerifySpec":
        suites = data.get("suites")
        kwargs = {} if suites is None else {"suites": tuple(suites)}
        return cls(
            trace=bool(data.get("trace", False)),
            metrics=bool(data.get("metrics", True)),
            **kwargs,
        )


@dataclasses.dataclass(frozen=True)
class FuzzSpec(_SpecBase):
    """A differential fuzz campaign -- or one embedded scenario.

    ``scenario`` is a (frozen, hashable)
    :class:`repro.fuzz.scenario.ScenarioConfig`; ``None`` means the
    default config and hashes identically to it.  ``scenario_json`` --
    a canonical :meth:`repro.fuzz.scenario.Scenario.canonical` string --
    switches the spec from *campaign* to *single-scenario replay* (the
    Scenario <-> FuzzSpec round trip lives in
    :func:`repro.fuzz.runner.fuzz_spec_for_scenario`)."""

    kind = "fuzz"

    seeds: int = 200
    seed_base: int = 0
    #: A repro.fuzz.scenario.ScenarioConfig, or None for the default.
    scenario: Optional[object] = None
    shrink: bool = True
    #: Canonical Scenario JSON for single-scenario replay, or None.
    scenario_json: Optional[str] = None
    trace: bool = False
    metrics: bool = True

    def scenario_config(self):
        """The effective :class:`ScenarioConfig` (default when None)."""
        from repro.fuzz.scenario import ScenarioConfig

        return self.scenario if self.scenario is not None else ScenarioConfig()

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "v": SPEC_VERSION,
            "seeds": self.seeds,
            "seed_base": self.seed_base,
            "scenario": self.scenario_config().to_dict(),
            "shrink": self.shrink,
            "scenario_json": self.scenario_json,
            "trace": self.trace,
            "metrics": self.metrics,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FuzzSpec":
        from repro.fuzz.scenario import ScenarioConfig

        scenario = data.get("scenario")
        if scenario is not None:
            scenario = ScenarioConfig.from_dict(scenario)
            # The canonical form always spells the config out; fold the
            # default back to None so round trips reproduce the spec.
            if scenario == ScenarioConfig():
                scenario = None
        return cls(
            seeds=int(data.get("seeds", 200)),
            seed_base=int(data.get("seed_base", 0)),
            scenario=scenario,
            shrink=bool(data.get("shrink", True)),
            scenario_json=data.get("scenario_json"),
            trace=bool(data.get("trace", False)),
            metrics=bool(data.get("metrics", True)),
        )


@dataclasses.dataclass(frozen=True)
class BatchSpec(_SpecBase):
    """A struct-of-arrays batch-kernel population sweep.

    ``protocols`` is resolved explicitly at plan time (no "whatever the
    registry holds today" hashes); backend and worker count are
    execution details -- the kernel is byte-identical across backends,
    so they stay out of the content hash."""

    kind = "batch"

    protocols: tuple = ("moesi",)
    rows: int = 64
    events_per_row: int = 100
    seed: int = 0
    n_units: int = 2
    geometry: tuple = (4, 2, 32, 8)
    metrics: bool = True

    def __post_init__(self) -> None:
        if not isinstance(self.protocols, tuple):
            object.__setattr__(self, "protocols", tuple(self.protocols))
        if not isinstance(self.geometry, tuple):
            object.__setattr__(self, "geometry", tuple(self.geometry))

    def batch_key(self) -> Optional[str]:
        """Compatibility fingerprint for continuous batching.

        Non-``None`` iff every protocol batch-lowers (per
        :func:`repro.perf.batch.lower_units` -- seeded-random /
        round-robin selectors do not).  Geometry, rows, seeds, and
        workloads deliberately stay *out* of the key: the kernel pads
        heterogeneous geometries to a population envelope, so any mix of
        lowerable sweeps with the same board size coalesces.  ``n_units``
        stays in because it fixes the per-row board mix columns."""
        if not self.protocols:
            return None
        try:
            from repro.perf.batch import lower_units

            lower_units((str(spec) for spec in self.protocols))
        except Exception:
            return None
        return canonical_json(
            {"kind": self.kind, "v": SPEC_VERSION, "n_units": self.n_units}
        )

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "v": SPEC_VERSION,
            "protocols": list(self.protocols),
            "rows": self.rows,
            "events_per_row": self.events_per_row,
            "seed": self.seed,
            "n_units": self.n_units,
            "geometry": list(self.geometry),
            "metrics": self.metrics,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BatchSpec":
        return cls(
            protocols=tuple(data.get("protocols", ("moesi",))),
            rows=int(data.get("rows", 64)),
            events_per_row=int(data.get("events_per_row", 100)),
            seed=int(data.get("seed", 0)),
            n_units=int(data.get("n_units", 2)),
            geometry=tuple(data.get("geometry", (4, 2, 32, 8))),
            metrics=bool(data.get("metrics", True)),
        )


@dataclasses.dataclass(frozen=True)
class ShootoutSpec(_SpecBase):
    """The [Arch85]-style protocol comparison, one row per protocol.

    With ``workload=None`` the synthetic comparison trace is regenerated
    from ``(references, seed)`` exactly as
    :func:`repro.analysis.compare.protocol_comparison` does."""

    kind = "shootout"

    protocols: tuple = ()
    references: int = 4000
    seed: int = 7
    timed: bool = True
    workload: Optional[WorkloadSpec] = None
    trace: bool = False
    metrics: bool = True

    def __post_init__(self) -> None:
        if not isinstance(self.protocols, tuple):
            object.__setattr__(self, "protocols", tuple(self.protocols))

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "v": SPEC_VERSION,
            "protocols": list(self.protocols),
            "references": self.references,
            "seed": self.seed,
            "timed": self.timed,
            "workload": (
                self.workload.to_dict() if self.workload is not None else None
            ),
            "trace": self.trace,
            "metrics": self.metrics,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ShootoutSpec":
        workload = data.get("workload")
        return cls(
            protocols=tuple(data.get("protocols", ())),
            references=int(data.get("references", 4000)),
            seed=int(data.get("seed", 7)),
            timed=bool(data.get("timed", True)),
            workload=(
                WorkloadSpec.from_dict(workload)
                if workload is not None
                else None
            ),
            trace=bool(data.get("trace", False)),
            metrics=bool(data.get("metrics", True)),
        )


#: Spec kinds addressable from canonical dicts and the serve protocol.
SPEC_KINDS: dict = {
    "experiment": ExperimentSpec,
    "verify": VerifySpec,
    "fuzz": FuzzSpec,
    "batch": BatchSpec,
    "shootout": ShootoutSpec,
}

AnySpec = Union[ExperimentSpec, VerifySpec, FuzzSpec, BatchSpec, ShootoutSpec]


def spec_from_dict(data: dict) -> AnySpec:
    """Rebuild a spec from its :meth:`to_dict` payload (``kind`` tagged)."""
    if not isinstance(data, dict):
        raise ValueError(f"spec payload must be a dict, got {type(data).__name__}")
    kind = data.get("kind")
    cls = SPEC_KINDS.get(kind)
    if cls is None:
        known = ", ".join(sorted(SPEC_KINDS))
        raise ValueError(f"unknown spec kind {kind!r}; known: {known}")
    return cls.from_dict(data)


def spec_from_canonical(text: str) -> AnySpec:
    """Rebuild a spec from its canonical string."""
    return spec_from_dict(json.loads(text))
