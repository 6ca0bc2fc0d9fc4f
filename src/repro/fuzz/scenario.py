"""Seeded scenario generation: protocol mixes, geometry, event schedules.

A :class:`Scenario` is a *pure value*: a tuple of protocol spec strings,
a cache :class:`Geometry`, and a schedule of :class:`FuzzEvent` entries.
Everything -- including the dynamic per-access action choices the paper's
section 3.4 licenses ("select an action at each instant ... using a random
number generator") -- is reconstructed from spec strings and integer
seeds, so a scenario serializes to JSON and replays byte-for-byte in any
process.

Spec strings
------------
* any :mod:`repro.protocols.registry` name (``"moesi"``, ``"berkeley"``,
  ``"illinois"``, ...);
* ``"full-class:<seed>"`` -- the entire relaxation closure of Tables 1-2
  with a seeded uniform-random choice at every instant (the paper's
  extreme case, applied to the *full* class);
* ``"moesi-random:<seed>"`` -- the literal Table 1/2 cells under a seeded
  random selection policy;
* ``"bug:<name>"`` -- a deliberately broken protocol from
  :data:`INJECTABLE_BUGS`, used to prove the fuzzer has teeth.

Mix discipline: class members mix freely; the BS-adapted foreign
protocols (Write-Once, Illinois, Firefly, and the out-of-class MESIF
fixture) are only generated in homogeneous scenarios, mirroring the
paper's warning that naive mixes need further definition (and the E4
matrix, which demonstrates exactly those holes).

Every scenario also carries a bus arbitration ``discipline`` (drawn
from :data:`repro.bus.arbiter.ARBITER_DISCIPLINES`): the synchronous
oracle replay ignores it, while the arbitrated replay in
:func:`repro.fuzz.runner.run_scenario_arbitrated` uses it to drive the
same schedule through the timed, arbitrated bus.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Callable, Optional

from repro.core.actions import SnoopAction
from repro.core.events import BusEvent
from repro.core.policy import RandomPolicy
from repro.core.protocol import Protocol
from repro.core.signals import SnoopResponse
from repro.core.states import LineState
from repro.protocols.illinois import IllinoisProtocol
from repro.protocols.registry import make_protocol
from repro.verify.explorer import (
    ClassTransitionQuery,
    FullClassProtocol,
    ProtocolTransitionQuery,
    TransitionQuery,
)

__all__ = [
    "Geometry",
    "FuzzEvent",
    "Scenario",
    "ScenarioConfig",
    "InjectableBug",
    "INJECTABLE_BUGS",
    "resolve_spec",
    "reference_query",
    "generate_scenario",
]

#: Foreign (BS-adapted) protocols: homogeneous scenarios only.  MESIF is
#: the out-of-class negative fixture -- it runs (and is fuzzed) like the
#: other adapted protocols, against its *own* table as reference.
FOREIGN_SPECS = ("write-once", "illinois", "firefly", "mesif")

#: Event kinds a schedule may contain (the paper's local events 1-4; PASS
#: and FLUSH double as the replacement traffic of a real system).
EVENT_KINDS = ("read", "write", "flush", "pass")


# ---------------------------------------------------------------------------
# Injectable bugs: single-cell protocol breakages the campaign must catch.
# ---------------------------------------------------------------------------
class _IllinoisSilentIM(IllinoisProtocol):
    """Illinois with the invalidation on a snooped read-for-modify (column
    6, the IM path) dropped: the S copy silently survives another cache's
    write -- the injected bug of the acceptance criteria."""

    name = "Illinois(bug:silent-im)"
    snoop_transitions = dict(IllinoisProtocol.snoop_transitions)
    snoop_transitions[
        (LineState.SHAREABLE, BusEvent.CACHE_READ_FOR_MODIFY)
    ] = SnoopAction(LineState.SHAREABLE, SnoopResponse(ch=True))


@dataclasses.dataclass(frozen=True)
class InjectableBug:
    """A named, deliberately out-of-spec protocol for fuzzer self-tests.

    ``base`` names the correct protocol the bug masquerades as: scenario
    generation pools the bug with ``base``-compatible partners, and the
    differential oracle checks it against ``base``'s canonical table.
    """

    name: str
    base: str
    factory: Callable[[], Protocol]
    note: str = ""


def _mutant_factory(cls_name: str) -> Callable[[], Protocol]:
    def factory() -> Protocol:
        from repro.verify import mutations

        return getattr(mutations, cls_name)()

    return factory


INJECTABLE_BUGS: dict[str, InjectableBug] = {
    bug.name: bug
    for bug in (
        InjectableBug(
            "illinois-silent-im",
            base="illinois",
            factory=_IllinoisSilentIM,
            note="Illinois mapping mutated to skip invalidation on IM",
        ),
        InjectableBug(
            "moesi-silent-shared-write",
            base="moesi",
            factory=_mutant_factory("SilentSharedWriteMutant"),
            note="writes to S take M without any bus transaction",
        ),
        InjectableBug(
            "moesi-drop-ownership",
            base="moesi",
            factory=_mutant_factory("DropOwnershipMutant"),
            note="M lines evicted silently, no write-back",
        ),
        InjectableBug(
            "adaptive-retain-no-connect",
            base="moesi-adaptive-threshold",
            factory=_mutant_factory("AdaptiveRetainWithoutConnectMutant"),
            note="adaptive hybrid claims CH on a broadcast write but "
            "never connects (no SL): its copy goes stale",
        ),
        InjectableBug(
            "mesif-stale-forward",
            base="mesif",
            factory=_mutant_factory("MesifStaleForwardMutant"),
            note="MESIF forwards dirty data cache-to-cache without the "
            "memory push",
        ),
    )
}


# ---------------------------------------------------------------------------
# Scenario values.
# ---------------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class Geometry:
    """Cache geometry shared by every board (uniform line size, paper 5.1)."""

    num_sets: int = 1
    associativity: int = 1
    line_size: int = 32
    #: Distinct line addresses the schedule touches; with a 1x1 cache they
    #: alias one frame, so evictions and write-backs join the tested space.
    lines: int = 2

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "Geometry":
        return cls(**data)


@dataclasses.dataclass(frozen=True)
class FuzzEvent:
    """One scheduled local event: ``unit`` (board index) performs ``kind``
    on line address ``line``."""

    unit: int
    kind: str
    line: int

    def __str__(self) -> str:
        return f"u{self.unit}.{self.kind}[L{self.line}]"

    def to_list(self) -> list:
        return [self.unit, self.kind, self.line]

    @classmethod
    def from_list(cls, data: list) -> "FuzzEvent":
        return cls(int(data[0]), str(data[1]), int(data[2]))


@dataclasses.dataclass(frozen=True)
class Scenario:
    """A complete, self-contained fuzz case (JSON-serializable)."""

    seed: int
    units: tuple[str, ...]
    geometry: Geometry
    events: tuple[FuzzEvent, ...]
    #: Bus arbitration discipline for the timed, arbitrated replay
    #: (ignored by the synchronous differential oracle).
    discipline: str = "fcfs"

    @property
    def label(self) -> str:
        return f"fuzz[{self.seed}] " + "+".join(self.units)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "units": list(self.units),
            "geometry": self.geometry.to_dict(),
            "events": [e.to_list() for e in self.events],
            "discipline": self.discipline,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        return cls(
            seed=int(data["seed"]),
            units=tuple(data["units"]),
            geometry=Geometry.from_dict(data["geometry"]),
            events=tuple(FuzzEvent.from_list(e) for e in data["events"]),
            discipline=str(data.get("discipline", "fcfs")),
        )

    # -- canonical round trip (the spec-string contract) ---------------
    def canonical(self) -> str:
        """Canonical JSON (sorted keys, compact separators): two equal
        scenarios canonicalize to identical bytes in any process, so the
        string can ride inside a :class:`repro.specs.FuzzSpec` and key
        the serve tier's memoization cache."""
        from repro.specs import canonical_json

        return canonical_json(self.to_dict())

    @classmethod
    def from_canonical(cls, text: str) -> "Scenario":
        import json

        return cls.from_dict(json.loads(text))

    def content_hash(self) -> str:
        """sha256 hex digest of :meth:`canonical`."""
        import hashlib

        return hashlib.sha256(self.canonical().encode("ascii")).hexdigest()


@dataclasses.dataclass(frozen=True)
class ScenarioConfig:
    """Generation knobs.  Plain primitives only: configs cross process
    boundaries (pickled to pool workers) and land in repro files."""

    min_units: int = 2
    max_units: int = 4
    min_events: int = 6
    max_events: int = 20
    #: Probability of a homogeneous foreign-protocol scenario.
    p_foreign: float = 0.25
    #: Event-kind weights (read fills the remainder).
    p_write: float = 0.45
    p_flush: float = 0.08
    p_pass: float = 0.05
    #: Class-member pool; ``full-class`` / ``moesi-random`` entries get a
    #: per-unit choice seed appended at generation time.
    class_pool: tuple[str, ...] = (
        "moesi",
        "moesi-invalidate",
        "moesi-update",
        "berkeley",
        "dragon",
        "write-through",
        "write-through-alloc",
        "non-caching",
        "full-class",
        "moesi-random",
        "moesi-adaptive-threshold",
        "moesi-adaptive-competitive",
    )
    foreign_pool: tuple[str, ...] = FOREIGN_SPECS
    #: Arbitration disciplines a scenario may draw (spec strings for
    #: :func:`repro.bus.arbiter.arbiter_by_name`).
    disciplines: tuple[str, ...] = ("fcfs", "priority", "round-robin")
    #: Name from :data:`INJECTABLE_BUGS`: every generated scenario then
    #: carries the buggy board among correct partners (fuzzer self-test).
    inject: Optional[str] = None

    def to_dict(self) -> dict:
        data = dataclasses.asdict(self)
        data["class_pool"] = list(self.class_pool)
        data["foreign_pool"] = list(self.foreign_pool)
        data["disciplines"] = list(self.disciplines)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        data = dict(data)
        data["class_pool"] = tuple(data.get("class_pool", cls.class_pool))
        data["foreign_pool"] = tuple(data.get("foreign_pool", cls.foreign_pool))
        data["disciplines"] = tuple(data.get("disciplines", cls.disciplines))
        return cls(**data)


# ---------------------------------------------------------------------------
# Spec resolution.
# ---------------------------------------------------------------------------
def resolve_spec(spec: str) -> Protocol:
    """Instantiate a protocol from a scenario spec string."""
    if spec.startswith("bug:"):
        name = spec[len("bug:"):]
        try:
            return INJECTABLE_BUGS[name].factory()
        except KeyError:
            known = ", ".join(sorted(INJECTABLE_BUGS))
            raise ValueError(
                f"unknown injectable bug {name!r}; known: {known}"
            ) from None
    if spec.startswith("full-class:"):
        seed = int(spec.split(":", 1)[1])
        return FullClassProtocol(
            RandomPolicy(seed=seed), name=f"FullClass(random:{seed})"
        )
    if spec.startswith("moesi-random:"):
        seed = int(spec.split(":", 1)[1])
        from repro.protocols.moesi import MoesiProtocol

        return MoesiProtocol(
            RandomPolicy(seed=seed), name=f"MOESI(random:{seed})"
        )
    return make_protocol(spec)


#: Spec base (``moesi``, ``full-class``, ``illinois``, ...) -> its
#: reference.  References are immutable tables, so every unit of every
#: scenario in this process shares one per base, and with it one memo of
#: per-cell verdicts (:meth:`TransitionQuery.permits`).
_REFERENCES: dict[str, TransitionQuery] = {}


def reference_query(spec: str) -> TransitionQuery:
    """The canonical table a unit's transitions are diffed against.

    The reference is always built from the *unmutated* base: an injected
    bug is checked against the table of the protocol it claims to be.
    Class members are checked against the full class closure (any
    permitted action at any instant is in-spec); the adapted foreign
    protocols against their own paper table.  One shared reference per
    base is built on first use.
    """
    if spec.startswith("bug:"):
        name = spec[len("bug:"):]
        return reference_query(INJECTABLE_BUGS[name].base)
    base = spec.split(":", 1)[0]
    reference = _REFERENCES.get(base)
    if reference is None:
        if base in FOREIGN_SPECS:
            reference = ProtocolTransitionQuery(base)
        elif base == "full-class":
            # The full-class protocol may take *any* kind's permitted
            # action (the paper's universal claim): unfiltered reference.
            reference = ClassTransitionQuery(None)
        else:
            reference = ClassTransitionQuery(resolve_spec(spec).kind)
        _REFERENCES[base] = reference
    return reference


# ---------------------------------------------------------------------------
# Generation.
# ---------------------------------------------------------------------------
def _pick_units(rng: random.Random, config: ScenarioConfig) -> list[str]:
    n = rng.randint(config.min_units, config.max_units)
    if config.inject is not None:
        bug = INJECTABLE_BUGS[config.inject]
        units = [bug.base] * n
        units[rng.randrange(n)] = f"bug:{config.inject}"
        return units
    if config.foreign_pool and rng.random() < config.p_foreign:
        return [rng.choice(config.foreign_pool)] * n
    units = []
    for _ in range(n):
        spec = rng.choice(config.class_pool)
        if spec in ("full-class", "moesi-random"):
            spec = f"{spec}:{rng.randrange(1 << 16)}"
        units.append(spec)
    return units


def _pick_geometry(rng: random.Random) -> Geometry:
    return Geometry(
        num_sets=rng.choice((1, 1, 2, 4)),
        associativity=rng.choice((1, 1, 2)),
        line_size=rng.choice((16, 32, 64)),
        lines=rng.randint(1, 4),
    )


def _pick_kind(rng: random.Random, config: ScenarioConfig) -> str:
    roll = rng.random()
    if roll < config.p_write:
        return "write"
    if roll < config.p_write + config.p_flush:
        return "flush"
    if roll < config.p_write + config.p_flush + config.p_pass:
        return "pass"
    return "read"


def generate_scenario(
    seed: int, config: Optional[ScenarioConfig] = None
) -> Scenario:
    """Deterministically derive the scenario for ``seed``.

    Same (seed, config) -> identical scenario, in any process, on any
    platform: the generator draws only from ``random.Random(seed)``.
    """
    config = config or ScenarioConfig()
    rng = random.Random(seed)
    units = _pick_units(rng, config)
    geometry = _pick_geometry(rng)
    count = rng.randint(config.min_events, config.max_events)
    events = tuple(
        FuzzEvent(
            unit=rng.randrange(len(units)),
            kind=_pick_kind(rng, config),
            line=rng.randrange(geometry.lines),
        )
        for _ in range(count)
    )
    # Drawn LAST so pre-existing seeds keep their units/geometry/events.
    discipline = rng.choice(config.disciplines)
    return Scenario(seed=seed, units=tuple(units), geometry=geometry,
                    events=events, discipline=discipline)
