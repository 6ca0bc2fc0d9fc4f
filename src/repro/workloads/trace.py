"""Memory-reference traces: records, containers, and text-file I/O.

The paper laments that "experiments based on real multiprocessor shared
memory address traces" were not yet available; the reproduction therefore
runs on synthetic traces (:mod:`repro.workloads.synthetic`,
:mod:`repro.workloads.patterns`) but keeps a plain text format so real
traces can be dropped in:

    # comment lines start with '#'
    <unit> <R|W> <hex-or-dec byte address>

one record per line, e.g. ``cpu0 R 0x1f40``.
"""

from __future__ import annotations

import dataclasses
import enum
import io
import operator
from pathlib import Path
from typing import Iterable, Iterator, Optional, Union

__all__ = ["Op", "ReferenceRecord", "Trace"]

_UNIT = operator.attrgetter("unit")


class Op(enum.Enum):
    """A processor memory operation."""

    READ = "R"
    WRITE = "W"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclasses.dataclass(frozen=True)
class ReferenceRecord:
    """One memory reference by one processor/board."""

    unit: str
    op: Op
    address: int

    def to_line(self) -> str:
        return f"{self.unit} {self.op.value} 0x{self.address:x}"

    @classmethod
    def from_line(cls, line: str) -> "ReferenceRecord":
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"malformed trace record: {line!r}")
        unit, op_text, addr_text = parts
        try:
            op = Op(op_text.upper())
        except ValueError:
            raise ValueError(f"unknown op {op_text!r} in: {line!r}") from None
        address = int(addr_text, 0)
        if address < 0:
            raise ValueError(f"negative address in: {line!r}")
        return cls(unit, op, address)


class Trace:
    """An ordered sequence of references, with simple introspection.

    The distinct units are kept in first-appearance order as records
    arrive, so :meth:`units` never scans.  A producer that already
    knows that order passes it as ``units``."""

    def __init__(
        self,
        records: Iterable[ReferenceRecord] = (),
        units: Optional[Iterable[str]] = None,
    ) -> None:
        self.records: list[ReferenceRecord] = list(records)
        self._units = dict.fromkeys(
            map(_UNIT, self.records) if units is None else units
        )

    def append(self, record: ReferenceRecord) -> None:
        self.records.append(record)
        if record.unit not in self._units:
            self._units[record.unit] = None

    def __iter__(self) -> Iterator[ReferenceRecord]:
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.records)

    def __getitem__(self, index):
        return self.records[index]

    # ------------------------------------------------------------------
    def units(self) -> list[str]:
        """Distinct units in first-appearance order."""
        return list(self._units)

    def write_fraction(self) -> float:
        if not self.records:
            return 0.0
        writes = sum(1 for r in self.records if r.op is Op.WRITE)
        return writes / len(self.records)

    def addresses(self) -> set[int]:
        return {r.address for r in self.records}

    # ------------------------------------------------------------------
    def dump(self, stream: io.TextIOBase) -> None:
        for record in self.records:
            stream.write(record.to_line() + "\n")

    def save(self, path: Union[str, Path]) -> None:
        with open(path, "w", encoding="ascii") as handle:
            self.dump(handle)

    @classmethod
    def parse(cls, stream: Iterable[str]) -> "Trace":
        trace = cls()
        for raw in stream:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            trace.append(ReferenceRecord.from_line(line))
        return trace

    @classmethod
    def load(cls, path: Union[str, Path]) -> "Trace":
        with open(path, "r", encoding="ascii") as handle:
            return cls.parse(handle)
