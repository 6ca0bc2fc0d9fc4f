"""Struct-of-arrays batch simulation kernel over the lowered tables.

One object-graph :class:`repro.system.system.System` steps a few tens of
thousands of transitions per second; population-scale studies (parameter
sweeps, fuzz campaigns, the service-discipline comparisons the ROADMAP
cites) need orders of magnitude more.  This module runs N *independent*
systems as parallel integer arrays -- one row per system, flat columns
for per-line state codes, tags, values, and replacement ranks -- and
steps every row through the integer records of
:func:`repro.core.transitions.lower_batch_tables`.

Two backends, identical in output:

* ``"numpy"`` -- time-major stepping where each step **plans** every
  row's event in temporaries (lookup, local record, snoop aggregation
  as OR/sum reductions, data phase, allocation and LRU-rank movement)
  and then **commits** the plan column-wise for every row it fully
  covers: silent hits, misses with line fills, evictions (silent and
  write-back), flush/pass pushes, and non-caching bus traffic.  Rows
  whose event needs semantics the planner does not model -- busy-abort
  retries, read-then-write chaining, crash taxonomy -- are *diverted*
  untouched to the scalar interpreter *on the same arrays*, so the
  vector path can never diverge.  The per-step diverted fraction is
  reported as ``BatchResult.scalar_events``.
* ``"python"`` -- the scalar interpreter over ``array('q')`` columns,
  dependency-free.

numpy (the optional ``perf`` extra) is imported the first time a
numpy-backend population runs or a population of at least
:data:`NUMPY_MIN_ROWS` rows picks its backend by default
(:func:`_numpy`); the scalar interpreter -- and the compiled explorer
that steps through it -- never loads it.

Populations may be geometry-heterogeneous: ``BatchPopulation.geometries``
gives each row its own set/way/linesize shape, padded to the population
envelope so one kernel invocation covers a mixed-geometry sweep (padded
ways hold a rank sentinel and stay invalid, so they can never match or
win a replacement choice).

The scalar interpreter replicates the object engine's semantics exactly
-- pending snoop slots keyed by bus serial, abort-push nesting, the raw
``BC`` broadcast rule of the data phase, version-counter ordering, LRU
rank movement, and the fuzz runner's skip (``IllegalTransitionError``)
versus crash (``AssertionError``/``RuntimeError``/``BusLivelockError``)
taxonomy.  The object engine stays the oracle: :func:`replay_row` runs
any row through a real :class:`System` and returns the same snapshot
shape, and :func:`verify_rows` diffs the two byte-for-byte.
"""

from __future__ import annotations

import dataclasses
import functools
import random
import time
from array import array
from typing import Optional, Sequence

from repro.core.transitions import (
    BatchTables,
    bus_event_code_table,
    lower_batch_tables,
)
from repro.perf.pool import parallel_map, resolve_workers
from repro.protocols.registry import make_protocol
from repro.specs import BatchSpec

#: numpy once :func:`_numpy` has loaded it, ``None`` when it is absent
#: (setting ``None`` forces the python backend), ``False`` before the
#: first attempt.
_np = False

__all__ = [
    "BatchGeometry",
    "BatchPopulation",
    "BatchResult",
    "NotBatchableError",
    "EVENT_KIND_CODES",
    "NUMPY_MIN_ROWS",
    "available_backends",
    "batch_protocol_sweep",
    "batchable_specs",
    "default_backend",
    "envelope_geometry",
    "lower_units",
    "make_synthetic_population",
    "run_population",
    "run_batch_specs",
    "replay_row",
    "verify_rows",
]

#: Event kind codes used in population schedules (matches the fuzz
#: scenario kinds; flush/pass double as replacement traffic).
EVENT_KIND_CODES = {"read": 0, "write": 1, "flush": 2, "pass": 3}

_K_READ, _K_WRITE, _K_FLUSH, _K_PASS = 0, 1, 2, 3
_INVALID = 4  # LineState.INVALID.code
_STATE_LETTERS = "MOESI"
_MAX_RETRIES = 8  # Futurebus.max_retries


def _numpy():
    """numpy, imported on first use; ``None`` when it is not installed."""
    global _np
    if _np is False:
        try:  # the [perf] optional extra; the kernel runs without it
            import numpy as _np
        except ImportError:  # pragma: no cover - the without-numpy CI leg
            _np = None
    return _np


#: Rows from which :func:`default_backend` picks numpy.  numpy pays a
#: fixed per-run cost that only wide populations amortize.  Measured on
#: a 2-vCPU x86-64 host (CPython 3.11, numpy 2.4) with merged 4-row x
#: 25-event moesi specs through :func:`run_batch_specs`, median ms
#: python/numpy: 4 rows 1.4/9.2, 32 rows 8.2/13.8, 64 rows 16.2/16.1,
#: 128 rows 30.3/19.0.
NUMPY_MIN_ROWS = 64


def available_backends() -> tuple[str, ...]:
    """Backends usable in this process, numpy first when it imports.

    The order is not "fastest first" for every population: the default
    is picked by row count (:func:`default_backend`), python below
    :data:`NUMPY_MIN_ROWS` rows and the first of these at or above it.
    Merged populations and standalone ones therefore run on different
    backends; the kernel is byte-identical across backends, so only the
    rows' ``backend`` field shows it (the serve tier strips it)."""
    return ("numpy", "python") if _numpy() is not None else ("python",)


def default_backend(rows: Optional[int] = None) -> str:
    """The backend :func:`run_population` picks for a population of
    ``rows`` rows when none is given: python below
    :data:`NUMPY_MIN_ROWS`, otherwise numpy when it imports.  ``None``
    asks for a wide population.  A narrow population never imports
    numpy."""
    if rows is not None and rows < NUMPY_MIN_ROWS:
        return "python"
    return available_backends()[0]


class NotBatchableError(ValueError):
    """A population names a protocol the lowering cannot handle (seeded
    random / round-robin selection); callers fall back to the object
    engine for those rows."""


@dataclasses.dataclass(frozen=True)
class BatchGeometry:
    """Cache geometry shared by every row of a population."""

    num_sets: int = 4
    associativity: int = 2
    line_size: int = 32
    lines: int = 8  # distinct line addresses the schedules touch


@dataclasses.dataclass
class BatchPopulation:
    """N independent systems sharing one board mix.

    ``events`` holds one schedule per row: a sequence of
    ``(unit_index, kind_code, line_address)`` triples (kind codes per
    :data:`EVENT_KIND_CODES`; line addresses in line units, matching the
    fuzz scenarios' ``line * line_size`` byte addressing).

    ``geometry`` is the population envelope (the kernel's array strides).
    A homogeneous population leaves ``geometries`` as ``None``; a padded
    heterogeneous one supplies one :class:`BatchGeometry` per row, each
    dimension no larger than the envelope's.
    """

    units: tuple[str, ...]
    geometry: BatchGeometry
    events: list
    row_ids: tuple = ()
    geometries: Optional[tuple] = None

    @property
    def rows(self) -> int:
        return len(self.events)

    def geometry_for(self, row: int) -> BatchGeometry:
        """The geometry row ``row`` actually simulates (its envelope
        slice; equal to ``geometry`` for homogeneous populations)."""
        if self.geometries is None:
            return self.geometry
        return self.geometries[row]


def envelope_geometry(geometries: Sequence[BatchGeometry]) -> BatchGeometry:
    """Smallest :class:`BatchGeometry` covering every given one -- the
    padded strides for a heterogeneous population."""
    return BatchGeometry(
        num_sets=max(g.num_sets for g in geometries),
        associativity=max(g.associativity for g in geometries),
        line_size=max(g.line_size for g in geometries),
        lines=max(g.lines for g in geometries),
    )


@dataclasses.dataclass
class BatchResult:
    """Outcome of one kernel run over a population."""

    backend: str
    rows: int
    events: int  # scheduled events attempted (crashed rows stop early)
    transitions: int  # successful table consults, local + snoop
    snapshots: list  # one dict per row (see _Kernel.snapshot_row)
    #: Events the numpy backend diverted to the scalar interpreter
    #: (busy-abort retries, read-then-write chains, crash paths); the
    #: python backend counts every event here.
    scalar_events: int = 0
    #: Events the numpy backend committed column-wise.
    vector_events: int = 0
    #: Per-row accounting (events attempted / successful table consults
    #: for each row) -- what lets a coalesced population de-multiplex
    #: into per-spec reports without re-running anything.
    row_events: tuple = ()
    row_transitions: tuple = ()

    @property
    def scalar_residual(self) -> float:
        """Fraction of attempted events that fell through to the scalar
        interpreter -- the vectorization-coverage metric."""
        return self.scalar_events / self.events if self.events else 0.0


_LOWERED: dict[str, Optional[BatchTables]] = {}


def _lowered(spec: str) -> Optional[BatchTables]:
    """One registry spec's batch tables (``None`` when it cannot be
    lowered), probed from the protocol once per process."""
    if spec not in _LOWERED:
        _LOWERED[spec] = lower_batch_tables(make_protocol(spec))
    return _LOWERED[spec]


def lower_units(units: Sequence[str]) -> list:
    """Lower each registry spec to :class:`BatchTables`; raises
    :class:`NotBatchableError` naming the first spec that cannot be."""
    tables = []
    for spec in units:
        lowered = _lowered(spec)
        if lowered is None:
            raise NotBatchableError(
                f"protocol {spec!r} selects actions statefully and cannot "
                "be lowered to batch tables; use the object engine"
            )
        tables.append(lowered)
    return tables


def batchable_specs() -> tuple[str, ...]:
    """Registry names whose protocols lower to batch tables, in registry
    order (the stateful selectors -- seeded random, round-robin -- are
    excluded and stay on the object engine)."""
    from repro.protocols.registry import protocol_names

    return tuple(
        spec for spec in protocol_names() if _lowered(spec) is not None
    )


# ---------------------------------------------------------------------------
# Internal control flow: the fuzz runner's taxonomy as exceptions.
# ---------------------------------------------------------------------------
class _Illegal(Exception):
    """IllegalTransitionError equivalent: the event is skipped (partial
    effects persist, exactly like the object engine)."""


class _RowCrash(Exception):
    """AssertionError / RuntimeError / BusLivelockError equivalent: the
    row records ``(step, type_name)`` and stops."""

    def __init__(self, type_name: str) -> None:
        super().__init__(type_name)
        self.type_name = type_name


class _Kernel:
    """The struct-of-arrays interpreter (both backends).

    Flat layout: line slot ``(r, u, set, way)`` lives at index
    ``((r*U + u)*S + set)*W + way`` of ``st``/``tg``/``val``/``rk``;
    memory word ``(r, la)`` at ``r*L + la``.
    """

    def __init__(self, pop: BatchPopulation, tables, backend: str) -> None:
        g = pop.geometry
        self.pop = pop
        self.backend = backend
        self.S = g.num_sets  # array strides: the population envelope
        self.W = g.associativity
        self.L = g.lines
        self.U = len(pop.units)
        self.R = pop.rows
        self.tables = tables
        self.local_cells = [t.local for t in tables]
        self.snoop_cells = [t.snoop for t in tables]
        self.non_caching = [t.non_caching for t in tables]
        self.cached_units = [
            u for u in range(self.U) if not self.non_caching[u]
        ]
        #: Per master unit: the units that snoop its transactions.
        self.snoopers = [
            tuple(v for v in self.cached_units if v != u)
            for u in range(self.U)
        ]
        self.bus_code = bus_event_code_table()
        # Per-row simulated geometry (== the envelope when homogeneous).
        if pop.geometries is None:
            self.hetero = False
            self.S_r = [self.S] * self.R
            self.W_r = [self.W] * self.R
            self.L_r = [self.L] * self.R
        else:
            if len(pop.geometries) != self.R:
                raise ValueError(
                    f"geometries has {len(pop.geometries)} entries for "
                    f"{self.R} rows"
                )
            for row_g in pop.geometries:
                if (
                    row_g.num_sets > self.S
                    or row_g.associativity > self.W
                    or row_g.lines > self.L
                ):
                    raise ValueError(
                        f"row geometry {row_g} exceeds envelope {g}"
                    )
            self.S_r = [rg.num_sets for rg in pop.geometries]
            self.W_r = [rg.associativity for rg in pop.geometries]
            self.L_r = [rg.lines for rg in pop.geometries]
            self.hetero = (
                any(s != self.S for s in self.S_r)
                or any(w != self.W for w in self.W_r)
                or any(n != self.L for n in self.L_r)
            )
        n_slots = self.R * self.U * self.S * self.W
        n_words = self.R * self.L
        if self.hetero:
            # Padded ways carry the sentinel rank W (the envelope width):
            # strictly above any live rank, so a pad never looks recently
            # used and _touch's shift-up never moves it.
            rank_pattern = []
            for r in range(self.R):
                row_w = self.W_r[r]
                row_pat = [
                    w if w < row_w else self.W for w in range(self.W)
                ]
                rank_pattern.extend(row_pat * (self.U * self.S))
        else:
            rank_pattern = list(range(self.W)) * (
                n_slots // max(self.W, 1)
            )
        if backend == "numpy":
            np = _numpy()
            z = lambda n: np.zeros(n, dtype=np.int64)  # noqa: E731
            self.st = np.full(n_slots, _INVALID, dtype=np.int64)
            self.tg = z(n_slots)
            self.val = z(n_slots)
            self.rk = np.array(rank_pattern, dtype=np.int64)
            self.mem = z(n_words)
            self.lastv = z(n_words)
            self.vctr = z(self.R)
            self.serial = z(self.R)
            self.bus_txns = z(self.R)
            self.tr = z(self.R)
            max_events = max((len(e) for e in pop.events), default=0)
            self.tokens_buf = z((self.R, max(max_events, 1)))
            self.tok_n = z(self.R)
        else:
            self.st = array("q", [_INVALID]) * n_slots
            self.tg = array("q", [0]) * n_slots
            self.val = array("q", [0]) * n_slots
            self.rk = array("q", rank_pattern)
            self.mem = array("q", [0]) * n_words
            self.lastv = array("q", [0]) * n_words
            self.vctr = array("q", [0]) * self.R
            self.serial = array("q", [0]) * self.R
            self.bus_txns = array("q", [0]) * self.R
            self.tr = array("q", [0]) * self.R
            self.tokens = [[] for _ in range(self.R)]
        #: Per-row, per-unit pending snoop slot: ``(serial, idx, record)``.
        self.pend = [[None] * self.U for _ in range(self.R)]
        self.crash = [None] * self.R
        #: Aggregate of the per-row ``tr`` counters, folded after run().
        self.transitions = 0
        self.events_attempted = 0
        self.scalar_events = 0
        self.vector_events = 0
        if self.R == self.S == self.W == 1:
            self._lookup = self._lookup_one_slot
            self._install = self._install_one_slot

    # -- shared scalar helpers -----------------------------------------
    def _base(self, r: int, u: int, set_index: int) -> int:
        return ((r * self.U + u) * self.S + set_index) * self.W

    def _lookup(self, r: int, u: int, la: int) -> int:
        """Flat slot index of the first way holding a valid copy of
        ``la`` (the cache's scan order), -1 on a miss.  Padded ways stay
        INVALID forever, so scanning the envelope width is safe for
        heterogeneous rows."""
        row_s = self.S_r[r]
        base = ((r * self.U + u) * self.S + la % row_s) * self.W
        tag = la // row_s
        st, tg = self.st, self.tg
        for i in range(base, base + self.W):
            if tg[i] == tag and st[i] != _INVALID:
                return i
        return -1

    def _lookup_one_slot(self, r: int, u: int, la: int) -> int:
        """:meth:`_lookup` for one row of one-set, one-way caches (the
        compiled explorer's shape): unit ``u``'s only slot is index
        ``u``, and its tag is the line address."""
        return u if self.tg[u] == la and self.st[u] != _INVALID else -1

    def _touch(self, i: int) -> None:
        """LRU move-to-front of slot ``i``: ranks below its own shift up
        (none do when it already leads)."""
        rk = self.rk
        old = rk[i]
        if old == 0:
            return
        base = i - i % self.W
        for j in range(base, base + self.W):
            if rk[j] < old:
                rk[j] += 1
        rk[i] = 0

    def _emit_token(self, r: int, token) -> None:
        if self.backend == "numpy":
            self.tokens_buf[r, self.tok_n[r]] = token
            self.tok_n[r] += 1
        else:
            self.tokens[r].append(int(token))

    # -- the bus (Futurebus.execute + _data_phase) ---------------------
    def _abort_push(self, r: int, u: int, la: int, txn_serial: int) -> None:
        pend_row = self.pend[r]
        p = pend_row[u]
        if p is None or p[0] != txn_serial or not p[2][6]:
            # abort_push's asserts: pending must match and carry a push.
            raise _RowCrash("AssertionError")
        pend_row[u] = None
        rec = p[2]
        self._execute(r, u, la, rec[7], rec[8], rec[9], 2, self.val[p[1]])
        self.st[p[1]] = rec[1]  # next state resolved with CH unasserted

    def _execute(self, r, master_u, la, ca, im, bc, op, wire):
        """One bus transaction to completion; returns ``(value, agg_ch)``
        (``value`` only meaningful for ``op == READ``).

        Only holders answer the address phase: a snooper without a
        valid copy asserts nothing, consults no cell and leaves its
        pending slot alone, so the loop passes it by.  A holder's
        pending slot is set in the same round that reads it, so the
        data phase and finalize take its slot from ``held`` directly."""
        self.serial[r] += 1
        txn_serial = int(self.serial[r])
        bc_eff = 1 if (bc and im) else 0
        ev_code = self.bus_code[ca * 4 + im * 2 + bc_eff]
        lookup, snoop_cells = self._lookup, self.snoop_cells
        st, val, tr = self.st, self.val, self.tr
        pend_row = self.pend[r]
        retries = 0
        while True:
            held = []  # (unit, slot, record) per holder, attach order
            agg_ch = agg_bs = suppliers = 0
            for v in self.snoopers[master_u]:
                i = lookup(r, v, la)
                if i < 0:
                    continue
                rec = snoop_cells[v][st[i] * 6 + ev_code]
                if rec is None:
                    raise _RowCrash("ProtocolGapError")
                tr[r] += 1
                pend_row[v] = (txn_serial, i, rec)
                held.append((v, i, rec))
                agg_ch |= rec[2]
                agg_bs |= rec[5]
                if rec[3]:
                    suppliers += 1
                    supplier = i
            if not agg_bs:
                break
            if retries >= _MAX_RETRIES:
                raise _RowCrash("BusLivelockError")
            for v, _, rec in held:
                if not rec[5]:
                    pend_row[v] = None
            for v, _, rec in held:
                if rec[5]:
                    self._abort_push(r, v, la, txn_serial)
            retries += 1

        # Data phase (raw BC decides the broadcast branch, as on the bus).
        if suppliers > 1:
            raise _RowCrash("RuntimeError")
        value = None
        word = r * self.L + la
        if op == 1:  # READ
            value = val[supplier] if suppliers else self.mem[word]
        elif op == 2:  # WRITE
            connected = [i for _, i, rec in held if rec[4]]
            if bc or connected:
                self.mem[word] = wire
                for i in connected:
                    val[i] = wire
                if suppliers:
                    raise _RowCrash("RuntimeError")  # DI on broadcast
            elif suppliers:
                val[supplier] = wire  # owner captures; memory stale
            else:
                self.mem[word] = wire
        # op == 0: address-only, no data moves.

        for v, i, rec in held:  # finalize, attach order
            pend_row[v] = None
            st[i] = rec[0] if agg_ch else rec[1]
        self.bus_txns[r] += 1
        return value, agg_ch

    # -- local actions (CacheController) -------------------------------
    def _run_local_action(self, r, u, la, ev, rec, new_value, idx):
        """Run ``rec`` for event ``ev`` on line ``la``, which the caller
        found at slot ``idx`` (-1: not cached)."""
        ns_ch, ns_nch, ca, im, bc, op = rec
        if op == 3:
            return self._read_then_write(r, u, la, rec, new_value)
        if op == 0 and not ca and not im:  # silent
            if idx < 0:
                if ns_nch < _INVALID:
                    raise _RowCrash("AssertionError")
                return new_value if new_value is not None else 0
            if ns_nch < _INVALID:
                self.st[idx] = ns_nch
                if ev == 1:
                    self.val[idx] = new_value
            else:
                self.st[idx] = _INVALID
            return self.val[idx]
        wire = None
        if op == 2:
            if ev == 1:
                wire = new_value
            else:
                if idx < 0:  # PASS/FLUSH push needs a cached line
                    raise _RowCrash("AssertionError")
                wire = self.val[idx]
        value, agg_ch = self._execute(r, u, la, ca, im, bc, op, wire)
        resolved = ns_ch if agg_ch else ns_nch
        if ev == 1:
            token = new_value
        elif op == 1:
            if value is None:
                raise _RowCrash("AssertionError")
            token = value
        else:
            token = self.val[idx] if idx >= 0 else 0
        if resolved < _INVALID:
            if idx < 0:
                self._install(r, u, la, resolved, token)
            else:
                self.st[idx] = resolved
                self.val[idx] = token
        elif idx >= 0:
            self.st[idx] = _INVALID
        return token

    def _read_then_write(self, r, u, la, rec, new_value):
        ns_ch, ns_nch, ca, im, bc, _op = rec
        value, agg_ch = self._execute(r, u, la, ca, im, bc, 1, None)
        landed = ns_ch if agg_ch else ns_nch
        if value is None:
            raise _RowCrash("AssertionError")
        if landed < _INVALID:
            self._install(r, u, la, landed, value)
        wrec = self.local_cells[u][landed * 4 + 1]
        if wrec is None:
            raise _Illegal()  # propagates: the read's effects persist
        self.tr[r] += 1
        if wrec[5] == 3:
            raise _RowCrash("AssertionError")  # Read>Write may not chain
        return self._run_local_action(
            r, u, la, 1, wrec, new_value, self._lookup(r, u, la)
        )

    def _install(self, r, u, la, state_code, value):
        row_s = self.S_r[r]
        set_index = la % row_s
        base = ((r * self.U + u) * self.S + set_index) * self.W
        end = base + self.W_r[r]
        st, rk = self.st, self.rk
        i = -1
        for j in range(base, end):  # first invalid way wins (pads excluded)
            if st[j] == _INVALID:
                i = j
                break
        if i < 0:
            best = -1
            for j in range(base, end):  # else the LRU victim (max rank)
                if rk[j] > best:
                    best = rk[j]
                    i = j
            victim_la = int(self.tg[i]) * row_s + set_index
            self._evict(r, u, i, victim_la, self._lookup(r, u, victim_la))
        self.tg[i] = la // row_s
        st[i] = state_code
        self.val[i] = value
        self._touch(i)

    def _install_one_slot(self, r, u, la, state_code, value):
        """:meth:`_install` for one-set, one-way caches: slot ``u``, whose
        rank stays 0."""
        if self.st[u] != _INVALID:
            self._evict(r, u, u, int(self.tg[u]), u)
        self.tg[u] = la
        self.st[u] = state_code
        self.val[u] = value

    def _evict(self, r, u, i, la, idx):
        """Flush line ``la``: slot ``i``'s state selects the FLUSH
        action, which runs on ``idx``, the slot a lookup finds ``la``
        at."""
        rec = self.local_cells[u][self.st[i] * 4 + 3]
        if rec is None:
            raise _Illegal()  # propagates out of the whole event
        self.tr[r] += 1
        self._run_local_action(r, u, la, 3, rec, None, idx)

    # -- processor port -------------------------------------------------
    def _proc_read(self, r, u, la):
        i = self._lookup(r, u, la)
        if i >= 0:
            rec = self.local_cells[u][self.st[i] * 4]
            if rec is None:
                raise _Illegal()
            self.tr[r] += 1
            if rec[5] != 0 or rec[2] or rec[3]:  # hit must be silent
                raise _RowCrash("AssertionError")
            self.st[i] = rec[1]
            self._touch(i)
            return self.val[i]
        rec = self.local_cells[u][_INVALID * 4]
        if rec is None:
            raise _Illegal()
        self.tr[r] += 1
        return self._run_local_action(r, u, la, 0, rec, None, -1)

    def _proc_write(self, r, u, la, token):
        i = self._lookup(r, u, la)
        if i >= 0:
            rec = self.local_cells[u][self.st[i] * 4 + 1]
            if rec is None:
                raise _Illegal()
            self.tr[r] += 1
            self._run_local_action(r, u, la, 1, rec, token, i)
            # The object engine touches the lookup-time slot even if the
            # action moved the line; replicated as-is.
            self._touch(i)
            return
        rec = self.local_cells[u][_INVALID * 4 + 1]
        if rec is None:
            raise _Illegal()
        self.tr[r] += 1
        self._run_local_action(r, u, la, 1, rec, token, -1)

    def _nc_read(self, r, u, la):
        rec = self.local_cells[u][_INVALID * 4]
        if rec is None:
            raise _Illegal()
        self.tr[r] += 1
        # A non-caching master always issues a bus READ with the cell's
        # signals, whatever the cell's op says.
        value, _ = self._execute(r, u, la, rec[2], rec[3], rec[4], 1, None)
        if value is None:
            raise _RowCrash("AssertionError")
        return value

    def _nc_write(self, r, u, la, token):
        rec = self.local_cells[u][_INVALID * 4 + 1]
        if rec is None:
            raise _Illegal()
        self.tr[r] += 1
        self._execute(r, u, la, rec[2], rec[3], rec[4], 2, token)

    def _flush_line(self, r, u, la):
        i = self._lookup(r, u, la)
        if i >= 0:
            self._evict(r, u, i, la, i)

    def _clean_line(self, r, u, la):
        i = self._lookup(r, u, la)
        if i < 0:
            return
        rec = self.local_cells[u][self.st[i] * 4 + 2]  # PASS
        if rec is None:
            return  # clean states have no PASS entry: caught internally
        self.tr[r] += 1
        self._run_local_action(r, u, la, 2, rec, None, i)

    # -- one scheduled event --------------------------------------------
    def run_event(self, r, unit, kind, la):
        """One scheduled event without the skip rule: an inapplicable
        event raises ``_Illegal`` (partial effects persist), a crash
        ``_RowCrash``.  Returns the token a read observes, else None.
        The compiled explorer (:mod:`repro.verify.compiled`) steps its
        one-row population through here."""
        if kind == _K_READ:
            if self.non_caching[unit]:
                return self._nc_read(r, unit, la)
            return self._proc_read(r, unit, la)
        if kind == _K_WRITE:
            # System.write allocates the version token *before* the
            # controller runs; a skipped event still burns a token.
            self.vctr[r] += 1
            token = int(self.vctr[r])
            if self.non_caching[unit]:
                self._nc_write(r, unit, la, token)
            else:
                self._proc_write(r, unit, la, token)
            self.lastv[r * self.L + la] = token
        elif self.non_caching[unit]:
            pass  # replacement traffic skips cacheless boards
        elif kind == _K_FLUSH:
            self._flush_line(r, unit, la)
        else:
            self._clean_line(r, unit, la)
        return None

    def step_event(self, r, unit, kind, la):
        try:
            token = self.run_event(r, unit, kind, la)
        except _Illegal:
            return  # inapplicable event: skip, partial effects persist
        if kind == _K_READ:
            self._emit_token(r, token)

    # -- drivers ---------------------------------------------------------
    def run(self) -> None:
        if self.backend == "numpy":
            self._run_numpy()
            self.transitions = int(self.tr.sum())
        else:
            self._run_python()
            self.transitions = sum(self.tr)

    def row_events(self) -> tuple:
        """Scheduled events each row attempted (crashed rows stop at the
        crash step; partial steps are impossible)."""
        return tuple(
            self.crash[r][0] + 1
            if self.crash[r] is not None
            else len(self.pop.events[r])
            for r in range(self.R)
        )

    def _run_python(self) -> None:
        for r in range(self.R):
            for step, (unit, kind, la) in enumerate(self.pop.events[r]):
                self.events_attempted += 1
                try:
                    self.step_event(r, unit, kind, la)
                except _RowCrash as exc:
                    self.crash[r] = (step, exc.type_name)
                    break
        self.scalar_events = self.events_attempted

    def _np_local_columns(self):
        """Flatten the local tables into per-(unit, state, event) columns
        plus a 4-way classification: 0 illegal, 1 silent, 2 bus, 3
        read-then-write.  Non-caching cells always classify as bus (the
        master ignores the cell's op and issues the event's kind)."""
        np = _np
        n = self.U * 20
        cols = {
            name: np.zeros(n, dtype=np.int64)
            for name in ("cls", "ns_ch", "ns_nch", "ca", "im", "bc", "op")
        }
        for u in range(self.U):
            table = self.tables[u]
            for cell in range(20):
                rec = table.local[cell]
                if rec is None:
                    continue
                i = u * 20 + cell
                ns_ch, ns_nch, ca, im, bc, op = rec
                cols["ns_ch"][i] = ns_ch
                cols["ns_nch"][i] = ns_nch
                cols["ca"][i] = ca
                cols["im"][i] = im
                cols["bc"][i] = bc
                cols["op"][i] = op
                if op == 3:
                    cols["cls"][i] = 3
                elif op == 0 and not ca and not im:
                    cols["cls"][i] = 2 if table.non_caching else 1
                else:
                    cols["cls"][i] = 2
        return cols

    def _np_snoop_columns(self):
        """Flatten the snoop tables into per-(unit, state, bus-event)
        signal columns (non-caching units never snoop; left illegal)."""
        np = _np
        n = self.U * 30
        leg = np.zeros(n, dtype=bool)
        ns_ch = np.zeros(n, dtype=np.int64)
        ns_nch = np.zeros(n, dtype=np.int64)
        flags = {
            name: np.zeros(n, dtype=bool) for name in ("ch", "di", "sl", "bs")
        }
        for u in self.cached_units:
            table = self.tables[u]
            for cell in range(30):
                rec = table.snoop[cell]
                if rec is None:
                    continue
                i = u * 30 + cell
                leg[i] = True
                ns_ch[i] = rec[0]
                ns_nch[i] = rec[1]
                flags["ch"][i] = bool(rec[2])
                flags["di"][i] = bool(rec[3])
                flags["sl"][i] = bool(rec[4])
                flags["bs"][i] = bool(rec[5])
        return leg, ns_ch, ns_nch, flags

    def _run_numpy(self) -> None:
        np = _np
        R, U = self.R, self.U
        Sm, Wm, Lm = self.S, self.W, self.L
        max_events = max((len(e) for e in self.pop.events), default=0)
        if max_events == 0:
            return
        n_ev = np.array(
            [len(e) for e in self.pop.events], dtype=np.int64
        )
        evs = np.zeros((R, max_events, 3), dtype=np.int64)
        for r, schedule in enumerate(self.pop.events):
            if schedule:
                evs[r, : len(schedule)] = schedule
        # Time-major event columns: one contiguous slice per step.
        evu = np.ascontiguousarray(evs[:, :, 0].T)
        evk = np.ascontiguousarray(evs[:, :, 1].T)
        evl = np.ascontiguousarray(evs[:, :, 2].T)
        del evs

        local = self._np_local_columns()
        l_cls, l_op = local["cls"], local["op"]
        l_ns_ch, l_ns_nch = local["ns_ch"], local["ns_nch"]
        l_ca, l_im, l_bc = local["ca"], local["im"], local["bc"]
        s_leg, s_ns_ch, s_ns_nch, s_flags = self._np_snoop_columns()
        s_ch, s_di = s_flags["ch"], s_flags["di"]
        s_sl, s_bs = s_flags["sl"], s_flags["bs"]

        # Local-event codes per schedule kind: read/write map through,
        # flush consults the FLUSH column (3), pass the PASS column (2).
        ev2local = np.array([0, 1, 3, 2], dtype=np.int64)
        unit_cached = np.array(
            [not nc for nc in self.non_caching], dtype=bool
        )
        buscode = np.array(self.bus_code, dtype=np.int64)
        hetero = self.hetero
        S_arr = np.array(self.S_r, dtype=np.int64)
        W_arr = np.array(self.W_r, dtype=np.int64)
        w_range = np.arange(Wm, dtype=np.int64)
        st, tg, val, rk = self.st, self.tg, self.val, self.rk
        mem, lastv, vctr = self.mem, self.lastv, self.vctr
        # One cache set per matrix row: flat index // Wm.
        st_mat = st.reshape(-1, Wm)
        tg_mat = tg.reshape(-1, Wm)
        rk_mat = rk.reshape(-1, Wm)
        tokens_flat = self.tokens_buf.reshape(-1)
        max_tok = self.tokens_buf.shape[1]
        tok_n = self.tok_n
        crash = self.crash
        snoop_units = self.cached_units
        alive = np.ones(R, dtype=bool)
        row_index = np.arange(R, dtype=np.int64)
        rowoff = row_index * (U * Sm)

        def snoop_plan(base_s, s_stride, master_u, la_s, evb_s):
            """Address-phase plan for one transaction across a row
            subset.  Returns the rows that must divert (illegal snoop
            cell, busy-abort, >1 DI), the OR/sum aggregates, and the
            per-snooper pending slots for the commit phase."""
            size = la_s.shape[0]
            divert = np.zeros(size, dtype=bool)
            agg_ch = np.zeros(size, dtype=bool)
            di_cnt = np.zeros(size, dtype=np.int64)
            di_idx = np.zeros(size, dtype=np.int64)
            sl_any = np.zeros(size, dtype=bool)
            hits = np.zeros(size, dtype=np.int64)
            pend = []
            tag_s = la_s // s_stride
            set_s = la_s - tag_s * s_stride
            for v in snoop_units:
                vmask = master_u != v
                if not vmask.any():
                    continue
                srow_v = base_s + v * Sm + set_s
                match_v = (tg_mat[srow_v] == tag_s[:, None]) & (
                    st_mat[srow_v] != _INVALID
                )
                hit_v = match_v.any(axis=1) & vmask
                sidx_v = srow_v * Wm + np.argmax(match_v, axis=1)
                cell = (v * 5 + st[sidx_v]) * 6 + evb_s
                live = hit_v & s_leg[cell]
                divert |= hit_v & ~s_leg[cell]
                divert |= live & s_bs[cell]
                agg_ch |= live & s_ch[cell]
                di_v = live & s_di[cell]
                di_cnt += di_v
                di_idx = np.where(di_v, sidx_v, di_idx)
                sl_any |= live & s_sl[cell]
                hits += hit_v
                pend.append(
                    (hit_v, sidx_v, s_ns_ch[cell], s_ns_nch[cell],
                     live & s_sl[cell])
                )
            divert |= di_cnt > 1
            return divert, agg_ch, di_cnt > 0, di_idx, sl_any, hits, pend

        # Step-invariant address arithmetic, hoisted out of the loop.
        s_stride_all = S_arr[None, :] if hetero else Sm
        tag_all = evl // s_stride_all
        set_all = evl - tag_all * s_stride_all
        srow_all = rowoff[None, :] + evu * Sm + set_all
        ev2_all = ev2local[evk]
        kla_all = evk <= 1

        for t in range(max_events):
            act = alive & (t < n_ev)
            nact = int(np.count_nonzero(act))
            if nact == 0:
                break
            self.events_attempted += nact
            if nact == R:
                rows = row_index
                u, k, la = evu[t], evk[t], evl[t]
                rbase = rowoff
                tag, set_index = tag_all[t], set_all[t]
                srow = srow_all[t]
                ev2, kla = ev2_all[t], kla_all[t]
            else:
                rows = row_index[act]
                u, k, la = evu[t][act], evk[t][act], evl[t][act]
                rbase = rowoff[act]
                tag, set_index = tag_all[t][act], set_all[t][act]
                srow = srow_all[t][act]
                ev2, kla = ev2_all[t][act], kla_all[t][act]
            stv = st_mat[srow]
            match = (tg_mat[srow] == tag[:, None]) & (stv != _INVALID)
            hit = match.any(axis=1)
            way = np.argmax(match, axis=1)
            hidx = srow * Wm + way
            cstate = np.where(hit, st[hidx], _INVALID)
            idx3 = (u * 5 + cstate) * 4 + ev2
            # A valid slot implies a caching unit, so ``hit`` alone
            # stands in for ``cached & hit`` in the consult rule.
            consult = kla | hit
            cls = np.where(consult, l_cls[idx3], 0)
            fastm = (cls == 1) & hit & kla
            all_fast = bool(fastm.all())

            # -- silent read/write hits ---------------------------------
            if all_fast:
                fr, fk, fidx = rows, k, hidx
                fsrow, fi3, fla = srow, idx3, la
                n_fast = nact
            else:
                fsel = np.nonzero(fastm)[0]
                n_fast = fsel.size
                fr, fk, fidx = rows[fsel], k[fsel], hidx[fsel]
                fsrow, fi3 = srow[fsel], idx3[fsel]
                fla = la[fsel]
            if n_fast:
                ns = l_ns_nch[fi3]
                self.tr[fr] += 1  # one silent consult per row this step
                st[fidx] = ns
                ranks = rk_mat[fsrow]
                old = rk[fidx]
                ranks += ranks < old[:, None]
                rk_mat[fsrow] = ranks
                rk[fidx] = 0
                rm = fk == 0
                if rm.any():
                    rr = fr[rm]
                    tokens_flat[rr * max_tok + tok_n[rr]] = val[fidx[rm]]
                    tok_n[rr] += 1
                wm = ~rm
                if wm.any():
                    wr = fr[wm]
                    widx = fidx[wm]
                    vctr[wr] += 1
                    token = vctr[wr]
                    keep = ns[wm] != _INVALID
                    if keep.all():
                        val[widx] = token
                    else:
                        val[widx[keep]] = token[keep]
                    lastv[wr * Lm + fla[wm]] = token
            if all_fast:
                self.vector_events += nact
                continue

            silent = cls == 1
            flushm = silent & ~kla  # consult w/o kla implies a hit
            busm = (cls == 2) & ~((k == 0) & hit)
            # Pre-commit diverts: read-then-write chains, silent cells
            # on a miss (assert), and non-silent cells on a read hit
            # (the controller crashes; the planner commits nothing).
            scalar_mask = (
                (cls == 3)
                | (silent & kla & ~hit)
                | ((k == 0) & hit & (cls == 2))
            )
            # Skipped (illegal-cell) writes still burn a version token:
            # the port allocates it before the controller runs.
            burn = np.nonzero((cls == 0) & (k == 1))[0]
            if burn.size:
                vctr[rows[burn]] += 1

            # -- silent flush/pass hits (state move only, no touch) -----
            csel = np.nonzero(flushm)[0]
            if csel.size:
                self.tr[rows[csel]] += 1
                st[hidx[csel]] = l_ns_nch[idx3[csel]]

            # -- bus transactions: plan, then commit or divert ----------
            bsel = np.nonzero(busm)[0]
            if bsel.size:
                m = bsel.size
                bu, bk, bla = u[bsel], k[bsel], la[bsel]
                brows = rows[bsel]
                bhit, bhidx = hit[bsel], hidx[bsel]
                bcached = unit_cached[bu]
                btag, bset = tag[bsel], set_index[bsel]
                bsrow = srow[bsel]
                bev2 = ev2[bsel]
                b_stride = S_arr[brows] if hetero else Sm
                b_width = W_arr[brows] if hetero else Wm
                bi3 = idx3[bsel]
                ca, im, bc = l_ca[bi3], l_im[bi3], l_bc[bi3]
                opx = np.where(bcached, l_op[bi3], bk + 1)
                ns_ch, ns_nch = l_ns_ch[bi3], l_ns_nch[bi3]
                bdiv = np.zeros(m, dtype=bool)
                # System.write burns the version token before the
                # controller runs; plan it here, commit it at the end.
                new_value = np.where(bk == 1, vctr[brows] + 1, 0)
                is_w = opx == 2
                is_r = opx == 1
                wire = np.where(is_w & (bev2 == 1), new_value, 0)
                push = is_w & (bev2 != 1)
                if push.any():
                    wire = np.where(push & bhit, val[bhidx], wire)
                    bdiv |= push & ~bhit  # push needs a cached line
                raw_evb = buscode[ca * 4 + im * 2 + (bc & im)]
                bdiv |= raw_evb < 0
                evb = np.maximum(raw_evb, 0)
                sdiv, agg_ch, di_any, di_idx, sl_any, s_hits, pend1 = \
                    snoop_plan(rbase[bsel], b_stride, bu, bla, evb)
                bdiv |= sdiv
                word = brows * Lm + bla
                value = (
                    np.where(di_any, val[di_idx], mem[word])
                    if is_r.any()
                    else np.zeros(m, dtype=np.int64)
                )
                bcast = is_w & ((bc == 1) | sl_any)
                bdiv |= bcast & di_any  # DI on broadcast: RuntimeError
                resolved = np.where(agg_ch, ns_ch, ns_nch)
                token = np.where(
                    bev2 == 1,
                    new_value,
                    np.where(
                        is_r, value, np.where(bhit, val[bhidx], 0)
                    ),
                )

                # Allocation plan: first invalid way, else the LRU
                # victim -- whose line is provably a *different* line
                # than ``bla`` (it missed), so the eviction transaction
                # can be planned from pre-commit state.
                need_install = bcached & ~bhit & (resolved < _INVALID)
                way_fin = np.zeros(m, dtype=np.int64)
                esel = None
                if need_install.any():
                    inv = stv[bsel] == _INVALID
                    if hetero:
                        inv &= w_range[None, :] < b_width[:, None]
                    has_inv = inv.any(axis=1)
                    way_fin = np.argmax(inv, axis=1)
                    ev_rows = need_install & ~has_inv
                    if ev_rows.any():
                        esel = np.nonzero(ev_rows)[0]
                        rkv = rk_mat[bsrow[esel]]
                        if hetero:
                            rkv = np.where(
                                w_range[None, :] < b_width[esel][:, None],
                                rkv,
                                -1,
                            )
                        way_v = np.argmax(rkv, axis=1)
                        way_fin[esel] = way_v
                        vidx = bsrow[esel] * Wm + way_v
                        v_st = st[vidx]
                        e_stride = b_stride[esel] if hetero else Sm
                        v_la = tg[vidx] * e_stride + bset[esel]
                        fi3 = (bu[esel] * 5 + v_st) * 4 + 3  # FLUSH cell
                        fcls = l_cls[fi3]
                        fop = l_op[fi3]
                        # Illegal flush cells raise _Illegal *after* the
                        # main transaction committed; read-then-write and
                        # read-lowered flushes stay scalar territory.
                        ediv = (
                            (fcls == 0)
                            | (fcls == 3)
                            | ((fcls == 2) & (fop != 2) & (fop != 0))
                        )
                        e_sil = fcls == 1
                        e_bus = (fcls == 2) & ~ediv
                        f_ca, f_im, f_bc = l_ca[fi3], l_im[fi3], l_bc[fi3]
                        raw2 = buscode[f_ca * 4 + f_im * 2 + (f_bc & f_im)]
                        ediv |= e_bus & (raw2 < 0)
                        evb2 = np.maximum(raw2, 0)
                        div2, agg2, di_any2, di_idx2, sl_any2, hits2, \
                            pend2 = snoop_plan(
                                rbase[bsel][esel], e_stride, bu[esel],
                                v_la, evb2,
                            )
                        ediv |= e_bus & div2
                        e_bus &= ~ediv
                        is_w2 = fop == 2
                        wire2 = val[vidx]
                        bcast2 = is_w2 & ((f_bc == 1) | sl_any2)
                        ediv |= e_bus & bcast2 & di_any2
                        e_bus &= ~ediv
                        word2 = brows[esel] * Lm + v_la
                        bdiv[esel] |= ediv

                ok = ~bdiv
                oksel = np.nonzero(ok)[0]
                if oksel.size:
                    # One local consult plus one snoop consult per hit,
                    # credited to each transaction's own row (rows are
                    # unique within a step, so the fancy += is exact).
                    self.tr[brows[oksel]] += 1 + s_hits[oksel]
                    okr = brows[oksel]
                    self.serial[okr] += 1
                    self.bus_txns[okr] += 1
                    # Data phase (raw BC decides the broadcast branch).
                    mw = ok & is_w & (bcast | ~di_any)
                    sel = np.nonzero(mw)[0]
                    if sel.size:
                        mem[word[sel]] = wire[sel]
                    dcap = ok & is_w & ~bcast & di_any
                    sel = np.nonzero(dcap)[0]
                    if sel.size:
                        val[di_idx[sel]] = wire[sel]
                    slw = ok & is_w & bcast
                    if slw.any():
                        for _hit_v, sidx_v, _nsc, _nsn, sl_v in pend1:
                            sel = np.nonzero(slw & sl_v)[0]
                            if sel.size:
                                val[sidx_v[sel]] = wire[sel]
                    # Snooper finalize (CH-resolved next states).
                    for hit_v, sidx_v, nsc_v, nsn_v, _sl_v in pend1:
                        sel = np.nonzero(ok & hit_v)[0]
                        if sel.size:
                            st[sidx_v[sel]] = np.where(
                                agg_ch[sel], nsc_v[sel], nsn_v[sel]
                            )
                    # Eviction transaction (the victim write-back).
                    if esel is not None:
                        eok = ok[esel]
                        if eok.any():
                            self.tr[brows[esel][eok]] += 1  # FLUSH consults
                        b2 = eok & e_bus
                        if b2.any():
                            self.tr[brows[esel][b2]] += hits2[b2]
                            r2 = brows[esel[b2]]
                            self.serial[r2] += 1
                            self.bus_txns[r2] += 1
                            mw2 = b2 & is_w2 & (bcast2 | ~di_any2)
                            sel = np.nonzero(mw2)[0]
                            if sel.size:
                                mem[word2[sel]] = wire2[sel]
                            dcap2 = b2 & is_w2 & ~bcast2 & di_any2
                            sel = np.nonzero(dcap2)[0]
                            if sel.size:
                                val[di_idx2[sel]] = wire2[sel]
                            slw2 = b2 & is_w2 & bcast2
                            if slw2.any():
                                for _h, sidx_v, _nsc, _nsn, sl_v in pend2:
                                    sel = np.nonzero(slw2 & sl_v)[0]
                                    if sel.size:
                                        val[sidx_v[sel]] = wire2[sel]
                            for hit_v, sidx_v, nsc_v, nsn_v, _s in pend2:
                                sel = np.nonzero(b2 & hit_v)[0]
                                if sel.size:
                                    st[sidx_v[sel]] = np.where(
                                        agg2[sel], nsc_v[sel], nsn_v[sel]
                                    )
                    # Master finalize: hits move in place...
                    stay = resolved < _INVALID
                    sel = np.nonzero(ok & bhit & stay)[0]
                    if sel.size:
                        st[bhidx[sel]] = resolved[sel]
                        val[bhidx[sel]] = token[sel]
                    sel = np.nonzero(ok & bhit & ~stay)[0]
                    if sel.size:
                        st[bhidx[sel]] = _INVALID
                    # ...misses fill the planned way.
                    inst = ok & need_install
                    isel = np.nonzero(inst)[0]
                    if isel.size:
                        iidx = bsrow[isel] * Wm + way_fin[isel]
                        tg[iidx] = btag[isel]
                        st[iidx] = resolved[isel]
                        val[iidx] = token[isel]
                    # LRU touches: installs at the filled way, write
                    # hits at the lookup-time way (the object engine
                    # touches those coordinates even if the line moved).
                    tmask = inst | (ok & (bk == 1) & bhit)
                    tsel = np.nonzero(tmask)[0]
                    if tsel.size:
                        tway = np.where(
                            need_install[tsel], way_fin[tsel], way[bsel][tsel]
                        )
                        tsrow = bsrow[tsel]
                        tidx = tsrow * Wm + tway
                        ranks = rk_mat[tsrow]
                        old = rk[tidx]
                        ranks += ranks < old[:, None]
                        rk_mat[tsrow] = ranks
                        rk[tidx] = 0
                    # Port-side effects: read tokens, write versions.
                    sel = np.nonzero(ok & (bk == 0))[0]
                    if sel.size:
                        rr = brows[sel]
                        tokens_flat[rr * max_tok + tok_n[rr]] = token[sel]
                        tok_n[rr] += 1
                    sel = np.nonzero(ok & (bk == 1))[0]
                    if sel.size:
                        wr = brows[sel]
                        vctr[wr] += 1
                        lastv[wr * Lm + bla[sel]] = new_value[sel]
                if bdiv.any():
                    scalar_mask[bsel[np.nonzero(bdiv)[0]]] = True

            # -- diverted rows: unmodified, replayed exactly scalar -----
            ssel = np.nonzero(scalar_mask)[0]
            self.scalar_events += ssel.size
            self.vector_events += nact - ssel.size
            for i in ssel:
                r = int(rows[i])
                try:
                    self.step_event(r, int(u[i]), int(k[i]), int(la[i]))
                except _RowCrash as exc:
                    crash[r] = (t, exc.type_name)
                    alive[r] = False

    # -- snapshots -------------------------------------------------------
    def snapshot_row(self, r: int) -> dict:
        row_s, row_w, row_l = self.S_r[r], self.W_r[r], self.L_r[r]
        caches = []
        for u in range(self.U):
            if self.non_caching[u]:
                caches.append(())
                continue
            lines = []
            for set_index in range(row_s):
                base = self._base(r, u, set_index)
                for w in range(row_w):
                    i = base + w
                    if self.st[i] != _INVALID:
                        la = int(self.tg[i]) * row_s + set_index
                        lines.append(
                            (
                                la,
                                _STATE_LETTERS[int(self.st[i])],
                                int(self.val[i]),
                            )
                        )
            lines.sort()
            caches.append(tuple(lines))
        if self.backend == "numpy":
            tokens = [
                int(x) for x in self.tokens_buf[r, : int(self.tok_n[r])]
            ]
        else:
            tokens = list(self.tokens[r])
        word = r * self.L
        return {
            "tokens": tokens,
            "caches": tuple(caches),
            "memory": tuple(
                int(self.mem[word + a]) for a in range(row_l)
            ),
            "version_counter": int(self.vctr[r]),
            "last_version": tuple(
                int(self.lastv[word + a]) for a in range(row_l)
            ),
            "bus_transactions": int(self.bus_txns[r]),
            "crash": self.crash[r],
        }


def run_population(
    pop: BatchPopulation, backend: Optional[str] = None
) -> BatchResult:
    """Run every row of a population through the kernel, on
    ``backend`` or else on :func:`default_backend` for its row count."""
    chosen = backend or default_backend(pop.rows)
    if chosen != "python" and chosen not in available_backends():
        raise ValueError(
            f"backend {chosen!r} unavailable; have {available_backends()}"
        )
    tables = lower_units(pop.units)
    kernel = _Kernel(pop, tables, chosen)
    kernel.run()
    return BatchResult(
        backend=chosen,
        rows=pop.rows,
        events=kernel.events_attempted,
        transitions=kernel.transitions,
        snapshots=[kernel.snapshot_row(r) for r in range(pop.rows)],
        scalar_events=kernel.scalar_events,
        vector_events=kernel.vector_events,
        row_events=kernel.row_events(),
        row_transitions=tuple(int(x) for x in kernel.tr),
    )


# ---------------------------------------------------------------------------
# The oracle: one row on the real object engine, same snapshot shape.
# ---------------------------------------------------------------------------
def replay_row(pop: BatchPopulation, row: int) -> dict:
    """Replay one row on a real :class:`System` (the per-object engine)
    and snapshot it identically to the kernel -- the differential oracle
    for every batch run."""
    from repro.bus.futurebus import BusLivelockError
    from repro.cache.controller import NonCachingMaster
    from repro.core.protocol import IllegalTransitionError
    from repro.system.system import BoardSpec, System

    g = pop.geometry_for(row)
    boards = [
        BoardSpec(
            unit_id=f"u{index}",
            protocol=make_protocol(spec),
            num_sets=g.num_sets,
            associativity=g.associativity,
            line_size=g.line_size,
        )
        for index, spec in enumerate(pop.units)
    ]
    system = System(boards, check=False, label=f"batch-row{row}")
    tokens: list = []
    crash = None
    for step, (unit_index, kind, la) in enumerate(pop.events[row]):
        unit = f"u{unit_index}"
        board = system.controllers[unit]
        if kind >= _K_FLUSH and isinstance(board, NonCachingMaster):
            continue
        try:
            if kind == _K_READ:
                tokens.append(system.read(unit, la * g.line_size))
            elif kind == _K_WRITE:
                system.write(unit, la * g.line_size)
            elif kind == _K_FLUSH:
                board.flush_line(la)
            else:
                board.clean_line(la)
        except IllegalTransitionError:
            continue
        except (AssertionError, RuntimeError, BusLivelockError) as exc:
            crash = (step, type(exc).__name__)
            break
    caches = []
    for board in system.controllers.values():
        if isinstance(board, NonCachingMaster):
            caches.append(())
            continue
        caches.append(
            tuple(
                sorted(
                    (la, state.letter, value)
                    for la, state, value in board.cached_lines()
                )
            )
        )
    return {
        "tokens": tokens,
        "caches": tuple(caches),
        "memory": tuple(system.memory.peek(a) for a in range(g.lines)),
        "version_counter": system._version_counter,
        "last_version": tuple(
            system.last_written_token(a) for a in range(g.lines)
        ),
        "bus_transactions": system.bus_stats.transactions,
        "crash": crash,
    }


def verify_rows(
    pop: BatchPopulation,
    result: BatchResult,
    rows: Optional[Sequence[int]] = None,
) -> list:
    """Diff kernel snapshots against object-engine replays; returns
    ``(row, key, kernel_value, oracle_value)`` mismatch tuples (empty
    means byte-equivalent)."""
    mismatches = []
    for row in rows if rows is not None else range(pop.rows):
        expected = replay_row(pop, row)
        got = result.snapshots[row]
        for key in expected:
            if got.get(key) != expected[key]:
                mismatches.append((row, key, got.get(key), expected[key]))
    return mismatches


# ---------------------------------------------------------------------------
# Synthetic populations (benchmarks, sweeps).
# ---------------------------------------------------------------------------
def make_synthetic_population(
    rows: int = 256,
    units: Sequence[str] = ("moesi", "moesi"),
    geometry: Optional[BatchGeometry] = None,
    events_per_row: int = 200,
    seed: int = 0,
    p_write: float = 0.35,
    p_flush: float = 0.02,
    p_pass: float = 0.02,
    geometries: Optional[Sequence[BatchGeometry]] = None,
) -> BatchPopulation:
    """Seeded hit-heavy workload: each row gets its own deterministic
    schedule (pure function of ``(seed, row)``), all rows sharing one
    board mix so the kernel can run them as one block.

    Pass ``geometries`` (cycled across rows) for a padded heterogeneous
    population; each row's line addresses stay inside its own geometry.
    """
    if geometries:
        per_row = tuple(
            geometries[r % len(geometries)] for r in range(rows)
        )
        geometry = envelope_geometry(per_row)
    else:
        per_row = None
        geometry = geometry or BatchGeometry()
    n_units = len(units)
    events = []
    for r in range(rows):
        rng = random.Random(seed * 1_000_003 + r)
        lines = per_row[r].lines if per_row else geometry.lines
        schedule = []
        for _ in range(events_per_row):
            roll = rng.random()
            if roll < p_write:
                kind = _K_WRITE
            elif roll < p_write + p_flush:
                kind = _K_FLUSH
            elif roll < p_write + p_flush + p_pass:
                kind = _K_PASS
            else:
                kind = _K_READ
            schedule.append(
                (
                    rng.randrange(n_units),
                    kind,
                    rng.randrange(lines),
                )
            )
        events.append(schedule)
    return BatchPopulation(
        units=tuple(units),
        geometry=geometry,
        events=events,
        row_ids=tuple(range(rows)),
        geometries=per_row,
    )


# ---------------------------------------------------------------------------
# Continuous batching: many BatchSpecs -> few merged kernel invocations.
# ---------------------------------------------------------------------------
def run_batch_specs(
    specs: Sequence, backend: Optional[str] = None
) -> list[list[dict]]:
    """Coalesce several :class:`repro.specs.BatchSpec` sweeps into merged
    kernel invocations and de-multiplex per-spec reports.

    Every (spec, protocol) pair contributes the *same* synthetic
    sub-population it would get standalone (schedules are pure functions
    of ``(seed, row)`` and of the spec's own geometry); sub-populations
    sharing a board mix are concatenated into one padded
    heterogeneous-geometry population and run in a single kernel call.
    Rows are independent, so the per-row snapshots -- and the per-row
    ``row_events``/``row_transitions`` counters -- are identical to the
    standalone runs, and each spec's report slices straight out.

    Returns one row-list per spec, ordered like ``spec.protocols``.
    This is the only code that turns specs into rows:
    :func:`batch_protocol_sweep` runs one-protocol specs through it on
    the pool.  Each row's wall-clock
    ``transitions_per_sec`` is the throughput of the kernel call that
    produced it -- for a one-protocol spec, that protocol's own run --
    and its ``backend`` is the one that call ran on: ``backend`` when
    given, otherwise each merged population's own
    :func:`default_backend` (the serve tier strips both fields from
    payloads).
    """
    out: list[list] = [[None] * len(spec.protocols) for spec in specs]
    groups: dict[tuple, list] = {}
    for si, spec in enumerate(specs):
        geometry = BatchGeometry(*spec.geometry)
        for pi, proto in enumerate(spec.protocols):
            pop = make_synthetic_population(
                rows=spec.rows,
                units=(proto,) * spec.n_units,
                geometry=geometry,
                events_per_row=spec.events_per_row,
                seed=spec.seed,
            )
            groups.setdefault(pop.units, []).append((si, pi, pop))
    for units, members in groups.items():
        events: list = []
        geoms: list = []
        slices = []
        for si, pi, pop in members:
            start = len(events)
            events.extend(pop.events)
            geoms.extend([pop.geometry] * pop.rows)
            slices.append((si, pi, start, len(events)))
        envelope = envelope_geometry(geoms)
        hetero = any(g != envelope for g in geoms)
        merged = BatchPopulation(
            units=units,
            geometry=envelope,
            events=events,
            row_ids=tuple(range(len(events))),
            geometries=tuple(geoms) if hetero else None,
        )
        began = time.perf_counter()
        result = run_population(merged, backend=backend)
        seconds = time.perf_counter() - began
        per_sec = (
            round(result.transitions / seconds, 1) if seconds > 0 else 0.0
        )
        for si, pi, start, stop in slices:
            out[si][pi] = {
                "protocol": specs[si].protocols[pi],
                "backend": result.backend,
                "rows": stop - start,
                "events": int(sum(result.row_events[start:stop])),
                "transitions": int(
                    sum(result.row_transitions[start:stop])
                ),
                "transitions_per_sec": per_sec,
                "crashes": sum(
                    1
                    for snapshot in result.snapshots[start:stop]
                    if snapshot["crash"] is not None
                ),
            }
    return out


# ---------------------------------------------------------------------------
# Batch-kernel population sweep.
# ---------------------------------------------------------------------------
def _batch_task(
    backend: Optional[str], segment: Optional[str], spec: BatchSpec
) -> dict:
    """One pooled batch run; the task is a one-protocol
    :class:`~repro.specs.BatchSpec` -- a spec string plus integers,
    nothing object-shaped on the wire.

    ``segment`` names the parent's shared-memory tables segment; the
    worker attaches once (memoized per process) and seeds the lowering
    cache from the mapping, so no worker ever re-derives -- or receives
    a pickled copy of -- the compiled transition tables."""
    if segment is not None:
        from repro.perf.shared import attach_tables

        try:
            attach_tables(segment)
        except Exception:
            pass  # segment gone or unsupported: lower directly below
    return run_batch_specs([spec], backend=backend)[0][0]


def batch_protocol_sweep(
    protocols: Optional[Sequence[str]] = None,
    rows: int = 64,
    events_per_row: int = 100,
    seed: int = 0,
    n_units: int = 2,
    geometry: tuple = (4, 2, 32, 8),
    backend: Optional[str] = None,
    workers: Optional[int] = None,
) -> list[dict]:
    """One batch-kernel population per protocol, fanned over the pool.

    ``protocols`` defaults to every registry spec the lowering accepts
    (:func:`repro.perf.batch.batchable_specs`).  Each task is a
    one-protocol copy of the sweep's spec, run through
    :func:`repro.perf.batch.run_batch_specs` in the worker."""
    if protocols is None:
        protocols = batchable_specs()
    from repro.perf.shared import publish_tables, unlink_tables

    segment = None
    # The tables segment only serves workers: publish it when the map can
    # fan out, not for a sweep that will run in this process.
    if len(protocols) > 1 and resolve_workers(workers) > 1:
        try:
            segment = publish_tables(list(protocols))
        except Exception:
            pass  # no shared memory here: workers lower directly
    task_fn = functools.partial(_batch_task, backend, segment)
    tasks = [
        BatchSpec(
            protocols=(protocol,),
            rows=rows,
            events_per_row=events_per_row,
            seed=seed,
            n_units=n_units,
            geometry=tuple(geometry),
        )
        for protocol in protocols
    ]
    try:
        return parallel_map(task_fn, tasks, workers=workers)
    finally:
        if segment is not None:
            unlink_tables(segment)
