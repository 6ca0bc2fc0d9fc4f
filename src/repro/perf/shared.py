"""Lowered batch tables packed into one shared-memory segment.

:func:`repro.core.transitions.lower_batch_tables` is cheap to *read*
but expensive to *build*: it instantiates the protocol, probes every
table cell through a context harness, and verifies the lowering against
a fresh probe.  Every process lowers a spec at most once (the kernel's
per-process cache behind :func:`repro.perf.batch.lower_units`).

:func:`repro.perf.batch.batch_protocol_sweep` -- one pooled population
per protocol, so each worker would otherwise lower the specs it draws --
publishes its specs' tables once for the sweep: :func:`publish_tables`
packs them into one flat int64 segment (a small JSON directory followed
by fixed-width records); :func:`attach_tables` maps it zero-copy in a
worker, rebuilds the record tuples from the mapped buffer (no second
copy of the blob, no unpickling), and seeds the kernel's lowering cache
so ``lower_units`` never probes a protocol again in that process.  The
sweep unlinks the segment when its map returns.

Layout (all little-endian int64 words unless noted)::

    word 0        magic (0x5250524f = "RPRO")
    word 1        header length H in bytes
    bytes 16..16+H  UTF-8 JSON: {"version": 1, "specs": [...],
                                 "names": [...], "non_caching": [...]}
    (padded to the next word boundary)
    then per spec, in directory order:
        20 local cells  x (legal, ns_ch, ns_nch, ca, im, bc, op)
        30 snoop cells  x (legal, ns_ch, ns_nch, ch, di, sl, bs,
                           abort_push, push_ca, push_im, push_bc)
"""

from __future__ import annotations

import atexit
import json
from typing import Optional, Sequence

from repro.core.transitions import (
    BATCH_LOCAL_WIDTH,
    BATCH_SNOOP_WIDTH,
    N_BUS_EVENTS,
    N_LOCAL_EVENTS,
    N_STATES,
    BatchTables,
    lower_batch_tables,
)
from repro.protocols.registry import make_protocol, protocol_names

__all__ = [
    "SharedTablesError",
    "attach_tables",
    "detach_tables",
    "pack_tables",
    "publish_tables",
    "unlink_tables",
    "unpack_tables",
]

_MAGIC = 0x5250524F  # "RPRO"
_HEADER_WORDS = 2
_LOCAL_CELLS = N_STATES * N_LOCAL_EVENTS
_SNOOP_CELLS = N_STATES * N_BUS_EVENTS
_LOCAL_REC = 1 + BATCH_LOCAL_WIDTH  # legal flag + fields
_SNOOP_REC = 1 + BATCH_SNOOP_WIDTH
PER_SPEC_WORDS = _LOCAL_CELLS * _LOCAL_REC + _SNOOP_CELLS * _SNOOP_REC


class SharedTablesError(RuntimeError):
    """A shared-tables segment is malformed or unavailable."""


def _lower_all(specs: Optional[Sequence[str]] = None) -> dict:
    """Directly lower every (given or batchable) registry spec."""
    out = {}
    for spec in specs if specs is not None else protocol_names():
        tables = lower_batch_tables(make_protocol(spec))
        if tables is not None:
            out[spec] = tables
    return out


# ---------------------------------------------------------------------------
# Packing: BatchTables <-> flat int64 words.
# ---------------------------------------------------------------------------
def pack_tables(tables: dict) -> bytes:
    """Serialize ``{spec: BatchTables}`` into the flat segment image."""
    from array import array

    specs = sorted(tables)
    header = json.dumps(
        {
            "version": 1,
            "specs": specs,
            "names": [tables[s].name for s in specs],
            "non_caching": [int(tables[s].non_caching) for s in specs],
        },
        separators=(",", ":"),
    ).encode("utf-8")
    pad = (-len(header)) % 8
    words = array("q", [_MAGIC, len(header)])
    payload = array("q")
    for spec in specs:
        t = tables[spec]
        for rec in t.local:
            if rec is None:
                payload.extend([0] * _LOCAL_REC)
            else:
                payload.append(1)
                payload.extend(int(x) for x in rec)
        for rec in t.snoop:
            if rec is None:
                payload.extend([0] * _SNOOP_REC)
            else:
                payload.append(1)
                payload.extend(int(x) for x in rec)
    return (
        words.tobytes() + header + b"\0" * pad + payload.tobytes()
    )


def unpack_tables(buf) -> dict:
    """Rebuild ``{spec: BatchTables}`` from a segment buffer.

    ``buf`` may be any buffer object (a mapped ``SharedMemory.buf``
    included); the int64 words are read through a zero-copy
    ``memoryview`` cast, so the blob itself is never duplicated."""
    view = memoryview(buf)
    words = view.cast("q")
    if len(words) < _HEADER_WORDS or words[0] != _MAGIC:
        raise SharedTablesError("not a shared-tables segment")
    header_len = words[1]
    header_end = _HEADER_WORDS * 8 + header_len
    try:
        header = json.loads(bytes(view[_HEADER_WORDS * 8:header_end]))
    except ValueError as error:
        raise SharedTablesError(f"bad segment directory: {error}") from None
    if header.get("version") != 1:
        raise SharedTablesError(
            f"unsupported segment version {header.get('version')!r}"
        )
    specs = header["specs"]
    payload_word = (header_end + 7) // 8
    need = payload_word + len(specs) * PER_SPEC_WORDS
    if len(words) < need:
        raise SharedTablesError(
            f"segment truncated: {len(words)} words, need {need}"
        )
    out = {}
    pos = payload_word
    for index, spec in enumerate(specs):
        local = []
        for _ in range(_LOCAL_CELLS):
            if words[pos]:
                local.append(tuple(words[pos + 1:pos + _LOCAL_REC]))
            else:
                local.append(None)
            pos += _LOCAL_REC
        snoop = []
        for _ in range(_SNOOP_CELLS):
            if words[pos]:
                snoop.append(tuple(words[pos + 1:pos + _SNOOP_REC]))
            else:
                snoop.append(None)
            pos += _SNOOP_REC
        out[spec] = BatchTables(
            name=header["names"][index],
            non_caching=bool(header["non_caching"][index]),
            local=tuple(local),
            snoop=tuple(snoop),
        )
    return out


# ---------------------------------------------------------------------------
# Shared-memory lifecycle.
# ---------------------------------------------------------------------------
_PUBLISHED: dict = {}  # name -> SharedMemory we created (unlink on exit)
_ATTACHED: dict = {}  # name -> (SharedMemory, {spec: BatchTables})
_atexit_registered = False


def _open_untracked(name: str):
    """Map an existing segment without registering it with the resource
    tracker.

    Only the publisher may own a segment's tracker entry.  A forked pool
    worker shares its parent's tracker process, so a worker that
    registered (or registered and then unregistered) the name would
    overwrite or erase the publisher's entry: the publisher's unlink then
    trips a ``KeyError`` in the tracker, and a killed publisher leaks the
    segment.  (A worker with a tracker of its own would instead unlink
    the segment when it exits, bpo-38119.)  Python 3.13+ skips registration with ``track=False``;
    earlier versions register unconditionally in the constructor, so the
    call is suppressed for its duration (pool workers are
    single-threaded)."""
    from multiprocessing import resource_tracker
    from multiprocessing.shared_memory import SharedMemory

    try:
        return SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no track parameter
        pass
    register = resource_tracker.register
    resource_tracker.register = lambda name, rtype: None
    try:
        return SharedMemory(name=name)
    finally:
        resource_tracker.register = register


def _cleanup() -> None:
    for name in list(_ATTACHED):
        detach_tables(name)
    for name in list(_PUBLISHED):
        unlink_tables(name)


def publish_tables(specs: Optional[Sequence[str]] = None) -> str:
    """Lower the given specs (default: every batchable registry spec),
    pack them, and publish the image as a read-only shared-memory
    segment.  Returns the segment name for workers to attach; the
    segment is unlinked at interpreter exit (or via
    :func:`unlink_tables`)."""
    global _atexit_registered
    from multiprocessing.shared_memory import SharedMemory

    image = pack_tables(_lower_all(specs))
    shm = SharedMemory(create=True, size=len(image))
    shm.buf[: len(image)] = image
    _PUBLISHED[shm.name] = shm
    if not _atexit_registered:
        atexit.register(_cleanup)
        _atexit_registered = True
    return shm.name


def attach_tables(name: str, seed_kernel_cache: bool = True) -> dict:
    """Map a published segment and rebuild its tables (memoized per
    process per segment).  With ``seed_kernel_cache`` the result is
    pushed into :data:`repro.perf.batch._LOWERED`, so every subsequent
    ``lower_units`` in this worker is a dictionary hit -- no protocol
    probing, no pickled tables on the task wire."""
    cached = _ATTACHED.get(name)
    if cached is None:
        if name in _PUBLISHED:
            shm = _PUBLISHED[name]
            tables = unpack_tables(shm.buf)
            cached = (None, tables)  # publisher keeps its own handle
        else:
            shm = _open_untracked(name)
            tables = unpack_tables(shm.buf)
            cached = (shm, tables)
        _ATTACHED[name] = cached
    if seed_kernel_cache:
        from repro.perf import batch

        for spec, tables in cached[1].items():
            batch._LOWERED.setdefault(spec, tables)
    return dict(cached[1])


def detach_tables(name: str) -> None:
    """Drop this process's mapping of a segment (no-op if unknown)."""
    cached = _ATTACHED.pop(name, None)
    if cached is not None and cached[0] is not None:
        try:
            cached[0].close()
        except Exception:  # pragma: no cover - already closed
            pass


def unlink_tables(name: str) -> None:
    """Destroy a segment this process published (no-op otherwise).
    Existing mappings stay valid; new attaches fail and callers fall
    back to direct lowering."""
    detach_tables(name)
    shm = _PUBLISHED.pop(name, None)
    if shm is not None:
        try:
            shm.close()
            shm.unlink()
        except Exception:  # pragma: no cover - already unlinked
            pass
