"""Zero-copy distribution of lowered batch tables to pool workers.

:func:`repro.core.transitions.lower_batch_tables` is cheap to *read*
but expensive to *build*: it instantiates the protocol, probes every
table cell through a context harness, and verifies the lowering against
a fresh probe.  Before this module, every pool worker repeated that work
(or had the tables pickled at it per chunk) for every spec it touched.

Two distribution paths, both read-only:

* **fork inheritance** -- on fork start methods the parent's lowering
  cache is inherited copy-on-write for free; :func:`prime_fork_cache`
  simply fills it before the pool starts.
* **``multiprocessing.shared_memory``** -- :func:`publish_tables` packs
  every lowered spec into one flat int64 segment (a small JSON directory
  followed by fixed-width records); :func:`attach_tables` maps it
  zero-copy in a worker, rebuilds the record tuples from the mapped
  buffer (no second copy of the blob, no unpickling), and seeds the
  kernel's lowering cache so :func:`repro.perf.batch.lower_units` never
  probes a protocol again in that process.

Setting ``REPRO_SHARED_TABLES=1`` routes in-process lowering through a
self-published segment (:func:`process_tables`) -- the CI equivalence
job runs the whole oracle sweep through the packed form to prove the
round trip is lossless.

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
import os
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
    "ENV_FLAG",
    "SharedTablesError",
    "attach_tables",
    "detach_tables",
    "pack_tables",
    "prime_fork_cache",
    "process_tables",
    "publish_tables",
    "shared_tables_requested",
    "tables_for_epoch",
    "unlink_tables",
    "unpack_tables",
]

#: Environment switch: route all in-process lowering through a
#: self-published shared-memory segment (round-trip proof mode).
ENV_FLAG = "REPRO_SHARED_TABLES"

_MAGIC = 0x5250524F  # "RPRO"
_HEADER_WORDS = 2
_LOCAL_CELLS = N_STATES * N_LOCAL_EVENTS
_SNOOP_CELLS = N_STATES * N_BUS_EVENTS
_LOCAL_REC = 1 + BATCH_LOCAL_WIDTH  # legal flag + fields
_SNOOP_REC = 1 + BATCH_SNOOP_WIDTH
PER_SPEC_WORDS = _LOCAL_CELLS * _LOCAL_REC + _SNOOP_CELLS * _SNOOP_REC


class SharedTablesError(RuntimeError):
    """A shared-tables segment is malformed or unavailable."""


def shared_tables_requested() -> bool:
    """Whether :data:`ENV_FLAG` asks for shared-memory table routing."""
    return bool(os.environ.get(ENV_FLAG))


def _lower_all(specs: Optional[Sequence[str]] = None) -> dict:
    """Directly lower every (given or batchable) registry spec --
    the publisher's own scan, never routed back through the kernel's
    cache (no recursion)."""
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


# ---------------------------------------------------------------------------
# In-process routing (the REPRO_SHARED_TABLES env flag).
# ---------------------------------------------------------------------------
_PROCESS_TABLES: Optional[dict] = None
_BUILDING = False


def process_tables() -> dict:
    """The process-wide shared-tables map used when :data:`ENV_FLAG` is
    set: published once into shared memory, attached back from the
    mapped buffer (a full pack/unpack round trip), then served from the
    per-process memo.  Falls back to direct lowering when shared memory
    is unavailable (restricted sandboxes).  Returns ``{}`` while the
    publisher itself is lowering, so its scan cannot recurse."""
    global _PROCESS_TABLES, _BUILDING
    if _PROCESS_TABLES is not None:
        return _PROCESS_TABLES
    if _BUILDING:
        return {}
    _BUILDING = True
    try:
        try:
            name = publish_tables()
            _PROCESS_TABLES = attach_tables(name, seed_kernel_cache=False)
        except (ImportError, OSError, PermissionError):
            _PROCESS_TABLES = _lower_all()
    finally:
        _BUILDING = False
    return _PROCESS_TABLES


def tables_for_epoch() -> Optional[str]:
    """The long-lived publish-once segment for serving tiers.

    Unlike the per-sweep publish/unlink in
    :func:`repro.perf.batch.batch_protocol_sweep`, a daemon coalescing
    requests wants one segment for its whole life: published on first
    use, reused for every population, and republished only when
    ``set_fast_tables`` bumps the tables epoch (the same signal that
    restarts the warm pool, so workers never attach stale tables).
    Returns ``None`` where shared memory is unavailable -- workers then
    lower directly, which is correct, just slower."""
    global _EPOCH_SEGMENT
    from repro.core.transitions import tables_epoch

    epoch = tables_epoch()
    if _EPOCH_SEGMENT is not None and _EPOCH_SEGMENT[0] == epoch:
        return _EPOCH_SEGMENT[1]
    if _EPOCH_SEGMENT is not None and _EPOCH_SEGMENT[1] is not None:
        unlink_tables(_EPOCH_SEGMENT[1])
    try:
        name: Optional[str] = publish_tables()
    except Exception:
        name = None
    _EPOCH_SEGMENT = (epoch, name)
    return name


_EPOCH_SEGMENT: Optional[tuple] = None


def prime_fork_cache(specs: Optional[Sequence[str]] = None) -> int:
    """Fill the kernel's lowering cache in the parent *before* the pool
    forks, so workers inherit the compiled tables copy-on-write -- the
    zero-ceremony path on fork start methods.  Returns the number of
    specs now cached."""
    from repro.perf import batch

    try:
        names = list(specs) if specs is not None else None
        for spec, tables in _lower_all(names).items():
            batch._LOWERED.setdefault(spec, tables)
    except Exception:  # pragma: no cover - registry import failures
        pass
    return sum(1 for t in batch._LOWERED.values() if t is not None)
