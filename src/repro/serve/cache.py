"""Content-addressed result memoization for the serve tier.

Keys are spec content hashes (:meth:`repro.specs._SpecBase.content_hash`);
the daemon's values are :class:`MemoEntry` records: the canonical
JSON-safe result payload of :func:`repro.serve.protocol.payload_for`
plus its non-streamed ``cached: true`` response line, encoded once on
the entry's first such hit.  Because a spec hash covers everything that
can change the result -- and deliberately nothing that cannot (worker
counts, backends) -- a hit is *correct by construction*, not a
heuristic: the daemon writes the encoded line without dispatching a
worker task or re-encoding the payload, and the line is dropped with
its entry on eviction.

The cache is a bounded LRU with hit/miss/eviction counters, surfaced
through the serve ``status`` command and the ``serve`` section of
``repro bench``.  A lock keeps the counters coherent when the daemon's
dispatcher threads and the event loop touch the cache concurrently.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Optional

__all__ = ["MemoCache", "MemoEntry"]


class MemoEntry:
    """One memoized result: its payload and the encoded bytes of its
    non-streamed ``cached: true`` response (newline included), ``None``
    until the first hit that writes them."""

    __slots__ = ("payload", "hit_line")

    def __init__(self, payload: dict) -> None:
        self.payload = payload
        self.hit_line: Optional[bytes] = None


class MemoCache:
    """A bounded, thread-safe LRU mapping spec hashes to memoized values
    (result payloads, or the daemon's :class:`MemoEntry` records)."""

    def __init__(self, capacity: int = 128) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: OrderedDict[str, Any] = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def get(self, key: str) -> Optional[Any]:
        """The cached value for ``key``, refreshed to most-recent; None
        on a miss.  Every call counts as exactly one hit or miss."""
        with self._lock:
            payload = self._entries.get(key)
            if payload is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return payload

    def put(self, key: str, payload: Any) -> None:
        """Insert (or refresh) ``key``, evicting the least-recently-used
        entry beyond capacity."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = payload
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._evictions += 1

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def stats(self) -> dict:
        """Counters for ``status`` and the bench report (a copy)."""
        with self._lock:
            return {
                "capacity": self.capacity,
                "size": len(self._entries),
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
            }
