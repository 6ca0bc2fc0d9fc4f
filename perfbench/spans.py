"""In-memory spans around calls into the program's public functions.

:class:`SpanRecorder` replaces a function where its caller looks it up
(a module global or a class attribute) with a wrapper that records
``(name, start, end, parent)``; the parent is the innermost open span on
the same thread.  Spans stay in memory and are written out at the end
(worker processes append theirs after each top-level job, because pool
workers exit without running ``atexit``).  Nothing in the program is
edited: uninstalling restores the original objects.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from pathlib import Path
from typing import Callable, Optional


class SpanRecorder:
    """Records spans for wrapped callables; one instance per process
    tree (a forked child starts with an empty span list)."""

    def __init__(self, flush_dir: Optional[Path] = None) -> None:
        self.spans: list = []
        self.flush_dir = flush_dir
        self.pid = self.root_pid = os.getpid()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._installed: list = []
        #: Optional ``() -> hashable`` naming the request a span belongs
        #: to (the serve launcher tags spans with the asyncio task).
        self.context: Optional[Callable] = None
        if hasattr(os, "register_at_fork"):
            os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        self.spans = []
        self.pid = os.getpid()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr: str, name: str,
             key: Optional[Callable] = None,
             note: Optional[Callable] = None,
             flush: bool = False) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``key(args, kwargs, result)`` tags the span (a content hash);
        ``note(args, kwargs, result)`` returns a dict of counts stored on
        it.  Both run after the span's end time is taken.  ``flush``
        appends this process's spans to ``flush_dir`` after each
        top-level call made in a child process."""
        original = getattr(owner, attr)
        own = vars(owner).get(attr)  # None: inherited by a class
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = recorder._stack()
            span_id = f"{recorder.pid}.{next(recorder._ids)}"
            parent = stack[-1] if stack else None
            stack.append(span_id)
            result = None
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                span = {
                    "id": span_id,
                    "parent": parent,
                    "name": name,
                    "start": start,
                    "end": end,
                    "pid": recorder.pid,
                    "tid": threading.get_ident(),
                }
                if recorder.context is not None:
                    span["ctx"] = recorder.context()
                if key is not None:
                    span["key"] = key(args, kwargs, result)
                if note is not None and result is not None:
                    span.update(note(args, kwargs, result))
                recorder.spans.append(span)
                if flush and parent is None and \
                        recorder.pid != recorder.root_pid:
                    recorder.flush()

        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, own))

    def uninstall(self) -> None:
        """Put back exactly what each wrapped attribute was."""
        for owner, attr, own in reversed(self._installed):
            if own is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)
        self._installed.clear()

    def flush(self) -> None:
        """Append (and forget) this process's spans under ``flush_dir``."""
        if self.flush_dir is None or not self.spans:
            return
        spans, self.spans = self.spans, []
        path = Path(self.flush_dir) / f"spans-{os.getpid()}.jsonl"
        with open(path, "a", encoding="ascii") as handle:
            for span in spans:
                handle.write(json.dumps(span) + "\n")


def load_spans(directory: Path) -> list:
    """Every span written under ``directory``."""
    spans = []
    for path in sorted(Path(directory).glob("spans-*.jsonl")):
        with open(path, encoding="ascii") as handle:
            spans.extend(json.loads(line) for line in handle if line.strip())
    return spans
