"""Launch ``repro serve`` at its defaults with span wrappers installed.

The wrappers go in before the daemon starts, so its lazily forked pool
workers inherit them.  Daemon-side spans are written when the daemon
shuts down; each worker appends its spans after every job.

    python perfbench/serve_traced.py --out DIR
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import itertools
import sys
import weakref
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import require_source  # noqa: E402
from spans import SpanRecorder  # noqa: E402


def _sha(canonical: str) -> str:
    return hashlib.sha256(canonical.encode("ascii")).hexdigest()


def install(recorder: SpanRecorder) -> None:
    """Wrap each layer where its caller looks it up."""
    from repro import specs
    from repro.perf import shared
    from repro.serve import cache, jobs, protocol, server

    tags: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
    counter = itertools.count(1)

    def request_tag():
        # Each client connection is one asyncio task in the daemon, and
        # the load generator sends one request per connection.
        try:
            task = asyncio.current_task()
        except RuntimeError:
            return None
        if task is None:
            return None
        if task not in tags:
            tags[task] = next(counter)
        return tags[task]

    recorder.context = request_tag
    recorder.wrap(server, "spec_from_dict", "parse.from_dict")
    recorder.wrap(specs._SpecBase, "canonical", "parse.canonical")
    recorder.wrap(specs._SpecBase, "content_hash", "parse.hash",
                  key=lambda args, kwargs, result: result)
    recorder.wrap(cache.MemoCache, "get", "memo.get")
    recorder.wrap(server, "response_envelope", "respond.envelope")
    recorder.wrap(server, "canonical_json", "respond.json")
    recorder.wrap(server, "dispatch_job", "dispatch",
                  key=lambda args, kwargs, result: _sha(args[0]))
    recorder.wrap(jobs, "dispatch_batch_job", "batch.dispatch",
                  key=lambda args, kwargs, result: [_sha(c) for c in args[0]])
    recorder.wrap(jobs, "execute_payload", "exec", flush=True,
                  key=lambda args, kwargs, result: _sha(args[0]))
    recorder.wrap(jobs, "execute_batch_payloads", "batch.exec", flush=True,
                  key=lambda args, kwargs, result: [_sha(c) for c in args[0]])
    recorder.wrap(protocol, "payload_for", "payload")
    recorder.wrap(shared, "attach_tables", "attach")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="span directory")
    args = parser.parse_args(argv)
    require_source()
    from repro.cli import main as repro_main

    recorder = SpanRecorder(flush_dir=Path(args.out))
    install(recorder)
    try:
        return repro_main(["serve"])
    finally:
        recorder.flush()


if __name__ == "__main__":
    sys.exit(main())
