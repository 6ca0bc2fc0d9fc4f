"""The asyncio daemon: NDJSON over TCP/unix socket onto the warm pool.

One :class:`ReproServer` owns one event loop's worth of state: the
memoization cache, the in-flight single-flight table, the admission
counter, and the listening sockets.  Each client connection is a
newline-delimited JSON conversation; each ``execute`` request flows

    parse spec -> content hash -> cache? -> coalesce? -> admit? ->
    semaphore -> dispatch to the warm pool -> memoize -> respond

with every early exit answering immediately: a cache hit writes the
memo entry's reply, encoded once, without dispatching any worker task,
a duplicate of an in-flight request awaits that computation instead of
starting another, and a request beyond ``concurrency + max_pending`` is
refused with ``{"ok": false, "error": "busy", "retry_after": ...}`` --
bounded queue, never unbounded growth.  A request line whose exact
bytes were parsed before skips the parse step: a line map, bounded by
the memo's capacity, keeps the request parsed from them.

Dispatch runs the blocking pool call on the loop's default thread-pool
executor, so the event loop keeps serving status requests and cache
hits while jobs compute.  Deadlines ride the pool's per-task timeout
machinery (:func:`repro.perf.pool.dispatch_one`): an overrun job's
worker is killed and replaced, and the daemon answers
``{"ok": false, "error": "deadline"}``.

Continuous batching
-------------------
Specs whose :meth:`~repro.specs.BatchSpec.batch_key` is non-``None``
(batch-lowerable sweeps) take a third path after the cache and
single-flight checks: instead of ``dispatch_one`` per request, they
join a per-compatibility-key **admission queue**.  The first arrival
opens an admission window (``batch_window_s``); whatever compatible
requests land within it -- capped at ``batch_max`` -- seal into one
padded heterogeneous-geometry SoA population, executed as a *single*
pool job (:func:`repro.serve.jobs.dispatch_batch_job`; each worker
lowers a protocol's tables on first touch and keeps them), and the
per-row results de-multiplex back into the exact envelopes each request
would have gotten alone.

The window is a cap, not a wait: only an *idle* connection -- accepted
and not yet read from, or waiting for its next line -- or one still in
a listen queue can add a request, so a forming population seals on the
next loop turn after no connection can join it any more (the
``sealed_early`` counter).  A lone caller therefore never waits out the
window; a burst over concurrent connections still coalesces, because
each of its connections is idle, or queued, from its ``connect`` until
its line is read.  Rows whose deadline
expires while the window is open are dropped from the population
individually -- their neighbours still execute.  A window of ``0``
degenerates to populations of one (no coalescing latency); a negative
window disables the batch path entirely.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import os
import select
from collections import OrderedDict
from typing import Callable, Optional

from repro.obs.stream import DEFAULT_FRAME_EVENTS, metrics_frame, trace_frames
from repro.serve.cache import MemoCache, MemoEntry
from repro.serve.jobs import dispatch_job
from repro.serve.protocol import response_envelope
from repro.specs import canonical_json, spec_from_canonical, spec_from_dict

__all__ = ["ServeConfig", "ReproServer", "run_server"]


@dataclasses.dataclass
class ServeConfig:
    """Daemon knobs.

    ``concurrency`` jobs execute at once; up to ``max_pending`` more may
    wait; anything beyond is refused with ``retry_after_s``.  ``port=0``
    asks the OS for a free port (read it back from ``endpoints``).
    ``dispatcher`` injects the job runner -- ``(canonical, deadline_s)
    -> payload`` -- for tests and benches; the default is the warm-pool
    :func:`repro.serve.jobs.dispatch_job`.

    ``batch_window_s``/``batch_max`` shape the continuous-batching
    admission queue: batch-lowerable specs arriving within the window
    (up to the cap) coalesce into one SoA population; the window seals
    early once no connection could still join it.  ``0`` seals each
    population at one row (degenerate, no added latency); negative
    disables the batch path.  ``batch_dispatcher`` injects the
    coalesced runner -- ``(canonicals, deadline_s) -> [payload, ...]``
    -- defaulting to :func:`repro.serve.jobs.dispatch_batch_job`.
    """

    host: str = "127.0.0.1"
    port: Optional[int] = 0
    unix_socket: Optional[str] = None
    concurrency: int = 2
    max_pending: int = 8
    cache_size: int = 128
    workers: Optional[int] = None
    retry_after_s: float = 0.5
    stream_chunk: int = DEFAULT_FRAME_EVENTS
    dispatcher: Optional[Callable[[str, Optional[float]], dict]] = None
    batch_window_s: float = 0.005
    batch_max: int = 64
    batch_dispatcher: Optional[
        Callable[[tuple, Optional[float]], list]
    ] = None


class _PendingBatch:
    """One forming population: entries accumulate until the admission
    window elapses, the population cap fills, or no connection could
    still join it."""

    __slots__ = ("entries", "full")

    def __init__(self) -> None:
        #: Each entry: {"key", "canonical", "deadline", "expires",
        #: "future"} -- the future resolves to (outcome, extras).
        self.entries: list[dict] = []
        self.full = asyncio.Event()


class ReproServer:
    """One serve daemon: sockets, cache, single-flight, admission."""

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.config = config or ServeConfig()
        self.cache = MemoCache(self.config.cache_size)
        self.counters = {
            "requests": 0,
            "executed": 0,
            "coalesced": 0,
            "busy_rejections": 0,
            "deadline_failures": 0,
            "errors": 0,
            # Continuous batching: requests admitted to the batch path,
            # populations sealed, rows across them, the largest one,
            # requests computed one-at-a-time, and rows whose deadline
            # expired while their population was still forming.
            "batched": 0,
            "populations": 0,
            "population_rows": 0,
            "population_max": 0,
            "scalar_path": 0,
            "deadline_dropped": 0,
            # Populations sealed before their window elapsed because no
            # connection could still join them.
            "sealed_early": 0,
        }
        self.endpoints: dict = {}
        #: Exact request-line bytes -> the parsed execute request
        #: ``(spec, canonical, deadline, stream)``, least recent first.
        self._lines: OrderedDict[bytes, tuple] = OrderedDict()
        #: hash -> Future resolving to ("ok", payload) | ("error", kind,
        #: detail).  Outcome tuples (not set_exception) so a computation
        #: nobody ends up awaiting never logs "exception never retrieved".
        self._inflight: dict[str, asyncio.Future] = {}
        self._admitted = 0
        #: Connections that can still send a request, and so join a
        #: forming population: counted from accept (before their handler
        #: first reaches ``readline``) and again whenever they wait for
        #: their next line.
        self._idle = 0
        #: Polls the listening sockets: a connection still in a listen
        #: queue can join too.
        self._listen_queue = select.poll()
        self._servers: list = []
        self._client_tasks: set = set()
        #: batch_key -> the currently forming population, plus the
        #: collector tasks draining sealed ones.
        self._batches: dict[str, _PendingBatch] = {}
        self._collectors: set = set()
        self._semaphore: Optional[asyncio.Semaphore] = None
        self._stopping: Optional[asyncio.Event] = None
        workers = self.config.workers
        if self.config.dispatcher is not None:
            self._dispatcher = self.config.dispatcher
        else:

            def _default_dispatcher(canonical, deadline_s):
                return dispatch_job(canonical, deadline_s, workers=workers)

            self._dispatcher = _default_dispatcher
        if self.config.batch_dispatcher is not None:
            self._batch_dispatcher = self.config.batch_dispatcher
        else:

            def _default_batch_dispatcher(canonicals, deadline_s):
                from repro.serve.jobs import dispatch_batch_job

                return dispatch_batch_job(
                    canonicals, deadline_s, workers=workers
                )

            self._batch_dispatcher = _default_batch_dispatcher

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------
    async def start(self) -> dict:
        """Bind the configured sockets; returns ``endpoints`` (with the
        OS-assigned port resolved when ``port=0``)."""
        self._semaphore = asyncio.Semaphore(max(1, self.config.concurrency))
        self._stopping = asyncio.Event()
        loop = asyncio.get_running_loop()

        def accept():
            # What ``asyncio.start_server`` builds, counted as idle from
            # accept on.
            self._idle += 1
            return asyncio.StreamReaderProtocol(
                asyncio.StreamReader(loop=loop), self._on_client, loop=loop
            )

        if self.config.port is not None:
            server = await loop.create_server(
                accept, self.config.host, self.config.port
            )
            self._servers.append(server)
            sockname = server.sockets[0].getsockname()
            self.endpoints["host"] = sockname[0]
            self.endpoints["port"] = sockname[1]
        if self.config.unix_socket is not None:
            server = await loop.create_unix_server(
                accept, path=self.config.unix_socket
            )
            self._servers.append(server)
            self.endpoints["unix_socket"] = self.config.unix_socket
        if not self._servers:
            raise ValueError("ServeConfig binds neither a port nor a socket")
        for server in self._servers:
            for sock in server.sockets:
                self._listen_queue.register(sock.fileno(), select.POLLIN)
        return dict(self.endpoints)

    async def serve_forever(self) -> None:
        """Serve until :meth:`request_stop` (or a ``shutdown`` command)."""
        assert self._stopping is not None, "start() first"
        await self._stopping.wait()
        await self.close()

    def request_stop(self) -> None:
        if self._stopping is not None:
            self._stopping.set()

    async def close(self) -> None:
        for server in self._servers:
            server.close()
        for server in self._servers:
            await server.wait_closed()
        self._servers.clear()
        for task in list(self._client_tasks):
            task.cancel()
        if self._client_tasks:
            await asyncio.gather(
                *self._client_tasks, return_exceptions=True
            )
        self._client_tasks.clear()
        self._listen_queue = select.poll()
        for task in list(self._collectors):
            task.cancel()
        if self._collectors:
            await asyncio.gather(*self._collectors, return_exceptions=True)
        self._collectors.clear()
        self._batches.clear()
        path = self.endpoints.get("unix_socket")
        if path:
            try:
                os.unlink(path)
            except OSError:
                pass

    # ------------------------------------------------------------------
    # Connection handling.
    # ------------------------------------------------------------------
    async def _on_client(self, reader, writer) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._client_tasks.add(task)
        try:
            while True:
                try:
                    line = await reader.readline()
                finally:
                    self._idle -= 1
                    self._seal_if_unjoinable()
                if not line:
                    break
                line = line.strip()
                if line:
                    await self._serve_line(line, writer)
                self._idle += 1
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            pass
        finally:
            if task is not None:
                self._client_tasks.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _serve_line(self, line: bytes, writer) -> None:
        """Answer one request line.  An ``execute`` line whose exact
        bytes were parsed before skips decoding and spec parsing: the
        line map hands back the request parsed from them."""
        execute = self._lines.get(line)
        if execute is not None:
            self._lines.move_to_end(line)
            self.counters["requests"] += 1
            await self._handle_execute(execute, writer)
            return
        try:
            request = json.loads(line)
            if not isinstance(request, dict):
                raise ValueError("request must be a JSON object")
        except ValueError as error:
            self.counters["errors"] += 1
            await self._write(
                writer,
                response_envelope(
                    "?", False, error="bad-request",
                    detail=f"unparseable request: {error}",
                ),
            )
            return
        await self._handle(request, writer, line)

    async def _write(self, writer, obj: dict) -> None:
        writer.write(_encode(obj))
        await writer.drain()

    def _status_data(self) -> dict:
        from repro.perf.pool import pool_stats

        counters = dict(self.counters)
        populations = counters["populations"]
        return {
            "endpoints": dict(self.endpoints),
            "pool": pool_stats(),
            "cache": self.cache.stats(),
            "counters": counters,
            "inflight": len(self._inflight),
            "admitted": self._admitted,
            "concurrency": self.config.concurrency,
            "max_pending": self.config.max_pending,
            "batch": {
                "window_s": self.config.batch_window_s,
                "max": self.config.batch_max,
                "populations": populations,
                "rows": counters["population_rows"],
                "mean_population": (
                    round(counters["population_rows"] / populations, 2)
                    if populations
                    else None
                ),
                "max_population": counters["population_max"],
                "scalar_path": counters["scalar_path"],
                "deadline_dropped": counters["deadline_dropped"],
                "sealed_early": counters["sealed_early"],
                "idle_connections": self._idle,
                "forming": sum(
                    len(batch.entries)
                    for batch in self._batches.values()
                ),
            },
        }

    async def _handle(self, request: dict, writer, line: bytes) -> None:
        command = request.get("command")
        self.counters["requests"] += 1
        if command == "status":
            await self._write(
                writer,
                response_envelope("status", True, data=self._status_data()),
            )
            return
        if command == "shutdown":
            await self._write(
                writer,
                response_envelope("shutdown", True,
                                  data=self._status_data()),
            )
            self.request_stop()
            return
        if command == "execute":
            try:
                execute = _parse_execute(request)
            except (KeyError, ValueError, TypeError) as error:
                self.counters["errors"] += 1
                await self._write(
                    writer,
                    response_envelope(
                        "execute", False, error="bad-request",
                        detail=f"bad spec: {error}",
                    ),
                )
                return
            # Only lines that parsed go into the map; it holds at most
            # as many lines as the memo holds results.
            self._lines[line] = execute
            if len(self._lines) > self.cache.capacity:
                self._lines.popitem(last=False)
            await self._handle_execute(execute, writer)
            return
        self.counters["errors"] += 1
        await self._write(
            writer,
            response_envelope(
                str(command), False, error="unknown-command",
                detail="known: execute, status, shutdown",
            ),
        )

    # ------------------------------------------------------------------
    # The execute flow.
    # ------------------------------------------------------------------
    async def _handle_execute(self, execute: tuple, writer) -> None:
        spec, canonical, deadline, stream = execute
        # One hash (a cached attribute after the first) and one memo
        # lookup per request, whether or not the line was mapped.
        key = spec.content_hash()
        memo = self.cache.get(key)
        if memo is not None:
            if stream and _has_frames(memo.payload):
                await self._respond(
                    writer, key, memo.payload, cached=True,
                    coalesced=False, stream=True,
                )
                return
            # Any other hit writes the entry's reply, encoded on its
            # first such hit.
            if memo.hit_line is None:
                memo.hit_line = _ok_line(
                    key, memo.payload, cached=True, coalesced=False
                )
            writer.write(memo.hit_line)
            await writer.drain()
            return

        inflight = self._inflight.get(key)
        if inflight is not None:
            # Single-flight: identical request already computing -- wait
            # for that computation instead of dispatching a second one.
            self.counters["coalesced"] += 1
            outcome = await asyncio.shield(inflight)
            await self._respond_outcome(
                writer, key, outcome, cached=False, coalesced=True,
                stream=stream,
            )
            return

        if self._admitted >= self.config.concurrency + self.config.max_pending:
            self.counters["busy_rejections"] += 1
            await self._write(
                writer,
                response_envelope(
                    "execute", False, error="busy",
                    retry_after=self.config.retry_after_s, hash=key,
                ),
            )
            return

        route = (
            spec.batch_key() if self.config.batch_window_s >= 0 else None
        )
        self._admitted += 1
        future = asyncio.get_running_loop().create_future()
        self._inflight[key] = future
        extras: dict = {}
        try:
            if route is None:
                self.counters["scalar_path"] += 1
                outcome = await self._compute(canonical, deadline, key)
            else:
                outcome, extras = await self._batch_compute(
                    route, canonical, deadline, key
                )
        finally:
            self._admitted -= 1
            self._inflight.pop(key, None)
        future.set_result(outcome)
        await self._respond_outcome(
            writer, key, outcome, cached=False, coalesced=False,
            stream=stream, extras=extras,
        )

    async def _compute(self, canonical: str, deadline, key: str) -> tuple:
        """Dispatch one admitted job; returns an outcome tuple."""
        from repro.perf.pool import ParallelTimeoutError

        assert self._semaphore is not None, "start() first"
        async with self._semaphore:
            loop = asyncio.get_running_loop()
            try:
                payload = await loop.run_in_executor(
                    None, self._dispatcher, canonical, deadline
                )
            except ParallelTimeoutError as error:
                self.counters["deadline_failures"] += 1
                return ("error", "deadline", str(error))
            except Exception as error:  # worker exceptions propagate here
                self.counters["errors"] += 1
                return (
                    "error", "execution",
                    f"{type(error).__name__}: {error}",
                )
        self.counters["executed"] += 1
        self.cache.put(key, MemoEntry(payload))
        return ("ok", payload)

    # ------------------------------------------------------------------
    # Continuous batching: admission queue, collector, de-mux.
    # ------------------------------------------------------------------
    async def _batch_compute(
        self, route: str, canonical: str, deadline, key: str
    ) -> tuple:
        """Admit one request to the forming population for its
        compatibility key; returns ``(outcome, respond-extras)`` once
        the population executed (or this row was dropped)."""
        loop = asyncio.get_running_loop()
        self.counters["batched"] += 1
        entry = {
            "key": key,
            "canonical": canonical,
            "deadline": deadline,
            "expires": (
                loop.time() + deadline if deadline is not None else None
            ),
            "future": loop.create_future(),
        }
        window = self.config.batch_window_s
        batch = self._batches.get(route)
        if batch is None:
            batch = _PendingBatch()
            batch.entries.append(entry)
            if window > 0 and len(batch.entries) < self.config.batch_max:
                # Open the admission window; the collector seals it.
                self._batches[route] = batch
                collector = loop.create_task(self._collect(route, batch))
                self._seal_if_unjoinable()
            else:
                # window == 0 (or batch_max == 1): degenerate population
                # of one, sealed immediately -- no coalescing latency.
                collector = loop.create_task(self._execute_batch(batch))
            self._collectors.add(collector)
            collector.add_done_callback(self._collectors.discard)
        else:
            batch.entries.append(entry)
            if len(batch.entries) >= self.config.batch_max:
                # Population cap: seal now, don't wait out the window.
                self._batches.pop(route, None)
                batch.full.set()
        return await entry["future"]

    def _joinable(self) -> bool:
        """Whether a connection can still add a request: one is idle or
        waits in a listen queue."""
        return bool(self._idle or self._listen_queue.poll(0))

    def _seal_if_unjoinable(self) -> None:
        """Seal the forming populations on the next loop turn -- once the
        line just read has joined, and a connection accepted meanwhile
        counts as idle -- unless a connection can still join them."""
        if self._batches and not self._joinable():
            asyncio.get_running_loop().call_soon(self._seal_unjoinable)

    def _seal_unjoinable(self) -> None:
        if self._joinable():
            return
        for batch in self._batches.values():
            self.counters["sealed_early"] += 1
            batch.full.set()
        self._batches.clear()

    async def _collect(self, route: str, batch: _PendingBatch) -> None:
        """Wait out the admission window unless the population seals
        first (cap reached, nobody left to join), then execute."""
        try:
            await asyncio.wait_for(
                batch.full.wait(), timeout=self.config.batch_window_s
            )
        except asyncio.TimeoutError:
            pass
        finally:
            if self._batches.get(route) is batch:
                self._batches.pop(route, None)
        await self._execute_batch(batch)

    async def _execute_batch(self, batch: _PendingBatch) -> None:
        """Seal a population: drop expired rows, run the rest as one
        coalesced pool job, de-multiplex per-row outcomes."""
        from repro.perf.pool import ParallelTimeoutError

        loop = asyncio.get_running_loop()
        now = loop.time()
        live = []
        for entry in batch.entries:
            if entry["expires"] is not None and entry["expires"] <= now:
                # The row is dropped from the batch, not the batch for
                # the row: its neighbours still execute.
                self.counters["deadline_dropped"] += 1
                entry["future"].set_result((
                    (
                        "error", "deadline",
                        f"deadline {entry['deadline']:g}s expired before "
                        "the population sealed",
                    ),
                    {"batched": True},
                ))
                continue
            live.append(entry)
        if not live:
            return
        self.counters["populations"] += 1
        self.counters["population_rows"] += len(live)
        self.counters["population_max"] = max(
            self.counters["population_max"], len(live)
        )
        remaining = [
            entry["expires"] - now
            for entry in live
            if entry["expires"] is not None
        ]
        # The pool timeout may only fire once every surviving row is out
        # of time; a deadline-free row keeps the job timeout-free.
        timeout = (
            max(remaining) if len(remaining) == len(live) else None
        )
        extras = {"batched": True, "population": len(live)}
        canonicals = tuple(entry["canonical"] for entry in live)
        try:
            assert self._semaphore is not None, "start() first"
            async with self._semaphore:
                payloads = await loop.run_in_executor(
                    None, self._batch_dispatcher, canonicals, timeout
                )
            if len(payloads) != len(live):
                raise RuntimeError(
                    f"batch dispatcher returned {len(payloads)} payloads"
                    f" for {len(live)} rows"
                )
        except ParallelTimeoutError as error:
            self.counters["deadline_failures"] += len(live)
            outcome = ("error", "deadline", str(error))
            for entry in live:
                entry["future"].set_result((outcome, extras))
            return
        except Exception as error:
            self.counters["errors"] += len(live)
            outcome = (
                "error", "execution", f"{type(error).__name__}: {error}"
            )
            for entry in live:
                entry["future"].set_result((outcome, extras))
            return
        for entry, payload in zip(live, payloads):
            self.counters["executed"] += 1
            self.cache.put(entry["key"], MemoEntry(payload))
            entry["future"].set_result((("ok", payload), extras))

    async def _respond_outcome(
        self, writer, key: str, outcome: tuple, *, cached: bool,
        coalesced: bool, stream: bool, extras: Optional[dict] = None,
    ) -> None:
        extras = extras or {}
        if outcome[0] == "ok":
            await self._respond(
                writer, key, outcome[1], cached=cached,
                coalesced=coalesced, stream=stream, extras=extras,
            )
            return
        _, kind, detail = outcome
        await self._write(
            writer,
            response_envelope(
                "execute", False, error=kind, detail=detail, hash=key,
                **extras,
            ),
        )

    async def _respond(
        self, writer, key: str, payload: dict, *, cached: bool,
        coalesced: bool, stream: bool, extras: Optional[dict] = None,
    ) -> None:
        """Answer an ``ok`` execute: as frames when streaming has
        something to stream, otherwise as one line."""
        extras = extras or {}
        if stream and _has_frames(payload):
            trace = payload.get("trace")
            frame = dict(metrics_frame(payload.get("metrics")))
            frame.update(command="execute.frame", hash=key)
            await self._write(writer, frame)
            for chunk in trace_frames(
                trace or [], chunk=self.config.stream_chunk
            ):
                chunk.update(command="execute.frame", hash=key)
                await self._write(writer, chunk)
            await self._write(
                writer,
                response_envelope(
                    "execute", True, data=payload["data"], metrics=None,
                    hash=key, cached=cached, coalesced=coalesced,
                    streamed=True, trace=None, **extras,
                ),
            )
            return
        writer.write(_ok_line(
            key, payload, cached=cached, coalesced=coalesced, **extras
        ))
        await writer.drain()


def _has_frames(payload: dict) -> bool:
    """Whether a streamed answer to ``payload`` has frames to send."""
    return (
        payload.get("trace") is not None
        or payload.get("metrics") is not None
    )


def _encode(obj: dict) -> bytes:
    """One NDJSON response line."""
    return canonical_json(obj).encode("ascii") + b"\n"


def _ok_line(key: str, payload: dict, **annotations) -> bytes:
    """The encoded non-streamed ``ok`` response to an execute."""
    return _encode(response_envelope(
        "execute", True, data=payload["data"],
        metrics=payload.get("metrics"), hash=key, streamed=False,
        trace=payload.get("trace"), **annotations,
    ))


def _parse_execute(request: dict) -> tuple:
    """``(spec, canonical, deadline, stream)`` of an execute request;
    raises ``KeyError``/``ValueError``/``TypeError`` on a bad spec."""
    raw = request["spec"]
    spec = (
        spec_from_canonical(raw)
        if isinstance(raw, str)
        else spec_from_dict(raw)
    )
    return (
        spec, spec.canonical(), request.get("deadline"),
        bool(request.get("stream")),
    )


async def run_server(
    config: Optional[ServeConfig] = None,
    ready: Optional[Callable[[dict], None]] = None,
) -> None:
    """Start a daemon and serve until shutdown; ``ready(endpoints)`` is
    called once the sockets are bound (the CLI prints its ready line
    from it)."""
    server = ReproServer(config)
    endpoints = await server.start()
    if ready is not None:
        ready(endpoints)
    await server.serve_forever()
