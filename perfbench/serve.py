"""The ``serve`` workload: two blocking callers against ``repro serve``.

A closed loop: each caller sends its next request only after the reply
to the last one, one connection per request, as ``repro submit`` and
``ServeClient.execute`` users do; both draw the next request from one
shared schedule.  The fixed mix per 20-request block is
15 repeats of a 16-spec hot set warmed during set-up (memo hits), 4
fresh-seed ``experiment`` specs (pool dispatch, then the object engine)
and 1 fresh-seed single-protocol ``batch`` spec (admission window, then
the kernel).  p50 falls inside the hit mode; p90 inside the
experiment-miss mode.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

from common import (
    OUT,
    ROOT,
    BenchError,
    HostProbe,
    Schedule,
    check_realized,
    child_env,
    covered_time,
    latency_metrics,
    peak_rss_mb,
    run_base,
    spawn,
)
from spans import load_spans

SHARES = {"hit": 15, "experiment": 4, "batch": 1}
#: Op types from the fastest latency mode to the slowest: with these
#: shares p50 lands at two thirds into the hit mode and p90 halfway
#: into the experiment-miss mode.
LATENCY_ORDER = ("hit", "batch", "experiment")
HOT = 16
CALLERS = 2
SETUP_SAMPLES = 5
#: Protocols the experiment misses cycle through.
MISS_PROTOCOLS = ("moesi", "berkeley", "dragon", "illinois")
START_TIMEOUT_S = 60.0
#: Pool counters that must not move while the window is open.
STEADY_POOL = ("pool_starts", "pool_refreshes", "dispatch_degraded")


class Request:
    """One scheduled request: its wire line and expected content hash."""

    __slots__ = ("spec", "line", "hash")

    def __init__(self, spec) -> None:
        self.spec = spec
        self.line = (
            json.dumps({"command": "execute", "spec": spec.to_dict()}) + "\n"
        ).encode("ascii")
        self.hash = spec.content_hash()


class ServeWorkload:
    """The hot set and the seeded schedule of one serve run."""

    shares = SHARES

    def __init__(self, seed: int) -> None:
        from repro.specs import BatchSpec, ExperimentSpec, WorkloadSpec

        self.ExperimentSpec = ExperimentSpec
        self.WorkloadSpec = WorkloadSpec
        self.BatchSpec = BatchSpec
        self.base = run_base(seed)
        self.hot = [
            Request(self.experiment(self.base + index, index))
            for index in range(HOT)
        ]
        self.hot_order = list(range(HOT))
        random.Random(seed).shuffle(self.hot_order)
        self.warm_batches = [
            Request(self.batch(self.base + 1 + index)) for index in range(2)
        ]
        self.schedule = Schedule(self.shares, seed, self.draw)

    def experiment(self, seed: int, ordinal: int):
        return self.ExperimentSpec(
            protocol=MISS_PROTOCOLS[ordinal % len(MISS_PROTOCOLS)],
            workload=self.WorkloadSpec(seed=seed, references=1000),
        )

    def batch(self, seed: int):
        # Short schedules keep the batch mode (window plus kernel) below
        # the experiment-miss mode, so p90 and p99 fall in the latter.
        return self.BatchSpec(
            protocols=("moesi",), rows=4, events_per_row=25, seed=seed,
        )

    def draw(self, name: str, ordinal: int) -> Request:
        if name == "hit":
            return self.hot[self.hot_order[ordinal % HOT]]
        if name == "experiment":
            return Request(
                self.experiment(self.base + HOT + ordinal, ordinal)
            )
        return Request(self.batch(self.base + 3 + ordinal))


# ---------------------------------------------------------------------------
# The daemon and its client.
# ---------------------------------------------------------------------------
class Daemon:
    """One daemon process: plain ``python -m repro serve`` or the traced
    launcher, both at the daemon's default settings."""

    def __init__(self, span_dir=None) -> None:
        if span_dir is None:
            command = [sys.executable, "-m", "repro", "serve"]
        else:
            command = [sys.executable, str(ROOT / "perfbench" /
                       "serve_traced.py"), "--out", str(span_dir)]
        # Its own process group, so the pool workers it forks can be
        # stopped with it.
        self.proc = spawn(
            command, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
            env=child_env(), cwd=ROOT,
        )
        timer = threading.Timer(START_TIMEOUT_S, self.proc.kill)
        timer.start()
        try:
            line = self.proc.stdout.readline()
        finally:
            timer.cancel()
        try:
            ready = json.loads(line)
            self.port = ready["data"]["endpoints"]["port"]
        except (ValueError, KeyError, TypeError):
            self.kill()
            raise BenchError(f"daemon did not start: {line!r}")
        self.maxrss_kb = 0

    def call(self, line: bytes) -> tuple:
        """One request over one connection: ``(raw reply, envelope)``."""
        with socket.create_connection(("127.0.0.1", self.port),
                                      timeout=60) as sock:
            sock.sendall(line)
            with sock.makefile("rb") as stream:
                raw = stream.readline()
        if not raw:
            raise BenchError("daemon closed the connection without a reply")
        return raw, json.loads(raw)

    def command(self, name: str) -> dict:
        _, envelope = self.call(
            (json.dumps({"command": name}) + "\n").encode("ascii")
        )
        return envelope

    def stop(self) -> None:
        """Shut down and reap; the daemon's rusage covers its pool."""
        self.command("shutdown")
        timer = threading.Timer(30.0, self.proc.kill)
        timer.start()
        try:
            self.proc.stdout.read()
            _, status, usage = os.wait4(self.proc.pid, 0)
        finally:
            timer.cancel()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.maxrss_kb = usage.ru_maxrss
        self.kill()
        if self.proc.returncode != 0:
            raise BenchError(f"daemon exited {self.proc.returncode}")

    def kill(self) -> None:
        """Kill the daemon and whatever is left of its process group."""
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        self.proc.stdout.close()


def _parallel(daemon: Daemon, requests: list) -> list:
    """Send ``requests`` from two callers (this thread and one more);
    replies in request order."""
    replies: list = [None] * len(requests)
    errors: list = []

    def caller(offset: int) -> None:
        try:
            for index in range(offset, len(requests), CALLERS):
                replies[index] = daemon.call(requests[index].line)
        except Exception as error:  # reported after the join
            errors.append(error)

    other = threading.Thread(target=caller, args=(1,))
    other.start()
    caller(0)
    other.join()
    if errors:
        raise BenchError(f"set-up request failed: {errors[0]}")
    return replies


def start_warm(workload: ServeWorkload, span_dir=None) -> tuple:
    """Launch a daemon and answer the hot set; returns ``(daemon,
    seconds, first answers)``.  Two batch specs warm the batch path."""
    start = time.perf_counter()
    daemon = Daemon(span_dir)
    try:
        replies = _parallel(daemon, workload.hot)
        elapsed = time.perf_counter() - start
        for _, envelope in replies:
            if not envelope.get("ok"):
                raise BenchError(f"hot-set request failed: {envelope}")
        for request in workload.warm_batches:
            _, envelope = daemon.call(request.line)
            if not envelope.get("ok"):
                raise BenchError(f"warm-up batch failed: {envelope}")
    except BaseException:
        daemon.kill()
        raise
    first = {
        request.hash: _payload_json(envelope)
        for request, (_, envelope) in zip(workload.hot, replies)
    }
    return daemon, elapsed, first


def _payload_json(envelope: dict) -> str:
    from repro.specs import canonical_json

    return canonical_json({
        "data": envelope.get("data"),
        "metrics": envelope.get("metrics"),
        "trace": envelope.get("trace"),
    })


# ---------------------------------------------------------------------------
# The timed window.
# ---------------------------------------------------------------------------
class Window:
    """Two callers draining the schedule from ``first`` until the time is
    up at a block boundary."""

    def __init__(self, workload: ServeWorkload, daemon: Daemon,
                 first: int, seconds: float, probe: HostProbe) -> None:
        self.workload = workload
        self.daemon = daemon
        self.first = first
        self.seconds = seconds
        self.probe = probe
        self.records: dict = {}
        self.errors: list = []
        self._next = first
        self._lock = threading.Lock()

    def _take(self, deadline: float):
        with self._lock:
            index = self._next
            block = len(self.workload.schedule.block)
            if self.errors or (index - self.first) % block == 0 and \
                    time.perf_counter() >= deadline:
                return None
            self._next += 1
            return index, self.workload.schedule[index]

    def _caller(self, deadline: float) -> None:
        try:
            while True:
                taken = self._take(deadline)
                if taken is None:
                    return
                index, (name, request) = taken
                began = time.perf_counter()
                raw, envelope = self.daemon.call(request.line)
                ended = time.perf_counter()
                self.records[index] = (name, request, began, ended, raw,
                                       envelope)
                if name != "hit":
                    self.probe.maybe_sample()
        except Exception as error:  # reported after the join
            with self._lock:
                self.errors.append(error)  # also stops the other caller

    def run(self) -> float:
        start = time.perf_counter()
        deadline = start + self.seconds
        other = threading.Thread(target=self._caller, args=(deadline,))
        other.start()
        self._caller(deadline)
        other.join()
        wall = time.perf_counter() - start
        if self.errors:
            raise BenchError(f"request failed in transport: {self.errors[0]}")
        return wall

    def ordered(self) -> list:
        return [self.records[index] for index in sorted(self.records)]

    def check(self, first_answers: dict) -> int:
        """Envelope checks; returns the number of failed ops.

        Raises :class:`BenchError` when the run is not the scheduled
        workload (a hit recomputed, a miss answered from the memo)."""
        ordered = self.ordered()
        if sorted(self.records) != list(
            range(self.first, self.first + len(ordered))
        ):
            raise BenchError("scheduled requests were skipped")
        check_realized(self.workload.schedule,
                       [record[0] for record in ordered])
        failed = 0
        hit_lines: dict = {}
        for name, request, _, _, raw, envelope in ordered:
            if not envelope.get("ok"):
                failed += 1
                continue
            if envelope.get("hash") != request.hash:
                raise BenchError("reply for another spec than scheduled")
            cached = envelope.get("cached")
            if name == "hit":
                if not cached:
                    raise BenchError("a hot-set request missed the memo")
                if hit_lines.setdefault(request.hash, raw) != raw:
                    failed += 1
            else:
                if cached or envelope.get("coalesced"):
                    raise BenchError(f"a fresh {name} spec hit the memo")
                if (name == "batch") != bool(envelope.get("batched")):
                    raise BenchError(f"{name} request took the wrong path")
        for key, raw in hit_lines.items():
            if _payload_json(json.loads(raw)) != first_answers[key]:
                failed += 1
        return failed


def verify_misses(windows: list, seed: int, samples: int = 8) -> int:
    """Recompute a seeded sample of misses in-process; returns the
    number that differ byte-for-byte from the served payload."""
    from repro.serve.jobs import execute_payload
    from repro.serve.protocol import payload_json

    misses = [
        record for window in windows for record in window.ordered()
        if record[0] != "hit" and record[5].get("ok")
    ]
    batches = [record for record in misses if record[0] == "batch"]
    rng = random.Random(seed)
    chosen = rng.sample(misses, min(samples - 2, len(misses)))
    chosen += rng.sample(batches, min(2, len(batches)))
    wrong = 0
    for _, request, _, _, _, envelope in chosen:
        expected = payload_json(execute_payload(request.spec.canonical()))
        if expected != _payload_json(envelope):
            wrong += 1
    return wrong


def status_delta(before: dict, after: dict, window: Window) -> dict:
    """Self-checks on the daemon's own counters across the window."""
    b, a = before["data"], after["data"]
    for name in STEADY_POOL:
        if a["pool"][name] != b["pool"][name]:
            raise BenchError(
                f"pool {name} moved during the window: "
                f"{b['pool'][name]} -> {a['pool'][name]}"
            )
    hits = a["cache"]["hits"] - b["cache"]["hits"]
    lookups = hits + a["cache"]["misses"] - b["cache"]["misses"]
    declared = SHARES["hit"] / sum(SHARES.values())
    if lookups != len(window.records) or hits != declared * lookups:
        raise BenchError(
            f"memo hit ratio {hits}/{lookups} != declared {declared}"
        )
    populations = a["counters"]["populations"] - b["counters"]["populations"]
    rows = a["counters"]["population_rows"] - b["counters"]["population_rows"]
    return {
        "serve.hit_ratio": hits / lookups,
        "serve.mean_population": rows / populations if populations else 0.0,
        "engine.pool_starts": a["pool"]["pool_starts"],
        "engine.pool_refreshes": a["pool"]["pool_refreshes"],
        "engine.dispatch_degraded": a["pool"]["dispatch_degraded"],
        "serve.busy_rejections": a["counters"]["busy_rejections"]
        - b["counters"]["busy_rejections"],
    }


def timed(daemon: Daemon, workload: ServeWorkload, first: int,
          seconds: float, probe: HostProbe) -> tuple:
    before = daemon.command("status")
    window = Window(workload, daemon, first, seconds, probe)
    wall = window.run()
    after = daemon.command("status")
    counts = status_delta(before, after, window)
    return window, wall, counts


# ---------------------------------------------------------------------------
# Per-layer numbers from the traced daemon's spans.
# ---------------------------------------------------------------------------
def layer_metrics(window: Window, spans: list, daemon_pid: int) -> dict:
    """Match each client request to the daemon task that served it (by
    content hash and time) and to the dispatch and worker spans carrying
    its hash; self time and the uncovered remainder follow."""
    groups: dict = {}
    by_key: dict = {}
    for span in spans:
        if span["pid"] == daemon_pid and span.get("ctx") is not None:
            groups.setdefault(span["ctx"], []).append(span)
        elif span["parent"] is None and span.get("key") is not None:
            keys = span["key"] if isinstance(span["key"], list) \
                else [span["key"]]
            for key in keys:
                by_key.setdefault(key, []).append(span)
    tasks: dict = {}
    for group in groups.values():
        keys = [s["key"] for s in group if s["name"] == "parse.hash"]
        if keys:
            tasks.setdefault(keys[0], []).append(
                (min(s["start"] for s in group), group)
            )
    for entries in tasks.values():
        entries.sort(key=lambda entry: entry[0])

    totals: dict = {}
    counts: dict = {}

    def add(name, value):
        totals[name] = totals.get(name, 0.0) + value
        counts[name] = counts.get(name, 0) + 1

    for name, request, began, ended, _, _ in window.ordered():
        entries = tasks.get(request.hash, [])
        match = next(
            (entry for entry in entries if began <= entry[0] <= ended), None
        )
        if match is None:
            raise BenchError("a request has no daemon spans")
        entries.remove(match)
        parse_start, group = match
        top = [s for s in group if s["parent"] is None]
        others = [
            s for s in by_key.get(request.hash, ())
            if s["start"] < ended and s["end"] > began
        ]

        def total(prefix, pool=top):
            return sum(s["end"] - s["start"] for s in pool
                       if s["name"].startswith(prefix))

        add("specs.parse_us", total("parse.") * 1e6)
        add("serve.memo_get_us", total("memo.") * 1e6)
        add("serve.respond_us", total("respond.") * 1e6)
        covered = covered_time([
            (max(began, s["start"]), min(ended, s["end"]))
            for s in top + others
        ])
        add("serve.unattributed_ms", (ended - began - covered) * 1e3)
        if name == "experiment":
            dispatch = [s for s in others if s["name"] == "dispatch"]
            run = [s for s in others if s["name"] == "exec"]
            if len(dispatch) != 1 or len(run) != 1:
                raise BenchError("an experiment miss lacks its spans")
            d = dispatch[0]["end"] - dispatch[0]["start"]
            e = run[0]["end"] - run[0]["start"]
            add("serve.dispatch_ms", d * 1e3)
            add("serve.exec_ms", e * 1e3)
            add("serve.ipc_ms", (d - e) * 1e3)
        elif name == "batch":
            dispatch = [s for s in others if s["name"] == "batch.dispatch"]
            if len(dispatch) != 1:
                raise BenchError("a batch miss lacks its dispatch span")
            add("serve.batch_wait_ms",
                (dispatch[0]["start"] - parse_start) * 1e3)
    for span in spans:
        duration = span["end"] - span["start"]
        if span["name"] == "batch.exec":
            add("serve.batch_exec_ms", duration * 1e3)
        elif span["name"] == "payload":
            add("serve.payload_ms", duration * 1e3)
        elif span["name"] == "attach":
            add("shared.attach_ms", duration * 1e3)
    return {name: totals[name] / counts[name] for name in sorted(totals)}


# ---------------------------------------------------------------------------
def run(seed: int, seconds: float, trace: bool) -> dict:
    workload = ServeWorkload(seed)
    probe = HostProbe()
    setups = []
    first_answers: dict = {}
    daemon = None
    try:
        for sample in range(SETUP_SAMPLES):
            daemon, elapsed, first_answers = start_warm(workload)
            setups.append(elapsed)
            if sample < SETUP_SAMPLES - 1:
                daemon.stop()
        window_s = seconds / 2 if trace else seconds
        plain, wall, counts = timed(daemon, workload, 0, window_s, probe)
        daemon.stop()
        windows = [plain]
        failed = plain.check(first_answers)
        layers: dict = {}
        if trace:
            span_dir = OUT / f"serve-spans-{os.getpid()}"
            shutil.rmtree(span_dir, ignore_errors=True)
            span_dir.mkdir(parents=True)
            daemon, _, first_answers = start_warm(workload, span_dir)
            first = len(plain.records)
            traced, _, counts = timed(daemon, workload, first, window_s,
                                      probe)
            pid = daemon.proc.pid
            daemon.stop()
            failed += traced.check(first_answers)
            windows.append(traced)
            spans = load_spans(span_dir)
            shutil.rmtree(span_dir, ignore_errors=True)
            layers = layer_metrics(traced, spans, pid)
            layers.update(counts)

            def mean_latency(window):
                return statistics.mean(r[3] - r[2] for r in window.ordered())

            layers["trace.overhead_pct"] = 100.0 * (
                mean_latency(traced) / mean_latency(plain) - 1.0
            )
        daemon = None
    finally:
        if daemon is not None:
            daemon.kill()
    wrong = verify_misses(windows, seed)
    metrics = {}
    if not trace:
        ordered = plain.ordered()
        metrics = latency_metrics([r[3] - r[2] for r in ordered], wall)
        metrics["setup_s"] = statistics.median(setups)
        metrics["peak_rss_mb"] = peak_rss_mb(plain.daemon.maxrss_kb)
    attempted = sum(len(window.records) for window in windows)
    return {
        "metrics": metrics,
        "layers": layers,
        "attempted": attempted,
        "failed": failed + wrong,
        "correct": failed + wrong == 0,
        "calib_ms": probe.median_ms(),
        "setups": setups,
    }
