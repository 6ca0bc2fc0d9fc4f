"""The serve tier: memo cache, stream frames, and the NDJSON daemon.

Daemon tests run a real :class:`repro.serve.server.ReproServer` on an
ephemeral TCP port inside a background thread, talking to it with the
blocking :class:`repro.serve.client.ServeClient`.  Dispatchers are
injected through :class:`ServeConfig` so the tests control execution
exactly -- counting dispatches, stalling to provoke back-pressure and
coalescing, raising to exercise the deadline and error paths -- while
the byte-identity test uses the production job body
(:func:`repro.serve.jobs.execute_payload`) in-process.
"""

import asyncio
import json
import threading
import time

import pytest

from repro.api import execute, plan
from repro.obs.stream import metrics_frame, reassemble_trace, trace_frames
from repro.perf.engine import ParallelTimeoutError
from repro.serve import MemoCache, ReproServer, ServeClient, ServeConfig
from repro.serve.jobs import execute_payload
from repro.serve.protocol import payload_for
from repro.specs import canonical_json


# ----------------------------------------------------------------------
# The memo cache.
# ----------------------------------------------------------------------
class TestMemoCache:
    def test_miss_then_hit_counts_exactly_once_each(self):
        cache = MemoCache(capacity=4)
        assert cache.get("k") is None
        cache.put("k", {"x": 1})
        assert cache.get("k") == {"x": 1}
        assert cache.stats() == {
            "capacity": 4, "size": 1, "hits": 1, "misses": 1,
            "evictions": 0,
        }

    def test_lru_eviction_order(self):
        cache = MemoCache(capacity=2)
        cache.put("a", {})
        cache.put("b", {})
        cache.get("a")          # refresh a; b is now least-recent
        cache.put("c", {})
        assert "a" in cache and "c" in cache and "b" not in cache
        assert cache.stats()["evictions"] == 1

    def test_put_refresh_does_not_evict(self):
        cache = MemoCache(capacity=2)
        cache.put("a", {})
        cache.put("b", {})
        cache.put("a", {"v": 2})
        assert len(cache) == 2
        assert cache.get("a") == {"v": 2}
        assert cache.stats()["evictions"] == 0

    def test_capacity_validated(self):
        with pytest.raises(ValueError, match="capacity"):
            MemoCache(capacity=0)

    def test_clear(self):
        cache = MemoCache()
        cache.put("a", {})
        cache.clear()
        assert len(cache) == 0


# ----------------------------------------------------------------------
# Stream frames.
# ----------------------------------------------------------------------
class TestStreamFrames:
    def test_round_trip(self):
        events = [{"seq": i} for i in range(10)]
        frames = list(trace_frames(events, chunk=3))
        assert [f["seq"] for f in frames] == [0, 1, 2, 3]
        assert all(f["total"] == 4 for f in frames)
        assert reassemble_trace([metrics_frame({"m": 1})] + frames) == events

    def test_empty_trace_is_no_frames(self):
        assert list(trace_frames([], chunk=4)) == []
        assert reassemble_trace([]) == []

    def test_gap_detected(self):
        frames = list(trace_frames([{"e": i} for i in range(9)], chunk=3))
        with pytest.raises(ValueError, match="gap"):
            reassemble_trace([frames[0], frames[2]])

    def test_short_delivery_detected(self):
        frames = list(trace_frames([{"e": i} for i in range(9)], chunk=3))
        with pytest.raises(ValueError, match="2 of 3"):
            reassemble_trace(frames[:2])


# ----------------------------------------------------------------------
# The daemon.
# ----------------------------------------------------------------------
class Daemon:
    """A ReproServer on an ephemeral port in a background thread."""

    def __init__(self, **config_kwargs):
        config_kwargs.setdefault("port", 0)
        self.config = ServeConfig(**config_kwargs)
        self.server = None
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        async def main():
            self.server = ReproServer(self.config)
            await self.server.start()
            self._ready.set()
            await self.server.serve_forever()

        asyncio.run(main())

    def __enter__(self):
        self._thread.start()
        assert self._ready.wait(timeout=10), "daemon never came up"
        return self

    def __exit__(self, *exc):
        try:
            self.client().shutdown()
        except OSError:
            pass
        self._thread.join(timeout=10)

    def client(self, timeout_s=30.0) -> ServeClient:
        return ServeClient(
            port=self.server.endpoints["port"], timeout_s=timeout_s
        )


def counting_dispatcher(counter: list):
    def dispatcher(canonical, deadline_s):
        counter.append(canonical)
        return execute_payload(canonical)

    return dispatcher


SPEC = plan("experiment", protocol="moesi", references=150, seed=3)


class TestDaemon:
    def test_memoized_repeat_skips_dispatch(self):
        dispatched = []
        with Daemon(dispatcher=counting_dispatcher(dispatched)) as daemon:
            client = daemon.client()
            first = client.execute(SPEC)
            second = client.execute(SPEC)
            status = client.status()["data"]
        assert first["ok"] and not first["cached"]
        assert second["ok"] and second["cached"]
        assert first["hash"] == second["hash"] == SPEC.content_hash()
        # The hit answered from memory: exactly one dispatch ever ran.
        assert len(dispatched) == 1
        assert status["cache"]["hits"] == 1
        assert status["cache"]["misses"] == 1
        assert status["counters"]["executed"] == 1
        # Byte-for-byte: cached and computed responses are identical.
        assert canonical_json(first["data"]) == canonical_json(second["data"])
        assert first["metrics"] == second["metrics"]

    def test_served_result_byte_identical_to_direct_execute(self):
        spec = plan(
            "experiment", protocol="dragon", references=150, seed=5,
            trace=True,
        )
        with Daemon() as daemon:  # production dispatcher, warm pool
            served = daemon.client().execute(spec)
        local = payload_for(spec, execute(spec))
        assert served["ok"]
        assert canonical_json(served["data"]) == canonical_json(local["data"])
        assert (
            canonical_json(served["metrics"])
            == canonical_json(local["metrics"])
        )
        assert (
            canonical_json(served["trace"]) == canonical_json(local["trace"])
        )

    def test_streamed_response_reassembles_identically(self):
        spec = plan(
            "experiment", protocol="moesi", references=150, seed=4, trace=True,
        )
        dispatched = []
        with Daemon(
            dispatcher=counting_dispatcher(dispatched), stream_chunk=16
        ) as daemon:
            client = daemon.client()
            plain = client.execute(spec)
            streamed = client.execute(spec, stream=True)
        assert streamed["streamed"] and streamed["cached"]
        assert canonical_json(streamed["data"]) == canonical_json(plain["data"])
        assert canonical_json(streamed["trace"]) == canonical_json(plain["trace"])
        assert streamed["metrics"] == plain["metrics"]

    def test_back_pressure_rejects_beyond_bound(self):
        release = threading.Event()

        def stalling(canonical, deadline_s):
            release.wait(timeout=30)
            return execute_payload(canonical)

        with Daemon(
            dispatcher=stalling, concurrency=1, max_pending=0,
            retry_after_s=0.25,
        ) as daemon:
            slow = daemon.client()
            results = {}
            thread = threading.Thread(
                target=lambda: results.update(slow=slow.execute(SPEC))
            )
            thread.start()
            # Wait until the stalled job is admitted, then overflow with
            # a *different* spec (same spec would coalesce, not queue).
            other = plan("experiment", protocol="berkeley", references=150)
            for _ in range(100):
                if daemon.client().status()["data"]["admitted"]:
                    break
                time.sleep(0.02)
            busy = daemon.client().execute(other)
            release.set()
            thread.join(timeout=30)
            status = daemon.client().status()["data"]
        assert not busy["ok"]
        assert busy["error"] == "busy"
        assert busy["retry_after"] == 0.25
        assert results["slow"]["ok"]
        assert status["counters"]["busy_rejections"] == 1

    def test_identical_inflight_requests_coalesce(self):
        started = threading.Event()
        release = threading.Event()
        dispatched = []

        def stalling(canonical, deadline_s):
            dispatched.append(canonical)
            started.set()
            release.wait(timeout=30)
            return execute_payload(canonical)

        with Daemon(dispatcher=stalling, concurrency=2) as daemon:
            results = {}

            def submit(name):
                results[name] = daemon.client().execute(SPEC)

            first = threading.Thread(target=submit, args=("a",))
            first.start()
            assert started.wait(timeout=10)
            second = threading.Thread(target=submit, args=("b",))
            second.start()
            for _ in range(100):
                if daemon.client().status()["data"]["counters"]["coalesced"]:
                    break
                time.sleep(0.02)
            release.set()
            first.join(timeout=30)
            second.join(timeout=30)
        assert len(dispatched) == 1
        assert results["a"]["ok"] and results["b"]["ok"]
        assert {results["a"]["coalesced"], results["b"]["coalesced"]} == {
            False, True,
        }
        assert (
            canonical_json(results["a"]["data"])
            == canonical_json(results["b"]["data"])
        )

    def test_deadline_overrun_answers_deadline_error(self):
        def overrunning(canonical, deadline_s):
            raise ParallelTimeoutError(0, deadline_s)

        with Daemon(dispatcher=overrunning) as daemon:
            response = daemon.client().execute(SPEC, deadline=0.01)
            status = daemon.client().status()["data"]
        assert not response["ok"]
        assert response["error"] == "deadline"
        assert status["counters"]["deadline_failures"] == 1

    def test_worker_exception_answers_execution_error(self):
        def exploding(canonical, deadline_s):
            raise RuntimeError("boom")

        with Daemon(dispatcher=exploding) as daemon:
            response = daemon.client().execute(SPEC)
        assert not response["ok"]
        assert response["error"] == "execution"
        assert "boom" in response["detail"]

    def test_failed_jobs_are_not_memoized(self):
        calls = []

        def flaky(canonical, deadline_s):
            calls.append(canonical)
            if len(calls) == 1:
                raise RuntimeError("transient")
            return execute_payload(canonical)

        with Daemon(dispatcher=flaky) as daemon:
            failed = daemon.client().execute(SPEC)
            retried = daemon.client().execute(SPEC)
        assert not failed["ok"]
        assert retried["ok"] and not retried["cached"]
        assert len(calls) == 2

    def test_bad_requests_answered_not_fatal(self):
        with Daemon() as daemon:
            client = daemon.client()
            bad_spec = client._roundtrip(
                {"command": "execute", "spec": {"kind": "nonesuch"}}
            )
            unknown = client._roundtrip({"command": "frobnicate"})
            # Daemon still up and serving afterwards.
            status = client.status()
        assert not bad_spec["ok"] and bad_spec["error"] == "bad-request"
        assert not unknown["ok"] and unknown["error"] == "unknown-command"
        assert status["ok"]
        assert status["data"]["counters"]["errors"] == 2

    def test_bad_literal_records_rejected_before_dispatch(self):
        from repro.workloads import ping_pong

        good = plan("experiment", workload=ping_pong(rounds=1, processors=2))
        dispatched = []
        bad = (["cpu0", "R", -16], ["cpu0", "X", 16], ["cpu0", "w", 16],
               ["cpu0", "R"])
        with Daemon(dispatcher=counting_dispatcher(dispatched)) as daemon:
            client = daemon.client()
            responses = []
            for record in bad:
                payload = good.to_dict()
                payload["workload"]["records"].append(record)
                responses.append(client._roundtrip(
                    {"command": "execute", "spec": payload}
                ))
            status = client.status()["data"]
        for response in responses:
            assert not response["ok"]
            assert response["error"] == "bad-request"
            assert "literal record" in response["detail"]
        assert dispatched == []
        assert status["counters"]["errors"] == len(bad)

    def test_verify_spec_served(self):
        dispatched = []
        with Daemon(dispatcher=counting_dispatcher(dispatched)) as daemon:
            response = daemon.client().execute(
                plan("verify", suites=("class-members",))
            )
        assert response["ok"]
        assert response["data"]["kind"] == "verify"
        assert response["data"]["ok"] is True
        assert response["data"]["rows"]

    def test_status_reports_pool_and_endpoints(self):
        with Daemon() as daemon:
            status = daemon.client().status()["data"]
        assert status["endpoints"]["port"] == daemon.server.endpoints["port"]
        assert "pool_starts" in status["pool"]
        assert "dispatches" in status["pool"]
        assert status["concurrency"] == 2
