"""Continuous batching on the serve tier: admission, coalescing,
deadline drops, and byte-identity of de-multiplexed results.

Daemon tests run a real :class:`repro.serve.server.ReproServer` on an
ephemeral port in a background thread (same harness as
``test_serve.py``), but inject *in-process* dispatchers so the tests
execute the production job bodies (:func:`execute_payload`,
:func:`execute_batch_payloads`) without a worker pool -- which also
lets a monkeypatched ``repro.perf.batch._np = None`` force the
pure-Python kernel backend on both the served and the direct leg.
"""

import asyncio
import pickle
import threading

import pytest

import repro.perf.batch as batch_mod
from repro.api import execute, execute_many, plan
from repro.perf.batch import available_backends, run_batch_specs
from repro.serve import ReproServer, ServeClient, ServeConfig
from repro.serve.jobs import execute_batch_payloads, execute_payload
from repro.serve.protocol import payload_for, payload_json
from repro.specs import BatchSpec, ExperimentSpec, canonical_json


def batch_spec(seed=0, protocols=("moesi",), **kwargs):
    kwargs.setdefault("rows", 4)
    kwargs.setdefault("events_per_row", 40)
    return BatchSpec(protocols=protocols, seed=seed, **kwargs)


def direct_payload(spec):
    """The reference payload: one-at-a-time local execution."""
    return payload_for(spec, execute(spec, workers=1))


# ----------------------------------------------------------------------
# The compatibility key.
# ----------------------------------------------------------------------
class TestBatchKey:
    def test_geometry_rows_seed_do_not_split_populations(self):
        # Padding handles heterogeneous geometry; rows/seed are per-row
        # schedule inputs.  Only the board mix splits the key.
        a = batch_spec(seed=1)
        b = batch_spec(seed=2, rows=8, events_per_row=60,
                       geometry=(8, 2, 64, 4))
        assert a.batch_key() is not None
        assert a.batch_key() == b.batch_key()

    def test_protocol_mix_shares_the_key_but_board_count_splits_it(self):
        # run_batch_specs groups merged rows by unit mix internally, so
        # different lowerable protocols coalesce under one key; the
        # board count changes the population shape and does split it.
        assert (
            batch_spec(protocols=("moesi",)).batch_key()
            == batch_spec(protocols=("illinois",)).batch_key()
        )
        assert (
            batch_spec(protocols=("moesi",)).batch_key()
            != batch_spec(protocols=("moesi",), n_units=3).batch_key()
        )

    def test_stateful_selector_protocols_are_not_batchable(self):
        assert batch_spec(protocols=("moesi-random",)).batch_key() is None

    def test_non_batch_specs_have_no_key(self):
        assert plan("experiment", references=50).batch_key() is None


# ----------------------------------------------------------------------
# content_hash caching (satellite).
# ----------------------------------------------------------------------
class TestContentHashCache:
    def test_hash_cached_on_instance_and_stable(self):
        from repro.specs import spec_from_canonical

        spec = batch_spec(seed=9)
        first = spec.content_hash()
        assert spec.__dict__["_content_hash"] == first
        assert spec.content_hash() is first  # the cached string itself
        # The cache is an optimization, not part of identity: a fresh
        # instance from the canonical form hashes to the same digest.
        assert spec_from_canonical(spec.canonical()).content_hash() == first

    def test_pickle_round_trip_keeps_hash_correct(self):
        spec = batch_spec(seed=11)
        before = spec.content_hash()
        clone = pickle.loads(pickle.dumps(spec))
        assert clone.content_hash() == before


# ----------------------------------------------------------------------
# run_batch_specs: the coalesced kernel entry point.
# ----------------------------------------------------------------------
class TestRunBatchSpecs:
    @pytest.mark.parametrize("backend", available_backends())
    def test_merged_rows_match_per_spec_execution(self, backend):
        specs = [
            batch_spec(seed=0),
            batch_spec(seed=1, rows=6, geometry=(8, 2, 64, 4)),
            batch_spec(seed=0),  # duplicate spec: independent rows
            batch_spec(seed=2, protocols=("moesi", "illinois"), n_units=2),
        ]
        merged = run_batch_specs(specs, backend=backend)
        for spec, rows in zip(specs, merged):
            expected = payload_for(spec, execute(
                spec, workers=1, backend=backend))
            assert payload_json(payload_for(spec, rows)) == payload_json(
                expected
            )


# ----------------------------------------------------------------------
# api.execute_many (in-process face of the batching path).
# ----------------------------------------------------------------------
class TestExecuteMany:
    def test_mixed_list_matches_one_at_a_time(self):
        specs = [
            batch_spec(seed=3),
            plan("experiment", protocol="dragon", references=80, seed=5),
            batch_spec(seed=4),
        ]
        results = execute_many(specs)
        for spec, result in zip(specs, results):
            assert payload_json(payload_for(spec, result)) == payload_json(
                direct_payload(spec)
            )


# ----------------------------------------------------------------------
# The daemon's admission queue.
# ----------------------------------------------------------------------
class Daemon:
    """A ReproServer on an ephemeral port, dispatching in-process."""

    def __init__(self, **config_kwargs):
        config_kwargs.setdefault("port", 0)
        config_kwargs.setdefault(
            "dispatcher",
            lambda canonical, deadline_s: execute_payload(canonical),
        )
        config_kwargs.setdefault(
            "batch_dispatcher",
            lambda canonicals, deadline_s: execute_batch_payloads(
                canonicals
            ),
        )
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


BURST = [batch_spec(seed=seed) for seed in range(6)]


class TestDaemonBatching:
    @pytest.mark.parametrize("backend", available_backends())
    def test_burst_coalesces_byte_identical(self, backend, monkeypatch):
        if backend == "python":
            monkeypatch.setattr(batch_mod, "_np", None)
        with Daemon(batch_window_s=0.5, batch_max=64) as daemon:
            client = daemon.client()
            envelopes = client.execute_many(BURST)
            status = client.status()["data"]["batch"]
        assert all(env["ok"] for env in envelopes)
        assert all(env.get("batched") for env in envelopes)
        # One admission window caught the whole burst.
        assert status["populations"] >= 1
        assert status["max_population"] > 1
        assert status["rows"] == len(BURST)
        for spec, env in zip(BURST, envelopes):
            local = direct_payload(spec)
            assert env["hash"] == spec.content_hash()
            assert canonical_json(env["data"]) == canonical_json(
                local["data"]
            )
            assert env["metrics"] == local["metrics"]

    def test_window_zero_degenerates_to_populations_of_one(self):
        with Daemon(batch_window_s=0.0) as daemon:
            client = daemon.client()
            envelopes = client.execute_many(BURST[:3])
            status = client.status()["data"]["batch"]
        assert all(env["ok"] for env in envelopes)
        assert all(env["population"] == 1 for env in envelopes)
        assert status["populations"] == 3
        assert status["max_population"] == 1
        for spec, env in zip(BURST[:3], envelopes):
            assert canonical_json(env["data"]) == canonical_json(
                direct_payload(spec)["data"]
            )

    def test_negative_window_disables_the_batch_path(self):
        spec = BURST[0]
        with Daemon(batch_window_s=-1.0) as daemon:
            envelope = daemon.client().execute(spec)
            status = daemon.client().status()["data"]["batch"]
        assert envelope["ok"] and "batched" not in envelope
        assert status["populations"] == 0
        assert status["scalar_path"] == 1
        assert canonical_json(envelope["data"]) == canonical_json(
            direct_payload(spec)["data"]
        )

    def test_mixed_burst_routes_and_stays_identical(self):
        # Batchable sweeps, non-batchable kinds, and an exact duplicate
        # -- all submitted in one concurrent burst.
        specs = [
            batch_spec(seed=0),
            batch_spec(seed=1),
            plan("experiment", protocol="dragon", references=80, seed=5),
            plan("experiment", protocol="moesi", references=80, seed=6),
            batch_spec(seed=0),  # duplicate: single-flight coalesces it
        ]
        with Daemon(batch_window_s=0.5, batch_max=64) as daemon:
            client = daemon.client()
            envelopes = client.execute_many(specs)
            data = client.status()["data"]
        assert all(env["ok"] for env in envelopes)
        counters = data["counters"]
        # Experiment + stateful-selector sweep computed one at a time.
        assert data["batch"]["scalar_path"] == 2
        # The duplicate coalesced onto its twin's in-flight computation.
        assert counters["coalesced"] == 1
        assert counters["executed"] == 4
        batched = [env for env in envelopes if env.get("batched")]
        assert len(batched) >= 2
        for spec, env in zip(specs, envelopes):
            local = direct_payload(spec)
            assert canonical_json(env["data"]) == canonical_json(
                local["data"]
            )
            assert env["metrics"] == local["metrics"]

    def test_expired_row_dropped_neighbour_survives(self):
        live_spec, doomed_spec = batch_spec(seed=20), batch_spec(seed=21)
        with Daemon(batch_window_s=0.5, batch_max=64) as daemon:
            client = daemon.client()
            results = {}

            def submit(name, spec, deadline):
                results[name] = client.execute(spec, deadline=deadline)

            threads = [
                threading.Thread(
                    target=submit, args=("live", live_spec, None)
                ),
                threading.Thread(
                    target=submit, args=("doomed", doomed_spec, 0.05)
                ),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            status = daemon.client().status()["data"]
        doomed = results["doomed"]
        assert not doomed["ok"]
        assert doomed["error"] == "deadline"
        assert doomed["batched"]
        live = results["live"]
        assert live["ok"] and live["batched"]
        assert live["population"] == 1  # the doomed row left the batch
        assert canonical_json(live["data"]) == canonical_json(
            direct_payload(live_spec)["data"]
        )
        assert status["counters"]["deadline_dropped"] == 1
        assert status["batch"]["max_population"] == 1
