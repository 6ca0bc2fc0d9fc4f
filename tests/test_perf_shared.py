"""Zero-copy shared transition tables (the batch sweep's segment).

The contract: a :class:`repro.core.transitions.BatchTables` rebuilt from
the packed shared-memory image compares equal to one lowered directly
from the protocol, for every batchable registry spec; attaching a
segment seeds the kernel's lowering cache so workers never probe a
protocol.  A worker that attaches a segment never touches the
publisher's resource-tracker entry, so the tracker still reclaims the
segment when the publisher dies.
"""

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import repro

from repro.core.transitions import BatchTables, lower_batch_tables
from repro.perf import shared
from repro.perf.batch import batchable_specs
from repro.protocols.registry import make_protocol


@pytest.fixture
def segment():
    name = shared.publish_tables()
    yield name
    shared.unlink_tables(name)


class TestPacking:
    def test_round_trip_every_batchable_spec(self):
        specs = batchable_specs()
        tables = {
            spec: lower_batch_tables(make_protocol(spec)) for spec in specs
        }
        rebuilt = shared.unpack_tables(shared.pack_tables(tables))
        assert set(rebuilt) == set(specs)
        for spec in specs:
            assert rebuilt[spec] == tables[spec], spec
            assert isinstance(rebuilt[spec], BatchTables)

    def test_non_caching_flag_survives(self):
        tables = {"non-caching": lower_batch_tables(make_protocol("non-caching"))}
        rebuilt = shared.unpack_tables(shared.pack_tables(tables))
        assert rebuilt["non-caching"].non_caching is True

    def test_garbage_buffer_rejected(self):
        with pytest.raises(shared.SharedTablesError):
            shared.unpack_tables(b"\0" * 64)

    def test_truncated_segment_rejected(self):
        image = shared.pack_tables(
            {"moesi": lower_batch_tables(make_protocol("moesi"))}
        )
        with pytest.raises(shared.SharedTablesError, match="truncated"):
            shared.unpack_tables(image[: len(image) // 2])


class TestSegmentLifecycle:
    def test_publish_attach_unlink(self, segment):
        got = shared.attach_tables(segment, seed_kernel_cache=False)
        for spec in batchable_specs():
            assert got[spec] == lower_batch_tables(make_protocol(spec))

    def test_attach_seeds_kernel_cache(self, segment):
        from repro.perf import batch

        saved = dict(batch._LOWERED)
        batch._LOWERED.clear()
        try:
            shared.attach_tables(segment)
            assert set(batchable_specs()) <= set(batch._LOWERED)
            # The seeded entries ARE the attached objects, not copies.
            attached = shared.attach_tables(segment, seed_kernel_cache=False)
            assert batch._LOWERED["moesi"] is attached["moesi"]
        finally:
            batch._LOWERED.clear()
            batch._LOWERED.update(saved)

    def test_attach_is_memoized_per_segment(self, segment):
        first = shared.attach_tables(segment, seed_kernel_cache=False)
        second = shared.attach_tables(segment, seed_kernel_cache=False)
        assert first["moesi"] is second["moesi"]

    def test_attach_missing_segment_raises(self):
        with pytest.raises(Exception):
            shared.attach_tables("psm_repro_no_such_segment")


#: Publish a segment, attach it from a pool worker forked *before* the
#: publish (a warm pool: it shares this process's resource tracker but
#: not its table of published segments), then unlink -- or wait to be
#: killed when argv[1] is "kill".
_PUBLISHER = """
import concurrent.futures, functools, multiprocessing, sys, time
from multiprocessing import resource_tracker
from repro.perf import shared

resource_tracker.ensure_running()
executor = concurrent.futures.ProcessPoolExecutor(
    1, mp_context=multiprocessing.get_context("fork")
)
executor.submit(int).result()
name = shared.publish_tables(["moesi"])
executor.submit(
    functools.partial(shared.attach_tables, name, seed_kernel_cache=False)
).result()
executor.shutdown(wait=True)
print(name, flush=True)
if sys.argv[1] == "kill":
    time.sleep(60)
shared.unlink_tables(name)
"""


def _publisher(mode: str) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(repro.__file__).parents[1]),
                      env.get("PYTHONPATH")])
    )
    return subprocess.Popen(
        [sys.executable, "-c", _PUBLISHER, mode],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )


@pytest.mark.skipif(
    not os.path.isdir("/dev/shm") or sys.platform != "linux",
    reason="needs fork and POSIX shared memory under /dev/shm",
)
class TestTrackerOwnership:
    def test_publisher_unlink_after_worker_attach_is_clean(self):
        # stderr stays open until the tracker exits, so communicate()
        # also collects anything the tracker prints on the way out.
        _, err = _publisher("unlink").communicate(timeout=60)
        assert "KeyError" not in err, err

    def test_killed_publisher_segment_is_reclaimed(self):
        proc = _publisher("kill")
        name = proc.stdout.readline().strip()
        assert name, proc.communicate(timeout=60)[1]
        proc.send_signal(signal.SIGKILL)
        proc.communicate(timeout=60)  # the tracker has exited too
        leftover = Path("/dev/shm") / name.lstrip("/")
        leaked = leftover.exists()
        if leaked:
            leftover.unlink()
        assert not leaked, f"{name} outlived its killed publisher"
