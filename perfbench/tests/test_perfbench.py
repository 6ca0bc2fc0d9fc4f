"""Tests for the benchmark's own logic (not the program's speed).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import common  # noqa: E402
import offline  # noqa: E402
import serve  # noqa: E402
from common import (  # noqa: E402
    BenchError,
    Schedule,
    block_pattern,
    check_realized,
    covered_time,
    latency_metrics,
    percentile,
    quantile_position,
    self_times,
)

common.require_source()

#: Each workload's op types from fastest latency mode to slowest.
WORKLOAD_MODES = {
    "serve": (serve.SHARES, serve.LATENCY_ORDER),
    "check": (offline.CheckWorkload.shares, offline.CheckWorkload.modes),
}


def _draw(name, ordinal):
    return (name, ordinal)


# ---------------------------------------------------------------------------
# Schedules.
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("workload", sorted(WORKLOAD_MODES))
def test_schedule_is_identical_for_a_seed(workload):
    shares, _ = WORKLOAD_MODES[workload]
    first = Schedule(shares, 7, _draw)
    second = Schedule(shares, 7, _draw)
    assert [first[i] for i in range(200)] == [second[i] for i in range(200)]


def test_seed_moves_the_phase_not_the_mix():
    shares = serve.SHARES
    for seed in range(25):
        block = block_pattern(shares, seed)
        assert {n: block.count(n) for n in shares} == shares
    assert block_pattern(shares, 1) != block_pattern(shares, 2)


def test_nth_op_of_a_type_does_not_depend_on_the_interleave():
    a = Schedule({"x": 3, "y": 1}, 1, _draw)
    b = Schedule({"x": 3, "y": 1}, 2, _draw)
    xs_a = [a[i][1] for i in range(40) if a[i][0] == "x"][:20]
    xs_b = [b[i][1] for i in range(40) if b[i][0] == "x"][:20]
    assert xs_a == xs_b == [("x", n) for n in range(20)]


def test_types_are_spread_through_the_block():
    block = block_pattern({"hit": 15, "experiment": 4, "batch": 1}, 0)
    misses = [i for i, name in enumerate(block) if name != "hit"]
    gaps = [b - a for a, b in zip(misses, misses[1:])]
    assert max(gaps) <= 6


# ---------------------------------------------------------------------------
# Where the reported quantiles land.
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("workload", sorted(WORKLOAD_MODES))
@pytest.mark.parametrize("q", [0.5, 0.9])
def test_quantiles_sit_inside_one_mode(workload, q):
    shares, order = WORKLOAD_MODES[workload]
    assert sorted(order) == sorted(shares)
    name, rank, distance = quantile_position(
        [(n, shares[n]) for n in order], q
    )
    # Far from every boundary between two op types' modes ...
    assert distance >= 0.05
    if len(shares) > 1:
        # ... and near the middle of the mode it falls in.
        assert 0.25 <= rank <= 0.75, (name, rank)


def test_serve_quantiles_fall_in_the_declared_modes():
    order = [(n, serve.SHARES[n]) for n in serve.LATENCY_ORDER]
    assert quantile_position(order, 0.5)[0] == "hit"
    assert quantile_position(order, 0.9)[0] == "experiment"
    check = offline.CheckWorkload
    order = [(n, check.shares[n]) for n in check.modes]
    assert quantile_position(order, 0.5)[0] == "fuzz"
    assert quantile_position(order, 0.9)[0] == "verify"


def test_percentile_of_two_separated_modes():
    # 75 fast ops at ~1 ms, 25 slow at ~30 ms: p50 fast, p90 slow.
    values = [1.0 + i / 1000 for i in range(75)] + \
        [30.0 + i / 100 for i in range(25)]
    assert percentile(values, 50) < 2
    assert 30 <= percentile(values, 90) < 31
    assert percentile(values, 100) == max(values)


def test_latency_metrics():
    metrics = latency_metrics([0.001] * 990 + [0.002] * 10, 2.0)
    assert metrics["ops_per_s"] == 500
    assert metrics["p50_ms"] == metrics["p99_ms"] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Self time and the uncovered remainder.
# ---------------------------------------------------------------------------
def test_self_time_subtracts_the_union_of_children():
    spans = [
        {"id": "p", "parent": None, "start": 0.0, "end": 10.0},
        {"id": "a", "parent": "p", "start": 1.0, "end": 3.0},
        {"id": "b", "parent": "p", "start": 2.0, "end": 4.0},
        {"id": "c", "parent": "p", "start": 5.0, "end": 6.0},
        {"id": "g", "parent": "c", "start": 5.2, "end": 5.7},
        {"id": "x", "parent": "p", "start": 9.5, "end": 12.0},
    ]
    selfs = self_times(spans)
    # Children cover [1, 4], [5, 6] and [9.5, 10] (clipped): 4.5 s.
    assert selfs["p"] == pytest.approx(5.5)
    assert selfs["c"] == pytest.approx(0.5)
    assert selfs["g"] == pytest.approx(0.5)
    assert selfs["a"] == pytest.approx(2.0)


def test_covered_time_merges_overlaps_and_skips_empty():
    assert covered_time([]) == 0
    assert covered_time([(0, 1), (0.5, 2), (3, 4), (5, 5)]) == \
        pytest.approx(3.0)


def test_uncovered_remainder_per_op():
    ops = [("a", 0.0, 1.0), ("a", 2.0, 4.0)]
    top = [
        {"start": 0.1, "end": 0.6},
        {"start": 0.5, "end": 0.9},
        {"start": 2.0, "end": 3.0},
    ]
    # Op 1: 1.0 - 0.8 = 0.2 s; op 2: 2.0 - 1.0 = 1.0 s; mean 0.6 s.
    assert offline.uncovered_ms(ops, top) == pytest.approx(600.0)


def test_span_recorder_nests_and_restores():
    from spans import SpanRecorder

    class Base:
        def inner(self):
            return 1

    class Owner(Base):
        def outer(self):
            return self.inner() + 1

    outer_fn = Owner.__dict__["outer"]
    recorder = SpanRecorder()
    recorder.wrap(Owner, "outer", "outer")
    recorder.wrap(Owner, "inner", "inner",
                  note=lambda a, k, r: {"value": r})
    assert Owner().outer() == 2
    recorder.uninstall()
    outer, inner = sorted(recorder.spans, key=lambda s: s["name"] != "outer")
    assert inner["parent"] == outer["id"] and outer["parent"] is None
    assert inner["value"] == 1 and outer["end"] >= inner["end"]
    assert Owner.__dict__["outer"] is outer_fn
    assert "inner" not in Owner.__dict__  # inherited again, not shadowed


# ---------------------------------------------------------------------------
# Self-checks fire on faked violations.
# ---------------------------------------------------------------------------
def test_realized_shares_must_match_the_schedule():
    schedule = Schedule({"fuzz": 4, "verify": 1}, 0, _draw)
    good = [schedule.block[i % 5] for i in range(10)]
    check_realized(schedule, good)
    with pytest.raises(BenchError):
        check_realized(schedule, good[:-1])  # a partial block
    swapped = list(good)
    swapped[0], swapped[1] = swapped[1], swapped[0]
    if swapped != good:
        with pytest.raises(BenchError):
            check_realized(schedule, swapped)
    with pytest.raises(BenchError):
        check_realized(schedule, ["fuzz"] * 10)
    with pytest.raises(BenchError):
        check_realized(schedule, [])


class _FakeRequest:
    def __init__(self, name, index):
        self.hash = f"{name}-{index if name != 'hit' else 0}"


def _fake_window(mutate=None):
    """A finished 20-request window whose replies are all as scheduled,
    then altered by ``mutate(records)``."""
    workload = type("W", (), {})()
    workload.schedule = Schedule(
        serve.SHARES, 0, _FakeRequest
    )
    window = serve.Window(workload, None, 0, 0.0, None)
    payload = {"data": {"x": 1}, "metrics": None, "trace": None}
    for index in range(20):
        name, request = workload.schedule[index]
        envelope = dict(payload, ok=True, hash=request.hash,
                        cached=name == "hit", coalesced=False,
                        batched=name == "batch")
        raw = json.dumps(envelope, sort_keys=True).encode()
        window.records[index] = [name, request, 0.0, 0.001, raw, envelope]
    if mutate is not None:
        mutate(window.records)
    first = {"hit-0": serve._payload_json(payload)}
    return window, first


def _first(records, name):
    return next(r for r in records.values() if r[0] == name)


def test_window_check_accepts_the_scheduled_replies():
    window, first = _fake_window()
    assert window.check(first) == 0


@pytest.mark.parametrize("violation", [
    lambda rs: _first(rs, "hit")[5].update(cached=False),
    lambda rs: _first(rs, "experiment")[5].update(cached=True),
    lambda rs: _first(rs, "batch")[5].update(batched=False),
    lambda rs: _first(rs, "experiment")[5].update(batched=True),
    lambda rs: _first(rs, "experiment")[5].update(hash="other"),
    lambda rs: rs.pop(19),
])
def test_window_check_rejects_a_run_that_is_not_the_workload(violation):
    window, first = _fake_window(violation)
    with pytest.raises(BenchError):
        window.check(first)


def test_window_check_counts_failed_and_wrong_replies():
    def fail(records):
        _first(records, "experiment")[5].update(ok=False, error="busy")
    window, first = _fake_window(fail)
    assert window.check(first) == 1
    window, _ = _fake_window()
    assert window.check({"hit-0": "something else"}) == 1


def _status(pool_starts=1, hits=0, misses=0):
    return {"data": {
        "pool": {"pool_starts": pool_starts, "pool_refreshes": 0,
                 "dispatch_degraded": 0},
        "cache": {"hits": hits, "misses": misses},
        "counters": {"populations": 0, "population_rows": 0,
                     "busy_rejections": 0},
    }}


def test_status_checks_fire_on_faked_counters():
    window, _ = _fake_window()
    counts = serve.status_delta(_status(), _status(hits=15, misses=5), window)
    assert counts["serve.hit_ratio"] == 0.75
    with pytest.raises(BenchError):  # the pool restarted mid-window
        serve.status_delta(_status(), _status(2, hits=15, misses=5), window)
    with pytest.raises(BenchError):  # hit ratio off the declared share
        serve.status_delta(_status(), _status(hits=14, misses=6), window)
    with pytest.raises(BenchError):  # lookups the window did not send
        serve.status_delta(_status(), _status(hits=30, misses=10), window)


def test_missing_source_is_an_error(monkeypatch, tmp_path):
    monkeypatch.setattr(common, "SRC", tmp_path / "src")
    with pytest.raises(BenchError):
        common.require_source()


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "check",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_stop_children_reaps_orphaned_descendants():
    # A child that leaves a sleeping grandchild behind and exits: as
    # subreaper the script inherits the orphan and must reap it.
    leaver = ("import subprocess, sys; subprocess.Popen("
              "[sys.executable, '-c', 'import time; time.sleep(600)'])")
    script = (
        "import os, subprocess, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import common\n"
        "common.become_subreaper()\n"
        f"subprocess.run([sys.executable, '-c', {leaver!r}])\n"
        "orphans = len(common.child_pids(os.getpid()))\n"
        "reaped = common.stop_children()\n"
        "print(orphans, reaped, len(common.child_pids(os.getpid())))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script, str(HERE)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "1", "0"]


def test_spawned_groups_die_with_the_benchmark():
    # A spawned child forks a sleeping grandchild (as a daemon forks its
    # pool workers); then the parent's whole process group is killed.
    forker = ("import subprocess, sys, time; p = subprocess.Popen("
              "[sys.executable, '-c', 'import time; time.sleep(600)']); "
              "print(p.pid, flush=True); time.sleep(600)")
    script = (
        "import subprocess, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import common\n"
        f"child = common.spawn([sys.executable, '-c', {forker!r}], "
        "stdout=subprocess.PIPE, text=True)\n"
        "print(child.pid, child.stdout.readline().strip(), flush=True)\n"
        "sys.stdin.readline()\n"
    )
    parent = subprocess.Popen([sys.executable, "-c", script, str(HERE)],
                              stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                              text=True, start_new_session=True)
    pids = [int(pid) for pid in parent.stdout.readline().split()]
    assert len(pids) == 2
    os.killpg(parent.pid, signal.SIGKILL)
    parent.wait()
    parent.stdout.close()
    parent.stdin.close()

    def alive(pid):  # a zombie has ended; init reaps it
        try:
            return Path(f"/proc/{pid}/stat").read_bytes().rsplit(
                b")", 1)[1].split()[0] != b"Z"
        except OSError:
            return False

    deadline = time.monotonic() + 10
    while any(map(alive, pids)) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not any(map(alive, pids))


def test_benchmark_json_names_what_the_runs_print():
    import run

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == \
        run.END_TO_END
    layers = {n: u for group in run.PER_LAYER.values()
              for n, u in group.items()}
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == layers
    assert [w["name"] for w in bench["workloads"]] == \
        ["serve", "check"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
