"""The in-process workload ``check``, run in a child.

``run.py`` starts this file in a fresh interpreter once per set-up
sample.  The child imports the program, warms it with one untimed op of
each type, prints ``READY`` and waits on stdin: ``quit`` ends a set-up
sample, ``go`` runs the timed window and prints one JSON result line.
Its parent times interpreter start to ``READY`` (``setup_s``) and reads
the child's peak RSS when it exits (``peak_rss_mb``).

    python perfbench/offline.py --workload check --seed 1 --seconds 55 \
        --trace 0
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    HostProbe,
    Schedule,
    check_realized,
    covered_time,
    latency_metrics,
    require_source,
    run_base,
)
from spans import SpanRecorder  # noqa: E402


def digest(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


# ---------------------------------------------------------------------------
# check: fuzz blocks and verify passes through api.execute.
# ---------------------------------------------------------------------------
class CheckWorkload:
    """Conformance work on the object engine: four 40-seed fuzz blocks
    for every verify pass over three fixed suites."""

    shares = {"fuzz": 4, "verify": 1}
    #: Fuzz blocks (~45 ms) are faster than verify passes (~75 ms): p50
    #: lands in the fuzz mode, p90 halfway into the verify mode.
    modes = ("fuzz", "verify")
    SEEDS = 40
    SUITES = ("homogeneous-foreign", "incompatible", "mutants")

    def __init__(self, seed: int) -> None:
        from repro import api
        from repro.specs import FuzzSpec, VerifySpec

        self.api = api
        self.FuzzSpec = FuzzSpec
        self.verify_spec = VerifySpec(suites=self.SUITES)
        self.base = run_base(seed)
        self.schedule = Schedule(self.shares, seed, self.draw)
        self.verify_rows = None

    def draw(self, name: str, ordinal: int):
        if name == "verify":
            return self.verify_spec
        return self.FuzzSpec(
            seeds=self.SEEDS, seed_base=self.base + (ordinal + 1) * self.SEEDS
        )

    def warm(self) -> None:
        self.op("fuzz", self.FuzzSpec(seeds=self.SEEDS, seed_base=self.base))
        self.verify_rows = digest(self.op("verify", self.verify_spec).rows)

    def op(self, name: str, spec):
        return self.api.execute(spec, workers=1)

    def check(self, index: int, name: str, spec, out) -> bool:
        if name == "verify":
            return out.ok and digest(out.rows) == self.verify_rows
        report = out.report
        return bool(out.ok and not report.failures
                    and report.seeds_run == self.SEEDS)

    def verify(self, rng: random.Random) -> int:
        return 0  # every op is checked in full as it completes

    def install(self, recorder: SpanRecorder) -> None:
        from repro.fuzz import campaign
        from repro.verify import mixes

        recorder.wrap(mixes, "explore", "explore", note=lambda a, k, r: {
            "states": r.states_explored,
            "transitions": r.transitions_taken,
        })
        recorder.wrap(campaign, "generate_scenario", "generate")
        recorder.wrap(campaign, "run_scenario", "run", note=lambda a, k, r: {
            "checked": r.transitions_checked,
        })
        recorder.wrap(campaign, "shrink_scenario", "shrink")

    def layer_metrics(self, ops: list, spans: list) -> dict:
        counts = {name: sum(1 for kind, _, _ in ops if kind == name)
                  for name in self.shares}

        def per(name, kind, field=None):
            values = [s for s in spans if s["name"] == name]
            total = sum(
                s[field] if field else (s["end"] - s["start"]) * 1e3
                for s in values
            )
            return total / counts[kind]

        top = [s for s in spans if s["parent"] is None]
        return {
            "verify.explore_ms": per("explore", "verify"),
            "verify.states": per("explore", "verify", "states"),
            "verify.transitions": per("explore", "verify", "transitions"),
            "fuzz.generate_ms": per("generate", "fuzz"),
            "fuzz.run_ms": per("run", "fuzz"),
            "fuzz.transitions_checked": per("run", "fuzz", "checked"),
            "fuzz.shrink_calls": sum(
                1 for s in spans if s["name"] == "shrink"
            ),
            "check.unattributed_ms": uncovered_ms(ops, top),
        }


def uncovered_ms(ops: list, top_spans: list) -> float:
    """Mean per op of the latency no top-level span covers."""
    spans = sorted(top_spans, key=lambda s: s["start"])
    total = 0.0
    cursor = 0
    for _, start, end in ops:
        inside = []
        while cursor < len(spans) and spans[cursor]["start"] < end:
            span = spans[cursor]
            if span["end"] > start:
                inside.append((max(start, span["start"]),
                               min(end, span["end"])))
            cursor += 1
        total += (end - start) - covered_time(inside)
    return total * 1e3 / len(ops)


WORKLOADS = {"check": CheckWorkload}


# ---------------------------------------------------------------------------
# The timed window.
# ---------------------------------------------------------------------------
def timed_window(workload, first: int, seconds: float,
                 probe: HostProbe) -> tuple:
    """Run ops from schedule index ``first`` until ``seconds`` have
    passed and a block is complete; returns ``(ops, wall_s, failed)``
    with ops as ``(type, start, end)``."""
    schedule = workload.schedule
    block = len(schedule.block)
    ops = []
    start = time.perf_counter()
    deadline = start + seconds
    index = first
    failed = 0
    while True:
        if (index - first) % block == 0 and time.perf_counter() >= deadline:
            break
        name, arg = schedule[index]
        began = time.perf_counter()
        out = workload.op(name, arg)
        ended = time.perf_counter()
        ops.append((name, began, ended))
        if not workload.check(index, name, arg, out):
            print(f"perfbench: {name} op {index} gave a wrong result",
                  file=sys.stderr)
            failed += 1
        probe.maybe_sample()
        index += 1
    wall = time.perf_counter() - start
    check_realized(schedule, [name for name, _, _ in ops])
    return ops, wall, failed


def run(workload, seed: int, seconds: float, trace: bool) -> dict:
    """The timed window(s) and output checks of a warmed workload."""
    probe = HostProbe()
    if not trace:
        ops, wall, failed = timed_window(workload, 0, seconds, probe)
        metrics = latency_metrics([end - start for _, start, end in ops],
                                  wall)
        layers = {}
    else:
        # Untraced then traced halves: the gap between them is the
        # tracing overhead; the per-layer numbers come from the second.
        plain, _, failed = timed_window(workload, 0, seconds / 2, probe)
        recorder = SpanRecorder()
        workload.install(recorder)
        try:
            ops, _, more = timed_window(workload, len(plain), seconds / 2,
                                        probe)
            failed += more
        finally:
            recorder.uninstall()
        metrics = {}
        layers = workload.layer_metrics(ops, recorder.spans)
        layers["trace.overhead_pct"] = 100.0 * (
            statistics.mean(e - s for _, s, e in ops)
            / statistics.mean(e - s for _, s, e in plain) - 1.0
        )
    failed += workload.verify(random.Random(seed))
    return {
        "metrics": metrics,
        "layers": layers,
        "attempted": len(ops) + (len(plain) if trace else 0),
        "failed": failed,
        "correct": failed == 0,
        "calib_ms": probe.median_ms(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    require_source()
    workload = WORKLOADS[args.workload](args.seed)
    workload.warm()
    print("READY", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0
    result = run(workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
