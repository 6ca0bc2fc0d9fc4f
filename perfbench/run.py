"""Run one benchmark workload and print its result as a JSON line.

    python3 perfbench/run.py --workload serve --seed 1 --seconds 55 \
        --trace 0

Workloads: ``serve`` (two blocking callers against ``repro serve``) and
``check`` (fuzz blocks and verify passes on the object engine).  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the per-layer ones from a traced run.  The last stdout line is
``{"correct", "attempted", "failed", "metrics"}``; the line before it
carries run details (the host probe, set-up samples).  A run that is
not the workload it claims exits non-zero without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    OUT,
    ROOT,
    BenchError,
    become_subreaper,
    child_env,
    exit_on_signal,
    peak_rss_mb,
    require_source,
    spawn,
    stop_children,
)

#: End-to-end metrics (``--trace 0``) and their units.
END_TO_END = {
    "setup_s": "s",
    "p50_ms": "ms",
    "p90_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}
#: Per-layer metrics (``--trace 1``), by the workload that reaches the
#: layer.  Every traced run prints all of them; a layer the workload
#: does not reach reads 0.
PER_LAYER = {
    "serve": {
        "specs.parse_us": "us",
        "serve.memo_get_us": "us",
        "serve.respond_us": "us",
        "serve.unattributed_ms": "ms",
        "serve.dispatch_ms": "ms",
        "serve.exec_ms": "ms",
        "serve.ipc_ms": "ms",
        "serve.payload_ms": "ms",
        "serve.batch_wait_ms": "ms",
        "serve.batch_exec_ms": "ms",
        "shared.attach_ms": "ms",
        "serve.hit_ratio": "ratio",
        "serve.mean_population": "count",
        "engine.pool_starts": "count",
        "engine.pool_refreshes": "count",
        "engine.dispatch_degraded": "count",
        "serve.busy_rejections": "count",
    },
    "check": {
        "verify.explore_ms": "ms",
        "verify.states": "count",
        "verify.transitions": "count",
        "fuzz.generate_ms": "ms",
        "fuzz.run_ms": "ms",
        "fuzz.transitions_checked": "count",
        "fuzz.shrink_calls": "count",
        "check.unattributed_ms": "ms",
    },
    "all": {
        "host.calib_ms": "ms",
        "trace.overhead_pct": "%",
    },
}
#: Fresh interpreters started per offline run; each one's set-up is a
#: sample of ``setup_s`` and the last runs the timed window.
OFFLINE_SETUPS = 5
CHILD_TIMEOUT_S = 170.0


def run_offline(workload: str, seed: int, seconds: float,
                trace: bool) -> dict:
    """Set up ``OFFLINE_SETUPS`` children; time the last one's window."""
    command = [
        sys.executable, str(ROOT / "perfbench" / "offline.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(trace)),
    ]
    setups = []
    for sample in range(OFFLINE_SETUPS):
        start = time.perf_counter()
        proc = spawn(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            env=child_env(), cwd=ROOT, text=True,
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            ready = proc.stdout.readline()
            setups.append(time.perf_counter() - start)
            last = sample == OFFLINE_SETUPS - 1
            if ready.strip() == "READY":
                proc.stdin.write("go\n" if last else "quit\n")
            proc.stdin.close()
            output = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            proc.stdout.close()
            try:  # whatever the child forked and left behind
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        if ready.strip() != "READY" or proc.returncode != 0:
            raise BenchError(
                f"{workload} child failed (exit {proc.returncode})"
            )
    result = json.loads(output.strip().splitlines()[-1])
    if not trace:
        result["metrics"]["setup_s"] = statistics.median(setups)
        result["metrics"]["peak_rss_mb"] = peak_rss_mb(usage.ru_maxrss)
    result["setups"] = setups
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("serve", "check"),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for signum in (signal.SIGTERM, signal.SIGHUP):
        signal.signal(signum, exit_on_signal)
    try:
        require_source()
        become_subreaper()
        OUT.mkdir(exist_ok=True)
        if args.workload == "serve":
            import serve

            result = serve.run(args.seed, args.seconds, bool(args.trace))
        else:
            result = run_offline(args.workload, args.seed, args.seconds,
                                 bool(args.trace))
    except BenchError as error:
        print(f"perfbench: {args.workload}: {error}", file=sys.stderr)
        return 1
    finally:
        stop_children()
    metrics = dict(result["metrics"])
    # p99 swings with host load far beyond any bound the end-to-end
    # metrics may take here, so it is printed as a detail only.
    p99_ms = metrics.pop("p99_ms", None)
    expected = END_TO_END
    if args.trace:
        expected = {n: u for layers in PER_LAYER.values()
                    for n, u in layers.items()}
        metrics = dict.fromkeys(expected, 0)
        metrics.update(result["layers"])
        metrics["host.calib_ms"] = result["calib_ms"]
    if set(metrics) != set(expected):
        print(f"perfbench: {args.workload}: metrics {sorted(metrics)} "
              f"!= {sorted(expected)}", file=sys.stderr)
        return 1
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "host.calib_ms": result["calib_ms"],
        "p99_ms": p99_ms,
        "setups_s": result["setups"],
    }))
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {
            name: {"value": value, "unit": expected[name]}
            for name, value in sorted(metrics.items())
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
