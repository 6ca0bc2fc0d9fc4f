"""Steadiness report: run one workload in sets of seeds, side by side.

    python3 perfbench/steadiness.py --workload check --seeds 1,2,3,4,5 \
        --sets 2 --seconds 25

Each set runs ``run.py`` once per seed.  For every end-to-end metric it
prints each set's median, quartiles and spread (interquartile range over
median) beside the same figures for the host probe ``host.calib_ms``, a
fixed loop timed through every run: when a metric's spread or shift
between sets tracks the probe's, the host drifted, not the code.  The
last column checks each spread against the metric's ``bound`` in
``BENCHMARK.json`` (``setup_s`` is exempt from the spread rule) and the
shift of each later set's median against the first set's.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import ROOT, spread  # noqa: E402


def run_once(workload: str, seed: int, seconds: int) -> dict:
    """One run; returns its metric values plus the probe reading."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(
            f"{workload} seed {seed} failed ({proc.returncode}):\n"
            f"{proc.stderr[-2000:]}"
        )
    details, result = json.loads(lines[-2]), json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: outputs wrong: {result}")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    values["host.calib_ms"] = details["host.calib_ms"]
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10",
                        help="comma-separated seeds run in each set")
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    higher = {m["name"] for m in bench["end_to_end"]
              if m["better"] == "higher"}
    seconds = args.seconds or bench["run_seconds"]
    seeds = [int(seed) for seed in args.seeds.split(",")]

    sets = []
    for number in range(args.sets):
        runs = []
        for seed in seeds:
            runs.append(run_once(args.workload, seed, seconds))
            print(f"set {number + 1} seed {seed}: "
                  + " ".join(f"{k}={v:.4g}" for k, v in
                             sorted(runs[-1].items())),
                  file=sys.stderr, flush=True)
        sets.append(runs)

    names = sorted(set(sets[0][0]) - {"host.calib_ms"}) + ["host.calib_ms"]
    print(f"{args.workload}: {len(seeds)} seeds x {args.sets} sets, "
          f"{seconds} s runs")
    print(f"{'metric':<16} {'set':>3} {'median':>11} {'q1':>11} "
          f"{'q3':>11} {'spread':>7} {'shift':>7}  verdict")
    for name in names:
        first_median = None
        for number, runs in enumerate(sets):
            median, q1, q3, width = spread([run[name] for run in runs])
            if first_median is None:
                first_median = median
            shift = median / first_median - 1.0
            bound = bounds.get(name)
            verdict = ""
            if bound is not None:
                ok_spread = name == "setup_s" or width <= bound
                ok_shift = (-shift if name in higher else shift) <= bound
                verdict = "ok" if ok_spread and ok_shift else \
                    f"OUT OF BOUND {bound}"
            print(f"{name:<16} {number + 1:>3} {median:>11.4f} {q1:>11.4f} "
                  f"{q3:>11.4f} {width:>7.3f} {shift:>+7.3f}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
