"""Cold start: each entry path loads only what it runs, and its output
does not depend on the hash seed.

* **Import hygiene.**  Fuzz, verify, the CLI and the serve daemon never
  import ``networkx`` (the optional ``diagram`` extra) or ``numpy`` (the
  optional ``perf`` extra); numpy loads only when a numpy-backend batch
  population runs, so a serve batch job as small as the perfbench one
  never loads it.  ``import repro`` and an experiment run do not load
  the process pool (nor, through it, :mod:`multiprocessing`).
* **The diagram extra.**  Without networkx, ``repro diagram`` fails with
  one line naming the extra, and the rest of :mod:`repro.analysis` still
  imports.
* **Golden pins.**  ``repro fuzz --json`` (400 seeds, and every
  injectable bug with shrinking on) and ``repro verify --json`` are
  byte-equal to the committed goldens under two ``PYTHONHASHSEED``
  values.

Each check runs in a fresh interpreter, so modules other tests imported
cannot hide a regression.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.fuzz.scenario import INJECTABLE_BUGS

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).parent / "golden"
HASH_SEEDS = ("0", "4242")
HAVE_NUMPY = importlib.util.find_spec("numpy") is not None


def _spawn(*args: str, hash_seed: str = "0") -> subprocess.Popen:
    """``python *args`` in a fresh interpreter that imports this tree."""
    path = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    return subprocess.Popen(
        [sys.executable, *args],
        env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=hash_seed),
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def _run(program: str) -> subprocess.CompletedProcess:
    child = _spawn("-c", program)
    out, err = child.communicate(timeout=300)
    return subprocess.CompletedProcess(child.args, child.returncode, out, err)


HYGIENE = """
import sys
from repro import execute
from repro.specs import FuzzSpec, VerifySpec

def loaded():
    return sorted(m for m in ("networkx", "numpy") if m in sys.modules)

execute(FuzzSpec(seeds=4))
execute(VerifySpec(suites=("class-members", "homogeneous-foreign")))
import repro.cli, repro.serve.server
print("paths", loaded())
from repro.perf.batch import make_synthetic_population, run_population
pop = make_synthetic_population(rows=2, events_per_row=10)
run_population(pop, backend="python")
print("python-backend", loaded())
if {numpy}:
    run_population(pop, backend="numpy")
    print("numpy-backend", loaded())
"""


def test_entry_paths_load_neither_optional_package():
    child = _run(HYGIENE.format(numpy=HAVE_NUMPY))
    assert child.returncode == 0, child.stderr
    lines = child.stdout.splitlines()
    assert "paths []" in lines
    assert "python-backend []" in lines
    if HAVE_NUMPY:
        assert "numpy-backend ['numpy']" in lines


def test_small_serve_batch_job_does_not_load_numpy():
    # The job body a daemon's pool worker runs for a 4-row batch request:
    # below the backend crossover, so the worker's memory stays free of
    # numpy.
    child = _run(
        "import sys\n"
        "from repro.serve.jobs import execute_batch_payloads\n"
        "from repro.specs import BatchSpec\n"
        "spec = BatchSpec(('moesi',), rows=4, events_per_row=25)\n"
        "payload, = execute_batch_payloads((spec.canonical(),))\n"
        "assert payload['data']['rows'][0]['transitions'] > 0\n"
        "print('numpy' in sys.modules)\n"
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.splitlines() == ["False"]


def test_experiment_path_does_not_load_the_pool():
    child = _run(
        "import sys\n"
        "from repro import execute, plan\n"
        "execute(plan('experiment', references=50))\n"
        "print(sorted(m for m in ('multiprocessing', 'repro.perf.pool')\n"
        "             if m in sys.modules))\n"
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.splitlines() == ["[]"]


def test_diagram_without_networkx_names_the_extra():
    child = _run(
        "import sys\n"
        "sys.modules['networkx'] = None\n"
        "import repro.analysis\n"
        "from repro.cli import main\n"
        "sys.exit(main(['diagram', 'moesi']))\n"
    )
    assert child.returncode == 2
    assert child.stdout == ""
    lines = child.stderr.splitlines()
    assert len(lines) == 1, child.stderr
    assert "repro[diagram]" in lines[0]


# ---------------------------------------------------------------------------
# Golden pins under two hash seeds.
# ---------------------------------------------------------------------------
#: (golden file, CLI argv); fuzz repro files go under the run's --out.
GOLDENS = [
    ("fuzz_400.json", ["fuzz", "--seeds", "400", "--json"]),
    *(
        (f"fuzz_inject_{bug}.json",
         ["fuzz", "--seeds", "100", "--inject", bug, "--json"])
        for bug in sorted(INJECTABLE_BUGS)
    ),
    ("verify.json", ["verify", "--json"]),
    ("verify_quick.json", ["verify", "--quick", "--json"]),
]

DRIVER = """
import contextlib, io, json, sys
from repro.cli import main
outputs = {}
for index, (name, argv) in enumerate(json.loads(sys.argv[1])):
    if argv[0] == "fuzz":
        argv = argv + ["--out", f"{sys.argv[2]}/{index}"]
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        main(argv)
    outputs[name] = buffer.getvalue()
sys.stdout.write(json.dumps(outputs))
"""


@pytest.fixture(scope="module")
def golden_runs(tmp_path_factory):
    """``{hash seed: {golden name: stdout}}``, both seeds run at once."""
    children = {
        seed: _spawn(
            "-c", DRIVER, json.dumps(GOLDENS),
            str(tmp_path_factory.mktemp(f"hash{seed}")), hash_seed=seed,
        )
        for seed in HASH_SEEDS
    }
    runs = {}
    for seed, child in children.items():
        out, err = child.communicate(timeout=600)
        assert child.returncode == 0, err
        runs[seed] = json.loads(out)
    return runs


@pytest.mark.parametrize("seed", HASH_SEEDS)
@pytest.mark.parametrize("golden", [name for name, _ in GOLDENS])
def test_output_matches_golden(golden_runs, seed, golden):
    expected = (GOLDEN / golden).read_text(encoding="utf-8")
    assert golden_runs[seed][golden] == expected
