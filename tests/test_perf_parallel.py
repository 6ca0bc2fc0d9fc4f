"""Parallel-vs-serial equivalence of the verification matrix and the DES
sweeps, plus the marker-gated perf smoke suite.

The equivalence tests force the pool (``force_pool``: a multi-core host
and a zero cutover) and check that the pooled run really fanned out, so
they never compare a serial run against another serial run.
"""

import json
import os
import pickle

import pytest

from repro.perf.pool import pool_stats, reset_degrade_warnings
from repro.verify.mixes import (
    MixCase,
    SUITES,
    case_row,
    class_member_mixes,
    incompatible_mixes,
    mutant_mixes,
    run_matrix,
)


def _pooled(fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, asserting it ran at least one pool map."""
    before = pool_stats()["maps"]
    result = fn(*args, **kwargs)
    assert pool_stats()["maps"] > before, "the run never reached the pool"
    return result


class TestPicklableCases:
    def test_every_suite_case_pickle_round_trips(self):
        """Mutants included: every case ships to a worker as it is."""
        for name, factory in SUITES.items():
            for case in factory():
                rebuilt = pickle.loads(pickle.dumps(case))
                assert rebuilt.label == case.label, name
                assert rebuilt.note == case.note, name
                assert rebuilt.expect_consistent == case.expect_consistent
                assert len(rebuilt.specs) == len(case.specs)

    def test_round_tripped_case_gives_equal_row(self):
        for factory in SUITES.values():
            for case in factory():
                rebuilt = pickle.loads(pickle.dumps(case))
                assert case_row(rebuilt) == case_row(case), case.label


class TestMatrixEquivalence:
    def test_pool_rows_byte_identical_to_serial(self, force_pool):
        """Pooled run_matrix returns byte-identical summaries (states,
        transitions, violations verdict) to serial."""
        cases = (
            class_member_mixes()[:5]
            + incompatible_mixes()[:2]
            + mutant_mixes()[:2]  # partial-factory specs travel as they are
        )
        serial = run_matrix(cases)
        pooled = _pooled(run_matrix, cases, workers=2)
        assert json.dumps(serial, sort_keys=True) == json.dumps(
            pooled, sort_keys=True
        )

    def test_lambda_case_runs_whole_map_serially_with_warning(
        self, force_pool
    ):
        """An unpicklable ad-hoc case keeps the whole map in-process:
        same rows, in order, and one RuntimeWarning naming the reason."""
        from repro.verify.mutations import NoInterventionMutant

        adhoc = MixCase(
            [lambda chooser: NoInterventionMutant(), "moesi"],
            False,
            label="adhoc-mutant+moesi",
        )
        cases = [class_member_mixes()[0], adhoc, class_member_mixes()[4]]
        serial = run_matrix(cases)
        reset_degrade_warnings()
        before = pool_stats()["maps"]
        with pytest.warns(RuntimeWarning, match="not picklable"):
            pooled = run_matrix(cases, workers=2)
        assert pool_stats()["maps"] == before
        assert serial == pooled
        assert [r["mix"] for r in pooled] == [
            "moesi+moesi", "adhoc-mutant+moesi", "moesi-invalidate+moesi-update",
        ]

    def test_explorer_kwargs_reach_the_workers(self, force_pool):
        cases = class_member_mixes()[:2]
        serial = run_matrix(cases, max_states=5)
        pooled = _pooled(run_matrix, cases, workers=2, max_states=5)
        assert serial == pooled
        # The bound truncated the search well short of the full 18-state
        # space, proving max_states made it into the worker.
        assert serial[0]["states"] < 18


class TestSweepEquivalence:
    def test_protocol_comparison(self, force_pool):
        from repro.analysis.compare import protocol_comparison

        serial = protocol_comparison(references=200)
        pooled = _pooled(protocol_comparison, references=200, workers=2)
        assert serial == pooled

    def test_update_vs_invalidate(self, force_pool):
        from repro.analysis.compare import update_vs_invalidate_sweep

        serial = update_vs_invalidate_sweep(
            sharing_levels=(0.1, 0.5), references=200
        )
        pooled = _pooled(
            update_vs_invalidate_sweep,
            sharing_levels=(0.1, 0.5), references=200, workers=2,
        )
        assert serial == pooled

    def test_heterogeneous_mixes(self, force_pool):
        from repro.analysis.compare import heterogeneous_mix_sweep

        serial = heterogeneous_mix_sweep(references=200)
        pooled = _pooled(heterogeneous_mix_sweep, references=200, workers=2)
        assert serial == pooled


@pytest.mark.perf
class TestPerfSmoke:
    """Small-bound bench suite: asserts the parallel path keeps up on
    multi-core hosts and that the report round-trips through the JSON
    writer (into a tmp dir, never the committed baseline)."""

    def test_bench_suite_and_record(self, tmp_path):
        from repro.perf.bench import run_bench_suite, write_bench_json

        report = run_bench_suite(workers=4, quick=True)
        assert report["matrix"]["all_ok"]
        assert report["matrix"]["rows_identical"]
        assert report["des"]["rows_identical"]
        # The in-process hot path must beat the seed's throughput (the
        # seed explored full-class+full-class at ~125 states/sec on this
        # suite's reference container; memoized cells roughly double it).
        hot = report["explorer"][0]
        assert hot["mix"] == "full-class+full-class"
        assert hot["states"] == 18 and hot["transitions"] == 1028
        if (os.cpu_count() or 1) > 2:
            # Pool startup cannot eat the win once real cores exist (on
            # a <= 2-core host the serial cost probe plus pool overhead
            # can eat the single spare core, so the bound is not
            # reliable there).
            assert report["matrix"]["speedup"] >= 1.0
        # Never write the repo-root BENCH_perf.json here: that file is
        # the canonical full-mode baseline (python -m repro bench
        # --workers 4) that CI diffs against, and a quick-mode report
        # would poison the regression gates.
        path = tmp_path / "BENCH_perf.json"
        write_bench_json(report, str(path))
        assert json.loads(path.read_text())["suite"] == "repro-bench"
