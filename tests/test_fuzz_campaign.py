"""Campaigns: oracle behaviour, reproducibility, shrinking, repro files.

Drives the campaign engine (``run_campaign``) directly; the
``execute(plan("fuzz", ...))`` path is covered by test_api.
"""

import dataclasses
import json

import pytest

from repro.fuzz import (
    CampaignConfig,
    INJECTABLE_BUGS,
    ScenarioConfig,
    load_repro,
    replay_file,
    run_campaign,
    run_scenario,
)
from repro.fuzz.scenario import FuzzEvent, Geometry, Scenario


def _bug_config(name, seeds=30):
    return CampaignConfig(
        seeds=seeds,
        scenario=dataclasses.replace(ScenarioConfig(), inject=name),
    )


class TestCleanCampaign:
    def test_short_clean_campaign_passes(self):
        report = run_campaign(CampaignConfig(seeds=40), workers=0)
        assert report.ok, report.summary_text()
        assert report.seeds_run == 40
        assert report.steps_run > 0
        assert report.transitions_checked > 0


class TestByteReproducibility:
    """The acceptance criterion: worker count must not leak into output."""

    def test_serial_and_parallel_summaries_identical(self, tmp_path):
        config = _bug_config("illinois-silent-im", seeds=12)
        serial = run_campaign(config, workers=0,
                              out_dir=tmp_path / "serial")
        parallel = run_campaign(config, workers=2,
                                out_dir=tmp_path / "parallel")
        assert serial.summary_text() == parallel.summary_text()
        assert serial.summary_json() == parallel.summary_json()

    def test_repro_files_byte_identical_across_worker_counts(self, tmp_path):
        config = _bug_config("moesi-drop-ownership", seeds=10)
        run_campaign(config, workers=0, out_dir=tmp_path / "a")
        run_campaign(config, workers=3, out_dir=tmp_path / "b")
        names_a = sorted(p.name for p in (tmp_path / "a").iterdir())
        names_b = sorted(p.name for p in (tmp_path / "b").iterdir())
        assert names_a == names_b and names_a
        for name in names_a:
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_rerun_is_deterministic(self):
        config = CampaignConfig(seeds=25)
        assert run_campaign(config).summary_text() == \
            run_campaign(config).summary_text()


@pytest.mark.parametrize("bug", sorted(INJECTABLE_BUGS))
class TestInjectedBugs:
    def test_caught_and_shrunk(self, bug, tmp_path):
        report = run_campaign(_bug_config(bug), workers=0,
                              out_dir=tmp_path)
        assert report.failures, f"bug:{bug} survived 30 seeds"
        for item in report.failures:
            assert item.shrunk_failure is not None
            assert len(item.scenario.events) <= 6
            assert item.repro_path is not None

    def test_repro_file_replays_to_failure(self, bug, tmp_path):
        report = run_campaign(_bug_config(bug, seeds=15), workers=0,
                              out_dir=tmp_path)
        assert report.failures
        path = report.failures[0].repro_path
        result = replay_file(path)
        assert result.failure is not None

    def test_repro_file_format(self, bug, tmp_path):
        report = run_campaign(_bug_config(bug, seeds=15), workers=0,
                              out_dir=tmp_path)
        path = report.failures[0].repro_path
        data = json.loads(open(path).read())
        assert data["format"] == "repro.fuzz/1"
        scenario, recorded, note = load_repro(path)
        assert recorded is not None
        assert "shrunk from fuzz seed" in note
        # The recorded failure is what a fresh run of the file produces.
        assert str(run_scenario(scenario).failure) == str(recorded)


class TestOracleAttribution:
    def test_differential_oracle_names_table_deviation(self):
        """A hand-built minimal bug scenario is attributed to the
        differential oracle with the deviating transition spelled out."""
        scenario = Scenario(
            seed=0,
            units=("bug:illinois-silent-im", "illinois"),
            geometry=Geometry(),
            events=(
                FuzzEvent(0, "read", 0),   # bug board caches the line (S/E)
                FuzzEvent(1, "read", 0),   # both now S
                FuzzEvent(1, "write", 0),  # IM: the bug keeps its S copy
            ),
        )
        result = run_scenario(scenario)
        assert result.failure is not None
        assert result.failure.oracle == "differential"
        assert "unreachable" in result.failure.detail
        assert "u0" in result.failure.detail

    def test_no_shrink_keeps_original_scenario(self, tmp_path):
        config = dataclasses.replace(_bug_config("illinois-silent-im",
                                                 seeds=10), shrink=False)
        report = run_campaign(config, workers=0)
        assert report.failures
        first = report.failures[0]
        # Unshrunk: the scenario is the generated one, full size.
        assert len(first.scenario.events) >= 6


class TestReplayErrors:
    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text(json.dumps({"format": "other/9", "scenario": {}}))
        with pytest.raises(ValueError, match="not a repro.fuzz/1"):
            load_repro(path)


class TestShardedCampaign:
    """Range-partitioned campaigns: byte-identical to per-seed at any
    shard count, failures and repro files included."""

    def test_shard_ranges_partition_contiguously(self):
        from repro.fuzz.campaign import shard_ranges

        ranges = shard_ranges(100, 10, 3)
        assert ranges == [(100, 4), (104, 3), (107, 3)]
        covered = [
            seed for start, count in ranges
            for seed in range(start, start + count)
        ]
        assert covered == list(range(100, 110))
        assert shard_ranges(0, 3, 8) == [(0, 1), (1, 1), (2, 1)]
        assert shard_ranges(0, 0, 4) == []

    @pytest.mark.parametrize("shards", [1, 2, 8])
    def test_clean_campaign_shard_invariant(self, shards):
        from repro.fuzz.campaign import run_sharded_campaign

        config = CampaignConfig(seeds=24)
        base = run_campaign(config, workers=0)
        got = run_sharded_campaign(config, shards=shards, workers=0)
        assert got.summary_json() == base.summary_json()
        assert got.summary_text() == base.summary_text()

    def test_failing_campaign_shard_invariant(self, tmp_path):
        from repro.fuzz.campaign import run_sharded_campaign

        config = _bug_config("moesi-drop-ownership", seeds=16)
        base = run_campaign(config, workers=0, out_dir=tmp_path / "seed")
        assert base.failures, "expected the injected bug to fire"
        got = run_sharded_campaign(
            config, shards=3, workers=0, out_dir=tmp_path / "shard"
        )
        assert got.summary_json() == base.summary_json()
        names = sorted(p.name for p in (tmp_path / "shard").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "seed").iterdir())
        for name in names:
            assert (tmp_path / "shard" / name).read_bytes() == (
                tmp_path / "seed" / name
            ).read_bytes()

    def test_pooled_shards_match_serial(self):
        from repro.fuzz.campaign import run_sharded_campaign

        config = CampaignConfig(seeds=20)
        serial = run_sharded_campaign(config, shards=4, workers=0)
        pooled = run_sharded_campaign(config, shards=4, workers=2)
        assert pooled.summary_json() == serial.summary_json()

    def test_facade_passthrough(self):
        from repro.api import execute, plan

        result = execute(plan("fuzz", seeds=8), shards=2)
        assert result.report.seeds_run == 8
