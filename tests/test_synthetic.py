"""The probabilistic ([Dubo82]-style) synthetic workload generator."""

import pytest

from repro.workloads.synthetic import SyntheticConfig, SyntheticWorkload
from repro.workloads.trace import Op


class TestConfigValidation:
    @pytest.mark.parametrize("field", ["p_shared", "p_write", "locality"])
    def test_probabilities_bounded(self, field):
        with pytest.raises(ValueError):
            SyntheticConfig(**{field: 1.5})

    def test_processor_count_positive(self):
        with pytest.raises(ValueError):
            SyntheticConfig(processors=0)

    def test_skew_at_least_one(self):
        with pytest.raises(ValueError):
            SyntheticConfig(sharing_skew=0.5)

    def test_unit_ids(self):
        assert SyntheticConfig(processors=2).unit_ids() == ["cpu0", "cpu1"]


class TestAddressMap:
    def test_shared_and_private_disjoint(self):
        config = SyntheticConfig(shared_blocks=4, private_blocks=8,
                                 processors=2, line_size=32)
        workload = SyntheticWorkload(config)
        shared = {workload.shared_address(b) for b in range(4)}
        private = {
            workload.private_address(p, b)
            for p in range(2)
            for b in range(8)
        }
        assert shared.isdisjoint(private)

    def test_private_regions_per_processor_disjoint(self):
        config = SyntheticConfig(processors=3)
        workload = SyntheticWorkload(config)
        regions = [
            {workload.private_address(p, b) for b in range(config.private_blocks)}
            for p in range(3)
        ]
        assert regions[0].isdisjoint(regions[1])
        assert regions[1].isdisjoint(regions[2])

    def test_out_of_range_rejected(self):
        workload = SyntheticWorkload(SyntheticConfig())
        with pytest.raises(ValueError):
            workload.shared_address(999)
        with pytest.raises(ValueError):
            workload.private_address(0, 999)


class TestGeneration:
    def test_reproducible_given_seed(self):
        config = SyntheticConfig()
        a = SyntheticWorkload(config, seed=4).trace(500)
        b = SyntheticWorkload(config, seed=4).trace(500)
        assert a.records == b.records

    def test_different_seeds_differ(self):
        config = SyntheticConfig()
        a = SyntheticWorkload(config, seed=1).trace(500)
        b = SyntheticWorkload(config, seed=2).trace(500)
        assert a.records != b.records

    def test_round_robin_interleaving(self):
        config = SyntheticConfig(processors=3)
        trace = SyntheticWorkload(config).trace(9)
        units = [r.unit for r in trace]
        assert units == ["cpu0", "cpu1", "cpu2"] * 3

    @pytest.mark.parametrize("references", [0, 1, 2, 3, 50])
    def test_units_match_a_scan(self, references):
        trace = SyntheticWorkload(SyntheticConfig(processors=3)).trace(
            references
        )
        assert trace.units() == list(
            dict.fromkeys(r.unit for r in trace.records)
        )

    def test_write_fraction_approximates_p_write(self):
        config = SyntheticConfig(p_write=0.3)
        trace = SyntheticWorkload(config, seed=0).trace(6000)
        assert trace.write_fraction() == pytest.approx(0.3, abs=0.03)

    def test_shared_fraction_approximates_p_shared(self):
        config = SyntheticConfig(p_shared=0.25, shared_blocks=8,
                                 line_size=32)
        workload = SyntheticWorkload(config, seed=0)
        trace = workload.trace(6000)
        shared_limit = config.shared_blocks * config.line_size
        shared = sum(1 for r in trace if r.address < shared_limit)
        assert shared / len(trace) == pytest.approx(0.25, abs=0.03)

    def test_skew_concentrates_on_hot_blocks(self):
        config = SyntheticConfig(
            p_shared=1.0, shared_blocks=8, sharing_skew=2.5, locality=0.0
        )
        trace = SyntheticWorkload(config, seed=0).trace(4000)
        block0 = sum(1 for r in trace if r.address == 0)
        block7 = sum(
            1 for r in trace if r.address == 7 * config.line_size
        )
        assert block0 > 5 * max(block7, 1)

    def test_locality_repeats_blocks(self):
        sticky = SyntheticConfig(p_shared=0.0, locality=0.95,
                                 private_blocks=64)
        loose = SyntheticConfig(p_shared=0.0, locality=0.0,
                                private_blocks=64)

        def repeat_rate(config):
            trace = SyntheticWorkload(config, seed=3).trace(2000)
            repeats = sum(
                1
                for a, b in zip(trace.records, trace.records[1:])
                if a.unit == b.unit and a.address == b.address
            )
            return repeats

        # With one processor the consecutive-same-unit pairs exist; use
        # processors=1 variants for a clean comparison.
        assert repeat_rate(
            SyntheticConfig(processors=1, p_shared=0.0, locality=0.9)
        ) > repeat_rate(
            SyntheticConfig(processors=1, p_shared=0.0, locality=0.0)
        )

    def test_streams_keyed_by_unit(self):
        config = SyntheticConfig(processors=2)
        streams = SyntheticWorkload(config).streams()
        assert set(streams) == {"cpu0", "cpu1"}
        op, address = next(streams["cpu0"])
        assert op in (Op.READ, Op.WRITE) and address >= 0

    def test_records_behave_like_constructed_ones(self):
        """Generated records are filled in without the dataclass
        ``__init__``; they must be indistinguishable from records built
        the ordinary way, the stream included."""
        import dataclasses
        import pickle

        from repro.workloads.trace import ReferenceRecord

        config = SyntheticConfig(processors=3)
        workload = SyntheticWorkload(config, seed=9)
        trace = workload.trace(60)
        streams = [workload.stream(i) for i in range(3)]
        for i, record in enumerate(trace):
            op, address = next(streams[i % 3])
            built = ReferenceRecord(f"cpu{i % 3}", op, address)
            assert record == built and built == record
            assert hash(record) == hash(built)
            assert repr(record) == repr(built)
            assert record.to_line() == built.to_line()
            assert pickle.loads(pickle.dumps(record)) == built
        with pytest.raises(dataclasses.FrozenInstanceError):
            trace[0].address = 0
        assert len(set(trace.records)) == len(set(
            ReferenceRecord(r.unit, r.op, r.address) for r in trace
        ))


class TestDrawOrder:
    """``stream`` makes the library's draws by hand (``random()`` into a
    bisect of the cumulative skew weights, ``getrandbits`` rejection for
    a uniform block).  The stream it replaced, calling
    ``rng.choices``/``rng.randrange`` per reference, is kept here as the
    reference: both must yield the same records, in the same order."""

    @staticmethod
    def _reference_stream(workload, processor):
        import random

        cfg = workload.config
        rng = random.Random(f"{workload.seed}/{processor}")
        last_shared = last_private = None
        while True:
            is_shared = rng.random() < cfg.p_shared
            is_write = rng.random() < cfg.p_write
            if is_shared:
                if last_shared is not None and rng.random() < cfg.locality:
                    block = last_shared
                elif cfg.sharing_skew == 1.0:
                    block = rng.randrange(cfg.shared_blocks)
                else:
                    block = rng.choices(
                        range(cfg.shared_blocks),
                        cum_weights=workload._shared_cum_weights,
                        k=1,
                    )[0]
                last_shared = block
                address = workload.shared_address(block)
            else:
                if last_private is not None and rng.random() < cfg.locality:
                    block = last_private
                else:
                    block = rng.randrange(cfg.private_blocks)
                last_private = block
                address = workload.private_address(processor, block)
            yield (Op.WRITE if is_write else Op.READ, address)

    def _reference_trace(self, workload, references):
        processors = workload.config.processors
        streams = [
            self._reference_stream(workload, p) for p in range(processors)
        ]
        records = []
        for i in range(references):
            op, address = next(streams[i % processors])
            records.append((f"cpu{i % processors}", op, address))
        return records

    CONFIGS = [
        SyntheticConfig(
            processors=processors, p_shared=p_shared, locality=locality,
            sharing_skew=skew,
        )
        for processors in (1, 3, 4)
        for p_shared in (0.0, 0.3, 1.0)
        for locality in (0.0, 0.6, 1.0)
        for skew in (1.0, 2.0)
    ] + [
        # Pools that are not powers of two, and one-block pools, so the
        # rejection loop both rejects and never needs to.
        SyntheticConfig(shared_blocks=5, private_blocks=3, sharing_skew=1.0),
        SyntheticConfig(shared_blocks=5, private_blocks=3, sharing_skew=3.0),
        SyntheticConfig(shared_blocks=1, private_blocks=1, p_shared=0.5),
    ]

    @pytest.mark.parametrize(
        "config", CONFIGS,
        ids=lambda c: (
            f"p{c.processors}-sh{c.p_shared}-loc{c.locality}"
            f"-skew{c.sharing_skew}-{c.shared_blocks}x{c.private_blocks}"
        ),
    )
    def test_trace_matches_library_draws(self, config):
        for seed in range(100):
            workload = SyntheticWorkload(config, seed=seed)
            references = 150 + seed % config.processors
            trace = workload.trace(references)
            assert [
                (r.unit, r.op, r.address) for r in trace
            ] == self._reference_trace(workload, references), seed

    def test_serve_miss_workload_matches(self):
        """The 1000-reference synthetic workload of an experiment miss."""
        for seed in range(3):
            workload = SyntheticWorkload(SyntheticConfig(), seed=seed)
            trace = workload.trace(1000)
            assert [
                (r.unit, r.op, r.address) for r in trace
            ] == self._reference_trace(workload, 1000)

    def test_repeated_references_share_one_record(self):
        trace = SyntheticWorkload(SyntheticConfig(), seed=1).trace(1000)
        distinct = {
            (r.unit, r.op, r.address): r for r in trace.records
        }
        assert len({id(r) for r in trace.records}) == len(distinct)
        for record in trace.records:
            assert distinct[(record.unit, record.op, record.address)] is record
