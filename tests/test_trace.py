"""Trace records, containers, and file I/O."""

import io

import pytest

from repro.workloads.trace import Op, ReferenceRecord, Trace


class TestRecord:
    def test_line_roundtrip(self):
        record = ReferenceRecord("cpu3", Op.WRITE, 0x1F40)
        assert ReferenceRecord.from_line(record.to_line()) == record

    def test_parses_decimal_and_hex(self):
        assert ReferenceRecord.from_line("a R 64").address == 64
        assert ReferenceRecord.from_line("a R 0x40").address == 64

    def test_lowercase_op_accepted(self):
        assert ReferenceRecord.from_line("a w 0").op is Op.WRITE

    @pytest.mark.parametrize(
        "line", ["too few", "a X 0", "a R -5", "a R 0 extra"]
    )
    def test_malformed_rejected(self, line):
        with pytest.raises(ValueError):
            ReferenceRecord.from_line(line)


class TestTrace:
    def test_units_in_first_appearance_order(self):
        trace = Trace(
            [
                ReferenceRecord("b", Op.READ, 0),
                ReferenceRecord("a", Op.READ, 0),
                ReferenceRecord("b", Op.WRITE, 0),
            ]
        )
        assert trace.units() == ["b", "a"]

    def test_units_follow_appends(self):
        trace = Trace([ReferenceRecord("b", Op.READ, 0)])
        for unit in ("a", "b", "c", "a"):
            trace.append(ReferenceRecord(unit, Op.READ, 0))
            expected = list(dict.fromkeys(r.unit for r in trace.records))
            assert trace.units() == expected
        assert trace.units() == ["b", "a", "c"]
        # units() hands out a copy: the caller cannot corrupt the order.
        trace.units().append("z")
        assert trace.units() == ["b", "a", "c"]

    def test_literal_workload_units_match_a_scan(self):
        from repro.specs import WorkloadSpec

        records = [ReferenceRecord(u, Op.READ, 0) for u in "cacbd"]
        spec = WorkloadSpec.literal(Trace(records))
        first, second = spec.build(), spec.build()
        assert first.units() == second.units() == ["c", "a", "b", "d"]
        second.append(ReferenceRecord("e", Op.READ, 0))
        assert second.units()[-1] == "e"
        assert spec.build().units() == ["c", "a", "b", "d"]

    def test_write_fraction(self):
        trace = Trace(
            [
                ReferenceRecord("a", Op.READ, 0),
                ReferenceRecord("a", Op.WRITE, 0),
            ]
        )
        assert trace.write_fraction() == 0.5
        assert Trace().write_fraction() == 0.0

    def test_addresses(self):
        trace = Trace(
            [
                ReferenceRecord("a", Op.READ, 0),
                ReferenceRecord("a", Op.READ, 64),
                ReferenceRecord("a", Op.READ, 0),
            ]
        )
        assert trace.addresses() == {0, 64}

    def test_len_and_indexing(self):
        trace = Trace([ReferenceRecord("a", Op.READ, 0)])
        assert len(trace) == 1
        assert trace[0].unit == "a"


class TestIO:
    def test_dump_parse_roundtrip(self):
        original = Trace(
            [
                ReferenceRecord("cpu0", Op.READ, 0x40),
                ReferenceRecord("cpu1", Op.WRITE, 0x80),
            ]
        )
        buffer = io.StringIO()
        original.dump(buffer)
        parsed = Trace.parse(buffer.getvalue().splitlines())
        assert parsed.records == original.records

    def test_comments_and_blanks_skipped(self):
        text = ["# header", "", "cpu0 R 0x0", "   ", "# trailing"]
        trace = Trace.parse(text)
        assert len(trace) == 1

    def test_save_load_roundtrip(self, tmp_path):
        path = tmp_path / "trace.txt"
        original = Trace([ReferenceRecord("cpu0", Op.WRITE, 96)])
        original.save(path)
        assert Trace.load(path).records == original.records


def _producer_traces():
    from repro.workloads import kernels, patterns
    from repro.workloads.spatial import SpatialConfig, SpatialWorkload
    from repro.workloads.synthetic import SyntheticConfig, SyntheticWorkload

    return {
        "ping_pong": patterns.ping_pong(rounds=20, processors=3),
        "producer_consumer": patterns.producer_consumer(items=10),
        "read_mostly": patterns.read_mostly(references=80),
        "migratory": patterns.migratory(handoffs=10),
        "private_streams": patterns.private_streams(20),
        "stencil": kernels.stencil_trace(iterations=2),
        "reduction": kernels.reduction_trace(elements_per_processor=4),
        "spinlock": kernels.spinlock_trace(acquisitions_per_processor=2),
        "spatial": SpatialWorkload(SpatialConfig(), seed=5).trace(300),
        "synthetic": SyntheticWorkload(SyntheticConfig(), seed=5).trace(300),
    }


@pytest.mark.parametrize("producer", sorted(_producer_traces()))
def test_literal_workload_keeps_the_producer_unit_order(producer):
    """A literal spec carries its trace's unit order into every build,
    and that order is the records' first-appearance order."""
    from repro.specs import WorkloadSpec

    trace = _producer_traces()[producer]
    scan = list(dict.fromkeys(record.unit for record in trace))
    spec = WorkloadSpec.literal(trace)
    assert spec.build().units() == scan
    # The carried order is not a field: equality, hashing and the dict
    # form match a spec parsed back from that dict, which scans.
    parsed = WorkloadSpec.from_dict(spec.to_dict())
    assert parsed == spec and parsed.content_hash() == spec.content_hash()
    assert parsed.build().units() == scan
