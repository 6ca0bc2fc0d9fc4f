"""The Futurebus transaction engine, driven by stub agents.

These tests pin the engine's routing rules independently of the cache
controller: who supplies reads, who absorbs writes, when memory updates,
how BS aborts retry, and how errors are surfaced."""

import pytest

from repro.bus.futurebus import BusAgent, BusLivelockError, Futurebus
from repro.bus.transaction import Transaction
from repro.core.actions import BusOp
from repro.core.signals import MasterSignals, SnoopResponse
from repro.memory.main_memory import MainMemory


class StubAgent(BusAgent):
    """Scriptable snooper: responds with a fixed SnoopResponse."""

    def __init__(self, unit_id, response=SnoopResponse.NONE, data=99):
        self.unit_id = unit_id
        self.response = response
        self.data = data
        self.captured = []
        self.updated = []
        self.finalized = []
        self.aborted = []

    def snoop(self, txn):
        return self.response

    def supply_data(self, txn):
        return self.data

    def capture_write(self, txn):
        self.captured.append(txn.value)

    def connect_update(self, txn):
        self.updated.append(txn.value)

    def finalize(self, txn, aggregate):
        self.finalized.append((txn.serial, aggregate))

    def transaction_aborted(self, txn):
        self.aborted.append(txn.serial)


class PushingAgent(StubAgent):
    """Asserts BS once, pushes, then goes quiet -- like a dirty cache."""

    def __init__(self, unit_id, push_value):
        super().__init__(unit_id, SnoopResponse(bs=True), push_value)
        self.pushed = False

    def snoop(self, txn):
        if self.pushed:
            return SnoopResponse(ch=True)
        return SnoopResponse(bs=True)

    def abort_push(self, txn, bus):
        bus.execute(
            self.unit_id, txn.address, MasterSignals(ca=True), BusOp.WRITE,
            self.data,
        )
        self.pushed = True


@pytest.fixture
def rig():
    memory = MainMemory()
    bus = Futurebus(memory)
    return bus, memory


class TestReads:
    def test_memory_supplies_by_default(self, rig):
        bus, memory = rig
        memory.poke(0, 42)
        bus.attach(StubAgent("a"))
        result = bus.execute("m", 0, MasterSignals(ca=True), BusOp.READ)
        assert result.value == 42 and result.supplier == "memory"

    def test_di_preempts_memory(self, rig):
        bus, memory = rig
        memory.poke(0, 42)
        owner = StubAgent("owner", SnoopResponse(di=True), data=7)
        bus.attach(owner)
        result = bus.execute("m", 0, MasterSignals(ca=True), BusOp.READ)
        assert result.value == 7 and result.supplier == "owner"
        assert memory.stats.reads == 0

    def test_master_does_not_snoop_itself(self, rig):
        bus, _ = rig
        agent = StubAgent("m", SnoopResponse(di=True))
        bus.attach(agent)
        result = bus.execute("m", 0, MasterSignals(ca=True), BusOp.READ)
        assert result.supplier == "memory"

    def test_ch_aggregated(self, rig):
        bus, _ = rig
        bus.attach(StubAgent("a", SnoopResponse(ch=True)))
        bus.attach(StubAgent("b"))
        result = bus.execute("m", 0, MasterSignals(ca=True), BusOp.READ)
        assert result.shared


class TestWrites:
    def test_plain_write_updates_memory(self, rig):
        bus, memory = rig
        bus.attach(StubAgent("a"))
        bus.execute("m", 0, MasterSignals(im=True), BusOp.WRITE, 5)
        assert memory.peek(0) == 5

    def test_owner_captures_non_broadcast_write(self, rig):
        """DI on a write: the owner absorbs it; memory must stay stale."""
        bus, memory = rig
        owner = StubAgent("owner", SnoopResponse(di=True))
        bus.attach(owner)
        bus.execute("m", 0, MasterSignals(im=True), BusOp.WRITE, 5)
        assert owner.captured == [5]
        assert memory.stats.writes == 0

    def test_broadcast_write_updates_memory_and_connectors(self, rig):
        bus, memory = rig
        a = StubAgent("a", SnoopResponse(sl=True, ch=True))
        b = StubAgent("b")
        bus.attach(a)
        bus.attach(b)
        result = bus.execute(
            "m", 0, MasterSignals(ca=True, im=True, bc=True), BusOp.WRITE, 5
        )
        assert memory.peek(0) == 5
        assert a.updated == [5] and b.updated == []
        assert result.connectors == ("a",)

    def test_di_on_broadcast_is_an_error(self, rig):
        bus, _ = rig
        bus.attach(StubAgent("a", SnoopResponse(di=True)))
        with pytest.raises(RuntimeError, match="DI asserted on broadcast"):
            bus.execute(
                "m", 0, MasterSignals(ca=True, im=True, bc=True),
                BusOp.WRITE, 5,
            )

    def test_write_without_value_rejected(self, rig):
        bus, _ = rig
        with pytest.raises(ValueError, match="write without data"):
            bus.execute("m", 0, MasterSignals(im=True), BusOp.WRITE)

    def test_multiple_di_detected(self, rig):
        """Two intervenient responders = broken single-owner invariant."""
        bus, _ = rig
        bus.attach(StubAgent("a", SnoopResponse(di=True)))
        bus.attach(StubAgent("b", SnoopResponse(di=True)))
        with pytest.raises(RuntimeError, match="multiple intervenient"):
            bus.execute("m", 0, MasterSignals(ca=True), BusOp.READ)


class TestAddressOnly:
    def test_no_data_movement(self, rig):
        bus, memory = rig
        agent = StubAgent("a")
        bus.attach(agent)
        result = bus.execute(
            "m", 0, MasterSignals(ca=True, im=True), BusOp.NONE
        )
        assert memory.stats.writes == 0 and memory.stats.reads == 0
        assert result.value is None
        assert agent.finalized  # still snooped and finalized


class TestAbortRetry:
    def test_bs_causes_push_then_retry(self, rig):
        bus, memory = rig
        pusher = PushingAgent("dirty", push_value=9)
        bus.attach(pusher)
        result = bus.execute("m", 0, MasterSignals(ca=True), BusOp.READ)
        assert result.retries == 1
        assert memory.peek(0) == 9      # push reached memory first
        assert result.value == 9        # retry read the fresh value
        assert result.supplier == "memory"

    def test_non_pushers_notified_of_abort(self, rig):
        bus, _ = rig
        pusher = PushingAgent("dirty", push_value=9)
        bystander = StubAgent("by")
        bus.attach(pusher)
        bus.attach(bystander)
        bus.execute("m", 0, MasterSignals(ca=True), BusOp.READ)
        assert bystander.aborted  # told about the aborted first attempt

    def test_livelock_detected(self, rig):
        bus, _ = rig

        class ForeverBusy(StubAgent):
            def snoop(self, txn):
                return SnoopResponse(bs=True)

            def abort_push(self, txn, bus):
                pass  # never makes progress

        bus.attach(ForeverBusy("stuck"))
        with pytest.raises(BusLivelockError):
            bus.execute("m", 0, MasterSignals(ca=True), BusOp.READ)


class TestBookkeeping:
    def test_duplicate_unit_rejected(self, rig):
        bus, _ = rig
        bus.attach(StubAgent("a"))
        with pytest.raises(ValueError, match="duplicate"):
            bus.attach(StubAgent("a"))

    def test_trace_records_transactions(self):
        memory = MainMemory()
        trace = []
        bus = Futurebus(memory, trace=trace)
        bus.execute("m", 0, MasterSignals(im=True), BusOp.WRITE, 1)
        assert len(trace) == 1
        txn, result = trace[0]
        assert isinstance(txn, Transaction) and txn.master == "m"

    def test_busy_time_accumulates(self, rig):
        bus, _ = rig
        bus.execute("m", 0, MasterSignals(ca=True), BusOp.READ)
        first = bus.busy_ns
        bus.execute("m", 0, MasterSignals(ca=True), BusOp.READ)
        assert bus.busy_ns > first

    def test_read_then_write_rejected_at_engine(self, rig):
        bus, _ = rig
        with pytest.raises(ValueError, match="two transactions"):
            bus.execute(
                "m", 0, MasterSignals(ca=True), BusOp.READ_THEN_WRITE
            )

    def test_serial_numbers_increase(self, rig):
        bus, _ = rig
        trace = []
        bus.trace = trace
        bus.execute("m", 0, MasterSignals(ca=True), BusOp.READ)
        bus.execute("m", 0, MasterSignals(ca=True), BusOp.READ)
        assert trace[1][0].serial > trace[0][0].serial


class TestHolderOnlySnooping:
    """The bus snoops only caches holding a valid copy of the line.

    A cache in state I answers nothing and keeps its state (Table 2's I
    row), so skipping it must leave every transaction result, the bus
    statistics and every board's end state equal to full fan-out -- a
    reference bus that snoops every agent -- while a controller with no
    valid copy never sees a ``snoop``, ``finalize`` or
    ``transaction_aborted`` call."""

    @staticmethod
    def _run(protocols, full_fan_out, calls=None):
        import random

        from repro.system.system import BoardSpec, System

        system = System(
            [BoardSpec(f"cpu{i}", name, num_sets=4, associativity=2)
             for i, name in enumerate(protocols)],
        )
        bus = system.bus
        bus.trace = []
        if full_fan_out:
            def fan_out_all(master):
                fanout = tuple(
                    (agent, None) for agent in bus._agents.values()
                    if agent.unit_id != master
                )
                bus._fanout[master] = fanout
                return fanout

            bus._fanout_for = fan_out_all
        if calls is not None:
            for board in system.controllers.values():
                if board.resident is not None:
                    _record_calls(board, calls)
        rng = random.Random(11)
        units = list(system.controllers)
        for _ in range(1500):
            unit = rng.choice(units)
            address = rng.randrange(12) * 32
            if rng.random() < 0.4:
                system.write(unit, address)
            else:
                system.read(unit, address)
        results = [
            (txn.describe(), txn.event, result) for txn, result in bus.trace
        ]
        boards = {
            unit: (sorted((a, s.letter, v) for a, s, v in board.cached_lines()),
                   board.stats)
            for unit, board in system.controllers.items()
        }
        return results, system.bus_stats.to_dict(), boards

    @pytest.mark.parametrize(
        "protocols",
        [
            ("illinois",) * 4,
            ("moesi", "dragon", "write-through", "non-caching"),
            ("firefly",) * 3,
            ("moesi-random", "moesi-round-robin",
             "moesi-adaptive-threshold", "moesi"),
        ],
    )
    def test_results_equal_full_fan_out(self, protocols):
        calls = []
        filtered = self._run(protocols, full_fan_out=False, calls=calls)
        reference = self._run(protocols, full_fan_out=True)
        assert filtered == reference
        # Every hook a controller saw came while it held a valid copy.
        assert calls and all(held for *_, held in calls)
        if protocols[0] in ("illinois", "firefly"):
            # BS abort-push retries were exercised (and re-filtered).
            assert sum(result.retries for _, _, result in filtered[0]) > 0

    def test_retry_refilters_after_a_push_to_invalid(self):
        """A pusher that lands in I holds no copy when the aborted
        transaction restarts, so the retry must not snoop it."""
        from repro.core.events import BusEvent
        from repro.core.states import LineState
        from repro.protocols.illinois import IllinoisProtocol, _abort_push
        from repro.system.system import BoardSpec, System

        class PushToInvalid(IllinoisProtocol):
            snoop_transitions = {
                **IllinoisProtocol.snoop_transitions,
                (LineState.MODIFIED, BusEvent.CACHE_READ):
                    _abort_push(LineState.INVALID),
            }

        system = System(
            [BoardSpec(f"cpu{i}", PushToInvalid()) for i in range(3)]
        )
        system.bus.trace = []
        calls = []
        for board in system.controllers.values():
            _record_calls(board, calls)
        system.write("cpu0", 0)
        system.read("cpu1", 0)
        (_, read), = system.bus.trace[-1:]
        assert read.retries == 1
        assert system.controllers["cpu0"].state_of(0) is LineState.INVALID
        assert calls and all(held for *_, held in calls)
        snooped_cpu0 = [c for c in calls if c[0] == "cpu0"]
        assert [method for _, method, _, _ in snooped_cpu0] == ["snoop"]

    def test_hierarchy_bridges_see_every_transaction(self):
        from repro.hierarchy.system import ClusterSpec, HierarchicalSystem

        h = HierarchicalSystem(
            [ClusterSpec("a", protocols=("moesi", "moesi")),
             ClusterSpec("b", protocols=("moesi", "moesi"))]
        )
        seen = {name: [] for name in h.bridges}
        mastered = {name: [] for name in h.bridges}
        for name, bridge in h.bridges.items():
            watcher = next(
                agent for agent in bridge.local_bus.agents
                if agent.unit_id.endswith(".watcher")
            )
            assert watcher.resident is None
            snoop = watcher.snoop

            def watch(txn, _snoop=snoop, _seen=seen[name]):
                _seen.append(txn.serial)
                return _snoop(txn)

            watcher.snoop = watch
            bridge.local_bus.observer = (
                lambda txn, result, _m=mastered[name]: _m.append(txn)
            )
        for step in range(200):
            unit = ("a.cpu0", "a.cpu1", "b.cpu0", "b.cpu1")[step % 4]
            if step % 3:
                h.read(unit, (step % 5) * 32)
            else:
                h.write(unit, (step % 5) * 32)
        for name in h.bridges:
            from_caches = {
                txn.serial for txn in mastered[name]
                if not txn.master.startswith("bridge.")
            }
            assert from_caches
            assert from_caches <= set(seen[name])


def _record_calls(board, calls):
    """Wrap a controller's snooping hooks to log whether it held a valid
    copy of the line when the bus called it."""
    snooped = set()

    def holds(address):
        return board.cache.lookup(address) is not None

    snoop = board.snoop
    finalize = board.finalize
    aborted = board.transaction_aborted

    def snoop_hook(txn):
        held = holds(txn.address)
        snooped.add(txn.serial)
        calls.append((board.unit_id, "snoop", txn.serial, held))
        return snoop(txn)

    def finalize_hook(txn, aggregate):
        calls.append((board.unit_id, "finalize", txn.serial,
                      txn.serial in snooped))
        return finalize(txn, aggregate)

    def aborted_hook(txn):
        calls.append((board.unit_id, "transaction_aborted", txn.serial,
                      txn.serial in snooped))
        return aborted(txn)

    board.snoop = snoop_hook
    board.finalize = finalize_hook
    board.transaction_aborted = aborted_hook
