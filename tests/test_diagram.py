"""Protocol state-diagram generation (needs the ``diagram`` extra)."""

import pytest

pytest.importorskip("networkx")

from repro.analysis.diagram import (
    build_transition_graph,
    reachable_states,
    render_adjacency,
    to_dot,
)
from repro.core.states import LineState
from repro.protocols.registry import make_protocol


class TestGraphStructure:
    def test_moesi_has_all_five_nodes(self):
        graph = build_transition_graph(make_protocol("moesi"))
        assert set(graph.nodes) == set("MOESI")

    def test_berkeley_has_no_e(self):
        graph = build_transition_graph(make_protocol("berkeley"))
        assert "E" not in graph.nodes
        assert set(graph.nodes) == set("MOSI")

    def test_write_through_two_states(self):
        graph = build_transition_graph(make_protocol("write-through"))
        assert set(graph.nodes) == {"S", "I"}

    def test_conditional_contributes_both_branches(self):
        """I --read--> {S, E} via CH:S/E."""
        graph = build_transition_graph(make_protocol("moesi"))
        targets = {t for _, t in graph.out_edges("I")}
        assert {"S", "E", "M"} <= targets

    def test_edge_labels_carry_notation(self):
        graph = build_transition_graph(make_protocol("moesi"))
        labels = {d["label"] for *_, d in graph.edges(data=True)}
        assert any("CA,IM,BC,W" in label for label in labels)
        assert any(label.startswith("col5") for label in labels)


class TestReachability:
    @pytest.mark.parametrize(
        "name,expected",
        [
            ("moesi", set("MOESI")),
            ("berkeley", set("MOSI")),
            ("dragon", set("MOESI")),
            ("illinois", set("MESI")),
            ("write-once", set("MESI")),
            ("firefly", set("MESI")),
            ("write-through", {"S", "I"}),
        ],
    )
    def test_every_protocol_state_reachable_from_invalid(self, name, expected):
        """No dead states: the protocol actually uses all it declares."""
        assert reachable_states(make_protocol(name)) == expected

    def test_reachability_from_other_start(self):
        states = reachable_states(
            make_protocol("moesi"), start=LineState.MODIFIED
        )
        assert states == set("MOESI")


class TestRendering:
    def test_adjacency_text(self):
        text = render_adjacency(make_protocol("berkeley"))
        assert "Berkeley" in text
        assert "I -> S" in text and "I -> M" in text

    def test_dot_output_wellformed(self):
        dot = to_dot(make_protocol("moesi"))
        assert dot.startswith("digraph")
        assert dot.rstrip().endswith("}")
        assert "M -> O" in dot

    def test_dot_distinguishes_local_and_bus(self):
        dot = to_dot(make_protocol("moesi"))
        assert "style=solid" in dot and "style=dashed" in dot
