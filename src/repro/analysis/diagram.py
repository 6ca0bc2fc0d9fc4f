"""Protocol state diagrams: build the transition digraph of any protocol.

The paper presents protocols as tables; most later treatments draw them
as state diagrams.  This module derives the diagram *from the
implementation* (the same engines the tables are diffed from), using
networkx for the graph structure, and renders it as ASCII adjacency or
Graphviz DOT.

networkx is the optional ``diagram`` extra (``pip install
repro[diagram]``); it is imported inside the functions that use it, so
importing this module (and :mod:`repro.analysis`) never loads it.

Conditional result states contribute both branches (labelled ``CH`` /
``~CH``); bus-event responses are labelled with their column numbers.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.actions import ConditionalState
from repro.core.events import ALL_BUS_EVENTS, ALL_LOCAL_EVENTS
from repro.core.protocol import Protocol
from repro.core.states import LineState

if TYPE_CHECKING:  # pragma: no cover - annotations only
    import networkx as nx

__all__ = [
    "build_transition_graph",
    "reachable_states",
    "render_adjacency",
    "to_dot",
]


def _networkx():
    """networkx, or an :class:`ImportError` naming the extra to install."""
    try:
        import networkx
    except ImportError:
        raise ImportError(
            "protocol diagrams need networkx: pip install 'repro[diagram]'"
        ) from None
    return networkx


def _targets(next_state) -> list[tuple[LineState, str]]:
    """(state, condition-suffix) pairs for a possibly-conditional result."""
    if isinstance(next_state, ConditionalState):
        return [(next_state.if_ch, "[CH]"), (next_state.if_not_ch, "[~CH]")]
    return [(next_state, "")]


def build_transition_graph(protocol: Protocol) -> "nx.MultiDiGraph":
    """Directed multigraph: nodes are state letters, edges carry labels
    like ``W:CH:O/M,CA,IM,BC,W`` (local) or ``col5`` (bus)."""
    graph = _networkx().MultiDiGraph(name=protocol.name)
    for state in protocol.states:
        graph.add_node(state.letter)
    for state in protocol.states:
        for event in ALL_LOCAL_EVENTS:
            for action in protocol.local_cell(state, event):
                for target, suffix in _targets(action.next_state):
                    graph.add_edge(
                        state.letter,
                        target.letter,
                        label=f"{event.name[0]}:{action.notation()}{suffix}",
                        kind="local",
                    )
        for event in ALL_BUS_EVENTS:
            for action in protocol.snoop_cell(state, event):
                for target, suffix in _targets(action.next_state):
                    graph.add_edge(
                        state.letter,
                        target.letter,
                        label=f"col{event.note}:{action.notation()}{suffix}",
                        kind="bus",
                    )
    return graph


def reachable_states(
    protocol: Protocol, start: LineState = LineState.INVALID
) -> set[str]:
    """States reachable from ``start`` along any transitions."""
    graph = build_transition_graph(protocol)
    if start.letter not in graph:
        return set()
    return set(_networkx().descendants(graph, start.letter)) | {start.letter}


def render_adjacency(protocol: Protocol) -> str:
    """Compact text form: one line per (from, to) pair with edge labels."""
    graph = build_transition_graph(protocol)
    lines = [f"{protocol.name} transition diagram"]
    order = [s for s in "MOESI" if s in graph]
    for source in order:
        for target in order:
            labels = [
                data["label"]
                for _, t, data in graph.out_edges(source, data=True)
                if t == target
            ]
            if labels:
                lines.append(f"  {source} -> {target}: " + "; ".join(labels))
    return "\n".join(lines)


def to_dot(protocol: Protocol, title: Optional[str] = None) -> str:
    """Graphviz DOT output (render externally with ``dot -Tpng``)."""
    graph = build_transition_graph(protocol)
    name = title or protocol.name
    out = [f'digraph "{name}" {{', "  rankdir=LR;",
           '  node [shape=circle fontsize=14];']
    order = [s for s in "MOESI" if s in graph]
    for node in order:
        out.append(f"  {node};")
    for source, target, data in graph.edges(data=True):
        style = "solid" if data.get("kind") == "local" else "dashed"
        label = data["label"].replace('"', "'")
        out.append(
            f'  {source} -> {target} [label="{label}" style={style} '
            "fontsize=9];"
        )
    out.append("}")
    return "\n".join(out)
