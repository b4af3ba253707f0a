"""The in-house graph type against networkx, and a runtime without networkx.

``repro.graphs.digraph`` carries the DDG and the OEG.  networkx is a test
dependency only: it is the oracle for the five graph algorithms on
hypothesis-drawn DAGs and cyclic digraphs, and the last test runs a
cold and a store-warm transform in a process where importing it fails.
"""

import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graphs.digraph import (
    DiGraph,
    is_directed_acyclic_graph,
    lexicographical_topological_sort,
    strongly_connected_components,
    topological_sort,
    transitive_reduction,
)
from repro.graphs.oeg import reachability

SRC = Path(__file__).resolve().parent.parent / "src"


@st.composite
def digraphs(draw, acyclic):
    """Node and edge lists in a drawn insertion order, so insertion order
    and topological order disagree; DAG edges point up a drawn rank."""
    n = draw(st.integers(0, 12))
    names = [f"n{i}" for i in draw(st.permutations(range(n)))]
    if n < 2:
        return names, []
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    raw = draw(st.lists(pairs, max_size=3 * n))
    if acyclic:
        edges = [(names[min(a, b)], names[max(a, b)]) for a, b in raw if a != b]
    else:
        edges = [(names[a], names[b]) for a, b in raw]
    return draw(st.permutations(names)), draw(st.permutations(edges))


def _both(drawn):
    nodes, edges = drawn
    ours, theirs = DiGraph(kind="test"), nx.DiGraph()
    ours.add_nodes_from(nodes)
    theirs.add_nodes_from(nodes)
    for i, (u, v) in enumerate(edges):
        ours.add_edge(u, v, dep="RAW", array=f"A{i}")
        theirs.add_edge(u, v)
    return ours, theirs


@settings(max_examples=150, deadline=None)
@given(st.one_of(digraphs(acyclic=True), digraphs(acyclic=False)))
def test_acyclicity_matches_networkx(drawn):
    ours, theirs = _both(drawn)
    acyclic = nx.is_directed_acyclic_graph(theirs)
    assert is_directed_acyclic_graph(ours) == acyclic
    if not acyclic:
        with pytest.raises(GraphError):
            topological_sort(ours)


@settings(max_examples=150, deadline=None)
@given(digraphs(acyclic=True), st.integers(1, 4))
def test_lexicographical_order_matches_networkx_with_ties(drawn, buckets):
    ours, theirs = _both(drawn)
    key = {node: int(node[1:]) % buckets for node in drawn[0]}.__getitem__
    assert lexicographical_topological_sort(ours, key=key) == list(
        nx.lexicographical_topological_sort(theirs, key=key)
    )


@settings(max_examples=150, deadline=None)
@given(digraphs(acyclic=True))
def test_transitive_reduction_matches_networkx(drawn):
    ours, theirs = _both(drawn)
    reduced = transitive_reduction(ours)
    assert set(reduced.edges) == set(nx.transitive_reduction(theirs).edges)
    # attributes survive; kept successors stay in adjacency order
    assert reduced.graph == {"kind": "test"}
    assert list(reduced.nodes) == list(ours.nodes)
    for u in ours.nodes:
        kept = list(reduced.successors(u))
        assert kept == [v for v in ours.successors(u) if v in kept]
        for v in kept:
            assert reduced.edges[u, v] == ours.edges[u, v]


@settings(max_examples=150, deadline=None)
@given(st.one_of(digraphs(acyclic=True), digraphs(acyclic=False)))
def test_strongly_connected_components_match_networkx(drawn):
    ours, theirs = _both(drawn)
    assert {frozenset(c) for c in strongly_connected_components(ours)} == {
        frozenset(c) for c in nx.strongly_connected_components(theirs)
    }


@settings(max_examples=150, deadline=None)
@given(digraphs(acyclic=True))
def test_oeg_reachability_matches_networkx_descendants(drawn):
    ours, theirs = _both(drawn)
    assert reachability(ours) == {n: nx.descendants(theirs, n) for n in theirs}


def test_copy_is_independent():
    graph = DiGraph(kind="oeg")
    graph.add_node("a", index=0)
    graph.add_edge("a", "b", dep="RAW")
    copy = graph.copy()
    copy.nodes["a"]["index"] = 9
    copy.edges["a", "b"]["dep"] = "USER"
    copy.add_edge("b", "c")
    copy.graph["kind"] = "ddg"
    assert graph.nodes["a"] == {"index": 0}
    assert graph.edges["a", "b"] == {"dep": "RAW"}
    assert ("b", "c") not in graph.edges and graph.number_of_edges() == 1
    assert graph.graph == {"kind": "oeg"}


_WITHOUT_NETWORKX = """
import sys
sys.modules["networkx"] = None  # every import of networkx now fails
from repro.api import transform
from repro.fuzz.appgen import generate_app
from repro.graphs import dot_to_graph, graph_to_dot
from repro.search import GAParams
import repro.service.worker

config = dict(
    ga_params=GAParams(population=10, generations=6, seed=1),
    workdir=sys.argv[1], store=True, store_root=sys.argv[2], telemetry=False,
)
cold = transform(generate_app(3), **config)
warm = transform(generate_app(3), **config)
assert "graphs" not in cold.reused and "graphs" in warm.reused
assert warm.source == cold.source
for graph in (warm.state.ddg, warm.state.oeg):
    back = dot_to_graph(graph_to_dot(graph))
    assert list(back.nodes) == list(graph.nodes)
    assert list(back.edges) == list(graph.edges)
print("ok")
"""


def test_runtime_runs_without_networkx(tmp_path):
    """A cold and a store-warm transform, the DOT round trip and the
    service worker import in a process that cannot import networkx."""
    run = subprocess.run(
        [sys.executable, "-c", _WITHOUT_NETWORKX, str(tmp_path / "work"),
         str(tmp_path / "store")],
        capture_output=True, text=True,
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip().splitlines()[-1] == "ok"
