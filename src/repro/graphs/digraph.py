"""A small directed graph: the one graph type the DDG and the OEG use.

Nodes, edges and the graph carry attribute dicts (``graph.nodes[n]``,
``graph.edges[u, v]``, ``graph.graph``).  Everything iterates in insertion
order (nodes as added, each node's successors as their edges were added),
so a graph built twice from one input writes one DOT text under any hash
seed.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, Hashable, Iterable, Iterator, List, Set

from ..errors import GraphError


class _Nodes(dict):
    """``graph.nodes``: node -> attribute dict; ``nodes(data=True)`` lists rows."""

    def __call__(self, data: bool = False) -> List[Any]:
        return list(self.items()) if data else list(self)


class _Edges:
    """``graph.edges``: ``(u, v)`` pairs to iterate, test, index or list."""

    def __init__(self, succ: Dict[Hashable, Dict[Hashable, dict]]) -> None:
        self._succ = succ

    def __iter__(self) -> Iterator[tuple]:
        return ((u, v) for u, nbrs in self._succ.items() for v in nbrs)

    def __contains__(self, edge: tuple) -> bool:
        return edge[1] in self._succ.get(edge[0], ())

    def __getitem__(self, edge: tuple) -> dict:
        return self._succ[edge[0]][edge[1]]

    def __call__(self, data: Any = False) -> List[tuple]:
        if data is False:
            return list(self)
        return [
            (u, v, d if data is True else d.get(data))
            for u, nbrs in self._succ.items()
            for v, d in nbrs.items()
        ]


class DiGraph:
    """Directed graph with graph, node and edge attribute dicts."""

    def __init__(self, **attr: Any) -> None:
        self.graph: Dict[str, Any] = dict(attr)
        self.nodes = _Nodes()
        self._succ: Dict[Hashable, Dict[Hashable, dict]] = {}
        self._pred: Dict[Hashable, Dict[Hashable, dict]] = {}
        self.edges = _Edges(self._succ)

    def add_node(self, node: Hashable, **attr: Any) -> None:
        if node not in self.nodes:
            self.nodes[node] = {}
            self._succ[node] = {}
            self._pred[node] = {}
        self.nodes[node].update(attr)

    def add_nodes_from(self, nodes: Iterable[Hashable]) -> None:
        for node in nodes:
            self.add_node(node)

    def add_edge(self, u: Hashable, v: Hashable, **attr: Any) -> None:
        """Add ``u -> v`` and missing endpoints, or update its attributes."""
        self.add_node(u)
        self.add_node(v)
        if v not in self._succ[u]:
            self._succ[u][v] = self._pred[v][u] = {}
        self._succ[u][v].update(attr)

    def remove_edge(self, u: Hashable, v: Hashable) -> None:
        del self._succ[u][v]
        del self._pred[v][u]

    def successors(self, node: Hashable) -> Iterator[Hashable]:
        return iter(self._succ[node])

    def predecessors(self, node: Hashable) -> Iterator[Hashable]:
        return iter(self._pred[node])

    def number_of_nodes(self) -> int:
        return len(self.nodes)

    def number_of_edges(self) -> int:
        return sum(map(len, self._succ.values()))

    def copy(self) -> "DiGraph":
        """An independent graph: every attribute dict is copied."""
        new = DiGraph(**self.graph)
        for node, data in self.nodes.items():
            new.add_node(node, **data)
        for u, v, data in self.edges(data=True):
            new.add_edge(u, v, **data)
        return new


def lexicographical_topological_sort(
    graph: DiGraph, key: Callable[[Hashable], Any]
) -> List[Hashable]:
    """The topological order that always emits the ready node with the
    least ``(key(n), insertion index)``; the launch order rests on it."""
    index = {node: i for i, node in enumerate(graph.nodes)}
    indegree = {v: len(p) for v, p in graph._pred.items() if p}
    ready = [(key(v), index[v], v) for v, p in graph._pred.items() if not p]
    heapq.heapify(ready)
    order: List[Hashable] = []
    while ready:
        node = heapq.heappop(ready)[2]
        order.append(node)
        for child in graph._succ[node]:
            indegree[child] -= 1
            if not indegree[child]:
                del indegree[child]
                heapq.heappush(ready, (key(child), index[child], child))
    if indegree:
        raise GraphError("graph contains a cycle")
    return order


def topological_sort(graph: DiGraph) -> List[Hashable]:
    return lexicographical_topological_sort(graph, key=lambda node: 0)


def is_directed_acyclic_graph(graph: DiGraph) -> bool:
    try:
        topological_sort(graph)
    except GraphError:
        return False
    return True


def _reach(adjacency: Dict[Hashable, dict], node: Hashable) -> Set[Hashable]:
    """Every node a walk along ``adjacency`` from ``node`` reaches."""
    seen: Set[Hashable] = set()
    stack = [node]
    while stack:
        for nxt in adjacency[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def transitive_reduction(graph: DiGraph) -> DiGraph:
    """The DAG's transitive reduction, with every attribute kept and each
    node's remaining successors in their original order."""
    if not is_directed_acyclic_graph(graph):
        raise GraphError("transitive reduction needs a DAG")
    reduced = DiGraph(**graph.graph)
    for node, data in graph.nodes.items():
        reduced.add_node(node, **data)
    descendants: Dict[Hashable, Set[Hashable]] = {}
    # a descendant set is dropped once every predecessor has used it
    uses_left = {v: len(p) for v, p in graph._pred.items()}
    for u, nbrs in graph._succ.items():
        kept = set(nbrs)
        for v in nbrs:
            if v in kept:
                if v not in descendants:
                    descendants[v] = _reach(graph._succ, v)
                kept -= descendants[v]
            uses_left[v] -= 1
            if not uses_left[v]:
                descendants.pop(v, None)
        for v, data in nbrs.items():
            if v in kept:
                reduced.add_edge(u, v, **data)
    return reduced


def strongly_connected_components(graph: DiGraph) -> List[Set[Hashable]]:
    """Each node with everything it both reaches and is reached from
    (quadratic; the graphs here have at most a few hundred nodes)."""
    components: List[Set[Hashable]] = []
    assigned: Set[Hashable] = set()
    for node in graph.nodes:
        if node not in assigned:
            components.append({node} | (_reach(graph._succ, node) & _reach(graph._pred, node)))
            assigned |= components[-1]
    return components
