"""Order-of-Execution Graph (OEG) construction and queries (§3.2.3).

The OEG is a DAG over kernel invocations whose edges are the precedence
constraints that any transformed program must respect.  It is derived from
the (optimized, versioned) DDG:

* **RAW** — the writer of an array instance precedes each of its readers;
* **WAR** — each reader of instance ``v`` precedes the writer of ``v+1``;
* **WAW** — the writer of instance ``v`` precedes the writer of ``v+1``.

Fusion feasibility is *convexity*: a set of invocations can be fused into
one kernel only if no dependence path leaves the set and re-enters it
(otherwise some outside kernel would have to run "in the middle of" the
fused kernel).  :func:`is_convex` implements that test; it is the central
problem-related constraint handed to the optimization algorithm.
"""

from __future__ import annotations

from collections import defaultdict
from typing import (
    Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple,
)

from ..errors import GraphError
from .ddg import ARRAY, KERNEL, kernel_nodes
from .digraph import (
    DiGraph, is_directed_acyclic_graph, lexicographical_topological_sort,
    topological_sort, transitive_reduction,
)


def build_oeg(ddg: DiGraph, reduce: bool = True) -> DiGraph:
    """Derive the OEG from a versioned DDG."""
    oeg = DiGraph(kind="oeg")
    for node in kernel_nodes(ddg):
        data = ddg.nodes[node]
        oeg.add_node(
            node,
            kernel=data["kernel"],
            index=data["index"],
            eligible=data.get("eligible", True),
        )

    # group array instances by base name, ordered by version
    instances: Dict[str, List[Tuple[int, str]]] = defaultdict(list)
    for node, data in ddg.nodes(data=True):
        if data["kind"] == ARRAY:
            instances[data["base"]].append((data["version"], node))
    for versions in instances.values():
        versions.sort()

    def writer_of(instance: str) -> Optional[str]:
        for pred in ddg.predecessors(instance):
            if ddg.nodes[pred]["kind"] == KERNEL:
                return pred
        return None

    def readers_of(instance: str) -> List[str]:
        return [
            succ
            for succ in ddg.successors(instance)
            if ddg.nodes[succ]["kind"] == KERNEL
        ]

    for base, versions in instances.items():
        for pos, (version, instance) in enumerate(versions):
            writer = writer_of(instance)
            readers = readers_of(instance)
            # RAW
            if writer is not None:
                for reader in readers:
                    if reader != writer:
                        oeg.add_edge(writer, reader, dep="RAW", array=base)
            if pos + 1 < len(versions):
                next_writer = writer_of(versions[pos + 1][1])
                if next_writer is None:
                    continue
                # WAR
                for reader in readers:
                    if reader != next_writer:
                        oeg.add_edge(reader, next_writer, dep="WAR", array=base)
                # WAW
                if writer is not None and writer != next_writer:
                    oeg.add_edge(writer, next_writer, dep="WAW", array=base)

    if not is_directed_acyclic_graph(oeg):
        raise GraphError("OEG construction produced a cycle")
    return transitive_reduction(oeg) if reduce else oeg


def validate_oeg(oeg: DiGraph) -> None:
    if not is_directed_acyclic_graph(oeg):
        raise GraphError("OEG contains a cycle")


def topological_order(oeg: DiGraph) -> List[str]:
    """A topological order that ties-breaks by original launch index."""
    return lexicographical_topological_sort(
        oeg, key=lambda n: oeg.nodes[n].get("index", 0)
    )


def reachability(oeg: DiGraph) -> Dict[str, Set[str]]:
    """Transitive successors of every node (cached by callers)."""
    closure: Dict[str, Set[str]] = {}
    for node in reversed(topological_sort(oeg)):
        reach: Set[str] = set()
        for succ in oeg.successors(node):
            reach.add(succ)
            reach |= closure[succ]
        closure[node] = reach
    return closure


def is_convex(
    group: Iterable[str],
    oeg: DiGraph,
    reach: Optional[Dict[str, Set[str]]] = None,
) -> bool:
    """True if ``group`` can be fused without violating the OEG.

    A group is convex when for every pair ``a, b`` in the group, every node
    on a dependence path ``a → ... → b`` is also in the group.
    """
    members = set(group)
    if len(members) <= 1:
        return True
    closure = reach if reach is not None else reachability(oeg)
    for a in members:
        for mid in closure.get(a, ()):  # nodes reachable from a
            if mid in members:
                continue
            # a -> mid; does mid reach back into the group?
            if closure.get(mid, frozenset()) & members:
                return False
    return True


def group_schedule(
    groups: Sequence[FrozenSet[str]],
    oeg: DiGraph,
    key: Optional[Callable[[str], float]] = None,
) -> List[FrozenSet[str]]:
    """Order fused groups topologically (the new host invocation order).

    Builds the condensation of the OEG over the grouping and sorts it
    lexicographically: among the groups ready to run, the one whose
    earliest member comes first by ``key`` (default: the OEG's launch
    ``index``), ties by position in ``groups``.  Raises
    :class:`GraphError` if the grouping induces a cycle (i.e. some group
    is not convex).
    """
    key = key or (lambda n: oeg.nodes[n]["index"])
    owner: Dict[str, int] = {}
    for gid, group in enumerate(groups):
        for node in group:
            if node in owner:
                raise GraphError(f"node {node} appears in two groups")
            owner[node] = gid
    condensed = DiGraph()
    condensed.add_nodes_from(range(len(groups)))
    for u, v in oeg.edges:
        gu, gv = owner.get(u), owner.get(v)
        if gu is None or gv is None:
            raise GraphError("grouping does not cover all OEG nodes")
        if gu != gv:
            condensed.add_edge(gu, gv)
    if not is_directed_acyclic_graph(condensed):
        raise GraphError("grouping violates OEG precedence (non-convex group)")
    first = [min(map(key, group), default=0) for group in groups]
    order = lexicographical_topological_sort(condensed, key=first.__getitem__)
    return [groups[g] for g in order]


def internal_precedence(
    group: Iterable[str], oeg: DiGraph
) -> List[Tuple[str, str, str]]:
    """Precedence edges *inside* a group: (producer, consumer, array).

    Non-empty means the fusion is *complex* (§5.5.3) and the generated
    kernel needs barriers / temporal blocking.
    """
    members = set(group)
    edges = []
    for u, v, data in oeg.edges(data=True):
        if u in members and v in members:
            edges.append((u, v, data.get("array", "?")))
    return edges
