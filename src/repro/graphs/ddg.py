"""Data Dependency Graph construction (Algorithm 1, §3.2.3).

The DDG is a DAG whose vertices are *kernel invocations* and *data arrays*;
edges express produced-by / consumed-by relations:

* ``array → kernel``  — the invocation reads the array
* ``kernel → array``  — the invocation writes the array

Algorithm 1 adds one node per data array.  That naive form can contain
cycles (kernel A reads X / writes Y while kernel B writes X / reads Y); the
paper resolves this with two graph optimizations, which
:func:`optimize_ddg` applies:

* **redundant array instances** — arrays written by several invocations get
  one *instance* (version) node per write, turning the graph into a
  dataflow DAG, and
* **invocation-order cycle breaking** — any remaining cycle is broken by
  dropping the edge that contradicts host invocation order.

Node naming: invocation nodes are ``<kernel>@<launch index>``; array
instance nodes are ``<array>#<version>`` (version 0 is the initial
contents).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..analysis.accesses import collect_accesses
from ..analysis.metadata import ProgramMetadata
from ..cudalite import ast_nodes as ast
from ..errors import GraphError
from .digraph import DiGraph, is_directed_acyclic_graph

KERNEL = "kernel"
ARRAY = "array"


def invocation_id(kernel: str, index: int) -> str:
    return f"{kernel}@{index}"


def array_id(array: str, version: int = 0) -> str:
    return f"{array}#{version}"


def split_invocation(node_id: str) -> Tuple[str, int]:
    kernel, _, idx = node_id.rpartition("@")
    return kernel, int(idx)


def split_array(node_id: str) -> Tuple[str, int]:
    base, _, version = node_id.rpartition("#")
    return base, int(version)


@dataclass(frozen=True)
class InvocationIO:
    """Per-invocation read/write sets in terms of *host* array names."""

    node: str
    kernel: str
    index: int
    reads: Tuple[str, ...]
    writes: Tuple[str, ...]
    grid: Tuple[int, int, int]
    block: Tuple[int, int, int]


def invocation_table(
    program: ast.Program, metadata: ProgramMetadata
) -> List[InvocationIO]:
    """Resolve each recorded launch's formal params to host array names."""
    table: List[InvocationIO] = []
    for index, entry in enumerate(metadata.launch_order):
        kernel_name, args, grid, block = entry[0], entry[1], entry[2], entry[3]
        kernel = program.kernel(kernel_name)
        acc = collect_accesses(kernel)
        pointers = kernel.pointer_params()
        if len(pointers) != len(args):
            raise GraphError(
                f"invocation {kernel_name}@{index}: arg count mismatch"
            )
        binding = {p.name: arg for p, arg in zip(pointers, args)}
        reads = tuple(sorted({binding[f] for f in acc.arrays_read if f in binding}))
        writes = tuple(sorted({binding[f] for f in acc.arrays_written if f in binding}))
        table.append(
            InvocationIO(
                node=invocation_id(kernel_name, index),
                kernel=kernel_name,
                index=index,
                reads=reads,
                writes=writes,
                grid=tuple(grid),
                block=tuple(block),
            )
        )
    return table


def build_naive_ddg(invocations: List[InvocationIO]) -> DiGraph:
    """Algorithm 1 verbatim: one node per array, may contain cycles."""
    ddg = DiGraph(kind="ddg", form="naive")
    for inv in invocations:
        ddg.add_node(inv.node, kind=KERNEL, kernel=inv.kernel, index=inv.index)
        for array in inv.reads:
            node = array_id(array, 0)
            if node not in ddg.nodes:
                ddg.add_node(node, kind=ARRAY, base=array, version=0)
            ddg.add_edge(node, inv.node)
        for array in inv.writes:
            node = array_id(array, 0)
            if node not in ddg.nodes:
                ddg.add_node(node, kind=ARRAY, base=array, version=0)
            ddg.add_edge(inv.node, node)
    return ddg


def build_versioned_ddg(invocations: List[InvocationIO]) -> DiGraph:
    """DDG with redundant array instances (the optimized form).

    Every write creates a fresh instance node of the array; reads consume
    the latest instance.  The result is acyclic by construction.
    """
    ddg = DiGraph(kind="ddg", form="versioned")
    version: Dict[str, int] = {}

    def current(array: str) -> str:
        v = version.setdefault(array, 0)
        node = array_id(array, v)
        if node not in ddg.nodes:
            ddg.add_node(node, kind=ARRAY, base=array, version=v)
        return node

    for inv in invocations:
        ddg.add_node(inv.node, kind=KERNEL, kernel=inv.kernel, index=inv.index)
        for array in inv.reads:
            ddg.add_edge(current(array), inv.node)
        for array in inv.writes:
            # a write that also reads (in-place update) consumes the old
            # instance first
            if array not in inv.reads:
                current(array)  # make sure version 0 exists
            version[array] = version.get(array, 0) + 1
            node = array_id(array, version[array])
            ddg.add_node(node, kind=ARRAY, base=array, version=version[array])
            ddg.add_edge(inv.node, node)
    return ddg


@dataclass
class DDGOptimizationReport:
    """What :func:`optimize_ddg` changed (shown to the programmer)."""

    instances_added: Dict[str, int]
    edges_dropped: List[Tuple[str, str]]
    had_cycles: bool

    def summary(self) -> str:
        lines = []
        multi = {a: n for a, n in self.instances_added.items() if n > 1}
        if multi:
            lines.append(
                "redundant array instances added for: "
                + ", ".join(f"{a} (x{n})" for a, n in sorted(multi.items()))
            )
        if self.edges_dropped:
            lines.append(
                "cycle-breaking edges dropped: "
                + ", ".join(f"{u}->{v}" for u, v in self.edges_dropped)
            )
        if not lines:
            lines.append("no DDG changes were necessary")
        return "\n".join(lines)


def optimize_ddg(
    invocations: List[InvocationIO],
) -> Tuple[DiGraph, DDGOptimizationReport]:
    """Build the optimized DDG and report the applied changes."""
    naive = build_naive_ddg(invocations)
    had_cycles = not is_directed_acyclic_graph(naive)
    ddg = build_versioned_ddg(invocations)
    instance_counts: Dict[str, int] = {}
    for node, data in ddg.nodes(data=True):
        if data["kind"] == ARRAY:
            base = data["base"]
            instance_counts[base] = instance_counts.get(base, 0) + 1
    dropped: List[Tuple[str, str]] = []
    if not is_directed_acyclic_graph(ddg):  # pragma: no cover - safety net
        # invocation-order heuristic: drop edges pointing backwards in time
        for u, v in list(ddg.edges):
            if ddg.nodes[u]["kind"] == KERNEL and ddg.nodes[v]["kind"] == ARRAY:
                continue
            ddg_order_u = _order_of(ddg, u)
            ddg_order_v = _order_of(ddg, v)
            if ddg_order_u is not None and ddg_order_v is not None and ddg_order_u > ddg_order_v:
                ddg.remove_edge(u, v)
                dropped.append((u, v))
        if not is_directed_acyclic_graph(ddg):
            raise GraphError("DDG still cyclic after optimization")
    report = DDGOptimizationReport(
        instances_added=instance_counts,
        edges_dropped=dropped,
        had_cycles=had_cycles,
    )
    return ddg, report


def _order_of(ddg: DiGraph, node: str) -> Optional[int]:
    data = ddg.nodes[node]
    return data.get("index")


def kernel_nodes(ddg: DiGraph) -> List[str]:
    """Invocation nodes in launch order."""
    nodes = [n for n, d in ddg.nodes(data=True) if d["kind"] == KERNEL]
    return sorted(nodes, key=lambda n: ddg.nodes[n]["index"])


def array_nodes(ddg: DiGraph) -> List[str]:
    return sorted(n for n, d in ddg.nodes(data=True) if d["kind"] == ARRAY)


def arrays_of_invocation(ddg: DiGraph, node: str) -> Tuple[Set[str], Set[str]]:
    """(reads, writes) of an invocation node, as base array names."""
    reads = {
        ddg.nodes[p]["base"] for p in ddg.predecessors(node)
        if ddg.nodes[p]["kind"] == ARRAY
    }
    writes = {
        ddg.nodes[s]["base"] for s in ddg.successors(node)
        if ddg.nodes[s]["kind"] == ARRAY
    }
    return reads, writes


def validate_ddg(ddg: DiGraph) -> None:
    """Invariants: bipartite kernel/array structure and acyclicity."""
    for u, v in ddg.edges:
        ku = ddg.nodes[u]["kind"]
        kv = ddg.nodes[v]["kind"]
        if ku == kv:
            raise GraphError(f"DDG edge {u}->{v} joins two {ku} nodes")
    if not is_directed_acyclic_graph(ddg):
        raise GraphError("DDG contains a cycle")
