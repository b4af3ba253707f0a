"""Statement-level dependency analysis for kernel fission (§4.1).

The paper determines whether two data arrays inside one kernel are
*separable* — "altering values of one array has no side effect on the values
of the other" — using statement-granularity analysis, then finds the
connected components of the array-dependency graph (Algorithm 2).

Two arrays are connected when

* one statement writes one of them while reading the other (direct flow), or
* they communicate through kernel-local scalars (a scalar defined from array
  ``X`` flows into a statement writing array ``Y``), or
* they appear in the same statement's write set (aggregate updates).

Scalar flow is computed with a simple transitive closure over the kernel's
def-use chains — sufficient because CudaLite kernels are structured programs
without aliasing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Sequence, Set

from ..cudalite import ast_nodes as ast
from .accesses import KernelAccesses, StatementAccess, collect_accesses


def _scalar_sources(statements: Sequence[StatementAccess]) -> Dict[str, Set[str]]:
    """For each local scalar, the set of arrays its value (transitively) derives from.

    Statements are processed in program order; a scalar's source set is the
    union over all its definitions (conservative for loops).
    """
    sources: Dict[str, Set[str]] = {}
    changed = True
    # iterate to a fixed point to handle use-before-redefinition inside loops
    for _ in range(len(statements) + 2):
        if not changed:
            break
        changed = False
        for stmt in statements:
            derived: Set[str] = set(stmt.arrays_read)
            for scalar in stmt.scalars_read:
                derived |= sources.get(scalar, set())
            for scalar in stmt.scalars_written:
                current = sources.setdefault(scalar, set())
                if not derived <= current:
                    current |= derived
                    changed = True
    return sources


def array_dependency_graph(
    kernel: ast.KernelDef, accesses: KernelAccesses = None
) -> Dict[str, Set[str]]:
    """Build the undirected dependency graph over the kernel's device arrays.

    An adjacency dict: every pointer-parameter array maps to the arrays it
    is *not* separable from.  Connected components of this graph are the
    fission fragments of Algorithm 2.
    """
    acc = accesses if accesses is not None else collect_accesses(kernel)
    pointer_params = [p.name for p in kernel.pointer_params()]
    graph: Dict[str, Set[str]] = {name: set() for name in pointer_params}
    scalar_sources = _scalar_sources(acc.statements)

    for stmt in acc.statements:
        influencing: Set[str] = set(stmt.arrays_read)
        for scalar in stmt.scalars_read:
            influencing |= scalar_sources.get(scalar, set())
        touched = set(stmt.arrays_written) | influencing
        touched &= set(pointer_params)
        written = set(stmt.arrays_written) & set(pointer_params)
        # every influencing array is inseparable from every written array
        # (two arrays written by one statement are inseparable too)
        for w in written:
            for other in touched - {w}:
                graph[w].add(other)
                graph[other].add(w)
    return graph


def _component(graph: Dict[str, Set[str]], root: str) -> Set[str]:
    component = {root}
    todo = [root]
    while todo:
        fresh = graph[todo.pop()] - component
        component |= fresh
        todo.extend(fresh)
    return component


def dependency_exists(kernel: ast.KernelDef, a: str, b: str) -> bool:
    """The paper's ``dependencyExists(D_i, D_j)`` predicate."""
    graph = array_dependency_graph(kernel)
    return a in graph and b in _component(graph, a)


def separable_components(
    kernel: ast.KernelDef, accesses: KernelAccesses = None, seed: int = 0
) -> List[FrozenSet[str]]:
    """Enumerate the disconnected subgraphs of the array-dependency graph.

    Follows Algorithm 2's structure: pick a node, collect its component,
    remove, repeat.  A deterministic order (sorted nodes walked
    with a seeded start offset) replaces the paper's random choice so runs
    are reproducible.

    Returns the components in discovery order; a single component means the
    kernel has no separable arrays (not fissionable).
    """
    graph = array_dependency_graph(kernel, accesses)
    remaining = sorted(graph)
    if not remaining:
        return []
    components: List[FrozenSet[str]] = []
    offset = seed % len(remaining)
    order = remaining[offset:] + remaining[:offset]
    visited: Set[str] = set()
    for root in order:
        if root not in visited:
            component = _component(graph, root)
            visited |= component
            components.append(frozenset(component))
    return components


def is_fissionable(kernel: ast.KernelDef, accesses: KernelAccesses = None) -> bool:
    """True if the kernel has at least two separable array components,
    each containing at least one *written* array (a fragment that writes
    nothing would be dead code)."""
    acc = accesses if accesses is not None else collect_accesses(kernel)
    components = separable_components(kernel, acc)
    if len(components) < 2:
        return False
    written = acc.arrays_written
    productive = [c for c in components if c & written]
    return len(productive) >= 2


@dataclass(frozen=True)
class WriteReadChain:
    """A producer→consumer pair of statements on the same array."""

    array: str
    producer: int
    consumer: int


def intra_kernel_flow(
    kernel: ast.KernelDef, accesses: KernelAccesses = None
) -> List[WriteReadChain]:
    """RAW chains between statements of one kernel (ordered by index).

    Used by the fusion code generator to decide where ``__syncthreads()``
    barriers are mandatory when bodies of different kernels are aggregated.
    """
    acc = accesses if accesses is not None else collect_accesses(kernel)
    chains: List[WriteReadChain] = []
    last_writer: Dict[str, int] = {}
    for stmt in acc.statements:
        for name in sorted(stmt.arrays_read):
            if name in last_writer:
                chains.append(WriteReadChain(name, last_writer[name], stmt.index))
        for name in stmt.arrays_written:
            last_writer[name] = stmt.index
    return chains
