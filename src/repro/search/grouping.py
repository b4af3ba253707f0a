"""Problem representation for the fusion search (§3.2.4, §5.4).

The search operates over *invocation nodes* — the eligible kernel
invocations plus, thanks to the lazy-fission pre-step (§4.1), the fission
fragments of every fissionable invocation.  An *individual* is a
:class:`Grouping`: a partition of the chosen node set where every group is
a prospective fused kernel.

Constraints handed to the GGA:

* **problem-related** (from DDG/OEG): groups must be convex under the
  precedence relation — no dependence path may leave a group and re-enter;
* **architecture-related** (from metadata): the shared-memory tiles a
  fused group needs must fit the device's per-block capacity.

The shared-memory estimate uses the same tile arithmetic as the code
generator, evaluated at a nominal block shape (the final shape is chosen by
the block-size tuner after the search, §4.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

import networkx as nx

from ..errors import SearchError

#: Nominal block shape used for shared-memory estimates during the search.
NOMINAL_BLOCK = (32, 8)


@dataclass(frozen=True)
class NodeInfo:
    """Everything the search needs to know about one invocation node."""

    node: str
    kernel: str
    #: launch order key (fragments get fractional offsets after the parent)
    order: float
    eligible: bool
    fusable: bool
    fissionable: bool
    arrays_read: FrozenSet[str]
    arrays_written: FrozenSet[str]
    #: unique points touched per array (traffic volume)
    points_per_array: Mapping[str, int]
    flops: float
    flops_per_point: float
    #: per-array stencil radius (host names)
    radius: Mapping[str, int]
    extents: Tuple[int, int, int]
    grid: Tuple[int, int, int]
    block: Tuple[int, int, int]
    #: parent node id when this is a fission fragment
    parent: Optional[str] = None
    #: fragment node ids when this node is fissionable (whole form)
    fragments: Tuple[str, ...] = ()


class FusionProblem:
    """The search problem: nodes, precedence, capacity."""

    def __init__(
        self,
        nodes: Sequence[NodeInfo],
        shared_mem_capacity: int,
        extra_precedence: Iterable[Tuple[str, str]] = (),
    ) -> None:
        self.infos: Dict[str, NodeInfo] = {n.node: n for n in nodes}
        if len(self.infos) != len(nodes):
            raise SearchError("duplicate node ids in problem")
        self.capacity = shared_mem_capacity
        # programmer-supplied OEG edges: edges consistent with launch order
        # add precedence; edges *contradicting* it cannot be realized by the
        # generator (it keeps launch order inside a fused kernel), so the
        # pair is marked mutually unfusable instead
        self.extra_precedence: List[Tuple[str, str]] = []
        self.user_conflicts: List[FrozenSet[str]] = []
        for u, v in extra_precedence:
            iu, iv = self.infos.get(u), self.infos.get(v)
            if iu is None or iv is None:
                continue
            if iu.order < iv.order:
                self.extra_precedence.append((u, v))
            else:
                self.user_conflicts.append(frozenset({u, v}))
        #: parent node -> fragment ids
        self.fragments_of: Dict[str, Tuple[str, ...]] = {
            n.node: n.fragments for n in nodes if n.fragments
        }
        self._whole_nodes = [n.node for n in nodes if n.parent is None]
        # the integer view the search loop reads instead of NodeInfo fields,
        # built once: node -> bit (launch order), node -> arrays touched,
        # and the nodes a multi-member group may contain
        ordered = sorted(nodes, key=lambda n: n.order)
        self.bit: Dict[str, int] = {n.node: 1 << i for i, n in enumerate(ordered)}
        self.touched: Dict[str, FrozenSet[str]] = {
            n.node: n.arrays_read | n.arrays_written for n in nodes
        }
        self.mergeable: FrozenSet[str] = frozenset(
            n.node for n in nodes if n.eligible and n.fusable
        )
        self._oeg_cache: Dict[FrozenSet[str], Tuple[nx.DiGraph, Dict[str, Set[str]]]] = {}
        self._fingerprint: Optional[str] = None

    def fingerprint(self) -> str:
        """Content digest of the whole problem (nodes, capacity, edges).

        Identifies the fitness landscape in the artifact store's search
        and population keys: two problems with identical
        node metadata hash alike; any difference separates them.
        """
        if self._fingerprint is None:
            import hashlib

            parts: List[str] = [f"capacity={self.capacity}"]
            for node in sorted(self.infos):
                info = self.infos[node]
                parts.append(
                    repr((
                        info.node, info.kernel, info.order, info.eligible,
                        info.fusable, info.fissionable,
                        tuple(sorted(info.arrays_read)),
                        tuple(sorted(info.arrays_written)),
                        tuple(sorted(info.points_per_array.items())),
                        info.flops, info.flops_per_point,
                        tuple(sorted(info.radius.items())),
                        info.extents, info.grid, info.block,
                        info.parent, info.fragments,
                    ))
                )
            parts.append(repr(sorted(self.extra_precedence)))
            parts.append(repr(sorted(map(sorted, self.user_conflicts))))
            digest = hashlib.sha256("\n".join(parts).encode("utf-8"))
            self._fingerprint = digest.hexdigest()
        return self._fingerprint

    # ------------------------------------------------------------ node universe

    def whole_nodes(self) -> List[str]:
        """Original invocation nodes (launch order)."""
        return sorted(self._whole_nodes, key=lambda n: self.infos[n].order)

    def info(self, node: str) -> NodeInfo:
        return self.infos[node]

    def eligible_nodes(self) -> List[str]:
        return [n for n in self.whole_nodes() if self.infos[n].eligible]

    def mergeable_groups(self, groups: Sequence[FrozenSet[str]]) -> List[int]:
        """Indices of the groups that may be merged with another: every
        member eligible and fusable."""
        return list(
            compress(range(len(groups)), map(self.mergeable.issuperset, groups))
        )

    # ------------------------------------------------------- precedence (OEG)

    def node_oeg(self, active: Iterable[str]) -> Tuple[nx.DiGraph, Dict[str, Set[str]]]:
        """Build the OEG over an *active node set* and its reachability.

        Derives RAW/WAR/WAW precedence from the nodes' read/write sets in
        launch order, exactly as the graph stage derives the program OEG.
        The result is cached per active set.
        """
        key = frozenset(active)
        cached = self._oeg_cache.get(key)
        if cached is not None:
            return cached
        ordered = sorted(key, key=lambda n: self.infos[n].order)
        oeg = nx.DiGraph()
        oeg.add_nodes_from(ordered)
        last_writers: Dict[str, str] = {}
        readers_since: Dict[str, List[str]] = {}
        for node in ordered:
            info = self.infos[node]
            for array in sorted(info.arrays_read):
                writer = last_writers.get(array)
                if writer is not None and writer != node:
                    oeg.add_edge(writer, node, dep="RAW", array=array)
                readers_since.setdefault(array, []).append(node)
            for array in sorted(info.arrays_written):
                for reader in readers_since.get(array, []):
                    if reader != node and not info_reads_own(self.infos, node, reader):
                        oeg.add_edge(reader, node, dep="WAR", array=array)
                writer = last_writers.get(array)
                if writer is not None and writer != node:
                    oeg.add_edge(writer, node, dep="WAW", array=array)
                last_writers[array] = node
                readers_since[array] = (
                    [node] if array in info.arrays_read else []
                )
        for u, v in self.extra_precedence:
            if u in key and v in key:
                oeg.add_edge(u, v, dep="USER", array="")
        reach: Dict[str, Set[str]] = {}
        for node in reversed(list(nx.topological_sort(oeg))):
            acc: Set[str] = set()
            for succ in oeg.successors(node):
                acc.add(succ)
                acc |= reach[succ]
            reach[node] = acc
        self._oeg_cache[key] = (oeg, reach)
        if len(self._oeg_cache) > 64:
            self._oeg_cache.pop(next(iter(self._oeg_cache)))
            self._oeg_cache[key] = (oeg, reach)
        return oeg, reach

    def reach_masks(
        self, active: Iterable[str]
    ) -> Tuple[Dict[str, int], Dict[str, int]]:
        """Descendant and ancestor bitmask of every node under ``active``.

        The reachability :meth:`node_oeg` computes, as integers over
        :attr:`bit`; nodes outside the active set reach nothing.  With
        ``desc(M)`` / ``anc(M)`` the union over a member mask ``M``, a
        group is convex iff ``desc(M) & anc(M) & ~M == 0`` — the same
        predicate as :meth:`group_convex`, without the set walks.
        """
        _, reach = self.node_oeg(active)
        bit = self.bit
        desc = dict.fromkeys(bit, 0)
        anc = dict.fromkeys(bit, 0)
        for node, below in reach.items():
            node_bit = bit[node]
            mask = 0
            for other in below:
                mask |= bit[other]
                anc[other] |= node_bit
            desc[node] = mask
        return desc, anc

    # ---------------------------------------------------------- smem estimate

    def locality_arrays(self, members: Iterable[str]) -> Set[str]:
        """Arrays giving reuse inside a prospective group: read by >= 2
        members, or produced by one member and read by another."""
        members = list(members)
        read_count: Dict[str, int] = {}
        written: Set[str] = set()
        read: Set[str] = set()
        for node in members:
            info = self.infos[node]
            for array in info.arrays_read:
                read_count[array] = read_count.get(array, 0) + 1
                read.add(array)
            written |= info.arrays_written
        multi = {a for a, n in read_count.items() if n >= 2}
        return multi | (written & read)

    def group_smem_bytes(
        self, members: Iterable[str], block: Tuple[int, int] = NOMINAL_BLOCK
    ) -> int:
        """Tile bytes a fused group needs at the nominal block shape."""
        members = list(members)
        total = 0
        for array in sorted(self.locality_arrays(members)):
            radius = max(
                (self.infos[m].radius.get(array, 0) for m in members), default=0
            )
            total += (block[0] + 2 * radius) * (block[1] + 2 * radius) * 8
        return total

    # ------------------------------------------------------------- feasibility

    def group_convex(
        self,
        members: FrozenSet[str],
        reach: Mapping[str, Set[str]],
    ) -> bool:
        if len(members) <= 1:
            return True
        for a in members:
            for mid in reach.get(a, ()):  # nodes reachable from a
                if mid in members:
                    continue
                if reach.get(mid, frozenset()) & members:
                    return False
        return True

    def group_fusable(self, members: FrozenSet[str]) -> bool:
        """Every member of a multi-node group must be transformable."""
        if len(members) <= 1:
            return True
        return all(self.infos[m].fusable for m in members)

    def group_realizable(
        self, members: FrozenSet[str], max_waves: int = 2
    ) -> bool:
        """Mirror of the code generator's feasibility rules (§5.5.3).

        A group is unrealizable when fusing it would need behaviour the
        generator cannot produce safely:

        * a member reads an array *with a halo* that a later member
          overwrites (inter-block WAR hazard),
        * an array consumed with a halo has two producers in the group, or
        * the halo producer→consumer chains are deeper than the supported
          wave count (one barrier level of temporal blocking).
        """
        if len(members) <= 1:
            return True
        for conflict in self.user_conflicts:
            if conflict <= members:
                return False
        ordered = sorted(members, key=lambda n: self.infos[n].order)
        first_writer: Dict[str, int] = {}
        for idx, node in enumerate(ordered):
            for array in self.infos[node].arrays_written:
                first_writer.setdefault(array, idx)
        for idx, node in enumerate(ordered):
            info = self.infos[node]
            for array in info.arrays_read:
                radius = info.radius.get(array, 0)
                writer = first_writer.get(array)
                if radius > 0 and writer is not None and writer > idx:
                    return False
        # halo RAW edges: single producer, bounded wave depth, and a
        # "pure inputs" producer (its extended compute reads every input at
        # halo distance, so no other member may write what it reads)
        all_writes: Dict[str, Set[int]] = {}
        for idx, node in enumerate(ordered):
            for array in self.infos[node].arrays_written:
                all_writes.setdefault(array, set()).add(idx)
        last_writer: Dict[str, int] = {}
        producer_of: Dict[str, int] = {}
        depth = [0] * len(ordered)
        for idx, node in enumerate(ordered):
            info = self.infos[node]
            for array in sorted(info.arrays_read):
                writer = last_writer.get(array)
                if writer is None or writer == idx:
                    continue
                if info.radius.get(array, 0) > 0:
                    known = producer_of.setdefault(array, writer)
                    if known != writer:
                        return False
                    # the tile stages the array's pre-kernel values once per
                    # iteration; a second in-group writer (even an earlier,
                    # fully-overwritten one) leaves guard-boundary cells of
                    # the tile stale relative to the sequential program
                    if all_writes.get(array, set()) - {writer}:
                        return False
                    depth[idx] = max(depth[idx], depth[writer] + 1)
                    if depth[idx] + 1 > max_waves:
                        return False
                    producer_info = self.infos[ordered[writer]]
                    for read in producer_info.arrays_read:
                        writers = all_writes.get(read, set())
                        if writers - {writer}:
                            return False
            for array in info.arrays_written:
                last_writer[array] = idx
        # the wave assignment must not reorder ANY dependence pair: a halo
        # consumer pushed to a later wave cannot jump over a member it has a
        # RAW/WAR/WAW relation with (the generator emits wave by wave)
        last_writer.clear()
        readers: Dict[str, List[int]] = {}
        for idx, node in enumerate(ordered):
            info = self.infos[node]
            for array in info.arrays_read:
                writer = last_writer.get(array)
                if writer is not None and depth[writer] > depth[idx]:
                    return False
                readers.setdefault(array, []).append(idx)
            for array in info.arrays_written:
                for reader in readers.get(array, []):
                    if reader != idx and depth[reader] > depth[idx]:
                        return False
                writer = last_writer.get(array)
                if writer is not None and depth[writer] > depth[idx]:
                    return False
                last_writer[array] = idx
        return True


@dataclass(frozen=True)
class Grouping:
    """An individual: which fissionable nodes are split, and the partition."""

    #: nodes represented in split (fragment) form
    split: FrozenSet[str]
    #: partition of the active node set
    groups: Tuple[FrozenSet[str], ...]

    def active_nodes(self, problem: FusionProblem) -> List[str]:
        nodes: List[str] = []
        for node in problem.whole_nodes():
            if node in self.split:
                nodes.extend(problem.fragments_of[node])
            else:
                nodes.append(node)
        return nodes

    def covers(self, problem: FusionProblem) -> bool:
        active = set(self.active_nodes(problem))
        seen: Set[str] = set()
        for group in self.groups:
            if group & seen:
                return False
            seen |= group
        return seen == active

    def group_of(self, node: str) -> Optional[FrozenSet[str]]:
        for group in self.groups:
            if node in group:
                return group
        return None

    def fused_groups(self) -> List[FrozenSet[str]]:
        return [g for g in self.groups if len(g) > 1]


@dataclass
class Violations:
    """Constraint violations of one individual."""

    non_convex: int = 0
    smem_over: int = 0
    unfusable: int = 0
    #: groups the code generator could not realize (WAR hazards, deep
    #: producer/consumer chains, multi-producer halo arrays)
    unrealizable: int = 0
    #: groups over the smem budget that contain a fissionable member
    relaxable: int = 0

    def copy(self) -> "Violations":
        """A fresh record with the same counts (``dataclasses.replace``
        without the per-call field introspection — memo hits pay this)."""
        return Violations(
            self.non_convex, self.smem_over, self.unfusable,
            self.unrealizable, self.relaxable,
        )

    @property
    def total(self) -> int:
        return self.non_convex + self.smem_over + self.unfusable + self.unrealizable

    @property
    def feasible(self) -> bool:
        return self.total == 0


def cyclic_group_indices(
    problem: FusionProblem, individual: Grouping
) -> Set[int]:
    """Indices of groups participating in a cyclic group condensation.

    Per-group convexity is necessary but not sufficient: two individually
    convex groups can still deadlock each other (G1 → G2 and G2 → G1 edges
    with no path threading through).  Scheduling requires the condensation
    of the OEG over the grouping to be acyclic.
    """
    active = individual.active_nodes(problem)
    oeg, _ = problem.node_oeg(active)
    owner: Dict[str, int] = {}
    for gid, group in enumerate(individual.groups):
        for node in group:
            owner[node] = gid
    condensed = nx.DiGraph()
    condensed.add_nodes_from(range(len(individual.groups)))
    for u, v in oeg.edges:
        gu, gv = owner.get(u), owner.get(v)
        if gu is None or gv is None or gu == gv:
            continue
        condensed.add_edge(gu, gv)
    cyclic: Set[int] = set()
    for scc in nx.strongly_connected_components(condensed):
        if len(scc) > 1:
            cyclic |= scc
    return cyclic


def evaluate_violations(
    problem: FusionProblem, individual: Grouping
) -> Violations:
    """Count constraint violations (consumed by the penalty function)."""
    violations = Violations()
    active = individual.active_nodes(problem)
    _, reach = problem.node_oeg(active)
    ordering_bad = cyclic_group_indices(problem, individual)
    for index, group in enumerate(individual.groups):
        if len(group) <= 1:
            continue
        if not problem.group_fusable(group):
            violations.unfusable += 1
        if not problem.group_convex(group, reach) or index in ordering_bad:
            violations.non_convex += 1
        if not problem.group_realizable(group):
            violations.unrealizable += 1
        if problem.group_smem_bytes(group) > problem.capacity:
            violations.smem_over += 1
            if any(
                problem.infos[m].fissionable or problem.infos[m].parent is not None
                for m in group
            ):
                violations.relaxable += 1
    return violations


def singleton_grouping(problem: FusionProblem) -> Grouping:
    """The identity individual: every invocation is its own group."""
    return Grouping(
        split=frozenset(),
        groups=tuple(frozenset({n}) for n in problem.whole_nodes()),
    )


def info_reads_own(
    infos: Mapping[str, NodeInfo], writer: str, reader: str
) -> bool:
    """WAR self-edge guard (reader == writer handled by caller)."""
    return writer == reader
