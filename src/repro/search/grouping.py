"""Problem representation for the fusion search (§3.2.4, §5.4).

The search operates over *invocation nodes* — the eligible kernel
invocations plus, thanks to the lazy-fission pre-step (§4.1), the fission
fragments of every fissionable invocation.  An *individual* is a
:class:`Grouping`: a partition of the chosen node set where every group is
a prospective fused kernel.  It stores the split set and its *fused* groups
only: the split fixes the active node set, so every active node no fused
group covers is implied to be a singleton group.

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

from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
from functools import cached_property, reduce
from operator import add, attrgetter
from time import perf_counter
from typing import (
    Dict, FrozenSet, Iterable, Iterator, List, Mapping, NamedTuple, Optional,
    Sequence, Set, Tuple,
)

from ..errors import SearchError
from ..gpu.perfmodel import cache_redundancy, estimate_registers, tile_halo_factor
from ..graphs.digraph import DiGraph, strongly_connected_components
from ..graphs.oeg import reachability

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


class _Row(NamedTuple):
    """The fields of one node that :meth:`FusionProblem.group_terms` reads."""

    order: float
    block: Tuple[int, int, int]
    read: FrozenSet[str]
    written: FrozenSet[str]
    touched: FrozenSet[str]
    #: ``(array, points)`` / ``(array, radius > 0)`` items
    points: Tuple[Tuple[str, int], ...]
    radius: Tuple[Tuple[str, int], ...]
    #: arrays read at a halo (radius > 0)
    halo: FrozenSet[str]
    flops: float
    flops_per_point: float
    active: int
    fusable: bool
    #: fissionable, or a fission fragment
    relaxable: bool


class GroupFlags(NamedTuple):
    """The feasibility flags of one group (counted by :class:`Violations`)."""

    unfusable: bool
    unrealizable: bool
    #: its tiles exceed the capacity at :data:`NOMINAL_BLOCK`
    smem_over: bool
    #: it has a fissionable member or a fragment (lazy fission may relax it)
    relaxable: bool


class GroupTerms(NamedTuple):
    """What the search needs of one group, from one pass over its members
    (:meth:`FusionProblem.group_terms`): its flops, its tile bytes at
    :data:`NOMINAL_BLOCK`, its :class:`GroupFlags`, and the inputs of its
    projection as one fused kernel at its modal member block
    (:func:`~repro.search.objective.group_projection_time` adds the device).
    """

    flops: float
    smem: int
    flags: GroupFlags
    block: Tuple[int, int, int]
    #: tile bytes at ``block`` (0 for a singleton: nothing is staged)
    tile_bytes: int
    regs: int
    #: bytes moved: reads at their read factors, plus writes
    bytes: float
    #: the flops added one by one, as the launch volume sums them
    #: (``flops`` is the objective's ``sum``, compensated on Python 3.12+)
    kernel_flops: float


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
        self._split_views: Dict[FrozenSet[str], SplitView] = {}
        # the group memo: plain dict gets and sets are atomic under the
        # GIL, so concurrent searches of one problem (shared through the
        # store's memory tier) share it safely; a lost race costs one
        # recomputation
        self._group_terms: Dict[FrozenSet[str], GroupTerms] = {}
        #: groups scored and their seconds (incl. each first projection on
        #: a device); a concurrent search of this problem adds to both
        self.new_groups = 0
        self.group_terms_s = 0.0
        self._oeg_cache: Dict[FrozenSet[str], Tuple[DiGraph, Dict[str, Set[str]]]] = {}
        self._fingerprint: Optional[str] = None

    @cached_property
    def _rows(self) -> Dict[str, _Row]:
        """The per-node table :meth:`group_terms` reads, built on first use
        (a problem served only to codegen never scores a group)."""
        return {
            n.node: _Row(
                n.order, n.block, n.arrays_read, n.arrays_written,
                self.touched[n.node], tuple(n.points_per_array.items()),
                tuple((a, r) for a, r in n.radius.items() if r > 0),
                frozenset(a for a in n.arrays_read if n.radius.get(a, 0) > 0),
                n.flops, n.flops_per_point,
                n.extents[0] * n.extents[1] * n.extents[2],
                n.fusable, n.fissionable or n.parent is not None,
            )
            for n in self.infos.values()
        }

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

    def split_view(self, split: FrozenSet[str]) -> "SplitView":
        """The active node set of ``split``, built once per split."""
        view = self._split_views.get(split)
        if view is None:
            view = SplitView(self, split)
            if len(self._split_views) > 512:
                self._split_views.clear()
            self._split_views[split] = view
        return view

    # ------------------------------------------------------- precedence (OEG)

    def node_oeg(self, active: Iterable[str]) -> Tuple[DiGraph, Dict[str, Set[str]]]:
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
        oeg = DiGraph()
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
        reach = reachability(oeg)
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

    # ------------------------------------------------------------ group terms

    def group_terms(self, group: FrozenSet[str]) -> GroupTerms:
        """The :class:`GroupTerms` of ``group``, scored once per problem."""
        terms = self._group_terms.get(group)
        if terms is None:
            start = perf_counter()
            terms = self._group_terms[group] = self._score(group)
            self.new_groups += 1
            self.group_terms_s += perf_counter() - start
        return terms

    def _score(self, group: FrozenSet[str]) -> GroupTerms:
        # member (set) order first: the byte sum below walks ``read`` in
        # the order these unions give it, and the flops are summed in it,
        # as the model's walks per term sum them (tests/test_group_terms.py)
        members = [self._rows[node] for node in group]
        (
            _, blocks, reads, writes, _, points_items, radius_items, halos,
            flops, _, actives, fusable, relaxable,
        ) = zip(*members) if members else ((),) * len(_Row._fields)
        read: Set[str] = set().union(*reads)
        written: Set[str] = set().union(*writes)
        points: Dict[str, int] = {}
        radius: Dict[str, int] = {}
        for items in points_items:
            # counts are >= 0: a first sighting always lands
            for array, p in items:
                if p > points.get(array, -1):
                    points[array] = p
        for items in radius_items:
            for array, r in items:
                if r > radius.get(array, 0):
                    radius[array] = r
        if not blocks:
            block = (NOMINAL_BLOCK[0], NOMINAL_BLOCK[1], 1)
        elif blocks.count(blocks[0]) == len(blocks):
            block = blocks[0]
        else:
            block = max(set(blocks), key=blocks.count)
        ordered = sorted(members, key=_order)
        flops_pp = reduce(add, map(_flops_per_point, ordered), 0.0)
        active = max(actives, default=0)

        # where a member produces an array another reads: the arrays on
        # chip — produced by one member and read at the producing
        # thread's own site (radius 0) by later ones, they never leave
        # the chip in the fused kernel: the code generator routes them
        # through cache or registers (the B-CALM pole-array effect) — and,
        # where one is read at a halo, realizability (else only a user
        # conflict makes a group unrealizable)
        fused = len(members) > 1
        realizable = not (
            fused and self.user_conflicts
            and any(c <= group for c in self.user_conflicts)
        )
        on_chip: Set[str] = set()
        both = written & read
        if fused and both:
            pending = both - radius.keys()
            for row in ordered:
                if not pending:
                    break
                if not pending.isdisjoint(row.touched):
                    first = pending & row.touched
                    on_chip |= first - row.read
                    pending -= first
            # an array read at a halo has radius > 0
            if (
                realizable and not both.isdisjoint(radius)
                and not written.isdisjoint(set().union(*halos))
            ):
                realizable = self._realizable(ordered, writes, written)

        # tiles: arrays read by two members, or produced and read in it
        smem = tile_bytes = 0
        local = (_repeated(reads, read) if fused else set()) | both
        for array in local:
            r = radius.get(array, 0)
            smem += (NOMINAL_BLOCK[0] + 2 * r) * (NOMINAL_BLOCK[1] + 2 * r) * 8
            tile_bytes += (block[0] + 2 * r) * (block[1] + 2 * r) * 8
        staged = local if fused else ()
        bytes_read = 0.0
        for array in read:
            r = radius.get(array, 0)
            if array in on_chip:  # before staged: a staged array may be on chip
                factor = 0.0
            elif array in staged:
                factor = tile_halo_factor(block, r)
            else:
                factor = cache_redundancy(r)
            bytes_read += points.get(array, active) * 8 * factor
        bytes_written = 0
        for array in written:
            bytes_written += points.get(array, 0) * 8
        return GroupTerms(
            sum(flops),
            smem,
            GroupFlags(
                fused and not all(fusable), not realizable,
                smem > self.capacity, any(relaxable),
            ),
            block,
            tile_bytes if fused else 0,
            estimate_registers(len(read) + len(written) - len(both), flops_pp),
            bytes_read + bytes_written,
            reduce(add, flops, 0.0),
        )

    def _realizable(
        self, ordered: List[_Row], writes: Sequence[FrozenSet[str]],
        written: Set[str],
    ) -> bool:
        """Whether the code generator can realize a fused group (§5.5.3),
        from one walk of its members in launch order.  It cannot when
        fusing would need behaviour it cannot produce safely:

        * a member reads an array *with a halo* that a later member
          writes first (inter-block WAR hazard);
        * an array consumed with a halo has a second producer in the
          group (the tile stages the array's pre-kernel values once per
          iteration, so a second writer, even an earlier, fully
          overwritten one, leaves guard-boundary cells of the tile
          stale), or its producer reads an array another member writes
          (the producer's extended compute reads every input at halo
          distance, so it must read pure inputs).  This also bounds the
          halo chains at one barrier level: a producer in the second wave
          reads what another member wrote, so no third wave passes;
        * the waves would reorder a dependence: a first-wave member reads
          what a second-wave one last wrote, or writes what one read or
          wrote (the generator emits wave by wave).
        """
        multi_written = _repeated(writes, written)
        seen_written: Set[str] = set()
        halo_read: Set[str] = set()
        last_writer: Dict[str, _Row] = {}
        wave2_read: Set[str] = set()
        wave2_written: Set[str] = set()
        for row in ordered:
            if not halo_read.isdisjoint(row.written - seen_written):
                return False
            second_wave = False
            for array in row.halo:
                producer = last_writer.get(array)
                if producer is None:
                    continue
                if (
                    array in multi_written
                    or not producer.read.isdisjoint(multi_written)
                    or not producer.read.isdisjoint(written - producer.written)
                ):
                    return False
                second_wave = True
            if second_wave:
                wave2_read |= row.read
                wave2_written |= row.written
            elif not (
                wave2_written.isdisjoint(row.read)
                and wave2_read.isdisjoint(row.written)
                and wave2_written.isdisjoint(row.written)
            ):
                return False
            for array in row.written:
                last_writer[array] = row
            halo_read |= row.halo
            seen_written |= row.written
        return True


_order = attrgetter("order")
_flops_per_point = attrgetter("flops_per_point")


def _repeated(sets: Sequence[FrozenSet[str]], union: Set[str]) -> Set[str]:
    """The items in two or more of ``sets``, whose union is ``union``."""
    repeated: Set[str] = set()
    if len(union) < sum(map(len, sets)):
        seen: Set[str] = set()
        for items in sets:
            repeated |= seen & items
            seen |= items
    return repeated


def _mergeable_order(problem: FusionProblem, nodes: Sequence[str]):
    """Mergeable ``nodes`` in one order: each node's position (slot), the
    singleton groups by slot and, per slot, the mask of the slots whose
    nodes share an array with it."""
    touched = [problem.touched[n] for n in nodes]
    share = tuple(
        sum(1 << k for k, other in enumerate(touched) if not other.isdisjoint(mine))
        for mine in touched
    )
    singles = tuple(frozenset((n,)) for n in nodes)
    return {n: i for i, n in enumerate(nodes)}, singles, share


class SplitView:
    """The active node set of one split (:meth:`FusionProblem.split_view`)."""

    __slots__ = ("active", "members", "canonical", "orders", "_group_slots")

    def __init__(self, problem: FusionProblem, split: FrozenSet[str]) -> None:
        active: List[str] = []
        for node in problem.whole_nodes():
            if node in split:
                active.extend(problem.fragments_of[node])
            else:
                active.append(node)
        #: launch order (fragments in place of split parents), and by id:
        #: the canonical order of singleton groups
        self.active = tuple(active)
        self.members = frozenset(active)
        self.canonical = tuple(sorted(active))
        #: launch order? -> :func:`_mergeable_order` of the mergeable nodes
        self.orders = {
            launch: _mergeable_order(
                problem,
                [n for n in (active if launch else self.canonical)
                 if n in problem.mergeable],
            )
            for launch in (False, True)
        }
        self._group_slots: Dict[FrozenSet[str], Tuple[int, int]] = {}

    def group_slots(self, group: FrozenSet[str]) -> Tuple[int, int]:
        """``(head, mask)`` of a fused group over the canonical mergeable
        slots: its least member's slot if every member is mergeable (else
        -1), and the mask of its members' slots; memoized."""
        entry = self._group_slots.get(group)
        if entry is None:
            slot = self.orders[False][0]
            slots = [slot[m] for m in group if m in slot]
            head = min(slots) if len(slots) == len(group) else -1
            if len(self._group_slots) >= 1 << 16:
                self._group_slots.clear()
            entry = self._group_slots[group] = (head, sum(1 << i for i in slots))
        return entry


class Grouping:
    """An individual (immutable): which fissionable nodes are split, and
    the fused groups.

    ``groups`` holds the multi-member groups only, in canonical order (by
    least member); every active node they do not cover is a singleton
    group of the partition (:meth:`partition`).  The constructor accepts
    any groups — a full partition included — and keeps the fused ones, so
    equality and hash are over the partition's value.

    The one exception is the identity individual of
    :func:`singleton_grouping`: it has always listed its singletons in
    launch order, a value apart from the canonical all-singleton partition
    whenever the two orders differ.  ``launch_order`` keeps it apart — its
    own fitness-memo key, summed in launch order — so the search's
    evaluation count and floats stay what they were.
    """

    __slots__ = ("split", "groups", "launch_order", "_hash")

    #: nodes represented in split (fragment) form
    split: FrozenSet[str]
    #: the fused groups, by least member
    groups: Tuple[FrozenSet[str], ...]
    #: the launch-ordered identity individual (see above)
    launch_order: bool

    def __init__(
        self,
        split: Iterable[str],
        groups: Iterable[Iterable[str]],
        launch_order: bool = False,
    ) -> None:
        fused = [g for g in map(frozenset, groups) if len(g) > 1]
        fused.sort(key=min)
        values = (frozenset(split), tuple(fused), launch_order)
        init = object.__setattr__
        init(self, "split", values[0])
        init(self, "groups", values[1])
        init(self, "launch_order", launch_order)
        init(self, "_hash", hash(values))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"Grouping is immutable (cannot set {name!r})")

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if type(other) is not Grouping:
            return NotImplemented
        return (
            self._hash == other._hash
            and self.groups == other.groups
            and self.split == other.split
            and self.launch_order == other.launch_order
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Grouping({sorted(self.split)}, {[sorted(g) for g in self.groups]})"

    def __reduce__(self):
        return Grouping, (self.split, self.groups, self.launch_order)

    def active_nodes(self, problem: FusionProblem) -> Tuple[str, ...]:
        return problem.split_view(self.split).active

    def covers(self, problem: FusionProblem) -> bool:
        """Whether this is an individual of ``problem``: fissionable split
        nodes, disjoint fused groups of active nodes."""
        if not problem.fragments_of.keys() >= self.split:
            return False
        active = problem.split_view(self.split).members
        seen: Set[str] = set()
        for group in self.groups:
            if not group <= active or not group.isdisjoint(seen):
                return False
            seen |= group
        return True

    def partition(self, problem: FusionProblem) -> List[FrozenSet[str]]:
        """Every group, singletons included, in canonical order: the fused
        groups interleaved with the uncovered active nodes by least member."""
        heads = {min(g): g for g in self.groups}
        covered = frozenset().union(*self.groups)
        return [
            heads[node] if node in covered else frozenset((node,))
            for node in problem.split_view(self.split).canonical
            if node not in covered or node in heads
        ]

    def fused_groups(self) -> List[FrozenSet[str]]:
        return list(self.groups)


class MergeableGroups(SequenceABC):
    """The groups of an individual (singletons included) that may be
    merged with another — every member eligible and fusable — optionally
    without the group ``exclude``, indexed lazily.

    Positional draws (``rng.choice``, ``rng.sample``) see the sequence the
    full partition's mergeable groups form in canonical order — the
    uncovered mergeable nodes as singletons, interleaved by least member
    with the fused groups whose members are all mergeable — without
    building it: such a group takes its least member's slot among the
    split's mergeable nodes, and every other covered slot (and
    ``exclude``'s) is skipped.  The launch-ordered identity sees its
    singletons in launch order.
    """

    __slots__ = ("_slot", "_singles", "_share", "_skipped", "_heads", "_len")

    def __init__(
        self,
        problem: FusionProblem,
        individual: Grouping,
        exclude: Optional[FrozenSet[str]] = None,
    ) -> None:
        view = problem.split_view(individual.split)
        self._slot, self._singles, self._share = view.orders[individual.launch_order]
        skipped = 0
        heads: Dict[int, Tuple[FrozenSet[str], int]] = {}
        for group in individual.groups:
            head, mask = view.group_slots(group)
            if head >= 0 and group != exclude:
                heads[head] = (group, mask)
                mask ^= 1 << head
            skipped |= mask
        if exclude is not None and len(exclude) == 1:
            skipped |= 1 << self._slot[min(exclude)]
        #: mask of the slots the sequence skips
        self._skipped = skipped
        self._heads = heads
        self._len = len(self._singles) - skipped.bit_count()

    def __len__(self) -> int:
        return self._len

    def _group(self, slot: int) -> FrozenSet[str]:
        head = self._heads.get(slot)
        return self._singles[slot] if head is None else head[0]

    def __getitem__(self, index: int) -> FrozenSet[str]:
        if index < 0:
            index += self._len
        if not 0 <= index < self._len:
            raise IndexError(index)
        skipped = self._skipped
        while skipped:
            low = skipped & -skipped
            if low.bit_length() - 1 > index:
                break
            index += 1
            skipped ^= low
        return self._group(index)

    def __iter__(self) -> Iterator[FrozenSet[str]]:
        for slot in range(len(self._singles)):
            if not self._skipped >> slot & 1:
                yield self._group(slot)

    def sharing(self, group: FrozenSet[str]) -> List[FrozenSet[str]]:
        """The groups, in order, that share an array with ``group`` (one
        of the individual's mergeable groups)."""
        reach = 0
        for node in group:
            reach |= self._share[self._slot[node]]
        hits = reach & ~self._skipped
        for slot, (_, mask) in self._heads.items():
            if mask & reach:
                hits |= 1 << slot
        out: List[FrozenSet[str]] = []
        while hits:
            low = hits & -hits
            out.append(self._group(low.bit_length() - 1))
            hits ^= low
        return out


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


def cyclic_groups(
    problem: FusionProblem, individual: Grouping
) -> Set[FrozenSet[str]]:
    """Groups participating in a cyclic group condensation.

    Per-group convexity is necessary but not sufficient: two individually
    convex groups can still deadlock each other (G1 → G2 and G2 → G1 edges
    with no path threading through).  Scheduling requires the condensation
    of the OEG over the grouping to be acyclic.
    """
    groups = individual.partition(problem)
    oeg, _ = problem.node_oeg(individual.active_nodes(problem))
    owner: Dict[str, int] = {}
    for gid, group in enumerate(groups):
        for node in group:
            owner[node] = gid
    condensed = DiGraph()
    condensed.add_nodes_from(range(len(groups)))
    for u, v in oeg.edges:
        gu, gv = owner.get(u), owner.get(v)
        if gu is None or gv is None or gu == gv:
            continue
        condensed.add_edge(gu, gv)
    cyclic: Set[FrozenSet[str]] = set()
    for scc in strongly_connected_components(condensed):
        if len(scc) > 1:
            cyclic.update(groups[gid] for gid in scc)
    return cyclic


def evaluate_violations(
    problem: FusionProblem, individual: Grouping
) -> Violations:
    """Count constraint violations (consumed by the penalty function)."""
    violations = Violations()
    _, reach = problem.node_oeg(individual.active_nodes(problem))
    ordering_bad = cyclic_groups(problem, individual)
    for group in individual.groups:
        flags = problem.group_terms(group).flags
        if flags.unfusable:
            violations.unfusable += 1
        if not problem.group_convex(group, reach) or group in ordering_bad:
            violations.non_convex += 1
        if flags.unrealizable:
            violations.unrealizable += 1
        if flags.smem_over:
            violations.smem_over += 1
            if flags.relaxable:
                violations.relaxable += 1
    return violations


def singleton_grouping(problem: FusionProblem) -> Grouping:
    """The identity individual: every invocation is its own group."""
    view = problem.split_view(frozenset())
    return Grouping(
        split=frozenset(), groups=(), launch_order=view.active != view.canonical
    )


def info_reads_own(
    infos: Mapping[str, NodeInfo], writer: str, reader: str
) -> bool:
    """WAR self-edge guard (reader == writer handled by caller)."""
    return writer == reader
