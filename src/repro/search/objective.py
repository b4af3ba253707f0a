"""Objective functions for the fusion search (§3.2.4).

The default objective is the *projected performance bound* of the whole
transformed program in GFLOPS, computed with the same analytic model the
profiler uses: each group is projected as one fused kernel (locality
arrays staged, launches merged), each singleton as an untransformed kernel.

Objectives are black boxes — they receive the problem, an individual and a
device, and return a float in GFLOPS — and are pluggable through
:func:`register_objective`, mirroring the paper's "write your own objective
function and point the parameter file at it" workflow.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Tuple,
)

from ..analysis.volume import LaunchVolume
from ..errors import SearchError
from ..gpu.device import DeviceSpec
from ..gpu.perfmodel import CodegenTraits, estimate_registers, project_kernel
from .grouping import (
    NOMINAL_BLOCK,
    FusionProblem,
    Grouping,
    Violations,
    evaluate_violations,
)
from .penalty import PenaltyParams, penalized_fitness

ObjectiveFn = Callable[[FusionProblem, Grouping, DeviceSpec], float]

#: per-split feasibility state of :class:`CompiledFitness`: descendant and
#: ancestor mask per node, and the fused groups seen under this split
_SplitState = Tuple[
    Dict[str, int], Dict[str, int], Dict[FrozenSet[str], Tuple[int, int, bool]]
]

_REGISTRY: Dict[str, ObjectiveFn] = {}


def register_objective(name: str, fn: ObjectiveFn) -> None:
    """Register a custom objective function under ``name``."""
    _REGISTRY[name] = fn


def get_objective(name: str) -> ObjectiveFn:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise SearchError(
            f"unknown objective {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None


def group_volume(problem: FusionProblem, members: Iterable[str]) -> LaunchVolume:
    """Merged launch volume of a prospective fused group."""
    members = list(members)
    arrays_read: set = set()
    arrays_written: set = set()
    points: Dict[str, int] = {}
    flops = 0.0
    active = 0
    for node in members:
        info = problem.info(node)
        arrays_read |= info.arrays_read
        arrays_written |= info.arrays_written
        for array, p in info.points_per_array.items():
            points[array] = max(points.get(array, 0), p)
        flops += info.flops
        active = max(active, info.extents[0] * info.extents[1] * info.extents[2])
    return LaunchVolume(
        kernel_name="+".join(problem.info(m).kernel for m in members),
        active_threads=active,
        launched_threads=active,
        points_per_array=points,
        arrays_read=arrays_read,
        arrays_written=arrays_written,
        flops=flops,
    )


def group_projection_time(
    problem: FusionProblem,
    members: Iterable[str],
    device: DeviceSpec,
    block: Tuple[int, int, int] = (NOMINAL_BLOCK[0], NOMINAL_BLOCK[1], 1),
) -> float:
    """Projected execution time (s) of one group fused at the nominal block.

    Cached per (group, device, block) on the problem instance — group
    fitness evaluation dominates GGA runtime (the paper reports > 90%), so
    memoizing repeated groups across generations is the main speed lever.
    """
    members = list(members)
    blocks = [problem.info(m).block for m in members]
    if blocks:
        block = max(set(blocks), key=blocks.count)
    # dict get/setdefault are atomic under the GIL, so concurrent searches
    # of one problem (shared through the store's memory tier) share this
    # cache safely; a lost race costs one recomputation.  Keyed on the
    # frozen DeviceSpec, not its name: two specs may share a name
    cache: Dict = problem.__dict__.setdefault("_group_time_cache", {})
    key = (frozenset(members), device, block)
    cached = cache.get(key)
    if cached is not None:
        return cached
    volume = group_volume(problem, members)
    radius: Dict[str, int] = {}
    flops_pp = 0.0
    ordered = sorted(members, key=lambda n: problem.info(n).order)
    for node in ordered:
        info = problem.info(node)
        flops_pp += info.flops_per_point
        for array, r in info.radius.items():
            radius[array] = max(radius.get(array, 0), r)
    # intermediates produced by one member and consumed at the producing
    # thread's own site (radius 0) by strictly later members never leave
    # the chip in the fused kernel — the code generator routes them through
    # cache/registers (the B-CALM pole-array effect)
    on_chip: set = set()
    if len(ordered) > 1:
        first_writer: Dict[str, int] = {}
        first_reader: Dict[str, int] = {}
        for idx, node in enumerate(ordered):
            info = problem.info(node)
            for array in info.arrays_written:
                first_writer.setdefault(array, idx)
            for array in info.arrays_read:
                first_reader.setdefault(array, idx)
        for array, widx in first_writer.items():
            ridx = first_reader.get(array)
            if ridx is not None and ridx > widx and radius.get(array, 0) == 0:
                on_chip.add(array)
    if len(members) > 1:
        staged = problem.locality_arrays(members) - on_chip
        smem = problem.group_smem_bytes(members, (block[0], block[1]))
    else:
        staged = set()
        smem = 0
    traits = CodegenTraits(
        staged=staged,
        on_chip=on_chip,
        radius=radius,
        smem_per_block=min(smem, device.shared_mem_per_block),
        regs_per_thread=estimate_registers(
            len(volume.arrays_read | volume.arrays_written), flops_pp
        ),
    )
    time_s = project_kernel(device, volume, block, traits).time_s
    cache[key] = time_s
    return time_s


def projected_gflops(
    problem: FusionProblem, individual: Grouping, device: DeviceSpec
) -> float:
    """Default objective: whole-program projected GFLOPS."""
    total_time = 0.0
    total_flops = 0.0
    for group in individual.groups:
        total_time += group_projection_time(problem, group, device)
        total_flops += sum(problem.info(m).flops for m in group)
    if total_time <= 0:
        return 0.0
    return total_flops / total_time / 1e9


def projected_time_s(
    problem: FusionProblem, individual: Grouping, device: DeviceSpec
) -> float:
    """Projected program time (useful for reporting speedups)."""
    return sum(
        group_projection_time(problem, group, device) for group in individual.groups
    )


def clear_projection_caches(problem: FusionProblem) -> None:
    """Drop the per-problem projection memo (tests / benchmarks)."""
    problem.__dict__.pop("_group_time_cache", None)


class CompiledFitness:
    """Memoizing fitness evaluator, bit-identical to the reference path.

    The GGA evaluates the same *parts* — splits, groups — in endless new
    combinations; the reference path rebuilds per-part state (OEG edge
    lists, networkx condensations, feasibility set walks, projection
    sums) for every individual.  This evaluator reads the problem's
    integer view (:attr:`FusionProblem.bit`, one bit per node in launch
    order) and memoizes at part granularity:

    * per split: the descendant / ancestor bitmask of every active node
      (:meth:`FusionProblem.reach_masks`) and, inside that entry, per
      fused group its member mask ``M``, ``desc(M)`` and convexity
      ``desc(M) & anc(M) & ~M == 0`` — the group masks live and die with
      their split;
    * per group: fusability / realizability / smem pressure / lazy-fission
      relaxability, and the (projection time, flops) pair of the default
      objective;
    * per individual value: the final (fitness, violation counts) pair,
      so an exact re-evaluation (replays, restarts, converged
      populations) is one dict probe.  A fresh ``Violations`` record is
      returned per call, matching the reference path's ownership
      semantics.

    The scheduling (cycle) test runs over the *k fused groups only*:
    ``i -> j`` iff ``desc(M_i) & M_j``, closed over k-bit rows.  A
    singleton is transparent — an edge into and an edge out of it compose
    into one node-level path, which ``desc`` already contains — so a
    condensation cycle through other fused groups is a cycle of this
    k-node graph, and one through singletons alone leaves the group and
    re-enters it, which is a convexity failure counted anyway.  The
    ``non_convex`` count therefore equals the reference's
    (:func:`~repro.search.grouping.evaluate_violations`, the oracle of
    ``tests/test_fitness_differential.py``).

    Results are bit-identical to ``evaluate_individual_reference`` for
    any objective; the fast summation path engages only for the stock
    ``projected_gflops`` (a custom objective is still called per
    evaluation, with only the violation side memoized).  Fitness is
    treated as a pure function of the individual's *value*: numerically,
    float sums follow the group iteration order of the first value-equal
    individual seen.

    Concurrent searches of one problem (shared through the store's
    memory tier) share one evaluator: every memo is a plain dict whose
    single-key reads and writes are atomic under the GIL, a lost race
    costs one recomputation, and hit/miss is reported per call
    (:meth:`lookup`) rather than counted here.
    """

    #: memo bounds; a full memo is dropped wholesale on the next miss
    MAX_SPLITS = 512
    MAX_INDIVIDUALS = 65536

    def __init__(
        self,
        problem: FusionProblem,
        device: DeviceSpec,
        objective: ObjectiveFn,
        penalties: PenaltyParams,
    ) -> None:
        self.problem = problem
        self.device = device
        self.objective = objective
        self.penalties = penalties
        self._whole = problem.whole_nodes()
        self._fragments = problem.fragments_of
        #: split -> (desc, anc, {group: (M, desc(M), convex)})
        self._split_cache: Dict[FrozenSet[str], _SplitState] = {}
        self._group_static: Dict[FrozenSet[str], Tuple[bool, bool, bool, bool]] = {}
        self._group_obj: Dict[FrozenSet[str], Tuple[float, float]] = {}
        #: individual -> (fitness, the memo's own Violations record)
        self._eval_cache: Dict[Grouping, Tuple[float, Violations]] = {}

    def _split_state(self, split: FrozenSet[str]) -> _SplitState:
        state = self._split_cache.get(split)
        if state is None:
            active: List[str] = []
            for node in self._whole:
                if node in split:
                    active.extend(self._fragments[node])
                else:
                    active.append(node)
            state = (*self.problem.reach_masks(active), {})
            if len(self._split_cache) > self.MAX_SPLITS:
                self._split_cache.clear()
            self._split_cache[split] = state
        return state

    def _group_flags(self, group: FrozenSet[str]) -> Tuple[bool, bool, bool, bool]:
        flags = self._group_static.get(group)
        if flags is None:
            problem = self.problem
            infos = problem.infos
            flags = (
                not problem.group_fusable(group),
                not problem.group_realizable(group),
                problem.group_smem_bytes(group) > problem.capacity,
                any(
                    infos[m].fissionable or infos[m].parent is not None
                    for m in group
                ),
            )
            self._group_static[group] = flags
        return flags

    def _violations(self, individual: Grouping) -> Violations:
        desc, anc, masks = self._split_state(individual.split)
        bit = self.problem.bit
        violations = Violations()
        fused: List[Tuple[int, int, bool]] = []
        for group in individual.groups:
            if len(group) <= 1:
                continue
            entry = masks.get(group)
            if entry is None:
                members = below = above = 0
                for node in group:
                    members |= bit[node]
                    below |= desc[node]
                    above |= anc[node]
                entry = masks[group] = (
                    members, below, not below & above & ~members
                )
            fused.append(entry)
            unfusable, unrealizable, smem_over, relax_possible = self._group_flags(
                group
            )
            if unfusable:
                violations.unfusable += 1
            if unrealizable:
                violations.unrealizable += 1
            if smem_over:
                violations.smem_over += 1
                if relax_possible:
                    violations.relaxable += 1
        # rows[i]: the fused groups a member of group i reaches; group i
        # is unschedulable iff the closure brings i back to itself
        rows: List[int] = []
        for i, (_, below, _) in enumerate(fused):
            row = 0
            for j, (members, _, _) in enumerate(fused):
                if j != i and below & members:
                    row |= 1 << j
            rows.append(row)
        for k, via in enumerate(rows):
            if via:
                for i, row in enumerate(rows):
                    if row >> k & 1:
                        rows[i] = row | via
        for i, (_, _, convex) in enumerate(fused):
            if not convex or rows[i] >> i & 1:
                violations.non_convex += 1
        return violations

    def _objective_value(self, individual: Grouping) -> float:
        if self.objective is not projected_gflops:
            return self.objective(self.problem, individual, self.device)
        total_time = 0.0
        total_flops = 0.0
        memo = self._group_obj
        for group in individual.groups:
            pair = memo.get(group)
            if pair is None:
                pair = (
                    group_projection_time(self.problem, group, self.device),
                    sum(self.problem.info(m).flops for m in group),
                )
                memo[group] = pair
            total_time += pair[0]
            total_flops += pair[1]
        if total_time <= 0:
            return 0.0
        return total_flops / total_time / 1e9

    def lookup(self, individual: Grouping) -> Tuple[float, Violations, bool]:
        """``(fitness, violations, hit)``: one memo probe per call.

        ``hit`` says whether the memo answered — the caller's evaluation
        counter, with no second probe to infer it.  The record is fresh
        per call either way (callers may hold on to / mutate it).
        """
        cached = self._eval_cache.get(individual)
        if cached is not None:
            return cached[0], cached[1].copy(), True
        raw = self._objective_value(individual)
        violations = self._violations(individual)
        fitness = penalized_fitness(raw, violations, self.penalties)
        if len(self._eval_cache) > self.MAX_INDIVIDUALS:
            self._eval_cache.clear()
        self._eval_cache[individual] = (fitness, violations.copy())
        return fitness, violations, False

    def evaluate(self, individual: Grouping) -> Tuple[float, Violations]:
        """:meth:`lookup` for callers that do not count misses."""
        return self.lookup(individual)[:2]


def compiled_fitness(
    problem: FusionProblem,
    device: DeviceSpec,
    objective: ObjectiveFn,
    penalties: PenaltyParams,
) -> CompiledFitness:
    """The per-problem :class:`CompiledFitness`, created on first use.

    Cached on the problem instance (like the projection-time memo), keyed
    by the remaining fitness inputs.  Keeping the objective referenced in
    the value pins its ``id`` for the key's lifetime.
    """
    cache: Dict = problem.__dict__.setdefault("_compiled_fitness", {})
    key = (id(objective), repr(device), repr(penalties))
    evaluator = cache.get(key)
    if evaluator is None:
        evaluator = CompiledFitness(problem, device, objective, penalties)
        cache[key] = evaluator
    return evaluator


def drop_individual_memos(problem: FusionProblem) -> None:
    """End a search on ``problem``: forget its per-individual fitness memos.

    The per-part memos (splits, groups, projection times) are pure per
    key and stay, so a later search on the same problem object computes
    bit-identical values; the per-individual memo would instead answer
    that search's lookups and change what it counts as an evaluation.
    """
    for evaluator in problem.__dict__.get("_compiled_fitness", {}).values():
        evaluator._eval_cache.clear()


def clear_compiled_fitness(problem: FusionProblem) -> None:
    """Drop the per-problem compiled evaluators (tests / benchmarks)."""
    problem.__dict__.pop("_compiled_fitness", None)


# --------------------------------------------------------------- surrogate


def surrogate_score(
    problem: FusionProblem,
    individual: Grouping,
    device: DeviceSpec,
    objective: ObjectiveFn,
    penalties: PenaltyParams,
) -> float:
    """One-shot :meth:`SurrogateScorer.score` for outside callers."""
    return SurrogateScorer(problem, device, objective, penalties).score(individual)


class SurrogateVariant:
    """A model-scored single-edit neighbour of a bred offspring.

    The edit is held as a descriptor — the parent grouping, the indices
    of the groups the edit removes and the groups it adds — so the
    surrogate score can be computed incrementally from the per-group
    memos without ever constructing the child.  Only variants admitted
    by the ranking pay :func:`~repro.search.operators.replace_groups`.
    """

    __slots__ = ("score", "parent", "_drop", "_add")

    def __init__(
        self,
        score: float,
        parent: Grouping,
        drop: Tuple[int, ...],
        add: Tuple[FrozenSet[str], ...],
    ) -> None:
        self.score = score
        self.parent = parent
        self._drop = drop
        self._add = add

    def materialize(self) -> Grouping:
        from .operators import replace_groups

        return replace_groups(self.parent, self._drop, self._add)


class SurrogateScorer:
    """Batch surrogate scoring plus cheap model-guided neighbourhoods.

    Wraps the per-problem :class:`CompiledFitness` so the per-group
    projection-time and static-flag memos are shared with exact
    evaluation: scoring a candidate pre-pays the memo fills its exact
    evaluation would do anyway.  On top of plain scoring it generates
    *variants* — single merge/split/move edits of a bred offspring whose
    scores are computed as deltas against the parent's per-group terms,
    two dictionary lookups per edit instead of a full rescan.

    Incremental mode needs the additive default objective
    (:func:`projected_gflops`); for custom objectives the scorer still
    scores but generates no variants, and the GGA falls back to
    oversampled breeding.
    """

    def __init__(
        self,
        problem: FusionProblem,
        device: DeviceSpec,
        objective: ObjectiveFn,
        penalties: PenaltyParams,
    ) -> None:
        self.problem = problem
        self.device = device
        self.objective = objective
        self.penalties = penalties
        self.evaluator = compiled_fitness(problem, device, objective, penalties)
        self._components: Dict[Grouping, Tuple[float, float, Violations]] = {}

    @property
    def supports_variants(self) -> bool:
        return self.objective is projected_gflops

    def score(self, individual: Grouping) -> float:
        """Analytic-model-only candidate score for surrogate pre-filtering.

        The raw objective value — the projection-model sum, served from
        the per-group memo — penalized by the *statically memoized*
        per-group flags (fusability, realizability, shared-memory
        pressure).  What the exact evaluator computes on top, and this
        deliberately skips, is all split-dependent work: the reachability
        masks, per-group convexity and the fused-group cycle closure.  The
        score is therefore a cheap, *optimistic* stand-in for the exact fitness —
        it can still overrank non-convex or cyclic candidates, which is
        why the GGA admits a top slice for exact evaluation rather than
        trusting the ranking outright.
        """
        evaluator = self.evaluator
        violations = Violations()
        for group in individual.groups:
            if len(group) > 1:
                self._apply_flags(violations, evaluator._group_flags(group), +1)
        return penalized_fitness(
            evaluator._objective_value(individual), violations, self.penalties
        )

    _NO_FLAGS = (False, False, False, False)

    def _group_terms(
        self, group: FrozenSet[str]
    ) -> Tuple[float, float, Tuple[bool, bool, bool, bool]]:
        """(projected time, flops, static flags) for one group, memoized."""
        evaluator = self.evaluator
        pair = evaluator._group_obj.get(group)
        if pair is None:
            pair = (
                group_projection_time(self.problem, group, self.device),
                sum(self.problem.info(m).flops for m in group),
            )
            evaluator._group_obj[group] = pair
        if len(group) <= 1:
            return pair[0], pair[1], self._NO_FLAGS
        return pair[0], pair[1], evaluator._group_flags(group)

    def components(
        self, individual: Grouping
    ) -> Tuple[float, float, Violations]:
        """Total (time, flops, static violations) — the delta baseline.

        Memoized per grouping: offspring that duplicate a parent (no-op
        mutation, crossover echoes) and individuals re-scored across
        generations skip the full per-group rescan.
        """
        hit = self._components.get(individual)
        if hit is not None:
            return hit[0], hit[1], hit[2].copy()
        total_time = 0.0
        total_flops = 0.0
        violations = Violations()
        for group in individual.groups:
            g_time, g_flops, flags = self._group_terms(group)
            total_time += g_time
            total_flops += g_flops
            self._apply_flags(violations, flags, +1)
        if len(self._components) > 16384:
            self._components.clear()
        self._components[individual] = (
            total_time, total_flops, violations.copy(),
        )
        return total_time, total_flops, violations

    @staticmethod
    def _apply_flags(violations: Violations, flags, sign: int) -> None:
        unfusable, unrealizable, smem_over, relax_possible = flags
        if unfusable:
            violations.unfusable += sign
        if unrealizable:
            violations.unrealizable += sign
        if smem_over:
            violations.smem_over += sign
            if relax_possible:
                violations.relaxable += sign

    def score_from(
        self, components: Tuple[float, float, Violations]
    ) -> float:
        total_time, total_flops, violations = components
        raw = (
            total_flops / total_time / 1e9 if total_time > 0 else 0.0
        )
        return penalized_fitness(raw, violations, self.penalties)

    def variants(
        self,
        individual: Grouping,
        components: Tuple[float, float, Violations],
        rng,
        count: int,
    ) -> List[SurrogateVariant]:
        """Up to ``count`` single-edit neighbours, scored incrementally.

        Edits mirror the mutation operators' moves (merge two fusable
        groups, split a fused group, move one member out of a fused
        group) but are chosen blind and ranked by the model — the
        surrogate does the selection the operators' heuristics would
        otherwise approximate.
        """
        problem = self.problem
        groups = individual.groups
        infos = problem.infos
        fusable = problem.mergeable_groups(groups)
        fused = [i for i, g in enumerate(groups) if len(g) > 1]
        base_time, base_flops, base_viol = components
        out: List[SurrogateVariant] = []
        for _ in range(count):
            ops = []
            if len(fusable) >= 2:
                ops.append("merge")
            if fused:
                ops.append("split")
                ops.append("move")
            if not ops:
                break
            op = ops[rng.randrange(len(ops))]
            if op == "merge":
                i, j = rng.sample(fusable, 2)
                drop = (i, j)
                add = (groups[i] | groups[j],)
            elif op == "split":
                target = fused[rng.randrange(len(fused))]
                members = sorted(groups[target])
                rng.shuffle(members)
                cut = rng.randint(1, len(members) - 1)
                drop = (target,)
                add = (frozenset(members[:cut]), frozenset(members[cut:]))
            else:  # move
                source = fused[rng.randrange(len(fused))]
                node = sorted(groups[source])[
                    rng.randrange(len(groups[source]))
                ]
                rest = groups[source] - {node}
                if (
                    infos[node].fusable
                    and rng.random() < 0.6
                ):
                    destinations = [i for i in fusable if i != source]
                    if destinations:
                        dest = destinations[
                            rng.randrange(len(destinations))
                        ]
                        drop = (source, dest)
                        add = (rest, groups[dest] | {node})
                    else:
                        drop = (source,)
                        add = (rest, frozenset({node}))
                else:
                    drop = (source,)
                    add = (rest, frozenset({node}))
            d_time, d_flops = 0.0, 0.0
            violations = base_viol.copy()
            for index in drop:
                g_time, g_flops, flags = self._group_terms(groups[index])
                d_time -= g_time
                d_flops -= g_flops
                self._apply_flags(violations, flags, -1)
            for group in add:
                if not group:
                    continue
                g_time, g_flops, flags = self._group_terms(group)
                d_time += g_time
                d_flops += g_flops
                self._apply_flags(violations, flags, +1)
            total_time = base_time + d_time
            total_flops = base_flops + d_flops
            raw = (
                total_flops / total_time / 1e9 if total_time > 0 else 0.0
            )
            score = penalized_fitness(raw, violations, self.penalties)
            out.append(SurrogateVariant(score, individual, drop, add))
        return out


def surrogate_scorer(
    problem: FusionProblem,
    device: DeviceSpec,
    objective: ObjectiveFn,
    penalties: PenaltyParams,
) -> SurrogateScorer:
    """A :class:`SurrogateScorer` sharing the compiled evaluator's memos."""
    return SurrogateScorer(problem, device, objective, penalties)


def _rank_with_ties(values) -> List[float]:
    """Fractional ranks (1-based, ties averaged) of ``values``."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        rank = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = rank
        i = j + 1
    return ranks


def spearman_rank_correlation(xs, ys) -> Optional[float]:
    """Spearman's rho between two paired samples (ties averaged).

    Returns ``None`` when the correlation is undefined: fewer than two
    pairs, or either sample constant.  Used to audit the surrogate
    pre-filter — rho near 1 means the analytic-only ranking agrees with
    the exact penalized fitness on the admitted offspring.
    """
    if len(xs) != len(ys):
        raise SearchError("rank correlation needs paired samples")
    n = len(xs)
    if n < 2:
        return None
    rx = _rank_with_ties(list(xs))
    ry = _rank_with_ties(list(ys))
    mean = (n + 1) / 2.0
    cov = sum((a - mean) * (b - mean) for a, b in zip(rx, ry))
    var_x = sum((a - mean) ** 2 for a in rx)
    var_y = sum((b - mean) ** 2 for b in ry)
    if var_x <= 0 or var_y <= 0:
        return None
    return cov / (var_x * var_y) ** 0.5


def evaluate_individual_reference(
    problem: FusionProblem,
    individual: Grouping,
    device: DeviceSpec,
    objective: ObjectiveFn,
    penalties: PenaltyParams,
) -> Tuple[float, Violations]:
    """The direct (uncompiled) fitness evaluation, kept as the oracle the
    compiled path is differential-tested and benchmarked against."""
    raw = objective(problem, individual, device)
    violations = evaluate_violations(problem, individual)
    return penalized_fitness(raw, violations, penalties), violations


def evaluate_individual(
    problem: FusionProblem,
    individual: Grouping,
    device: DeviceSpec,
    objective: ObjectiveFn,
    penalties: PenaltyParams,
) -> Tuple[float, Violations]:
    """One full fitness evaluation: objective, violations, penalty.

    One-shot convenience for outside callers: resolves the per-problem
    :class:`CompiledFitness` on every call.  The GGA resolves it once and
    calls :meth:`CompiledFitness.evaluate` directly.
    """
    return compiled_fitness(problem, device, objective, penalties).evaluate(
        individual
    )


register_objective("projected_gflops", projected_gflops)
