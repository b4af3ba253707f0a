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

import time
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Tuple,
)

from ..errors import SearchError
from ..gpu.device import DeviceSpec
from ..gpu.perfmodel import roofline
from .grouping import (
    FusionProblem,
    Grouping,
    MergeableGroups,
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
#: (node, projected time, flops) per active node of a split, in summation order
_NodeTerms = Tuple[Tuple[str, float, float], ...]

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


def _group_pairs(
    problem: FusionProblem, device: DeviceSpec
) -> Dict[FrozenSet[str], Tuple[float, float]]:
    """The problem's (projected time, flops) per group on ``device``.

    Held on the problem beside its group terms, keyed on the frozen
    ``DeviceSpec`` (two specs may share a name); plain dicts, so
    concurrent searches of one problem share them as they share the
    terms.
    """
    cache: Dict = problem.__dict__.setdefault("_group_time_cache", {})
    return cache.setdefault(device, {})


def _group_pair(
    problem: FusionProblem,
    pairs: Dict[FrozenSet[str], Tuple[float, float]],
    group: FrozenSet[str],
    device: DeviceSpec,
) -> Tuple[float, float]:
    pair = pairs.get(group)
    if pair is None:
        terms = problem.group_terms(group)
        start = time.perf_counter()
        time_s = roofline(
            device,
            terms.block,
            min(terms.tile_bytes, device.shared_mem_per_block),
            terms.regs,
            terms.bytes,
            terms.kernel_flops,
        )[3]
        pair = pairs[group] = (time_s, terms.flops)
        problem.group_terms_s += time.perf_counter() - start
    return pair


def group_projection_time(
    problem: FusionProblem, members: Iterable[str], device: DeviceSpec
) -> float:
    """Projected execution time (s) of one group fused at its modal
    member block: locality arrays staged, intermediates produced and read
    at the same site kept on chip (the B-CALM pole-array effect).

    Scoring the groups a problem has not seen is the model's share of a
    search: on ``search-paper-budget`` (5 966 distinct groups) ~16 % of
    it at ~42 µs a group (:meth:`FusionProblem.group_terms`, whose terms
    this reads; 2-core box), against ~50 % for breeding.  So the time is
    memoized per (group, device) on the problem.
    """
    group = frozenset(members)
    return _group_pair(problem, _group_pairs(problem, device), group, device)[0]


def summation_order(
    problem: FusionProblem, individual: Grouping
) -> List[FrozenSet[str]]:
    """Every group of ``individual`` in the order its floats are summed.

    The canonical partition order (:meth:`Grouping.partition`), except for
    the launch-ordered identity individual, which sums in launch order.
    Summing in another order would move the totals by an ulp, and with
    them the search's trajectory.
    """
    if individual.launch_order:
        return [frozenset((node,)) for node in individual.active_nodes(problem)]
    return individual.partition(problem)


def projected_gflops(
    problem: FusionProblem, individual: Grouping, device: DeviceSpec
) -> float:
    """Default objective: whole-program projected GFLOPS."""
    total_time = 0.0
    total_flops = 0.0
    for group in summation_order(problem, individual):
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
        group_projection_time(problem, group, device)
        for group in summation_order(problem, individual)
    )


def clear_projection_caches(problem: FusionProblem) -> None:
    """Empty the per-problem group memos (tests / benchmarks)."""
    problem._group_terms.clear()
    for pairs in problem.__dict__.get("_group_time_cache", {}).values():
        pairs.clear()


class CompiledFitness:
    """Memoizing fitness evaluator, bit-identical to the reference path.

    The GGA evaluates the same *parts* — splits, groups — in endless new
    combinations; the reference path rebuilds per-part state (OEG edge
    lists, group condensations, feasibility set walks, projection
    sums) for every individual.  This evaluator reads the problem's
    integer view (:attr:`FusionProblem.bit`, one bit per node in launch
    order) and memoizes at part granularity:

    * per split: the descendant / ancestor bitmask of every active node
      (:meth:`FusionProblem.reach_masks`) and, inside that entry, per
      fused group its member mask ``M``, ``desc(M)`` and convexity
      ``desc(M) & anc(M) & ~M == 0`` — the group masks live and die with
      their split;
    * per group, on the problem and so shared by every evaluator of it:
      the feasibility flags (:meth:`FusionProblem.group_terms`) and the
      (projection time, flops) pair of the default objective for this
      device; the singletons' pairs laid out per split in summation
      order (:func:`summation_order`), so the objective walks the split's
      nodes once and swaps in each fused group at its least member;
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
    evaluation, with only the violation side memoized).  Fitness is a
    pure function of the individual's value.

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
        #: split -> (desc, anc, {group: (M, desc(M), convex)})
        self._split_cache: Dict[FrozenSet[str], _SplitState] = {}
        #: the problem's (time, flops) memo for this device
        self._pairs = _group_pairs(problem, device)
        #: (split, launch order?) -> the split's singleton terms
        self._split_terms: Dict[Tuple[FrozenSet[str], bool], _NodeTerms] = {}
        #: individual -> (fitness, the memo's own Violations record)
        self._eval_cache: Dict[Grouping, Tuple[float, Violations]] = {}

    def _split_state(self, split: FrozenSet[str]) -> _SplitState:
        state = self._split_cache.get(split)
        if state is None:
            active = self.problem.split_view(split).active
            state = (*self.problem.reach_masks(active), {})
            if len(self._split_cache) > self.MAX_SPLITS:
                self._split_cache.clear()
            self._split_cache[split] = state
        return state

    def _violations(self, individual: Grouping) -> Violations:
        desc, anc, masks = self._split_state(individual.split)
        bit = self.problem.bit
        violations = Violations()
        fused: List[Tuple[int, int, bool]] = []
        for group in individual.groups:
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
            unfusable, unrealizable, smem_over, relax_possible = (
                self.problem.group_terms(group).flags
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

    def _group_pair(self, group: FrozenSet[str]) -> Tuple[float, float]:
        """(projected time, flops) of a group, memoized."""
        pair = self._pairs.get(group)
        if pair is None:
            pair = _group_pair(self.problem, self._pairs, group, self.device)
        return pair

    def _singleton_terms(
        self, split: FrozenSet[str], launch_order: bool
    ) -> _NodeTerms:
        key = (split, launch_order)
        terms = self._split_terms.get(key)
        if terms is None:
            view = self.problem.split_view(split)
            terms = tuple(
                (node, *self._group_pair(frozenset((node,))))
                for node in (view.active if launch_order else view.canonical)
            )
            if len(self._split_terms) > self.MAX_SPLITS:
                self._split_terms.clear()
            self._split_terms[key] = terms
        return terms

    def _totals(self, individual: Grouping) -> Tuple[float, float]:
        """Projected time and flops summed over every group in
        :func:`summation_order`: the split's singleton terms, each fused
        group's pair at its least member."""
        heads = {min(group): group for group in individual.groups}
        covered = frozenset().union(*individual.groups)
        total_time = 0.0
        total_flops = 0.0
        for node, time_s, flops in self._singleton_terms(
            individual.split, individual.launch_order
        ):
            if node in covered:
                group = heads.get(node)
                if group is None:
                    continue
                time_s, flops = self._group_pair(group)
            total_time += time_s
            total_flops += flops
        return total_time, total_flops

    def _objective_value(self, individual: Grouping) -> float:
        if self.objective is not projected_gflops:
            return self.objective(self.problem, individual, self.device)
        total_time, total_flops = self._totals(individual)
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
    The split views the operators index (and their per-group slots) go
    too: a problem the memory tier keeps need not hold them between
    searches, and the next search rebuilds them on demand.
    """
    for evaluator in problem.__dict__.get("_compiled_fitness", {}).values():
        evaluator._eval_cache.clear()
    problem._split_views.clear()


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

    The edit is held as a descriptor — the parent grouping, the groups
    the edit removes and the groups it adds — so the
    surrogate score can be computed incrementally from the per-group
    memos without ever constructing the child.  Only variants admitted
    by the ranking pay :func:`~repro.search.operators.replace_groups`.
    """

    __slots__ = ("score", "parent", "_drop", "_add")

    def __init__(
        self,
        score: float,
        parent: Grouping,
        drop: Tuple[FrozenSet[str], ...],
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

    Wraps the per-problem :class:`CompiledFitness`, so it reads the same
    per-group memos as exact evaluation: scoring a candidate pre-pays
    the memo fills its exact evaluation would do anyway.  On top of
    plain scoring it generates *variants* — single merge/split/move
    edits of a bred offspring whose scores are computed as deltas
    against the parent's per-group terms, two dictionary lookups per
    edit instead of a full rescan.

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
            self._apply_flags(violations, self.problem.group_terms(group).flags, +1)
        return penalized_fitness(
            evaluator._objective_value(individual), violations, self.penalties
        )

    _NO_FLAGS = (False, False, False, False)

    def _group_terms(
        self, group: FrozenSet[str]
    ) -> Tuple[float, float, Tuple[bool, bool, bool, bool]]:
        """(projected time, flops, static flags) for one group, memoized."""
        evaluator = self.evaluator
        flags = (
            self._NO_FLAGS if len(group) == 1
            else self.problem.group_terms(group).flags
        )
        return (*evaluator._group_pair(group), flags)

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
        evaluator = self.evaluator
        total_time, total_flops = evaluator._totals(individual)
        violations = Violations()
        for group in individual.groups:
            self._apply_flags(violations, self.problem.group_terms(group).flags, +1)
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
        infos = problem.infos
        fusable = MergeableGroups(problem, individual)
        fused = individual.groups
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
                first, second = rng.sample(fusable, 2)
                drop = (first, second)
                add = (first | second,)
            elif op == "split":
                target = fused[rng.randrange(len(fused))]
                members = sorted(target)
                rng.shuffle(members)
                cut = rng.randint(1, len(members) - 1)
                drop = (target,)
                add = (frozenset(members[:cut]), frozenset(members[cut:]))
            else:  # move
                source = fused[rng.randrange(len(fused))]
                node = sorted(source)[rng.randrange(len(source))]
                rest = source - {node}
                drop = (source,)
                add = (rest, frozenset((node,)))
                if infos[node].fusable and rng.random() < 0.6:
                    destinations = MergeableGroups(
                        problem, individual, exclude=source
                    )
                    if destinations:
                        dest = destinations[rng.randrange(len(destinations))]
                        drop = (source, dest)
                        add = (rest, dest | {node})
            d_time, d_flops = 0.0, 0.0
            violations = base_viol.copy()
            for group in drop:
                g_time, g_flops, flags = self._group_terms(group)
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
