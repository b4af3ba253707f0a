"""Genetic operators of the grouped GA (Falkenauer-style, §5.4).

Individuals are partitions, so the operators work on *groups*, not genes:

* **group-injection crossover** — donor groups from one parent are injected
  into the other; overlapping members are first removed from the receiver;
* **merge / split / move mutations** — local partition edits biased toward
  merging groups that share data arrays (the locality signal);
* **fission toggle & lazy-fission repair** — a fissionable node switches
  between its whole and fragment representation; the repair form implements
  the paper's lazy fission: a group stuck on the shared-memory boundary
  splits a fissionable member and evicts the fragments that contribute no
  locality.
"""

from __future__ import annotations

import random
from typing import FrozenSet, Iterable, List, Optional, Set, Tuple

from .grouping import FusionProblem, Grouping, MergeableGroups


def replace_groups(
    individual: Grouping,
    drop: Iterable[FrozenSet[str]],
    add: Iterable[FrozenSet[str]],
) -> Grouping:
    """``individual`` without the groups ``drop`` and with the groups
    ``add`` (singletons and empty groups are implied / dropped)."""
    drop = tuple(drop)
    return Grouping(
        individual.split,
        [g for g in individual.groups if g not in drop] + list(add),
    )


def ensure_whole(
    problem: FusionProblem, split: Set[str], groups: List[FrozenSet[str]], node: str
) -> None:
    """Convert ``node`` back to its whole representation (in place): its
    fragments leave their fused groups and the whole node is a singleton."""
    if node not in split:
        return
    fragments = frozenset(problem.fragments_of[node])
    groups[:] = [g if g.isdisjoint(fragments) else g - fragments for g in groups]
    split.discard(node)


def ensure_split(
    problem: FusionProblem, split: Set[str], groups: List[FrozenSet[str]], node: str
) -> None:
    """Convert ``node`` to fragment representation (fragments become
    singletons, in place)."""
    if node in split or node not in problem.fragments_of:
        return
    groups[:] = [g - {node} if node in g else g for g in groups]
    split.add(node)


def random_grouping(
    problem: FusionProblem, rng: random.Random, merge_bias: float = 0.5
) -> Grouping:
    """A random initial individual: random merges over eligible nodes.

    A fraction of the fissionable nodes start in fragment form so the
    population carries fragment-level grouping material from generation 0
    (the lazy-fission pre-step gathered their metadata already).
    """
    split = [node for node in problem.fragments_of if rng.random() < 0.35]
    individual = Grouping(frozenset(split), ())
    merges = int(
        len(individual.active_nodes(problem)) * merge_bias * rng.random()
    )
    for _ in range(merges):
        individual = mutate_merge(problem, individual, rng) or individual
    return individual


def mutate_merge(
    problem: FusionProblem, individual: Grouping, rng: random.Random
) -> Optional[Grouping]:
    """Merge two groups, preferring pairs that share a data array."""
    candidates = MergeableGroups(problem, individual)
    if len(candidates) < 2:
        return None
    first = rng.choice(candidates)
    others = MergeableGroups(problem, individual, exclude=first)
    sharing = others.sharing(first)
    pool = sharing if sharing and rng.random() < 0.8 else others
    second = rng.choice(pool)
    return replace_groups(individual, (first, second), (first | second,))


def mutate_split(
    problem: FusionProblem, individual: Grouping, rng: random.Random
) -> Optional[Grouping]:
    if not individual.groups:
        return None
    target = rng.choice(individual.groups)
    members = sorted(target)
    rng.shuffle(members)
    cut = rng.randint(1, len(members) - 1)
    return replace_groups(
        individual, (target,), (frozenset(members[:cut]), frozenset(members[cut:]))
    )


def mutate_move(
    problem: FusionProblem, individual: Grouping, rng: random.Random
) -> Optional[Grouping]:
    if not individual.groups:
        return None
    source = rng.choice(individual.groups)
    node = rng.choice(sorted(source))
    rest = source - {node}
    destinations = (
        MergeableGroups(problem, individual, exclude=source)
        if problem.infos[node].fusable
        else ()
    )
    if destinations and rng.random() < 0.6:
        dest = rng.choice(destinations)
        return replace_groups(individual, (source, dest), (rest, dest | {node}))
    return replace_groups(individual, (source,), (rest,))


def mutate_fission_toggle(
    problem: FusionProblem, individual: Grouping, rng: random.Random
) -> Optional[Grouping]:
    if not problem.fragments_of:
        return None
    node = rng.choice(sorted(problem.fragments_of))
    split = set(individual.split)
    groups = list(individual.groups)
    if node in split:
        ensure_whole(problem, split, groups, node)
    else:
        ensure_split(problem, split, groups, node)
    return Grouping(frozenset(split), groups)


def lazy_fission_repair(
    problem: FusionProblem, individual: Grouping, rng: random.Random
) -> Tuple[Grouping, int]:
    """Repair smem-violating groups by fissioning a member (§4.1).

    For every group over the shared-memory budget that contains a
    fissionable whole node, the node is split; fragments that share a
    locality array with the rest of the group stay in the group, the others
    are evicted to singletons.  Returns the repaired individual and the
    number of fissions applied.
    """
    split = set(individual.split)
    groups = list(individual.groups)
    fissions = 0
    for index, group in enumerate(groups):
        if not problem.group_terms(group).flags.smem_over:
            continue
        candidates = [
            m for m in sorted(group) if m in problem.fragments_of and m not in split
        ]
        if not candidates:
            continue
        node = rng.choice(candidates)
        rest = group - {node}
        rest_arrays: Set[str] = set()
        for member in rest:
            rest_arrays |= problem.touched[member]
        # split the node: fragments sharing arrays with the rest stay, but
        # only while the group remains within the shared-memory budget
        # (greedy re-admission); the others become singletons
        keep: Set[str] = set()
        sharing = [
            f
            for f in problem.fragments_of[node]
            if problem.touched[f] & rest_arrays
        ]
        sharing.sort(
            key=lambda f: len(problem.touched[f] & rest_arrays), reverse=True
        )
        for fragment in sharing:
            candidate_group = rest | keep | {fragment}
            if not problem.group_terms(candidate_group).flags.smem_over:
                keep.add(fragment)
        groups[index] = rest | keep
        split.add(node)
        fissions += 1
    return Grouping(frozenset(split), groups), fissions


def crossover(
    problem: FusionProblem,
    receiver: Grouping,
    donor: Grouping,
    rng: random.Random,
) -> Grouping:
    """Group-injection crossover: donor fused groups overwrite the receiver."""
    donor_groups = donor.groups
    if not donor_groups:
        return receiver
    count = max(1, rng.randint(1, len(donor_groups)))
    injected = rng.sample(donor_groups, count)
    injected_members = frozenset().union(*injected)
    # reconcile representations, then injected members leave the
    # receiver's groups
    split = set(receiver.split)
    groups = list(receiver.groups)
    for node, fragments in problem.fragments_of.items():
        if node in injected_members:
            ensure_whole(problem, split, groups, node)
        elif not injected_members.isdisjoint(fragments):
            ensure_split(problem, split, groups, node)
    return Grouping(
        frozenset(split),
        [
            g if g.isdisjoint(injected_members) else g - injected_members
            for g in groups
        ]
        + injected,
    )


def mutate(
    problem: FusionProblem,
    individual: Grouping,
    rng: random.Random,
    rates: Tuple[float, float, float, float],
) -> Grouping:
    """Apply the mutation operators with the configured probabilities."""
    merge_rate, split_rate, move_rate, fission_rate = rates
    result = individual
    if rng.random() < merge_rate:
        result = mutate_merge(problem, result, rng) or result
    if rng.random() < split_rate:
        result = mutate_split(problem, result, rng) or result
    if rng.random() < move_rate:
        result = mutate_move(problem, result, rng) or result
    if rng.random() < fission_rate:
        result = mutate_fission_toggle(problem, result, rng) or result
    return result
