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
from bisect import insort
from itertools import filterfalse
from typing import Collection, FrozenSet, Iterable, List, Optional, Set, Tuple

from .grouping import FusionProblem, Grouping


class CanonicalGroups(tuple):
    """A partition's groups in canonical order: by least member.

    The order is a contract — value-equal individuals must compare and
    hash alike, and the evaluator sums floats in ``groups`` order.  The
    type is the voucher that it holds: only :func:`make_grouping` (a full
    sort) and :func:`replace_groups` (ordered insertion into a vouched
    tuple) build one, so operators never re-sort their own output, while
    a plain tuple (``singleton_grouping`` is in launch order) still gets
    the sort.  Equal to, and hashes like, the plain tuple of its groups.
    """

    __slots__ = ()


def make_grouping(
    split: Iterable[str], groups: Iterable[FrozenSet[str]]
) -> Grouping:
    return Grouping(
        split=frozenset(split),
        groups=CanonicalGroups(sorted((g for g in groups if g), key=min)),
    )


def replace_groups(
    individual: Grouping,
    drop: Collection[int],
    add: Iterable[FrozenSet[str]],
) -> Grouping:
    """``individual`` without the groups at indices ``drop`` and with the
    non-empty groups of ``add``, in canonical order."""
    groups = list(individual.groups)
    for index in sorted(drop, reverse=True):
        del groups[index]
    if type(individual.groups) is not CanonicalGroups:
        return make_grouping(individual.split, groups + list(add))
    for group in add:
        if group:
            insort(groups, group, key=min)
    return Grouping(split=individual.split, groups=CanonicalGroups(groups))


def ensure_whole(
    problem: FusionProblem, split: Set[str], groups: List[FrozenSet[str]], node: str
) -> None:
    """Convert ``node`` back to its whole representation (in place)."""
    if node not in split:
        return
    fragments = set(problem.fragments_of[node])
    for i, group in enumerate(list(groups)):
        if group & fragments:
            groups[i] = group - fragments
    groups[:] = [g for g in groups if g]
    groups.append(frozenset({node}))
    split.discard(node)


def ensure_split(
    problem: FusionProblem, split: Set[str], groups: List[FrozenSet[str]], node: str
) -> None:
    """Convert ``node`` to fragment representation (fragments become
    singletons, in place)."""
    if node in split or node not in problem.fragments_of:
        return
    for i, group in enumerate(list(groups)):
        if node in group:
            groups[i] = group - {node}
    groups[:] = [g for g in groups if g]
    for fragment in problem.fragments_of[node]:
        groups.append(frozenset({fragment}))
    split.add(node)


def random_grouping(
    problem: FusionProblem, rng: random.Random, merge_bias: float = 0.5
) -> Grouping:
    """A random initial individual: random merges over eligible nodes.

    A fraction of the fissionable nodes start in fragment form so the
    population carries fragment-level grouping material from generation 0
    (the lazy-fission pre-step gathered their metadata already).
    """
    split: Set[str] = set()
    groups: List[FrozenSet[str]] = []
    for node in problem.whole_nodes():
        groups.append(frozenset({node}))
    for node in problem.fragments_of:
        if rng.random() < 0.35:
            ensure_split(problem, split, groups, node)
    individual = make_grouping(split, groups)
    merges = int(len(groups) * merge_bias * rng.random())
    for _ in range(merges):
        individual = mutate_merge(problem, individual, rng) or individual
    return individual


def mutate_merge(
    problem: FusionProblem, individual: Grouping, rng: random.Random
) -> Optional[Grouping]:
    """Merge two groups, preferring pairs that share a data array."""
    candidates = problem.mergeable_groups(individual.groups)
    if len(candidates) < 2:
        return None
    first = rng.choice(candidates)
    touched = problem.touched
    first_arrays: Set[str] = set()
    for member in individual.groups[first]:
        first_arrays |= touched[member]
    sharing = [
        i
        for i in candidates
        if i != first
        and any(
            not touched[m].isdisjoint(first_arrays) for m in individual.groups[i]
        )
    ]
    pool = sharing if sharing and rng.random() < 0.8 else [i for i in candidates if i != first]
    if not pool:
        return None
    second = rng.choice(pool)
    groups = individual.groups
    return replace_groups(
        individual, (first, second), (groups[first] | groups[second],)
    )


def mutate_split(
    problem: FusionProblem, individual: Grouping, rng: random.Random
) -> Optional[Grouping]:
    fused = [i for i, g in enumerate(individual.groups) if len(g) > 1]
    if not fused:
        return None
    target = rng.choice(fused)
    members = sorted(individual.groups[target])
    rng.shuffle(members)
    cut = rng.randint(1, len(members) - 1)
    return replace_groups(
        individual, (target,), (frozenset(members[:cut]), frozenset(members[cut:]))
    )


def mutate_move(
    problem: FusionProblem, individual: Grouping, rng: random.Random
) -> Optional[Grouping]:
    fused = [i for i, g in enumerate(individual.groups) if len(g) > 1]
    if not fused:
        return None
    source = rng.choice(fused)
    groups = individual.groups
    node = rng.choice(sorted(groups[source]))
    rest = groups[source] - {node}
    destinations = (
        [i for i in problem.mergeable_groups(groups) if i != source]
        if problem.infos[node].fusable
        else []
    )
    if destinations and rng.random() < 0.6:
        dest = rng.choice(destinations)
        return replace_groups(
            individual, (source, dest), (rest, groups[dest] | {node})
        )
    return replace_groups(individual, (source,), (rest, frozenset({node})))


def mutate_fission_toggle(
    problem: FusionProblem, individual: Grouping, rng: random.Random
) -> Optional[Grouping]:
    fissionable = [n for n in problem.fragments_of]
    if not fissionable:
        return None
    node = rng.choice(sorted(fissionable))
    split = set(individual.split)
    groups = list(individual.groups)
    if node in split:
        ensure_whole(problem, split, groups, node)
    else:
        ensure_split(problem, split, groups, node)
    return make_grouping(split, groups)


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
    for index in range(len(groups)):
        group = groups[index]
        if len(group) <= 1:
            continue
        if problem.group_smem_bytes(group) <= problem.capacity:
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
        for i, g in enumerate(groups):
            if node in g:
                groups[i] = g - {node}
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
            if problem.group_smem_bytes(candidate_group) <= problem.capacity:
                keep.add(fragment)
        for fragment in problem.fragments_of[node]:
            if fragment not in keep:
                groups.append(frozenset({fragment}))
        groups[index] = rest | keep
        split.add(node)
        fissions += 1
    return make_grouping(split, groups), fissions


def crossover(
    problem: FusionProblem,
    receiver: Grouping,
    donor: Grouping,
    rng: random.Random,
) -> Grouping:
    """Group-injection crossover: donor fused groups overwrite the receiver."""
    donor_groups = donor.fused_groups()
    if not donor_groups:
        return receiver
    count = max(1, rng.randint(1, len(donor_groups)))
    injected = rng.sample(donor_groups, count)

    injected_members: Set[str] = set()
    for group in injected:
        injected_members |= group
    # reconcile representations; a receiver that needed none keeps its
    # (vouched) group order, a reconciled one is re-sorted
    split = set(receiver.split)
    groups = list(receiver.groups)
    for node, fragments in problem.fragments_of.items():
        if node in injected_members:
            ensure_whole(problem, split, groups, node)
        elif injected_members & set(fragments):
            ensure_split(problem, split, groups, node)
    if split != receiver.split:
        receiver = Grouping(split=frozenset(split), groups=tuple(groups))
    # injected members leave the receiver's groups
    groups = receiver.groups
    overlap = list(filterfalse(injected_members.isdisjoint, groups))
    return replace_groups(
        receiver,
        [groups.index(g) for g in overlap],
        [g - injected_members for g in overlap] + injected,
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
