"""Differential test: the compiled fitness evaluator against its oracle.

``CompiledFitness.evaluate`` is the one production path from the GGA to
a fitness value; ``evaluate_individual_reference`` is the direct,
memo-free evaluation kept as its oracle.  They must agree bit for bit on
every individual the search operators can produce.

The compiled path answers feasibility from integer masks and tests the
scheduling cycle over fused groups only; the reference walks sets and
builds a condensation graph over every group.  The hypothesis sweep
and the hand-built cycle cases below hold the two to the same
``Violations``, field by field.
"""

import random
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.filtering import identify_targets
from repro.apps import build_app
from repro.cudalite import parse_program
from repro.fuzz.appgen import generate_app
from repro.gpu.device import K20X
from repro.gpu.profiler import gather_metadata
from repro.search import (
    GGA,
    FusionProblem,
    GAParams,
    Grouping,
    NodeInfo,
    PenaltyParams,
    build_problem,
    evaluate_violations,
    projected_gflops,
    register_objective,
    singleton_grouping,
)
from repro.search.grouping import MergeableGroups
from repro.search.objective import (
    CompiledFitness,
    SurrogateScorer,
    clear_compiled_fitness,
    evaluate_individual_reference,
    get_objective,
    summation_order,
)
from repro.search.operators import (
    crossover,
    lazy_fission_repair,
    mutate,
    mutate_fission_toggle,
    mutate_merge,
    mutate_move,
    mutate_split,
    random_grouping,
)

from conftest import SEPARABLE_SRC, THREE_KERNEL_SRC

#: (merge, split, move, fission-toggle) — harsher than the GA defaults so
#: mutation chains wander far from the random starting points
RATES = (0.6, 0.4, 0.5, 0.5)

PROGRAMS = {
    "three-kernel": lambda: parse_program(THREE_KERNEL_SRC),
    # the one fixture with a fissionable kernel: fragments, split sets
    "separable": lambda: parse_program(SEPARABLE_SRC),
    "Fluam": lambda: build_app("Fluam", scale=0.5).program,
    "SCALE-LES": lambda: build_app("SCALE-LES", scale=0.5).program,
    "fuzz000003": lambda: generate_app(3).program,
    "fuzz000016": lambda: generate_app(16).program,
}


def _group_spread(problem, individual, device):
    """A custom objective with no additive structure to shortcut."""
    sizes = sorted(len(group) for group in individual.partition(problem))
    return 50.0 + sum(i * size for i, size in enumerate(sizes)) / len(problem.infos)


register_objective("test-group-spread", _group_spread)


@pytest.fixture(scope="module", params=sorted(PROGRAMS))
def problem(request):
    program = PROGRAMS[request.param]()
    meta = gather_metadata(program, K20X)
    report = identify_targets(meta, K20X)
    return build_problem(program, meta, report, K20X).problem


def _individuals(problem, count, seed):
    """Seeded random, mutated and lazy-fission-repaired groupings."""
    rng = random.Random(seed)
    out = [singleton_grouping(problem)]
    while len(out) < count:
        individual = random_grouping(problem, rng)
        out.append(individual)
        for _ in range(3):
            individual = mutate(problem, individual, rng, RATES)
            out.append(individual)
        repaired, _ = lazy_fission_repair(problem, individual, rng)
        out.append(repaired)
    return out[:count]


#: individuals compared per (problem, objective): 6 x 2 x 200 = 2400
PER_CASE = 200


@pytest.mark.parametrize("objective_name", ["projected_gflops", "test-group-spread"])
def test_compiled_equals_reference_bitwise(problem, objective_name):
    objective = get_objective(objective_name)
    penalties = PenaltyParams()
    compiled = CompiledFitness(problem, K20X, objective, penalties)
    individuals = _individuals(problem, PER_CASE, seed=20150615)
    assert len(individuals) == PER_CASE
    infeasible = 0
    for individual in individuals:
        assert individual.covers(problem)
        expected = evaluate_individual_reference(
            problem, individual, K20X, objective, penalties
        )
        got = compiled.evaluate(individual)
        assert got[0] == expected[0]  # float ==, not approx
        assert got[1] == expected[1]
        infeasible += not expected[1].feasible
    # the sample exercises the penalty side, not only the objective sum
    if len(problem.infos) > 3:
        assert infeasible > 0


def test_repeated_call_returns_a_fresh_violations_record(problem):
    compiled = CompiledFitness(problem, K20X, projected_gflops, PenaltyParams())
    individual = _individuals(problem, 8, seed=3)[-1]
    first = compiled.lookup(individual)
    second = compiled.lookup(individual)
    # the evaluator's own answer: computed, then served from the memo
    assert (first[2], second[2]) == (False, True)
    first, second = first[:2], second[:2]
    assert second == first
    assert second[1] is not first[1]
    # a caller scribbling on its record cannot corrupt the memo
    second[1].unfusable += 7
    assert compiled.evaluate(individual) == first


def test_results_unchanged_across_the_memo_reset(problem, monkeypatch):
    # both bounds far below the sample: the per-individual memo and the
    # split entries (each owning its groups' masks) turn over repeatedly
    monkeypatch.setattr(CompiledFitness, "MAX_INDIVIDUALS", 7)
    monkeypatch.setattr(CompiledFitness, "MAX_SPLITS", 1)
    compiled = CompiledFitness(problem, K20X, projected_gflops, PenaltyParams())
    individuals = _individuals(problem, 40, seed=11)
    reference = [
        evaluate_individual_reference(
            problem, individual, K20X, projected_gflops, PenaltyParams()
        )
        for individual in individuals
    ]
    for _ in range(2):
        assert [compiled.evaluate(individual) for individual in individuals] == reference
        assert len(compiled._eval_cache) <= 8
        assert len(compiled._split_cache) <= 2


# ------------------------------------------------- masks vs. the set-walk oracle


def _with_precedence(problem):
    """The same nodes under programmer-supplied OEG edges: every third
    launch must precede the one four launches later (extra precedence),
    and one pair contradicts launch order (a user conflict)."""
    nodes = sorted(problem.infos.values(), key=lambda info: info.order)
    whole = [info.node for info in nodes if info.parent is None]
    extra = [(whole[i], whole[i + 4]) for i in range(0, len(whole) - 4, 3)]
    extra.append((whole[-1], whole[0]))
    return FusionProblem(nodes, problem.capacity, extra_precedence=extra)


def _build(program):
    meta = gather_metadata(program, K20X)
    return build_problem(program, meta, identify_targets(meta, K20X), K20X).problem


_SWEEP = {}


def _sweep_case(name):
    """``(problem, compiled evaluator)``, built once per sweep case."""
    if name not in _SWEEP:
        app, _, variant = name.partition("+")
        base = {
            "separable": lambda: _build(parse_program(SEPARABLE_SRC)),
            # four fissionable launches: fragments, splits, lazy repairs
            "B-CALM": lambda: _build(build_app("B-CALM", scale=0.5).program),
            "fuzz000016": lambda: _build(generate_app(16).program),
        }[app]()
        problem = _with_precedence(base) if variant else base
        objective = get_objective("test-group-spread")
        _SWEEP[name] = (
            problem, CompiledFitness(problem, K20X, objective, PenaltyParams())
        )
    return _SWEEP[name]


def _random_partition(problem, rng):
    """A partition no operator shaped: random splits, random cells."""
    split = {node for node in problem.fragments_of if rng.random() < 0.5}
    active = Grouping(frozenset(split), ()).active_nodes(problem)
    cells = max(1, int(len(active) * rng.random()))
    groups = {}
    for node in active:
        groups.setdefault(rng.randrange(cells), set()).add(node)
    return Grouping(frozenset(split), [frozenset(g) for g in groups.values()])


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(
        [app + variant for app in ("separable", "B-CALM", "fuzz000016")
         for variant in ("", "+precedence")]
    ),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_mask_violations_equal_reference_field_by_field(name, seed):
    problem, compiled = _sweep_case(name)
    rng = random.Random(seed)
    bred = random_grouping(problem, rng)
    other = _random_partition(problem, rng)
    sample = [other, bred]
    for _ in range(3):
        bred = mutate(problem, crossover(problem, bred, other, rng), rng, RATES)
        sample.append(bred)
        other = mutate(problem, other, rng, RATES)
        sample.append(other)
    sample.append(lazy_fission_repair(problem, bred, rng)[0])
    for individual in sample:
        assert individual.covers(problem)
        got = compiled.evaluate(individual)[1]
        assert asdict(got) == asdict(evaluate_violations(problem, individual))


def _dag_problem(order, edges):
    """Hand-built problem: nodes in launch ``order``, one RAW edge ``u -> v``
    per pair (a private array written by ``u`` and read by ``v``)."""
    nodes = []
    for index, name in enumerate(order):
        reads = frozenset(f"{u}>{v}" for u, v in edges if v == name)
        writes = frozenset(f"{u}>{v}" for u, v in edges if u == name)
        nodes.append(
            NodeInfo(
                node=name, kernel=name, order=float(index), eligible=True,
                fusable=True, fissionable=False, arrays_read=reads,
                arrays_written=writes,
                points_per_array={a: 64 for a in reads | writes},
                flops=64.0, flops_per_point=1.0,
                radius={a: 0 for a in reads | writes},
                extents=(64, 1, 1), grid=(1, 1, 1), block=(64, 1, 1),
            )
        )
    return FusionProblem(nodes, shared_mem_capacity=48 * 1024)


#: the cases the fused-groups-only cycle test rests on:
#: name -> (launch order, edges, fused groups, expected non_convex)
CYCLE_CASES = {
    # G1 = {a, d} and G2 = {b, c} are each convex; G1 -> G2 directly and
    # G2 -> G1 only through the singleton s
    "deadlock-through-a-singleton": (
        "a b c s d", [("a", "b"), ("c", "s"), ("s", "d")],
        [{"a", "d"}, {"b", "c"}], 2,
    ),
    # G1 -> G3 -> G2 -> G1 where G3 is entered at b and left from c, and
    # no node-level path runs from b to c: only the closure finds it
    "through-a-third-group-with-unrelated-entry-and-exit": (
        "a b c d e f", [("a", "b"), ("c", "d"), ("e", "f")],
        [{"a", "f"}, {"b", "c"}, {"d", "e"}], 3,
    ),
    # a -> s -> t -> d leaves {a, d} and re-enters it through singletons
    # alone: no second fused group, so it must surface as non-convexity
    "through-singletons-only": (
        "a s t d", [("a", "s"), ("s", "t"), ("t", "d")],
        [{"a", "d"}], 1,
    ),
    # the same shape with the cycle broken: fused groups in a chain
    "acyclic-chain-of-fused-groups": (
        "a b c d e f", [("a", "b"), ("b", "c"), ("c", "d"), ("e", "f")],
        [{"a", "b"}, {"c", "d"}, {"e", "f"}], 0,
    ),
    # a cyclic pair must not taint a fused group downstream of it
    "bystander-below-a-cycle": (
        "a b c d e f", [("a", "b"), ("c", "d"), ("d", "e"), ("e", "f")],
        [{"a", "d"}, {"b", "c"}, {"e", "f"}], 2,
    ),
}


@pytest.mark.parametrize("case", sorted(CYCLE_CASES))
def test_fused_only_cycle_test_matches_the_condensation(case):
    order, edges, fused, expected = CYCLE_CASES[case]
    problem = _dag_problem(order.split(), edges)
    grouped = set().union(*fused)
    individual = Grouping(
        frozenset(),
        [frozenset(g) for g in fused]
        + [frozenset({n}) for n in order.split() if n not in grouped],
    )
    assert individual.covers(problem)
    reference = evaluate_violations(problem, individual)
    assert reference.non_convex == expected
    compiled = CompiledFitness(
        problem, K20X, get_objective("test-group-spread"), PenaltyParams()
    )
    assert asdict(compiled.evaluate(individual)[1]) == asdict(reference)


# ------------------------------------------------ the lazy mergeable sequence


def test_mergeable_view_equals_the_materialized_sequence(problem):
    """The operators draw by position from ``MergeableGroups``; it must
    be the sequence the full partition's mergeable groups form, in the
    order the partition is listed (launch order for the identity), with
    ``exclude`` removed, and ``sharing`` must keep those that share an
    array — what the operators built from every group before individuals
    stopped listing singletons."""
    checked = 0
    for individual in _individuals(problem, 60, seed=5):
        full = [
            g for g in summation_order(problem, individual)
            if problem.mergeable.issuperset(g)
        ]
        view = MergeableGroups(problem, individual)
        assert list(view) == full
        assert [view[i] for i in range(-len(full), len(full))] == full + full
        for first in full:
            others = [g for g in full if g != first]
            excluded = MergeableGroups(problem, individual, exclude=first)
            assert list(excluded) == others
            arrays = set().union(*(problem.touched[m] for m in first))
            assert excluded.sharing(first) == [
                g for g in others
                if any(not problem.touched[m].isdisjoint(arrays) for m in g)
            ]
            checked += 1
        for group in individual.groups:
            if group not in full:
                excluded = MergeableGroups(problem, individual, exclude=group)
                assert list(excluded) == full
    if problem.mergeable:
        assert checked > 0


# ---------------------------------------------------- canonical by construction


def test_every_operator_returns_its_groups_in_canonical_order(problem):
    """An individual stores its fused groups only; the order is a
    contract (memo keys, float summation order), so whatever an operator
    returns must equal, and hash like, the individual built from its full
    partition, and the partition must be in canonical order — also when
    the input is the launch-ordered ``singleton_grouping``."""
    rng = random.Random(20150615)
    scorer = SurrogateScorer(problem, K20X, projected_gflops, PenaltyParams())
    produced = []
    parents = [singleton_grouping(problem)] + [
        random_grouping(problem, rng) for _ in range(6)
    ]
    for _ in range(4):
        children = []
        for parent in parents:
            mate = parents[rng.randrange(len(parents))]
            child = crossover(problem, parent, mate, rng)
            if child is not parent:  # a donor without fused groups: no-op
                children.append(child)
            for operator in (
                mutate_merge, mutate_split, mutate_move, mutate_fission_toggle
            ):
                child = operator(problem, parent, rng)
                if child is not None:
                    children.append(child)
            children.append(lazy_fission_repair(problem, parent, rng)[0])
            children.extend(
                variant.materialize()
                for variant in scorer.variants(
                    parent, scorer.components(parent), rng, 3
                )
            )
        produced.extend(children)
        parents = [singleton_grouping(problem)] + rng.sample(children, 6)
    assert len(produced) > 100
    for individual in produced:
        assert individual.covers(problem)
        partition = individual.partition(problem)
        assert partition == sorted(partition, key=min)
        assert individual == Grouping(individual.split, partition)
        assert hash(individual) == hash(Grouping(individual.split, partition))


# ------------------------------------------------------- turnover during a run


def test_cache_turnover_mid_run_keeps_results_and_accounting(problem, monkeypatch):
    params = GAParams(population=16, generations=6, seed=7)

    def run():
        clear_compiled_fitness(problem)
        gga = GGA(problem, K20X, params)
        return gga, gga.run()

    _, calm = run()
    # the individual memo now holds fewer entries than one generation
    # evaluates, and every new split evicts the others with their masks
    monkeypatch.setattr(CompiledFitness, "MAX_INDIVIDUALS", 10)
    monkeypatch.setattr(CompiledFitness, "MAX_SPLITS", 0)
    gga, churned = run()
    clear_compiled_fitness(problem)
    assert len(gga.fitness._eval_cache) <= 11
    for result in (calm, churned):
        assert result.fitness_lookups == result.cache_hits + result.evaluations
        for row in result.history:
            assert row.cache_lookups == row.cache_hits + row.evaluations
    assert churned.fitness_lookups == calm.fitness_lookups
    if calm.evaluations > 11:
        # more distinct individuals than the memo holds: it turned over,
        # and survivors looked up again afterwards were recomputed
        assert churned.evaluations > calm.evaluations
    assert churned.best == calm.best
    assert churned.best_fitness == calm.best_fitness
    assert [
        (r.best_fitness, r.mean_fitness, r.fissions, r.feasible_count)
        for r in churned.history
    ] == [
        (r.best_fitness, r.mean_fitness, r.fissions, r.feasible_count)
        for r in calm.history
    ]
