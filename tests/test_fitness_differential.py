"""Differential test: the compiled fitness evaluator against its oracle.

``CompiledFitness.evaluate`` is the one production path from the GGA to
a fitness value; ``evaluate_individual_reference`` is the direct,
memo-free evaluation kept as its oracle.  They must agree bit for bit on
every individual the search operators can produce.
"""

import random

import pytest

from repro.analysis.filtering import identify_targets
from repro.apps import build_app
from repro.cudalite import parse_program
from repro.fuzz.appgen import generate_app
from repro.gpu.device import K20X
from repro.gpu.profiler import gather_metadata
from repro.search import (
    PenaltyParams,
    build_problem,
    projected_gflops,
    register_objective,
    singleton_grouping,
)
from repro.search.objective import (
    CompiledFitness,
    evaluate_individual_reference,
    get_objective,
)
from repro.search.operators import lazy_fission_repair, mutate, random_grouping

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
    sizes = sorted(len(group) for group in individual.groups)
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
    assert individual not in compiled
    first = compiled.evaluate(individual)
    assert individual in compiled
    second = compiled.evaluate(individual)
    assert second == first
    assert second[1] is not first[1]
    # a caller scribbling on its record cannot corrupt the memo
    second[1].unfusable += 7
    assert compiled.evaluate(individual) == first


def test_results_unchanged_across_the_memo_reset(problem):
    compiled = CompiledFitness(problem, K20X, projected_gflops, PenaltyParams())
    individuals = _individuals(problem, 40, seed=11)
    before = [compiled.evaluate(individual) for individual in individuals]
    # fill the per-individual memo past its 65 536-entry bound; the next
    # miss clears it (the per-group memos survive)
    compiled._eval_cache.update((filler, None) for filler in range(65537))
    del compiled._eval_cache[individuals[0]]
    assert compiled.evaluate(individuals[0]) == before[0]
    assert list(compiled._eval_cache) == [individuals[0]]
    assert [compiled.evaluate(individual) for individual in individuals] == before
