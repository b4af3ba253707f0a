"""GGA search tests: grouping invariants, operators, penalty, full runs."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.filtering import identify_targets
from repro.cudalite import parse_program
from repro.gpu.device import K20X
from repro.gpu.profiler import gather_metadata
from repro.search import (
    GGA,
    GAParams,
    PenaltyParams,
    build_problem,
    evaluate_individual,
    evaluate_violations,
    fast_params,
    penalized_fitness,
    projected_gflops,
    projected_time_s,
    register_objective,
    run_search,
    singleton_grouping,
)
from repro.search.grouping import Grouping, Violations
from repro.search.operators import (
    crossover,
    lazy_fission_repair,
    mutate_fission_toggle,
    mutate_merge,
    mutate_move,
    mutate_split,
    random_grouping,
)

from conftest import SEPARABLE_SRC, THREE_KERNEL_SRC


@pytest.fixture
def problem3(three_kernel_program):
    meta = gather_metadata(three_kernel_program, K20X)
    report = identify_targets(meta, K20X)
    return build_problem(three_kernel_program, meta, report, K20X).problem


@pytest.fixture
def fission_problem(separable_program):
    meta = gather_metadata(separable_program, K20X)
    report = identify_targets(meta, K20X)
    return build_problem(separable_program, meta, report, K20X).problem


def test_singleton_grouping_covers(problem3):
    individual = singleton_grouping(problem3)
    assert individual.covers(problem3)
    assert evaluate_violations(problem3, individual).feasible


def test_node_infos(problem3):
    info = problem3.info("k1@0")
    assert info.arrays_read == frozenset({"B"})
    assert info.arrays_written == frozenset({"A"})
    assert info.eligible and info.fusable
    assert info.flops > 0


def test_group_smem_estimate_positive(problem3):
    smem = problem3.group_smem_bytes({"k1@0", "k2@1"})
    assert smem > 0  # B is a locality array


def test_convexity_violation_detected():
    # a -> b -> c chain: {a, c} without b is non-convex
    source = """
__global__ void ka(double *Y, const double *X, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) { Y[i] = X[i] * 2.0; }
}
__global__ void kb(double *Z, const double *Y, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) { Z[i] = Y[i] + 1.0; }
}
__global__ void kc(double *W, const double *Z, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) { W[i] = Z[i] * Z[i]; }
}
int main() {
    int n = 128;
    double *X = cudaMalloc1D(n);
    double *Y = cudaMalloc1D(n);
    double *Z = cudaMalloc1D(n);
    double *W = cudaMalloc1D(n);
    deviceRandom(X, 3);
    dim3 grid(2, 1, 1);
    dim3 block(64, 1, 1);
    ka<<<grid, block>>>(Y, X, n);
    kb<<<grid, block>>>(Z, Y, n);
    kc<<<grid, block>>>(W, Z, n);
    return 0;
}
"""
    program = parse_program(source)
    meta = gather_metadata(program, K20X)
    report = identify_targets(meta, K20X)
    problem = build_problem(program, meta, report, K20X).problem
    bad = Grouping(
        split=frozenset(),
        groups=(
            frozenset({"ka@0", "kc@2"}),
            frozenset({"kb@1"}),
        ),
    )
    violations = evaluate_violations(problem, bad)
    assert violations.non_convex >= 1
    assert not violations.feasible


def test_full_fusion_feasible(problem3):
    good = Grouping(
        split=frozenset(),
        groups=(frozenset({"k1@0", "k2@1", "k3@2"}),),
    )
    assert evaluate_violations(problem3, good).feasible


def test_objective_prefers_fusion(problem3):
    fused = Grouping(
        split=frozenset(),
        groups=(frozenset({"k1@0", "k2@1", "k3@2"}),),
    )
    single = singleton_grouping(problem3)
    assert projected_gflops(problem3, fused, K20X) > projected_gflops(
        problem3, single, K20X
    )
    assert projected_time_s(problem3, fused, K20X) < projected_time_s(
        problem3, single, K20X
    )


def test_penalty_function():
    params = PenaltyParams()
    clean = penalized_fitness(10.0, Violations(), params)
    assert clean == 10.0
    dirty = penalized_fitness(10.0, Violations(non_convex=1), params)
    assert dirty < clean
    relaxed = penalized_fitness(
        10.0, Violations(smem_over=1, relaxable=1), params
    )
    hard = penalized_fitness(10.0, Violations(smem_over=1), params)
    assert relaxed > hard  # lazy-fission relaxation (Eq. 1's C_SM term)


def test_fission_preste_builds_fragments(fission_problem):
    assert "big@0" in fission_problem.fragments_of
    fragments = fission_problem.fragments_of["big@0"]
    assert len(fragments) == 2
    for fragment in fragments:
        info = fission_problem.info(fragment)
        assert info.parent == "big@0"


# ------------------------------------------------------------------- operators


def _rng():
    return random.Random(7)


def assert_valid(problem, individual):
    assert individual.covers(problem)
    seen = set()
    for group in individual.groups:
        assert group, "empty group"
        assert not (group & seen)
        seen |= group


def test_random_grouping_valid(problem3):
    for seed in range(10):
        individual = random_grouping(problem3, random.Random(seed))
        assert_valid(problem3, individual)


@pytest.mark.parametrize(
    "operator", [mutate_merge, mutate_split, mutate_move]
)
def test_mutations_preserve_partition(problem3, operator):
    rng = _rng()
    individual = singleton_grouping(problem3)
    for _ in range(20):
        candidate = operator(problem3, individual, rng)
        if candidate is not None:
            individual = candidate
        assert_valid(problem3, individual)


def test_fission_toggle_roundtrip(fission_problem):
    rng = _rng()
    individual = singleton_grouping(fission_problem)
    split_once = mutate_fission_toggle(fission_problem, individual, rng)
    assert split_once is not None
    assert_valid(fission_problem, split_once)
    assert len(split_once.split) == 1
    back = mutate_fission_toggle(fission_problem, split_once, rng)
    assert_valid(fission_problem, back)
    assert len(back.split) == 0


def test_crossover_preserves_partition(problem3):
    rng = _rng()
    for _ in range(20):
        a = random_grouping(problem3, rng)
        b = random_grouping(problem3, rng)
        child = crossover(problem3, a, b, rng)
        assert_valid(problem3, child)


def test_crossover_with_fragments(fission_problem):
    rng = _rng()
    for _ in range(20):
        a = random_grouping(fission_problem, rng)
        b = random_grouping(fission_problem, rng)
        child = crossover(fission_problem, a, b, rng)
        assert_valid(fission_problem, child)


def test_lazy_fission_repair_counts(fission_problem):
    # shrink the capacity so the whole-kernel group violates it
    fission_problem.capacity = 1
    rng = _rng()
    individual = singleton_grouping(fission_problem)
    repaired, fissions = lazy_fission_repair(fission_problem, individual, rng)
    # singleton groups never violate (len <= 1) so no fission is needed
    assert fissions == 0
    assert_valid(fission_problem, repaired)


# --------------------------------------------------------------------- GA runs


def test_search_finds_beneficial_fusion(problem3):
    params = fast_params()
    params.population = 16
    params.generations = 20
    result = run_search(problem3, K20X, params)
    assert evaluate_violations(problem3, result.best).feasible
    baseline = projected_time_s(problem3, singleton_grouping(problem3), K20X)
    assert baseline / result.projected_time_s > 1.0
    assert result.generations_run <= 20
    # the process-wide fitness cache may serve every lookup when an earlier
    # test already explored this problem; work done = misses + hits
    assert result.evaluations + result.cache_hits > 0


def test_search_deterministic_for_seed(problem3):
    params = fast_params(seed=99)
    params.population = 12
    params.generations = 10
    a = run_search(problem3, K20X, params)
    b = run_search(problem3, K20X, params)
    assert a.best == b.best
    assert a.best_fitness == b.best_fitness


def test_search_history_monotone(problem3):
    params = fast_params()
    params.population = 12
    params.generations = 15
    result = run_search(problem3, K20X, params)
    best = [s.best_fitness for s in result.history]
    assert all(b2 >= b1 for b1, b2 in zip(best, best[1:]))


def test_custom_objective_pluggable(problem3):
    calls = []

    def constant_objective(problem, individual, device):
        calls.append(1)
        return 1.0

    register_objective("constant-test", constant_objective)
    params = fast_params()
    params.population = 8
    params.generations = 3
    params.objective = "constant-test"
    run_search(problem3, K20X, params)
    assert calls


def test_params_file_roundtrip(tmp_path):
    params = GAParams(population=42, generations=77, seed=5)
    params.penalties = PenaltyParams(c_shared_mem=33.0)
    path = tmp_path / "ga.params"
    params.write(path)
    loaded = GAParams.read(path)
    assert loaded.population == 42
    assert loaded.generations == 77
    assert loaded.seed == 5
    assert loaded.penalties.c_shared_mem == 33.0


def test_params_file_rejects_unknown_key(tmp_path):
    from repro.errors import SearchError

    path = tmp_path / "bad.params"
    path.write_text("not_a_parameter = 3\n")
    with pytest.raises(SearchError):
        GAParams.read(path)


def test_params_file_drops_retired_keys(tmp_path):
    # files written before the evaluation pool was deleted carry these
    path = tmp_path / "old.params"
    path.write_text(
        "population = 42\nfitness_cache = True\nworkers = 4\n"
        "executor = 'process'\n"
    )
    loaded = GAParams.read(path)
    assert loaded == GAParams(population=42)
    assert not hasattr(loaded, "workers")


def _small_params(seed):
    params = fast_params(seed=seed)
    params.population = 12
    params.generations = 6
    return params


def test_gga_counts_lookups_and_memo_misses(problem3):
    gga = GGA(problem3, K20X, _small_params(5))
    ind = singleton_grouping(problem3)
    first, second = gga.evaluate_many([ind, ind])
    assert first == second and first[1] is not second[1]
    assert (gga.lookups, gga.evaluations, gga.cache_hits) == (2, 1, 1)


def test_search_result_reports_hit_rate(problem3):
    result = GGA(problem3, K20X, _small_params(5)).run()
    assert result.fitness_lookups == result.evaluations + result.cache_hits
    assert 0.0 < result.cache_hit_rate < 1.0
    last = result.history[-1]
    assert last.cache_lookups == last.evaluations + last.cache_hits


def test_gga_restart_served_from_problem_memo(problem3):
    first = GGA(problem3, K20X, _small_params(5)).run()
    assert first.evaluations > 0
    # the evaluator (and its memo) lives on the problem: same trajectory,
    # every lookup a hit
    second = GGA(problem3, K20X, _small_params(5)).run()
    assert second.evaluations == 0
    assert second.cache_hit_rate == 1.0
    assert second.best == first.best
    assert second.best_fitness == first.best_fitness
    assert [s.best_fitness for s in second.history] == [
        s.best_fitness for s in first.history
    ]


def test_evaluate_individual_direct(problem3):
    fitness, violations = evaluate_individual(
        problem3,
        singleton_grouping(problem3),
        K20X,
        projected_gflops,
        PenaltyParams(),
    )
    assert fitness > 0
    assert violations.feasible


def test_projection_memo_separates_devices_sharing_a_name(problem3):
    """The per-problem projection memo is keyed on the whole DeviceSpec: a
    spec that keeps K20X's name but not its bandwidth must not be served
    K20X's time (it was, when the key was ``device.name``)."""
    from dataclasses import replace

    from repro.search import group_projection_time
    from repro.search.objective import clear_projection_caches

    group = singleton_grouping(problem3).groups[0]
    starved = replace(K20X, peak_bandwidth_gbs=1.0)
    assert starved.name == K20X.name
    clear_projection_caches(problem3)
    fast = group_projection_time(problem3, group, K20X)
    slow = group_projection_time(problem3, group, starved)
    clear_projection_caches(problem3)
    assert slow == group_projection_time(problem3, group, starved)
    assert slow > 10 * fast
    assert group_projection_time(problem3, group, K20X) == fast


def test_problem_fingerprint_stable(problem3):
    assert problem3.fingerprint() == problem3.fingerprint()
    assert len(problem3.fingerprint()) == 64


def test_default_params_match_paper():
    params = GAParams()
    assert params.population == 100
    assert params.generations == 500
