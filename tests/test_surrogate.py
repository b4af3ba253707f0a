"""Surrogate pre-filter tests.

Covers the analytic-model-only surrogate that ranks bred offspring before
exact evaluation (``GAParams.surrogate_topk``): the telemetry audit,
delta scoring, variant materialization, inverted-ordering recovery by
exact evaluation, the Spearman rank correlation and the config knob.
"""

import random

import pytest

from repro.analysis.filtering import identify_targets
from repro.api import TransformConfig
from repro.apps import build_app
from repro.cudalite import parse_program
from repro.errors import ConfigError
from repro.gpu.device import K20X
from repro.gpu.profiler import gather_metadata
from repro.observability.search_telemetry import (
    read_jsonl,
    search_telemetry_rows,
    write_jsonl,
)
from repro.search import (
    GAParams,
    GGA,
    build_problem,
    evaluate_individual,
    evaluate_violations,
    run_search,
    singleton_grouping,
)
from repro.search.grouping import Grouping
from repro.search.objective import (
    get_objective,
    spearman_rank_correlation,
    surrogate_score,
    surrogate_scorer,
)
from repro.search.operators import random_grouping


#: a -> b -> c elementwise chain; fusing {ka, kc} around kb is non-convex
CHAIN_SRC = """
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


def _problem_from(source: str):
    program = parse_program(source)
    meta = gather_metadata(program, K20X)
    report = identify_targets(meta, K20X)
    return build_problem(program, meta, report, K20X).problem


@pytest.fixture(scope="module")
def fluam_problem():
    generated = build_app("Fluam", scale=0.5)
    meta = gather_metadata(generated.program, K20X)
    report = identify_targets(meta, K20X)
    return build_problem(generated.program, meta, report, K20X).problem


@pytest.fixture
def problem3(three_kernel_program):
    meta = gather_metadata(three_kernel_program, K20X)
    report = identify_targets(meta, K20X)
    return build_problem(three_kernel_program, meta, report, K20X).problem


@pytest.fixture(scope="module")
def chain_problem():
    return _problem_from(CHAIN_SRC)


def _trajectory(result):
    return [
        (s.generation, s.best_fitness, s.best_feasible_fitness,
         s.mean_fitness, s.std_fitness, s.feasible_count, s.fissions)
        for s in result.history
    ]


# ------------------------------------------------------------- defaults


def test_run_search_defaults_leave_the_prefilter_off(problem3):
    params = GAParams(population=8, generations=5, seed=2)
    assert params.surrogate_topk == 1.0
    via_run = run_search(problem3, K20X, params)
    direct = GGA(problem3, K20X, params).run()
    assert via_run.best == direct.best
    assert _trajectory(via_run) == _trajectory(direct)


# ----------------------------------------------------------- surrogate


def test_surrogate_prefilter_and_rank_correlation_jsonl(
    fluam_problem, tmp_path
):
    params = GAParams(
        population=16, generations=10, seed=7, surrogate_topk=0.5,
    )
    result = run_search(fluam_problem, K20X, params)
    assert result.surrogate_skipped > 0
    path = tmp_path / "search_telemetry.jsonl"
    write_jsonl(str(path), search_telemetry_rows(result))
    rows = read_jsonl(str(path))
    generations = [r for r in rows if r["type"] == "generation"]
    # post-init generations breed a candidate pool and admit a slice
    screened = [r for r in generations if r["surrogate_candidates"] > 0]
    assert screened
    assert all(
        r["surrogate_admitted"] <= r["surrogate_candidates"] for r in screened
    )
    # the per-generation surrogate-vs-exact audit is emitted
    audited = [
        r["surrogate_rank_correlation"]
        for r in generations
        if r["surrogate_rank_correlation"] is not None
    ]
    assert audited, "no generation emitted a surrogate rank correlation"
    summary = next(r for r in rows if r["type"] == "search_summary")
    assert summary["surrogate_skipped"] == result.surrogate_skipped
    assert summary["surrogate_rank_correlation"] is not None


def test_surrogate_inverted_ordering_recovered_by_exact(chain_problem):
    # the surrogate skips convexity: fusing {ka, kc} around kb looks
    # *better* than the honest singletons to the model alone ...
    objective = get_objective("projected_gflops")
    penalties = GAParams().penalties
    non_convex = Grouping(
        split=frozenset(),
        groups=(frozenset({"ka@0", "kc@2"}), frozenset({"kb@1"})),
    )
    assert evaluate_violations(chain_problem, non_convex).non_convex >= 1
    honest = singleton_grouping(chain_problem)
    scorer = surrogate_scorer(chain_problem, K20X, objective, penalties)
    assert scorer.score(non_convex) > scorer.score(honest)
    # ... but once both are admitted, exact evaluation inverts the order
    exact_bad, _ = evaluate_individual(
        chain_problem, non_convex, K20X, objective, penalties
    )
    exact_good, _ = evaluate_individual(
        chain_problem, honest, K20X, objective, penalties
    )
    assert exact_bad < exact_good
    # end to end: a surrogate-filtered search still lands on a feasible
    # best because admitted candidates are ranked by exact fitness
    params = GAParams(population=8, generations=6, seed=1, surrogate_topk=0.5)
    result = run_search(chain_problem, K20X, params)
    assert evaluate_violations(chain_problem, result.best).feasible


def test_surrogate_score_from_components_consistent(fluam_problem):
    params = GAParams()
    scorer = surrogate_scorer(
        fluam_problem, K20X, get_objective(params.objective), params.penalties
    )
    rng = random.Random(13)
    for _ in range(10):
        individual = random_grouping(fluam_problem, rng)
        via_components = scorer.score_from(scorer.components(individual))
        direct = scorer.score(individual)
        assert via_components == pytest.approx(direct, rel=1e-9)
        assert direct == pytest.approx(
            surrogate_score(
                fluam_problem, individual, K20X,
                get_objective(params.objective), params.penalties,
            ),
            rel=1e-9,
        )


def test_surrogate_variants_materialize_consistently(fluam_problem):
    params = GAParams()
    scorer = surrogate_scorer(
        fluam_problem, K20X, get_objective(params.objective), params.penalties
    )
    rng = random.Random(99)
    checked = 0
    for _ in range(5):
        parent = random_grouping(fluam_problem, rng)
        parts = scorer.components(parent)
        for variant in scorer.variants(parent, parts, rng, 4):
            child = variant.materialize()
            # the materialized child is a valid partition of the problem
            members = [m for g in child.partition(fluam_problem) for m in g]
            assert sorted(members) == sorted(
                m for g in parent.partition(fluam_problem) for m in g
            )
            # the incremental delta score equals a fresh full rescan
            fresh = scorer.score_from(scorer.components(child))
            assert variant.score == pytest.approx(fresh, rel=1e-9, abs=1e-12)
            checked += 1
    assert checked > 0


# ------------------------------------------------------------- spearman


def test_spearman_basic():
    assert spearman_rank_correlation([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)
    assert spearman_rank_correlation([1, 2, 3], [30, 20, 10]) == pytest.approx(-1.0)


def test_spearman_ties_and_degenerate():
    rho = spearman_rank_correlation([1, 1, 2, 3], [1, 1, 2, 3])
    assert rho == pytest.approx(1.0)
    assert spearman_rank_correlation([1], [2]) is None
    assert spearman_rank_correlation([1, 1, 1], [1, 2, 3]) is None
    from repro.errors import SearchError

    with pytest.raises(SearchError):
        spearman_rank_correlation([1, 2], [1])


# ------------------------------------------------------------ config API


def test_transform_config_surrogate_knob():
    params = TransformConfig(surrogate_topk=0.5).resolved_ga_params()
    assert params.surrogate_topk == 0.5
    # None defers to the GA parameter set defaults
    defaults = TransformConfig().resolved_ga_params()
    assert defaults.surrogate_topk == GAParams().surrogate_topk


def test_transform_config_surrogate_validation():
    with pytest.raises(ConfigError):
        TransformConfig(surrogate_topk=0.0)
    with pytest.raises(ConfigError):
        TransformConfig(surrogate_topk=1.5)
