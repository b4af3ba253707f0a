"""Optimization package: grouped GA with lazy fission (GGA)."""

from .gga import GGA, GenerationStats, SearchResult, run_search
from .grouping import (
    NOMINAL_BLOCK,
    FusionProblem,
    Grouping,
    NodeInfo,
    Violations,
    evaluate_violations,
    singleton_grouping,
)
from .objective import (
    evaluate_individual,
    get_objective,
    group_projection_time,
    group_volume,
    projected_gflops,
    projected_time_s,
    register_objective,
    spearman_rank_correlation,
    surrogate_score,
    surrogate_scorer,
    SurrogateScorer,
    SurrogateVariant,
)
from .operators import (
    crossover,
    lazy_fission_repair,
    mutate,
    mutate_fission_toggle,
    mutate_merge,
    mutate_move,
    mutate_split,
    random_grouping,
)
from .params import GAParams, default_params, fast_params
from .penalty import PenaltyParams, penalized_fitness
from .problem_builder import BuiltProblem, CodegenBinding, build_problem

__all__ = [
    "FusionProblem", "NodeInfo", "Grouping", "Violations",
    "evaluate_violations", "singleton_grouping", "NOMINAL_BLOCK",
    "GGA", "run_search", "SearchResult", "GenerationStats",
    "projected_gflops", "projected_time_s", "group_volume",
    "group_projection_time", "register_objective", "get_objective",
    "evaluate_individual", "surrogate_score", "spearman_rank_correlation",
    "surrogate_scorer", "SurrogateScorer", "SurrogateVariant",
    "GAParams", "default_params", "fast_params",
    "PenaltyParams", "penalized_fitness",
    "build_problem", "BuiltProblem", "CodegenBinding",
    "crossover", "mutate", "mutate_merge", "mutate_split", "mutate_move",
    "mutate_fission_toggle", "lazy_fission_repair", "random_grouping",
    "reset_shared_cache",
]


def reset_shared_cache() -> None:
    """No-op, kept so ``benchmarks/e2e`` (frozen in the PR that deleted
    the process-wide fitness cache) still imports.  Fitness memos live on
    the problem instance now, so a new problem starts cold by itself.
    A follow-up ``benchmark`` issue drops the import, then this."""
