"""Search telemetry: the GGA's machine-readable trajectory.

The search stage's prose report ("converged at generation 12") is for
humans; this module persists the underlying per-generation record as
``search_telemetry.jsonl`` — one JSON object per line, one line per GGA
generation, plus a trailing summary row — so convergence behaviour,
penalty pressure and memo effectiveness can be plotted and
regression-tracked across runs.

Row schema (``type == "generation"``)::

    generation, best_fitness, best_feasible_fitness, mean_fitness,
    std_fitness, feasible_count, penalty_activations, fissions,
    cache_hits, cache_lookups, evaluations,
    surrogate_candidates, surrogate_admitted,
    surrogate_rank_correlation, elapsed_s

The cumulative evaluator counters (``cache_hits`` …) are sampled at the
end of each generation, so per-generation deltas are recoverable by
differencing consecutive rows; generations run consecutively from 0.
``surrogate_rank_correlation`` is the
per-generation Spearman rho between the analytic-model-only surrogate
scores and the exact penalized fitness of the admitted offspring
(``null`` when the pre-filter is off or the sample is degenerate).
"""

from __future__ import annotations

import json
import math
from typing import Dict, Iterable, List, Optional


def generation_row(stats: object) -> Dict[str, object]:
    """One JSONL row from a :class:`~repro.search.gga.GenerationStats`."""

    def clean(value: float) -> Optional[float]:
        return None if isinstance(value, float) and math.isnan(value) else value

    return {
        "type": "generation",
        "generation": stats.generation,
        "best_fitness": clean(stats.best_fitness),
        "best_feasible_fitness": clean(stats.best_feasible_fitness),
        "mean_fitness": clean(stats.mean_fitness),
        "std_fitness": clean(stats.std_fitness),
        "feasible_count": stats.feasible_count,
        "penalty_activations": stats.penalty_activations,
        "fissions": stats.fissions,
        "cache_hits": stats.cache_hits,
        "cache_lookups": stats.cache_lookups,
        "evaluations": stats.evaluations,
        "surrogate_candidates": getattr(stats, "surrogate_candidates", 0),
        "surrogate_admitted": getattr(stats, "surrogate_admitted", 0),
        "surrogate_rank_correlation": clean(
            getattr(stats, "surrogate_rank_correlation", float("nan"))
        ),
        "elapsed_s": getattr(stats, "elapsed_s", 0.0),
    }


def search_summary_row(result: object) -> Dict[str, object]:
    """Trailing summary row from a :class:`~repro.search.gga.SearchResult`."""
    return {
        "type": "search_summary",
        "generations_run": result.generations_run,
        "converged_at": result.converged_at,
        "best_fitness": result.best_fitness,
        "projected_time_s": result.projected_time_s,
        "evaluations": result.evaluations,
        "cache_hits": result.cache_hits,
        "fitness_lookups": result.fitness_lookups,
        "cache_hit_rate": result.cache_hit_rate,
        "avg_fissions_per_generation": result.avg_fissions_per_generation,
        "fused_group_count": result.fused_group_count,
        "new_kernel_count": result.new_kernel_count,
        "surrogate_skipped": getattr(result, "surrogate_skipped", 0),
        "surrogate_rank_correlation": _clean_nan(
            getattr(result, "surrogate_rank_correlation", float("nan"))
        ),
        "wall_time_s": getattr(result, "wall_time_s", 0.0),
    }


def _clean_nan(value: float) -> Optional[float]:
    return None if isinstance(value, float) and math.isnan(value) else value


def search_telemetry_rows(result: object) -> List[Dict[str, object]]:
    """Full JSONL payload for one search: generation rows + summary."""
    rows = [generation_row(stats) for stats in result.history]
    rows.append(search_summary_row(result))
    return rows


def write_jsonl(path: str, rows: Iterable[Dict[str, object]], append: bool = False) -> None:
    """Write (or append) rows as JSON Lines."""
    with open(path, "a" if append else "w") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True))
            fh.write("\n")


def read_jsonl(path: str) -> List[Dict[str, object]]:
    """Load a JSONL file (schema checks, tests)."""
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                rows.append(json.loads(line))
    return rows
