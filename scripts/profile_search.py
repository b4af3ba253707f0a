#!/usr/bin/env python
"""Attribute the ``search-paper-budget`` op of ``benchmarks/e2e``, then profile it.

One command, the bench's own source, data seed and GA seed (imported from
``benchmarks/e2e/workloads.py``, not copied).  First an unprofiled, traced
run splits the search's seconds by span: breeding (``breed``), exact
evaluation (the ``exact_s`` the ``eval`` spans carry: fitness-memo
misses), memo hits and bookkeeping (the rest of the ``eval`` spans) and
what is left of each generation; then the part of the exact evaluation
that scored groups new to the problem (the ``eval`` spans' ``new_groups``
and ``group_terms_s``: count, seconds, share, µs per group) and the mean
groups and fused groups per individual of the final population.  Then, unless
``--top 0``, the same op under cProfile, top-N functions by self time.
cProfile inflates call-heavy Python and not native code, so use it to
find candidates and ``benchmarks/e2e/run.py --workload
search-paper-budget`` (profiling off) to measure them.

Usage::

    python3 scripts/profile_search.py [--top 25] [--generations 500]
        [--seed 20150615] [--sort tottime|cumtime]
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--top", type=int, default=25,
                        help="cProfile rows (0: attribution only)")
    parser.add_argument("--generations", type=int, default=None,
                        help="override the paper's 500 (shorter profiles)")
    parser.add_argument("--seed", type=int, default=None,
                        help="bench data seed (default: the bench's own)")
    parser.add_argument("--sort", choices=("tottime", "cumtime"), default="tottime")
    args = parser.parse_args()

    # the bench finds src/ the same way; its directory goes first because
    # it carries a local module named ``trace``
    sys.path[:0] = [str(REPO / "benchmarks" / "e2e"), str(REPO / "src")]
    import run as bench_run
    import workloads
    from repro.api import transform
    from repro.observability.tracing import get_tracer
    from repro.search import GAParams

    seed = bench_run.DEFAULT_SEED if args.seed is None else args.seed
    source = workloads.app_source("Fluam", seed, smoke=False)
    params = GAParams(seed=workloads.PINNED_GA_SEED)
    if args.generations is not None:
        params.generations = args.generations

    def search_op():
        return transform(
            source, store=False, verify=False, verify_groups=False,
            ga_params=params, telemetry=True,
        )

    tracer = get_tracer()
    tracer.clear()
    result = search_op()
    spans = tracer.spans()
    search = result.state.search

    def seconds(name_test) -> float:
        return sum(s.duration_us for s in spans if name_test(s.name)) / 1e6

    breed_s = seconds(lambda name: name == "breed")
    eval_s = seconds(lambda name: name == "eval")
    def total(field: str) -> float:
        return sum(s.args.get(field, 0) for s in spans if s.name == "eval")

    exact_s = total("exact_s")
    new_groups = total("new_groups")
    terms_s = total("group_terms_s")
    generations_s = seconds(lambda name: name.startswith("gga:gen:"))
    population = search.final_population
    problem = result.state.built.problem
    groups = sum(len(i.partition(problem)) for i in population) / len(population)
    fused = sum(len(i.groups) for i in population) / len(population)
    print(
        f"# search-paper-budget op: data seed {seed}, GA seed {params.seed}, "
        f"{params.population} x {search.generations_run} generations\n"
        f"# evaluations {search.evaluations}  fitness_lookups {search.fitness_lookups}  "
        f"converged_at {search.converged_at}  best_fitness {search.best_fitness!r}\n"
        f"# search wall {search.wall_time_s:.2f} s: breed {breed_s:.2f} s, "
        f"exact evaluation {exact_s:.2f} s, memo hits + bookkeeping "
        f"{eval_s - exact_s:.2f} s, rest of the generations "
        f"{generations_s - breed_s - eval_s:.2f} s\n"
        f"# new groups scored in exact evaluation: {new_groups}, "
        f"{terms_s:.2f} s ({terms_s / max(exact_s, 1e-12):.0%} of it), "
        f"{terms_s / max(new_groups, 1) * 1e6:.1f} us per group\n"
        f"# per individual (final population of {len(population)}): "
        f"{groups:.1f} groups, {fused:.1f} fused"
    )
    if args.top <= 0:
        return 0

    profiler = cProfile.Profile()
    search = profiler.runcall(search_op).state.search
    print(f"# search wall (profiled) {search.wall_time_s:.2f} s")
    pstats.Stats(profiler).strip_dirs().sort_stats(args.sort).print_stats(args.top)
    return 0


if __name__ == "__main__":
    sys.exit(main())
