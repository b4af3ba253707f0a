#!/usr/bin/env python
"""Profile the ``search-paper-budget`` op of ``benchmarks/e2e`` under cProfile.

One command, the bench's own source, data seed and GA seed (imported from
``benchmarks/e2e/workloads.py``, not copied), top-N functions by self
time.  cProfile inflates call-heavy Python and not native code, so use
this to find candidates and ``benchmarks/e2e/run.py --workload
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
    parser.add_argument("--top", type=int, default=25)
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
    from repro.search import GAParams

    seed = bench_run.DEFAULT_SEED if args.seed is None else args.seed
    source = workloads.app_source("Fluam", seed, smoke=False)
    params = GAParams(seed=workloads.PINNED_GA_SEED)
    if args.generations is not None:
        params.generations = args.generations

    profiler = cProfile.Profile()
    result = profiler.runcall(
        transform, source,
        store=False, verify=False, verify_groups=False, ga_params=params,
    )
    search = result.state.search
    print(
        f"# search-paper-budget op: data seed {seed}, GA seed {params.seed}, "
        f"{params.population} x {search.generations_run} generations\n"
        f"# evaluations {search.evaluations}  fitness_lookups {search.fitness_lookups}  "
        f"converged_at {search.converged_at}  best_fitness {search.best_fitness!r}\n"
        f"# search wall (profiled) {search.wall_time_s:.2f} s"
    )
    pstats.Stats(profiler).strip_dirs().sort_stats(args.sort).print_stats(args.top)
    return 0


if __name__ == "__main__":
    sys.exit(main())
