#!/usr/bin/env python
"""Where one warm ``repeat`` and one ``reseed`` of ``warm-iterate`` go.

The bench's own source, data seed and GA seed (imported from
``benchmarks/e2e/workloads.py``, not copied) against a throw-away store
that one cold set-up transform fills.  Prints seconds per op by segment —
the self time of each ``benchmarks/e2e/trace.py`` patch point, so the
segments are the bench's per-layer rows, with ``op:*`` the unattributed
remainder — and the store reads the memory tier answered per op, by
namespace; then the top-N functions of one more ``repeat`` under
cProfile.  cProfile inflates call-heavy Python and not native code, so
use it to find candidates and ``benchmarks/e2e/run.py --workload
warm-iterate`` (profiling off) to measure them.

Usage::

    python3 scripts/profile_warm.py [--top 25] [--ops 3]
        [--seed 20150615] [--sort tottime|cumtime]
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--top", type=int, default=25)
    parser.add_argument("--ops", type=int, default=3,
                        help="ops of each kind to average over")
    parser.add_argument("--seed", type=int, default=None,
                        help="bench data seed (default: the bench's own)")
    parser.add_argument("--sort", choices=("tottime", "cumtime"), default="tottime")
    args = parser.parse_args()

    # the bench finds src/ the same way; its directory goes first because
    # it carries a local module named ``trace``
    sys.path[:0] = [str(REPO / "benchmarks" / "e2e"), str(REPO / "src")]
    import run as bench_run
    import trace
    import workloads
    from repro.api import transform
    from repro.observability.metrics import get_registry
    from repro.store import stage_cache

    namespaces = (
        stage_cache.NS_METADATA, stage_cache.NS_TARGETS, stage_cache.NS_GRAPHS,
        stage_cache.NS_BUILT_PROBLEMS, stage_cache.NS_SEARCH,
        stage_cache.NS_MATERIALIZED, stage_cache.NS_VERIFIED_PROGRAMS,
    )

    def tier_hits() -> dict:
        registry = get_registry()
        return {
            ns: registry.counter_value(
                "store_reads_total", namespace=ns, outcome="memory"
            )
            for ns in namespaces
        }

    seed = bench_run.DEFAULT_SEED if args.seed is None else args.seed
    source = workloads.app_source(workloads.WarmIterate.app, seed, smoke=False)
    ga_seed = workloads.PINNED_GA_SEED

    with tempfile.TemporaryDirectory(prefix="profile-warm-") as store_root:
        base = dict(store=True, store_root=store_root, verify_seed=seed)

        def repeat(_n: int) -> None:
            # reading the emitted text is part of the op, as in the bench
            transform(source, seed=ga_seed, **base).source

        def reseed(n: int) -> None:
            transform(source, seed=ga_seed + 1 + n, until="search", **base)

        repeat(0)  # the cold set-up run: fills the store, loads the source

        tracer = trace.BenchTracer()
        tracer.install()
        served = {}
        try:
            for kind, op in (("repeat", repeat), ("reseed", reseed)):
                before = tier_hits()
                for n in range(args.ops):
                    index = tracer.begin(f"op:{kind}", "api", op=kind)
                    op(n)
                    tracer.end(index)
                after = tier_hits()
                served[kind] = {ns: after[ns] - before[ns] for ns in namespaces}
        finally:
            tracer.uninstall()

        print(f"# warm-iterate ops: data seed {seed}, GA seed {ga_seed}, "
              f"{len(source)} source bytes, mean of {args.ops} ops")
        own = trace.self_times(tracer.spans)
        for kind in ("repeat", "reseed"):
            segments: dict = {}
            for span, self_s in zip(tracer.spans, own):
                if span.op == kind:
                    calls, total = segments.get(span.name, (0, 0.0))
                    segments[span.name] = (calls + 1, total + self_s)
            wall = sum(total for _, total in segments.values()) / args.ops
            print(f"\n{kind}: {wall:.4f} s/op")
            for name, (calls, total) in sorted(
                segments.items(), key=lambda item: -item[1][1]
            ):
                print(f"  {name:<22} {total / args.ops:8.4f} s/op "
                      f"{calls / args.ops:7.1f} calls/op")
            print("  memory-tier hits/op: " + ", ".join(
                f"{ns} {hits / args.ops:.1f}"
                for ns, hits in served[kind].items()
            ))

        profiler = cProfile.Profile()
        profiler.runcall(repeat, 0)
        print("\n# one repeat under cProfile")
        pstats.Stats(profiler).strip_dirs().sort_stats(args.sort).print_stats(args.top)
    return 0


if __name__ == "__main__":
    sys.exit(main())
