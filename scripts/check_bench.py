#!/usr/bin/env python
"""Gate a fresh benchmark record against the committed baseline.

The benchmark suites write JSON records at the repo root
(``BENCH_pr9.json`` from the island-scaling bench, ``BENCH_pr10.json``
from the service bench); CI re-runs a bench and feeds the fresh
record plus the committed copy through this script.  The check tables
are selected by the record's ``bench`` tag.  Three kinds of checks,
from hardest to softest:

* **exact** — machine-independent facts must match bit-for-bit: the
  island bench's generation-at-target numbers, the service bench's
  dedup accounting.  Any drift here is a semantic change, not noise.
* **floors** — committed acceptance bars that must hold on any machine:
  K=4 islands crossing the K=1 best in >= 2x fewer generations, warm
  served requests cheaper than cold ones.
* **ratios** — timing-derived numbers (evals/sec, wall speedups) may
  not regress below ``--tolerance`` (default 0.35) of the committed
  value.  Shared CI runners are noisy; this catches collapses, not
  jitter.

Usage::

    PYTHONPATH=src python scripts/check_bench.py \
        --baseline BENCH_pr9.json --current /tmp/fresh/BENCH_pr9.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: per-bench dotted paths whose values must match the baseline exactly
EXACT = {
    "islands": (
        "schema",
        "bench",
        "app",
        "protocol",
        # the search is seeded and single-threaded per island epoch, so
        # fitness trajectories are machine-independent facts
        "headline.target_fitness",
        "headline.k1_time_to_best_generation",
        "curve.k1.cold.best_fitness",
        "curve.k2.cold.best_fitness",
        "curve.k4.cold.best_fitness",
        "curve.k4.cold.generation_at_target",
        # (evaluations_at_target is not here: island threads share one
        # memo, so which island pays a miss depends on scheduling)
    ),
    "service": (
        "schema",
        "bench",
        "protocol",
        # dedup and reuse accounting is deterministic serving semantics,
        # not timing: 8 identical in-flight clients -> 1 execution
        "cold.requests",
        "cold.all_reused",
        "warm.requests",
        "warm.all_reused",
        "warm.speedups_match_cold",
        "dedup.clients",
        "dedup.executions",
        "dedup.dedup_hits",
        "dedup.bodies_identical",
        "dedup.dedup_flags_all_hit",
        "dedup.ledger_dedup_clients",
        "headline.worker_restarts",
        "headline.ledger_service_records",
    ),
}

#: per-bench (dotted path, minimum value) acceptance floors
FLOORS = {
    "islands": (
        # the ISSUE acceptance bar, stated machine-independently: K=4
        # reaches the K=1 best fitness in >= 2x fewer generations ...
        ("headline.k4_cold_generation_speedup", 2.0),
        # ... and the wall-clock speedup may not collapse below 1x even
        # on a noisy runner (the committed value is gated by RATIOS)
        ("headline.k4_cold_speedup", 1.0),
        ("curve.k4.cold.surrogate_rank_correlation", 0.3),
        ("curve.k4.cold.migrations_received", 1),
        # warm hydration re-reaches the target almost immediately
        ("curve.k4.warm.migrations_received", 1),
    ),
    "service": (
        # warm (store-served) requests must be cheaper to serve than
        # cold ones even with serving overhead on a noisy runner
        ("headline.warm_speedup_vs_cold", 1.0),
        ("protocol.concurrent_clients", 4),
        ("protocol.workers", 4),
    ),
}

#: per-bench dotted paths of timing-derived values gated by --tolerance
RATIOS = {
    "islands": (
        "headline.k4_cold_speedup",
        "headline.k4_cold_generation_speedup",
        "headline.k4_cold_evaluation_speedup",
    ),
    "service": (
        "cold.requests_per_sec",
        "warm.requests_per_sec",
        "headline.sustained_requests_per_sec",
    ),
}

#: warm island runs must cross the target within this many generations
WARM_GENERATION_CEILING = 10

#: every warm (store-served) service request must finish within this
#: many seconds of wall time — the ISSUE acceptance bar
SERVICE_WARM_LATENCY_CEILING_S = 1.0


def lookup(record: dict, path: str):
    value = record
    for part in path.split("."):
        if not isinstance(value, dict) or part not in value:
            return None
        value = value[part]
    return value


def check(baseline: dict, current: dict, tolerance: float) -> list:
    problems = []
    bench = baseline.get("bench")
    if bench not in EXACT:
        return [f"unknown bench tag {bench!r} in baseline record"]
    if current.get("bench") != bench:
        return [
            f"bench tag mismatch: baseline {bench!r} vs "
            f"current {current.get('bench')!r}"
        ]
    for path in EXACT[bench]:
        want, got = lookup(baseline, path), lookup(current, path)
        if want is None:
            continue  # field not in the committed record yet
        if want != got:
            problems.append(f"exact mismatch at {path}: {want!r} -> {got!r}")
    for path, floor in FLOORS[bench]:
        got = lookup(current, path)
        if got is None:
            problems.append(f"missing value at {path} (floor {floor})")
        elif got < floor:
            problems.append(f"floor violated at {path}: {got} < {floor}")
    for path in RATIOS[bench]:
        want, got = lookup(baseline, path), lookup(current, path)
        if want is None:
            continue  # field not in the committed record yet
        if got is None:
            problems.append(f"missing value at {path} (baseline {want})")
        elif got < tolerance * want:
            problems.append(
                f"regression at {path}: {got} < {tolerance} * baseline {want}"
            )
    if bench == "islands":
        for key in ("k2", "k4"):
            path = f"curve.{key}.warm.generation_at_target"
            got = lookup(current, path)
            if got is None or got > WARM_GENERATION_CEILING:
                problems.append(
                    f"warm hydration broken at {path}: {got!r} "
                    f"(ceiling {WARM_GENERATION_CEILING})"
                )
    if bench == "service":
        got = lookup(current, "warm.max_latency_s")
        if got is None or got > SERVICE_WARM_LATENCY_CEILING_S:
            problems.append(
                f"warm serving too slow at warm.max_latency_s: {got!r} "
                f"(ceiling {SERVICE_WARM_LATENCY_CEILING_S}s)"
            )
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", required=True, type=Path,
                        help="committed benchmark record")
    parser.add_argument("--current", required=True, type=Path,
                        help="freshly generated benchmark record")
    parser.add_argument("--tolerance", type=float, default=0.35,
                        help="minimum fraction of a baseline timing value "
                             "(default: 0.35)")
    args = parser.parse_args(argv)

    baseline = json.loads(args.baseline.read_text())
    current = json.loads(args.current.read_text())
    problems = check(baseline, current, args.tolerance)
    for problem in problems:
        print(f"check_bench: {problem}", file=sys.stderr)
    if problems:
        return 1
    bench = baseline["bench"]
    print(
        f"bench record OK ({bench}): {len(EXACT[bench])} exact, "
        f"{len(FLOORS[bench])} floors, {len(RATIOS[bench])} ratio checks "
        f"against {args.baseline.name}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
