#!/usr/bin/env python
"""Gate a fresh benchmark record against the committed baseline.

The service bench writes a JSON record at the repo root
(``BENCH_pr10.json``); CI re-runs it and feeds the fresh record plus the
committed copy through this script.  The check tables
are selected by the record's ``bench`` tag.  Three kinds of checks,
from hardest to softest:

* **exact** — machine-independent facts must match bit-for-bit: the
  service bench's dedup accounting.  Any drift here is a semantic
  change, not noise.
* **floors** — committed acceptance bars that must hold on any machine:
  warm served requests cheaper than cold ones.
* **ratios** — timing-derived numbers (requests/sec) may
  not regress below ``--tolerance`` (default 0.35) of the committed
  value.  Shared CI runners are noisy; this catches collapses, not
  jitter.

Usage::

    PYTHONPATH=src python scripts/check_bench.py \
        --baseline BENCH_pr10.json --current /tmp/fresh/BENCH_pr10.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: per-bench dotted paths whose values must match the baseline exactly
EXACT = {
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
    "service": (
        "cold.requests_per_sec",
        "warm.requests_per_sec",
        "headline.sustained_requests_per_sec",
    ),
}

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
