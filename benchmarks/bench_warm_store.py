"""Warm-store bench — cross-run artifact cache cold vs warm (repro.store).

Quantifies the persistent content-addressed store behind ``repro.api``:

* a cold Fluam run through the facade populates the store (metadata,
  targets, DDG/OEG, exact search result, per-group verification
  verdicts, block tunings, whole-program verdict),
* an identical warm repeat must reuse every stage, produce bit-identical
  output and beat the cold run by >= 2x wall time (the acceptance bar
  from the issue),
* a repeat with a *different* GA seed misses the exact search key but
  warm-starts the GGA from the stored final population.

Writes ``BENCH_pr5.json`` at the repo root — the perf trajectory record
for this PR.
"""

import json
import shutil
import tempfile
import time
from pathlib import Path

from repro.api import TransformConfig, transform
from repro.store import ArtifactStore

from common import BENCH_SEED, bench_params, print_header

_ROWS = {}

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_pr5.json"

APP = "Fluam"


def _config(store_root: Path, seed: int = BENCH_SEED) -> TransformConfig:
    return TransformConfig(
        ga_params=bench_params(seed=seed),
        store=True,
        store_root=str(store_root),
        telemetry=False,
    )


def _timed(store_root: Path, seed: int = BENCH_SEED):
    start = time.perf_counter()
    result = transform(APP, _config(store_root, seed=seed))
    return result, time.perf_counter() - start


def test_cold_vs_warm(benchmark):
    def run():
        store_root = Path(tempfile.mkdtemp(prefix="repro-bench-store-"))
        try:
            cold, cold_s = _timed(store_root)
            assert cold.reused == {}
            warm, warm_s = _timed(store_root)
            assert warm.source == cold.source  # bit-identical output
            assert warm.reused.get("search") == "result"
            assert warm.verified and cold.verified

            seeded, seeded_s = _timed(store_root, seed=BENCH_SEED + 1)
            reuse = seeded.reused.get("search", "")
            assert reuse.startswith("warm-start:"), seeded.reused

            entries = ArtifactStore(store_root).entry_count()
        finally:
            shutil.rmtree(store_root, ignore_errors=True)
        return {
            "cold_s": cold_s,
            "warm_s": warm_s,
            "speedup": cold_s / warm_s,
            "reused_stages": dict(warm.reused),
            "store_entries": entries,
            "warm_start_s": seeded_s,
            "warm_start_reuse": reuse,
            "warm_start_speedup": cold_s / seeded_s,
        }

    row = benchmark.pedantic(run, rounds=1, iterations=1)
    _ROWS["warm"] = row
    assert row["speedup"] >= 2.0, row


def test_warm_store_print(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    print_header("Persistent store: cold vs warm Fluam (repro.api facade)")
    if "warm" not in _ROWS:
        return
    row = _ROWS["warm"]
    print(f"cold run:        {row['cold_s']:8.2f} s "
          f"({row['store_entries']} artifacts stored)")
    print(f"warm repeat:     {row['warm_s']:8.2f} s "
          f"({row['speedup']:.1f}x, bit-identical, "
          f"{len(row['reused_stages'])} stages reused)")
    print(f"new GA seed:     {row['warm_start_s']:8.2f} s "
          f"({row['warm_start_speedup']:.1f}x, {row['warm_start_reuse']})")
    _write_bench_json()


def _write_bench_json() -> None:
    """Persist the run as ``BENCH_pr5.json`` — the perf trajectory record."""
    row = _ROWS["warm"]
    record = {
        "schema": "repro.bench/1",
        "bench": "warm_store",
        "app": APP,
        "warm_store": {
            "cold_s": round(row["cold_s"], 2),
            "warm_s": round(row["warm_s"], 2),
            "speedup": round(row["speedup"], 2),
            "store_entries": row["store_entries"],
            "reused_stages": row["reused_stages"],
        },
        "warm_started_search": {
            "wall_s": round(row["warm_start_s"], 2),
            "speedup_vs_cold": round(row["warm_start_speedup"], 2),
            "search_reuse": row["warm_start_reuse"],
        },
    }
    BENCH_JSON.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {BENCH_JSON.name}")
