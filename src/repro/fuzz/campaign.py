"""The fuzz-campaign driver: seeds in, triaged report out.

One campaign iterates a seed range, generates one application per seed,
runs the selected oracle battery, buckets every escape deterministically
(:mod:`repro.fuzz.triage`) and — for oracle failures — shrinks the
offending program with the delta-debugging reducer so the report carries
a minimal reproducer, ready to be committed to ``tests/corpus/``.

The driver itself is crash-proof by construction: a failure anywhere in
generate/oracle/reduce is caught, bucketed and recorded; the campaign
always completes and always produces a report (the CI contract is *zero
unbucketed crashes*, not zero crashes).
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from ..cudalite import parse_program, unparse
from ..observability.metrics import get_registry
from .appgen import FuzzSpec, generate_app
from .oracles import CHEAP_ORACLES, OracleFailure, fuzz_config, run_oracles
from .reduce import program_size, reduce_program
from .triage import build_report, bucket_exception, crash_record, write_report

__all__ = ["CORPUS_SCHEMA", "CampaignConfig", "run_campaign"]

logger = logging.getLogger(__name__)

CORPUS_SCHEMA = "repro.fuzz.corpus/1"


@dataclass
class CampaignConfig:
    """One campaign's parameters."""

    seed_start: int = 0
    seed_end: int = 49  # inclusive
    oracles: Tuple[str, ...] = CHEAP_ORACLES
    spec: Optional[FuzzSpec] = None
    #: wall-clock budget in seconds (None = unbounded); the campaign
    #: stops *between* seeds when exceeded and says so in the report
    budget: Optional[float] = None
    #: shrink failing programs into minimal reproducers
    reduce: bool = True
    reduce_attempts: int = 120
    #: report + reproducer destination (None = report returned only)
    out_dir: Optional[str] = None
    #: append a campaign record to the store's run ledger
    store: bool = False
    #: ledger store root (None = the default root)
    store_root: Optional[str] = None
    #: progress sink (e.g. ``print``); None = silent
    progress: Optional[Callable[[str], None]] = field(
        default=None, repr=False, compare=False
    )


def _reproducer(
    seed: int,
    name: str,
    failure: OracleFailure,
    source: str,
    reduced_source: Optional[str],
    sizes: Tuple[int, int],
) -> Dict[str, object]:
    """A corpus-schema reproducer record for one oracle failure."""
    return {
        "schema": CORPUS_SCHEMA,
        "name": name,
        "seed": seed,
        "oracles": [failure.oracle],
        "kind": failure.kind,
        "note": failure.detail[:500],
        "source": reduced_source or source,
        "original_size": sizes[0],
        "reduced_size": sizes[1],
    }


def _reduce_failure(
    program, failure: OracleFailure, config, attempts: int
):
    """Shrink ``program`` while the same (oracle, kind) failure persists."""

    def still_fails(candidate) -> bool:
        verdict = run_oracles(candidate, [failure.oracle], config)
        return failure.signature() in verdict.signatures()

    return reduce_program(program, still_fails, max_attempts=attempts)


def _ledger_append(config: CampaignConfig, report: Dict[str, object]) -> None:
    """Append the campaign to the store's run ledger (fail-soft).

    Runs only with telemetry on *and* a store opted in
    (``CampaignConfig.store``; the CLI resolves it from ``--store`` /
    ``REPRO_STORE``), so nightly fuzz history lands next to transform
    runs without changing default output.
    """
    from ..observability.ledger import append_record, build_fuzz_record
    from ..observability.runtime import telemetry_enabled
    from ..store.artifact_store import open_store

    if not (telemetry_enabled() and config.store):
        return
    store = open_store(config.store_root)
    if store is None:
        return
    try:
        append_record(store, build_fuzz_record(report))
    except Exception as exc:  # noqa: BLE001 - bookkeeping is best-effort
        logger.warning("ledger: could not append campaign record (%s)", exc)


def run_campaign(config: CampaignConfig) -> Dict[str, object]:
    """Run the campaign and return (and optionally write) the report."""
    if config.seed_end < config.seed_start:
        raise ValueError("seed_end must be >= seed_start")
    registry = get_registry()
    say = config.progress or (lambda _line: None)
    started = time.monotonic()
    failures: List[Dict[str, object]] = []
    crashes: List[Dict[str, object]] = []
    reproducers: List[Dict[str, object]] = []
    apps = 0
    stopped_early = False
    last_seed = config.seed_start - 1
    for seed in range(config.seed_start, config.seed_end + 1):
        if config.budget is not None and time.monotonic() - started > config.budget:
            stopped_early = True
            say(f"budget exhausted after seed {last_seed}")
            break
        last_seed = seed
        registry.inc("fuzz_apps_total")
        apps += 1
        try:
            app = generate_app(seed, config.spec)
        except BaseException as exc:  # noqa: BLE001 - campaign must survive
            bucket = bucket_exception(exc)
            crashes.append(crash_record(seed, "generate", exc, bucket))
            registry.inc("fuzz_crashes_total", stage=bucket.stage)
            say(f"seed {seed}: generator crash [{bucket.key}]")
            continue
        oracle_config = fuzz_config(seed=seed)
        try:
            verdict = run_oracles(app, config.oracles, oracle_config)
        except BaseException as exc:  # noqa: BLE001
            bucket = bucket_exception(exc)
            crashes.append(crash_record(seed, "oracles", exc, bucket))
            registry.inc("fuzz_crashes_total", stage=bucket.stage)
            say(f"seed {seed}: oracle-driver crash [{bucket.key}]")
            continue
        for failure in verdict.failures:
            registry.inc("fuzz_oracle_failures_total", oracle=failure.oracle)
            record: Dict[str, object] = {
                "seed": seed,
                "app": verdict.app,
                "oracle": failure.oracle,
                "kind": failure.kind,
                "detail": failure.detail[:500],
            }
            if failure.exc is not None:
                bucket = bucket_exception(failure.exc)
                record["bucket"] = bucket.key
                crashes.append(
                    crash_record(
                        seed, f"oracle:{failure.oracle}", failure.exc, bucket
                    )
                )
                registry.inc("fuzz_crashes_total", stage=bucket.stage)
            failures.append(record)
            say(f"seed {seed}: {failure.signature()}")
            if config.reduce:
                source = unparse(app.program)
                try:
                    reduced = _reduce_failure(
                        app.program, failure, oracle_config, config.reduce_attempts
                    )
                    reduced_source = unparse(reduced)
                    # a reduction must stay parseable, or it is discarded
                    parse_program(reduced_source)
                    sizes = (program_size(app.program), program_size(reduced))
                except BaseException:  # noqa: BLE001
                    reduced_source, sizes = None, (
                        program_size(app.program),
                        program_size(app.program),
                    )
                reproducers.append(
                    _reproducer(
                        seed, verdict.app, failure, source, reduced_source, sizes
                    )
                )
    campaign = {
        "seed_start": config.seed_start,
        "seed_end": config.seed_end,
        "seeds_run": apps,
        "last_seed": last_seed,
        "oracles": list(config.oracles),
        "budget_seconds": config.budget,
        "stopped_early": stopped_early,
        "duration_seconds": round(time.monotonic() - started, 3),
        "reduce": config.reduce,
    }
    report = build_report(campaign, failures, crashes, apps)
    if config.out_dir:
        out = Path(config.out_dir)
        write_report(report, out / "fuzz_report.json")
        for repro in reproducers:
            path = out / f"repro-seed{repro['seed']:06d}-{repro['oracles'][0]}.json"
            path.write_text(json.dumps(repro, indent=2, sort_keys=True) + "\n")
    say(
        f"{apps} apps, {len(failures)} oracle failures, "
        f"{len(crashes)} crashes in {campaign['duration_seconds']}s"
    )
    _ledger_append(config, report)
    return report
