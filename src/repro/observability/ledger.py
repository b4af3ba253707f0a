"""The run ledger: cross-run history inside the artifact store.

Every telemetry-enabled run with a store appends one compact record —
config digest, git SHA, stage wall times, counter totals, store reuse
provenance, trace summary, fuzz campaign stats — into the ``run_ledger``
namespace of :class:`repro.store.ArtifactStore`.  Unlike every other
namespace the ledger is *append-only history*, not a cache: keys are
unique per run rather than content-addressed, and :class:`RunLedger`
queries them back out (``list`` / ``latest`` / ``by_app`` / ``by_sha``)
so two runs can be compared long after their processes exited.

Records ride the store's existing envelope contract — atomic writes,
checksum-validated reads, quarantine of corrupt entries — so concurrent
writers from parallel CI jobs interleave safely and a damaged record
degrades to a skipped row, never a crashed query.

The ledger is strictly fail-soft: an unwritable store downgrades the
append to a logged warning, and it never runs at all when telemetry is
disabled (the bit-identical ``--no-telemetry`` guarantee covers the
ledger too).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import logging
import os
import time
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Union

from .runinfo import git_sha

if TYPE_CHECKING:  # runtime import is deferred: store -> reliability ->
    # gpu.interpreter imports back into this package's __init__
    from ..store.artifact_store import ArtifactStore

logger = logging.getLogger(__name__)

__all__ = [
    "LEDGER_SCHEMA",
    "RUN_LEDGER_NAMESPACE",
    "RunLedger",
    "append_record",
    "build_fuzz_record",
    "build_service_record",
    "build_transform_record",
    "config_digest",
]

LEDGER_SCHEMA = "repro.ledger/1"
RUN_LEDGER_NAMESPACE = "run_ledger"

#: config fields that do not change what a run computes — two runs that
#: differ only here share a baseline lineage for the regression sentinel
_NON_SEMANTIC_CONFIG_FIELDS = frozenset(
    {"workdir", "metrics_out", "trace_out", "store", "store_root", "telemetry"}
)

_sequence = itertools.count()


def config_digest(config: Dict[str, object]) -> str:
    """Content digest of a resolved configuration, output paths excluded."""
    slim = {
        k: v
        for k, v in sorted(config.items())
        if k not in _NON_SEMANTIC_CONFIG_FIELDS
    }
    canonical = json.dumps(slim, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _app_of(source: Optional[str]) -> Optional[str]:
    """The app name a ``run.json`` source label encodes (None otherwise)."""
    if source and source.startswith("app:"):
        return source[len("app:"):]
    return None


def _base_record(kind: str) -> Dict[str, object]:
    from .. import __version__

    return {
        "schema": LEDGER_SCHEMA,
        "kind": kind,
        "run_id": None,  # filled by append_record
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "unix_time": time.time(),
        "pid": os.getpid(),
        "git_sha": git_sha(),
        "repro_version": __version__,
    }


def build_transform_record(
    *,
    source: str,
    config: Dict[str, object],
    seed: Optional[int] = None,
    stage_times: Optional[Dict[str, float]] = None,
    speedup: Optional[float] = None,
    verified: Optional[bool] = None,
    demotions: int = 0,
    exit_code: int = 0,
    reused: Optional[Dict[str, str]] = None,
    store_stats: Optional[Dict[str, object]] = None,
    counters: Optional[Dict[str, float]] = None,
    trace: Optional[Dict[str, object]] = None,
    interpreter: Optional[Dict[str, object]] = None,
    verification: Optional[Dict[str, object]] = None,
    front_door: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """One ledger record for a pipeline run (cold, warm or failed)."""
    times = {k: round(v, 6) for k, v in (stage_times or {}).items()}
    record = _base_record("transform")
    record.update(
        {
            "source": source,
            "app": _app_of(source),
            "config_digest": config_digest(config),
            "seed": seed,
            "exit_code": exit_code,
            "stage_wall_time_s": times,
            "total_wall_time_s": round(sum(times.values()), 6),
            "speedup": speedup,
            "verified": verified,
            "demotions": demotions,
            "reused_stages": dict(reused or {}),
            "store": store_stats,
            "counters": dict(counters or {}),
            "trace": trace,
            "interpreter": interpreter,
            "verification": verification,
            "front_door": front_door,
        }
    )
    return record


def build_fuzz_record(report: Dict[str, object]) -> Dict[str, object]:
    """One ledger record for a fuzz campaign (from its ``repro.fuzz/1``
    report), so nightly fuzz history is queryable next to transforms."""
    campaign = report.get("campaign", {})
    summary = report.get("summary", {})
    oracle_failures: Dict[str, int] = {}
    for failure in report.get("failures", []):
        oracle = str(failure.get("oracle", "?"))
        oracle_failures[oracle] = oracle_failures.get(oracle, 0) + 1
    record = _base_record("fuzz")
    record.update(
        {
            "source": "fuzz-campaign",
            "app": None,
            "exit_code": 0 if not summary.get("failures")
            and not summary.get("crashes") else 1,
            "fuzz": {
                "seed_start": campaign.get("seed_start"),
                "seed_end": campaign.get("seed_end"),
                "seeds_run": campaign.get("seeds_run"),
                "oracles": list(campaign.get("oracles", [])),
                "duration_seconds": campaign.get("duration_seconds"),
                "stopped_early": campaign.get("stopped_early"),
                "failures": summary.get("failures", 0),
                "crashes": summary.get("crashes", 0),
                "unbucketed": summary.get("unbucketed", 0),
                "crash_buckets": dict(summary.get("buckets", {})),
                "oracle_failures": dict(sorted(oracle_failures.items())),
            },
        }
    )
    return record


def build_service_record(
    *,
    source: str,
    config: Dict[str, object],
    request_key: str,
    job_id: str,
    status: str,
    dedup_clients: int = 1,
    speedup: Optional[float] = None,
    verified: Optional[bool] = None,
    demotions: int = 0,
    reused: Optional[Dict[str, str]] = None,
    wall_time_s: Optional[float] = None,
    worker_retries: int = 0,
) -> Dict[str, object]:
    """One ledger record per *served* transformation request.

    The serving path appends one record per executed job (deduplicated
    requests share one execution and hence one record, with
    ``dedup_clients`` counting how many clients it answered), so service
    traffic is queryable next to CLI transforms — same store, same
    schema tag, ``kind == "service"``.
    """
    record = _base_record("service")
    record.update(
        {
            "source": source,
            "app": _app_of(source),
            "config_digest": config_digest(config),
            "exit_code": 0 if status == "ok" else 2,
            "service": {
                "request_key": request_key,
                "job_id": job_id,
                "status": status,
                "dedup_clients": dedup_clients,
                "worker_retries": worker_retries,
                "wall_time_s": wall_time_s,
            },
            "speedup": speedup,
            "verified": verified,
            "demotions": demotions,
            "reused_stages": dict(reused or {}),
        }
    )
    return record


def append_record(
    store: ArtifactStore, record: Dict[str, object]
) -> Optional[str]:
    """Append ``record`` to the ledger; returns its run id (None if the
    write failed — the run must never break on its own bookkeeping)."""
    seq = next(_sequence)
    raw = repr(
        (
            "run-ledger",
            record.get("kind"),
            record.get("source"),
            record.get("config_digest"),
            time.time_ns(),
            os.getpid(),
            seq,
        )
    )
    run_id = hashlib.sha256(raw.encode("utf-8")).hexdigest()
    record = dict(record)
    record["run_id"] = run_id
    if store.put(RUN_LEDGER_NAMESPACE, run_id, record):
        return run_id
    return None


class RunLedger:
    """Query API over the ``run_ledger`` namespace of one store root."""

    def __init__(self, store: "Union[ArtifactStore, str, Path]") -> None:
        from ..store.artifact_store import ArtifactStore

        self.store = (
            store if isinstance(store, ArtifactStore) else ArtifactStore(store)
        )

    # ------------------------------------------------------------ scanning

    def _namespace_dir(self) -> Path:
        from ..store.artifact_store import LAYOUT_DIR

        return self.store.root / LAYOUT_DIR / RUN_LEDGER_NAMESPACE

    def keys(self) -> List[str]:
        base = self._namespace_dir()
        if not base.is_dir():
            return []
        return sorted(
            p.stem for p in base.rglob("*.json") if not p.name.startswith(".")
        )

    def records(self) -> List[Dict[str, object]]:
        """Every valid record, oldest first (corrupt entries are skipped
        and quarantined by the store's envelope validation)."""
        records = []
        for key in self.keys():
            payload = self.store.get(RUN_LEDGER_NAMESPACE, key)
            if payload is None or payload.get("schema") != LEDGER_SCHEMA:
                continue
            records.append(payload)
        records.sort(key=lambda r: (r.get("unix_time") or 0.0, r.get("run_id")))
        return records

    # ------------------------------------------------------------- queries

    def list(
        self,
        *,
        kind: Optional[str] = None,
        app: Optional[str] = None,
        sha: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> List[Dict[str, object]]:
        """Filtered records, oldest first; ``limit`` keeps the newest N."""
        records = self.records()
        if kind is not None:
            records = [r for r in records if r.get("kind") == kind]
        if app is not None:
            records = [r for r in records if r.get("app") == app]
        if sha is not None:
            records = [
                r for r in records
                if r.get("git_sha") and str(r["git_sha"]).startswith(sha)
            ]
        if limit is not None and limit >= 0:
            records = records[-limit:]
        return records

    def latest(self, **filters: object) -> Optional[Dict[str, object]]:
        records = self.list(**filters)  # type: ignore[arg-type]
        return records[-1] if records else None

    def by_app(self, app: str) -> List[Dict[str, object]]:
        return self.list(app=app)

    def by_sha(self, sha: str) -> List[Dict[str, object]]:
        return self.list(sha=sha)

    def get(self, run_id: str) -> Optional[Dict[str, object]]:
        return self.store.get(RUN_LEDGER_NAMESPACE, run_id)

    def previous(
        self, record: Dict[str, object]
    ) -> Optional[Dict[str, object]]:
        """The most recent *earlier* successful record of the same lineage
        (same kind + app + config digest) — the regression baseline."""
        when = record.get("unix_time") or 0.0
        candidates = [
            r
            for r in self.records()
            if r.get("run_id") != record.get("run_id")
            and (r.get("unix_time") or 0.0) <= when
            and r.get("kind") == record.get("kind")
            and r.get("app") == record.get("app")
            and r.get("config_digest") == record.get("config_digest")
            and r.get("exit_code") == 0
        ]
        return candidates[-1] if candidates else None

    def resolve(self, spec: str) -> Optional[Dict[str, object]]:
        """A record from a CLI spec: ``latest``, ``prev``, or an id prefix."""
        if spec == "latest":
            return self.latest()
        if spec == "prev":
            records = self.records()
            return records[-2] if len(records) >= 2 else None
        matches = [k for k in self.keys() if k.startswith(spec)]
        if len(matches) == 1:
            return self.get(matches[0])
        if len(matches) > 1:
            logger.warning(
                "ledger: run id prefix %r is ambiguous (%d matches)",
                spec, len(matches),
            )
        return None
