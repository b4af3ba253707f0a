"""The run ledger: cross-run history inside the artifact store.

Every telemetry-enabled run with a store appends its run record — the
``repro.run/2`` dict of :mod:`~repro.observability.runinfo`, the same
one ``run.json`` holds — into the ``run_ledger`` namespace of
:class:`repro.store.ArtifactStore`; the ledger adds only ``run_id``.
Unlike every other namespace the ledger is *append-only history*, not a
cache: keys are unique per run rather than content-addressed, and
:class:`RunLedger` queries them back out (``list`` / ``latest`` /
``by_app`` / ``by_sha``) so two runs can be compared long after their
processes exited.  Records written before 7.0 (``repro.ledger/1``) are
upgraded to the ``repro.run/2`` shape as they are read
(:func:`upgrade_record`), so every reader sees one shape.

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
import logging
import os
import time
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Union

from .runinfo import OUTCOME_FIELDS, RUN_SCHEMA, build_run_record, config_digest

if TYPE_CHECKING:  # runtime import is deferred: store -> reliability ->
    # gpu.interpreter imports back into this package's __init__
    from ..store.artifact_store import ArtifactStore

logger = logging.getLogger(__name__)

__all__ = [
    "LEGACY_LEDGER_SCHEMA",
    "RUN_LEDGER_NAMESPACE",
    "RunLedger",
    "append_record",
    "build_fuzz_record",
    "config_digest",
    "upgrade_record",
]

#: the ledger's own record schema before 7.0; read, upgraded, never written
LEGACY_LEDGER_SCHEMA = "repro.ledger/1"
RUN_LEDGER_NAMESPACE = "run_ledger"

_sequence = itertools.count()


def build_fuzz_record(report: Dict[str, object]) -> Dict[str, object]:
    """The run record of a fuzz campaign (from its ``repro.fuzz/1``
    report), so nightly fuzz history is queryable next to transforms."""
    campaign = report.get("campaign", {})
    summary = report.get("summary", {})
    oracle_failures: Dict[str, int] = {}
    for failure in report.get("failures", []):
        oracle = str(failure.get("oracle", "?"))
        oracle_failures[oracle] = oracle_failures.get(oracle, 0) + 1
    record = build_run_record(
        kind="fuzz",
        source="fuzz-campaign",
        config=dict(campaign),
        exit_code=0 if not summary.get("failures")
        and not summary.get("crashes") else 1,
    )
    record["fuzz"] = {
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
    }
    return record


#: header fields a ``repro.ledger/1`` record carries under the same name
_LEGACY_HEADER = (
    "kind", "run_id", "timestamp", "unix_time", "pid", "git_sha",
    "repro_version", "source", "app", "config_digest", "exit_code",
)


def upgrade_record(
    record: Optional[Dict[str, object]],
) -> Optional[Dict[str, object]]:
    """``record`` in the ``repro.run/2`` shape, or ``None`` for a missing
    payload or one of neither schema.

    A ``repro.ledger/1`` record (written before 7.0) is upgraded on read:
    its top-level ``speedup`` / ``verified`` / ``demotions`` move into
    ``outcome`` (the counts it never had are null), ``seed`` into
    ``config``, the flat store stats under ``store.stats``.  The sections
    it never carried (``env``, ``error``, ``observability``) are null and
    ``upgraded_from`` names the old schema.
    """
    schema = record.get("schema") if record is not None else None
    if schema == RUN_SCHEMA:
        return record
    if schema != LEGACY_LEDGER_SCHEMA:
        return None
    stats = record.get("store")
    times = dict(record.get("stage_wall_time_s") or {})
    upgraded: Dict[str, object] = {
        "schema": RUN_SCHEMA,
        "upgraded_from": LEGACY_LEDGER_SCHEMA,
        **{key: record.get(key) for key in _LEGACY_HEADER},
        "config": {"seed": record["seed"]} if "seed" in record else {},
        "error": None,
        "outcome": {
            **dict.fromkeys(OUTCOME_FIELDS),
            "speedup": record.get("speedup"),
            "verified": record.get("verified"),
            "demotions": record.get("demotions", 0),
        },
        "stage_wall_time_s": times,
        "total_wall_time_s": record.get(
            "total_wall_time_s", round(sum(times.values()), 6)
        ),
        "reused_stages": dict(record.get("reused_stages") or {}),
        "store": (
            {"enabled": True, "root": None, "stats": stats}
            if isinstance(stats, dict) else {"enabled": False}
        ),
        "interpreter": record.get("interpreter"),
        "verification": record.get("verification"),
        "front_door": record.get("front_door"),
        "counters": dict(record.get("counters") or {}),
        "trace": record.get("trace"),
        "env": None,
        "reports": {},
        "observability": None,
    }
    for section in ("service", "fuzz"):
        if section in record:
            upgraded[section] = record[section]
    return upgraded


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
            record = upgrade_record(self.store.get(RUN_LEDGER_NAMESPACE, key))
            if record is not None:
                records.append(record)
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
        return upgrade_record(self.store.get(RUN_LEDGER_NAMESPACE, run_id))

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
