"""Deterministic crash bucketing and campaign reports.

Two runs of the same campaign must produce the same buckets, so a bucket
key is built only from stable exception features:

* the pipeline **stage** (when the exception is a
  :class:`~repro.errors.ReproError` carrying one, else ``"-"``),
* the exception **type** name,
* the **top repro frame** — the innermost traceback frame inside the
  ``repro`` package, normalized to ``module:function`` (paths, line
  numbers and message text are deliberately excluded: they vary across
  checkouts and refactors faster than the defect does).

The JSON campaign report (schema ``repro.fuzz/1``) is what CI archives
and what ``scripts/check_fuzz_report.py`` validates.
"""

from __future__ import annotations

import json
import platform
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Sequence, Union

__all__ = [
    "REPORT_SCHEMA",
    "CrashBucket",
    "bucket_exception",
    "build_report",
    "write_report",
]

REPORT_SCHEMA = "repro.fuzz/1"


@dataclass(frozen=True)
class CrashBucket:
    """Stable identity of one crash class."""

    stage: str
    exc_type: str
    frame: str  # "module:function" of the innermost repro frame

    @property
    def key(self) -> str:
        return f"{self.stage}|{self.exc_type}|{self.frame}"


def _normalize_module(filename: str) -> Optional[str]:
    """``.../src/repro/gpu/interpreter.py`` -> ``repro.gpu.interpreter``."""
    parts = Path(filename).with_suffix("").parts
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] == "repro":
            return ".".join(parts[index:])
    return None


def bucket_exception(exc: BaseException) -> CrashBucket:
    """Deterministically bucket ``exc`` by (stage, type, top repro frame)."""
    stage = getattr(exc, "stage", None) or "-"
    frame = "-"
    for summary in reversed(traceback.extract_tb(exc.__traceback__)):
        module = _normalize_module(summary.filename)
        if module is not None:
            frame = f"{module}:{summary.name}"
            break
    return CrashBucket(
        stage=str(stage), exc_type=type(exc).__name__, frame=frame
    )


def crash_record(
    seed: int, where: str, exc: BaseException, bucket: Optional[CrashBucket] = None
) -> Dict[str, object]:
    """A JSON-serializable record of one bucketed crash."""
    bucket = bucket or bucket_exception(exc)
    return {
        "seed": seed,
        "where": where,
        "bucket": bucket.key,
        "stage": bucket.stage,
        "exc_type": bucket.exc_type,
        "frame": bucket.frame,
        "message": str(exc)[:500],
    }


def build_report(
    campaign: Dict[str, object],
    failures: Sequence[Dict[str, object]],
    crashes: Sequence[Dict[str, object]],
    apps: int,
) -> Dict[str, object]:
    """Assemble the campaign report (schema ``repro.fuzz/1``).

    ``summary.unbucketed`` exists so the CI gate can assert it is zero:
    every crash the campaign sees must carry a bucket key.
    """
    buckets: Dict[str, int] = {}
    unbucketed = 0
    for crash in crashes:
        key = crash.get("bucket")
        if not key:
            unbucketed += 1
            continue
        buckets[str(key)] = buckets.get(str(key), 0) + 1
    return {
        "schema": REPORT_SCHEMA,
        "campaign": dict(campaign),
        "platform": {
            "python": platform.python_version(),
            "system": platform.system(),
        },
        "summary": {
            "apps": apps,
            "failures": len(failures),
            "crashes": len(crashes),
            "unbucketed": unbucketed,
            "buckets": dict(sorted(buckets.items())),
        },
        "failures": list(failures),
        "crashes": list(crashes),
    }


def write_report(report: Dict[str, object], path: Union[str, Path]) -> None:
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")


def load_report(path: Union[str, Path]) -> Dict[str, object]:
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict):
        raise ValueError(f"{path}: fuzz report must be a JSON object")
    return data
