"""The run record: one ``repro.run/2`` dict per run, built in one place.

Every run — a transform, a served request, a fuzz campaign — is described
by one record.  It is written as ``run.json`` when a destination is
configured and appended, unchanged, to the run ledger (which adds only
``run_id``).  Its sections:

* ``outcome`` — the *deterministic* section: what the run produced
  (speedup, verification verdict, demotions, kernels in/out, fused
  groups, targets kept, DDG nodes, OEG edges).  A cold run and a warm
  repeat of the same configuration carry the same outcome;
* per-run sections — ``stage_wall_time_s`` / ``total_wall_time_s``,
  ``reused_stages``, ``store``, ``interpreter``, ``verification``,
  ``front_door``, ``counters``, ``trace``, ``env``, ``reports``,
  ``error`` and ``observability`` (``record_s``: the seconds spent
  building this record; ``counters_s``: the seconds spent re-running
  the transformed program for model-validation counters, 0 when the
  gate's run or the store gave them);
* the header — identity and lineage: ``kind``, ``timestamp``,
  ``unix_time``, ``pid``, ``git_sha``, ``repro_version``, ``source``,
  ``app``, the resolved ``config`` and its ``config_digest``,
  ``exit_code``.

A kind adds one section of its own: ``service`` (the request key, job
id and dedup count of a served execution) or ``fuzz`` (a campaign's
summary).
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from time import perf_counter
from typing import Any, Dict, Optional

RUN_SCHEMA = "repro.run/2"

#: the deterministic ``outcome`` section, in order
OUTCOME_FIELDS = (
    "speedup", "verified", "demotions", "kernels_in", "kernels_out",
    "fused_groups", "targets_kept", "ddg_nodes", "oeg_edges",
)

#: config fields that do not change what a run computes — two runs that
#: differ only here share a baseline lineage for the regression sentinel
_NON_SEMANTIC_CONFIG_FIELDS = frozenset(
    {"workdir", "metrics_out", "trace_out", "store", "store_root", "telemetry"}
)


def git_sha(cwd: Optional[str] = None) -> Optional[str]:
    """Best-effort revision of the working tree (None outside a repo).

    Read once per process and directory: the code a process runs does not
    change under it, and every run record asks.  The answer is kept,
    "not a repository" included; a failed read (a timeout on a loaded
    machine, no runnable ``git``) is retried by the next caller.
    """
    try:
        directory = os.path.realpath(cwd if cwd is not None else os.getcwd())
    except OSError:
        return None
    if directory not in _GIT_SHAS:
        try:
            _GIT_SHAS[directory] = _read_git_sha(directory)
        except (OSError, subprocess.SubprocessError):
            return None
    return _GIT_SHAS[directory]


#: resolved directory -> its revision (None: not a repository), for the
#: directories read so far
_GIT_SHAS: Dict[str, Optional[str]] = {}


def _read_git_sha(directory: str) -> Optional[str]:
    out = subprocess.run(
        ["git", "rev-parse", "HEAD"],
        cwd=directory,
        capture_output=True,
        text=True,
        timeout=5,
    )
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def env_knobs() -> Dict[str, str]:
    """Every ``REPRO_*`` environment variable in effect."""
    return {k: v for k, v in sorted(os.environ.items()) if k.startswith("REPRO_")}


def config_digest(config: Dict[str, object]) -> str:
    """Content digest of a resolved configuration, output paths excluded."""
    slim = {
        k: v
        for k, v in sorted(config.items())
        if k not in _NON_SEMANTIC_CONFIG_FIELDS
    }
    canonical = json.dumps(slim, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def app_of(source: Optional[str]) -> Optional[str]:
    """The app name a source label encodes (None otherwise)."""
    if source and source.startswith("app:"):
        return source[len("app:"):]
    return None


def outcome_of(state: Any) -> Dict[str, object]:
    """The deterministic ``outcome`` section of a possibly-partial
    :class:`~repro.pipeline.stages.PipelineState` (``None``: no state)."""
    from ..errors import PipelineError

    outcome: Dict[str, object] = dict.fromkeys(OUTCOME_FIELDS)
    outcome["demotions"] = 0
    if state is None:
        return outcome
    outcome["verified"] = state.verified
    if state.targets is not None:
        outcome["targets_kept"] = len(state.targets.targets)
    if state.ddg is not None:
        outcome["ddg_nodes"] = state.ddg.number_of_nodes()
        outcome["oeg_edges"] = state.oeg.number_of_edges()
    transform = state.transform
    if transform is not None:
        outcome["demotions"] = len(transform.demotions)
        outcome["kernels_in"] = len(state.program.kernels)
        outcome["kernels_out"] = len(transform.program.kernels)
        outcome["fused_groups"] = len(transform.fused_kernels)
        try:
            outcome["speedup"] = state.speedup
        except PipelineError:
            pass
    return outcome


def build_run_record(
    *,
    kind: str = "transform",
    source: Optional[str],
    config: Dict[str, object],
    exit_code: int = 0,
    error: Optional[Dict[str, object]] = None,
    state: Any = None,
    stage_times: Optional[Dict[str, float]] = None,
    store: Any = None,
    interpreter: Optional[Dict[str, object]] = None,
    front_door: Optional[Dict[str, object]] = None,
    counters: Optional[Dict[str, float]] = None,
    trace: Optional[Dict[str, object]] = None,
    started: Optional[float] = None,
) -> Dict[str, object]:
    """The one builder of a ``repro.run/2`` record.

    ``state`` is the run's (possibly partial) pipeline state and
    ``store`` its :class:`~repro.store.ArtifactStore` (``None``: no
    store); both may be absent for a run that never started.
    ``started`` is the :func:`time.perf_counter` reading at which the
    caller began collecting the record's inputs (default: now), so
    ``observability.record_s`` covers that collection too.
    """
    start = perf_counter() if started is None else started
    from .. import __version__

    times = {k: round(v, 6) for k, v in (stage_times or {}).items()}
    if store is None:
        store_block: Dict[str, object] = {"enabled": False}
    else:
        store_block = {
            "enabled": True,
            "root": str(store.root),
            "stats": store.stats.as_dict(),
        }
    record: Dict[str, object] = {
        "schema": RUN_SCHEMA,
        "kind": kind,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "unix_time": time.time(),
        "pid": os.getpid(),
        "git_sha": git_sha(),
        "repro_version": __version__,
        "source": source,
        "app": app_of(source),
        "config": config,
        "config_digest": config_digest(config),
        "exit_code": exit_code,
        "error": error,
        "outcome": outcome_of(state),
        "stage_wall_time_s": times,
        "total_wall_time_s": round(sum(times.values()), 6),
        "reused_stages": dict(state.reused) if state is not None else {},
        "store": store_block,
        "interpreter": interpreter,
        "verification": state.verification if state is not None else None,
        "front_door": front_door,
        "counters": dict(counters or {}),
        "trace": trace,
        "env": {
            "python": sys.version.split()[0],
            "platform": platform.platform(),
            "knobs": env_knobs(),
        },
        "reports": dict(state.reports) if state is not None else {},
    }
    record["observability"] = {
        "record_s": round(perf_counter() - start, 6),
        "counters_s": round(state.counters_s, 6) if state is not None else 0.0,
    }
    return record


def write_run_record(path: str, record: Dict[str, object]) -> None:
    """Write ``record`` as ``run.json``."""
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
