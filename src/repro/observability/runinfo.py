"""The run manifest: one ``run.json`` per pipeline invocation.

Records everything needed to reproduce and audit a run — the resolved
configuration, the ``REPRO_*`` environment knobs in effect, the seed, the
git revision, per-stage wall time, and the outcome (final speedup and
verification verdict, or the stage-tagged diagnostic of a failed run, so
exit-code-2 failures leave a machine-readable trace too).
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from typing import Dict, Optional


def git_sha(cwd: Optional[str] = None) -> Optional[str]:
    """Best-effort revision of the working tree (None outside a repo).

    Read once per process and directory: the code a process runs does not
    change under it, and every ledger record and ``run.json`` asks.  Only
    a revision is kept; a failed read (a timeout on a loaded machine) is
    retried by the next caller.
    """
    try:
        directory = os.path.realpath(cwd if cwd is not None else os.getcwd())
    except OSError:
        return None
    sha = _GIT_SHAS.get(directory)
    if sha is None:
        sha = _read_git_sha(directory)
        if sha is not None:
            _GIT_SHAS[directory] = sha
    return sha


#: resolved directory -> its revision, for the directories read so far
_GIT_SHAS: Dict[str, str] = {}


def _read_git_sha(directory: str) -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=directory,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def env_knobs() -> Dict[str, str]:
    """Every ``REPRO_*`` environment variable in effect."""
    return {k: v for k, v in sorted(os.environ.items()) if k.startswith("REPRO_")}


def build_run_manifest(
    *,
    source: Optional[str] = None,
    config: Optional[Dict[str, object]] = None,
    stage_times: Optional[Dict[str, float]] = None,
    reports: Optional[Dict[str, str]] = None,
    speedup: Optional[float] = None,
    verified: Optional[bool] = None,
    demotions: int = 0,
    exit_code: int = 0,
    error: Optional[Dict[str, object]] = None,
    extra: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Assemble the manifest dict (the CLI writes it as ``run.json``)."""
    manifest: Dict[str, object] = {
        "schema": "repro.run/1",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "source": source,
        "config": config or {},
        "env": {
            "python": sys.version.split()[0],
            "platform": platform.platform(),
            "knobs": env_knobs(),
        },
        "git_sha": git_sha(),
        "stage_wall_time_s": {
            k: round(v, 6) for k, v in (stage_times or {}).items()
        },
        "total_wall_time_s": round(sum((stage_times or {}).values()), 6),
        "reports": reports or {},
        "speedup": speedup,
        "verified": verified,
        "demotions": demotions,
        "exit_code": exit_code,
        "error": error,
    }
    if extra:
        manifest.update(extra)
    return manifest


def write_run_manifest(path: str, manifest: Dict[str, object]) -> None:
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
