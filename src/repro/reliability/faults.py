"""Deterministic fault injection at named pipeline seams.

The degradation paths built into the pipeline (per-group demotion, store
corruption recovery, service-worker respawn) are only trustworthy if they
are exercised, so this module lets tests and CI inject failures *inside*
the production code paths, deterministically.

Seams
-----
``parse``
    Raised while re-parsing a group constituent before fusion.
``analysis``
    Raised while building a node's :class:`NodeInfo` in the problem
    builder; the builder falls back to a conservative, fusion-ineligible
    description of the node.
``codegen``
    Raised just before ``fuse_kernels`` for a group; the group is demoted
    along the fusion ladder.
``interpreter``
    Raised inside the verification gate's fused-kernel execution (never
    in baseline runs, which must stay clean references).
``store``
    Poisons a persistent artifact-store read (``repro.store``); envelope
    validation must treat the entry as corrupt and degrade the stage to
    a cold (uncached) execution.
``service_worker``
    Hard-kills a ``repro.service`` pool worker (``os._exit``) right
    after it accepts a job — the serving pool must detect the dead
    pipe, respawn the worker and retry the job within its bounded
    retry budget.

Configuration
-------------
``REPRO_FAULT_SEAMS``
    Comma-separated seam specs.  Each spec is ``seam`` (always fire),
    ``seam:P`` (fire with probability ``P``), ``seam:xN`` (fire on the
    first ``N`` visits only) or ``seam:@K`` (fire on visit ``K`` only,
    1-based); suffixes combine left to right, e.g. ``codegen:0.5:x2``.
``REPRO_FAULT_SEED``
    Seed for the probabilistic decisions (default ``0``).  Firing is a
    pure function of (seed, seam, visit number), so a plan replays
    identically across runs.

A plan can be installed programmatically (:func:`install_plan`) or lazily
from the environment: the first :func:`check` call in a process with no
plan installed reads the env vars, which is what makes the seams reach
spawned service workers without extra plumbing.
"""

from __future__ import annotations

import hashlib
import os
import threading
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..errors import FaultInjectionError

ENV_FAULT_SEAMS = "REPRO_FAULT_SEAMS"
ENV_FAULT_SEED = "REPRO_FAULT_SEED"

#: the canonical registry of every seam the production code paths visit.
#: All entry points — the ``REPRO_FAULT_SEAMS`` parser, programmatic
#: :class:`FaultPlan` construction and the :func:`check` /
#: :func:`poison_cache_value` call sites — validate against it, so a
#: typo'd seam name fails loudly instead of silently never firing.
KNOWN_SEAMS = (
    "parse",
    "analysis",
    "codegen",
    "interpreter",
    "store",
    "service_worker",
)

_KNOWN_SEAM_SET = frozenset(KNOWN_SEAMS)


def _require_known(seam: str, what: str) -> None:
    if seam not in _KNOWN_SEAM_SET:
        raise FaultInjectionError(
            f"unknown fault seam {seam!r} ({what}); "
            f"known seams: {', '.join(KNOWN_SEAMS)}"
        )


@dataclass
class _SeamSpec:
    probability: float = 1.0
    max_fires: Optional[int] = None  # xN: stop after N fires
    only_visit: Optional[int] = None  # @K: fire on visit K only (1-based)


@dataclass
class FaultPlan:
    """A deterministic schedule of fault firings.

    ``should_fire`` is a pure function of (seed, seam, visit counter), so
    two runs with the same plan observe the same faults at the same
    points regardless of thread/process scheduling.
    """

    seams: Dict[str, _SeamSpec] = field(default_factory=dict)
    seed: int = 0
    _visits: Dict[str, int] = field(default_factory=dict)
    _fires: Dict[str, int] = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def __post_init__(self) -> None:
        # programmatic plans bypass parse_seam_specs; validate here so a
        # typo'd seam cannot be installed and silently never fire
        for seam in self.seams:
            _require_known(seam, "in FaultPlan.seams")

    def should_fire(self, seam: str) -> bool:
        spec = self.seams.get(seam)
        if spec is None:
            return False
        with self._lock:
            self._visits[seam] = self._visits.get(seam, 0) + 1
            visit = self._visits[seam]
            if spec.only_visit is not None and visit != spec.only_visit:
                return False
            if spec.max_fires is not None and self._fires.get(seam, 0) >= spec.max_fires:
                return False
            if spec.probability < 1.0:
                digest = hashlib.sha256(
                    f"{self.seed}:{seam}:{visit}".encode()
                ).digest()
                draw = int.from_bytes(digest[:8], "big") / float(2**64)
                if draw >= spec.probability:
                    return False
            self._fires[seam] = self._fires.get(seam, 0) + 1
            return True

    def counts(self) -> Dict[str, Tuple[int, int]]:
        """(visits, fires) per configured seam — for tests/diagnostics."""
        with self._lock:
            return {
                seam: (self._visits.get(seam, 0), self._fires.get(seam, 0))
                for seam in self.seams
            }


def parse_seam_specs(raw: str) -> Dict[str, _SeamSpec]:
    """Parse a ``REPRO_FAULT_SEAMS`` value into seam specs."""
    seams: Dict[str, _SeamSpec] = {}
    for token in raw.split(","):
        token = token.strip()
        if not token:
            continue
        parts = token.split(":")
        name = parts[0].strip()
        _require_known(name, f"in {ENV_FAULT_SEAMS} spec {token!r}")
        spec = _SeamSpec()
        for mod in parts[1:]:
            mod = mod.strip()
            try:
                if mod.startswith("x"):
                    spec.max_fires = int(mod[1:])
                elif mod.startswith("@"):
                    spec.only_visit = int(mod[1:])
                else:
                    spec.probability = float(mod)
                    if not 0.0 <= spec.probability <= 1.0:
                        raise ValueError
            except ValueError:
                raise FaultInjectionError(
                    f"malformed fault spec {token!r}: bad modifier {mod!r}"
                ) from None
        seams[name] = spec
    return seams


def plan_from_env(environ: Optional[Dict[str, str]] = None) -> Optional[FaultPlan]:
    """Build a plan from ``REPRO_FAULT_*`` env vars; None when unset."""
    env = os.environ if environ is None else environ
    raw = env.get(ENV_FAULT_SEAMS, "").strip()
    if not raw:
        return None
    seed = 0
    try:
        seed = int(env.get(ENV_FAULT_SEED, "0"))
    except ValueError:
        pass
    return FaultPlan(seams=parse_seam_specs(raw), seed=seed)


# ----------------------------------------------------------- active-plan state

_state_lock = threading.Lock()
_active: Optional[FaultPlan] = None
_env_checked = False


def install_plan(plan: Optional[FaultPlan]) -> None:
    """Install ``plan`` as this process's active plan (None disables)."""
    global _active, _env_checked
    with _state_lock:
        _active = plan
        _env_checked = True


def clear_plan() -> None:
    """Remove any active plan and forget the env lookup (tests)."""
    global _active, _env_checked
    with _state_lock:
        _active = None
        _env_checked = False


def active_plan() -> Optional[FaultPlan]:
    """The process's active plan, lazily initialized from the environment.

    Lazy env initialization is what carries fault plans into service
    workers: the child inherits ``REPRO_FAULT_SEAMS`` and builds its own
    plan on first use.
    """
    global _active, _env_checked
    with _state_lock:
        if not _env_checked:
            _active = plan_from_env()
            _env_checked = True
        return _active


def check(seam: str, describe: str = "") -> None:
    """Raise the seam's canonical error if the active plan says to fire.

    Call sites sit *inside* production code paths; with no plan active
    this is a dictionary miss and costs nothing.
    """
    _require_known(seam, "at a check() call site")
    plan = active_plan()
    if plan is None or not plan.should_fire(seam):
        return
    suffix = f" ({describe})" if describe else ""
    # imported here to keep this module dependency-free at import time
    from ..errors import (
        AnalysisError,
        InterpreterError,
        ParseError,
        TransformError,
    )

    if seam == "parse":
        raise ParseError(f"injected parse fault{suffix}")
    if seam == "analysis":
        raise AnalysisError(f"injected analysis fault{suffix}")
    if seam == "codegen":
        raise TransformError(f"injected codegen fault{suffix}")
    if seam == "interpreter":
        from ..errors import OutOfBoundsError

        raise OutOfBoundsError(f"injected interpreter OOB fault{suffix}")
    raise FaultInjectionError(
        f"seam {seam!r} cannot be raised via check(); use its dedicated hook"
    )


def poison_cache_value(seam: str) -> bool:
    """Should the current cache read be poisoned?  (read-side hook)"""
    _require_known(seam, "at a poison_cache_value() call site")
    plan = active_plan()
    return plan is not None and plan.should_fire(seam)


def service_worker_fault() -> None:
    """Hard-kill the current service pool worker if the seam fires.

    Called by ``repro.service.worker`` between accepting a job and
    running it — the point where a crash is hardest for the pool to
    confuse with a clean result.  Only ever fires in a dedicated worker
    subprocess, so ``os._exit`` is safe (and is the point: the parent
    must see a dead pipe, not an exception)."""
    plan = active_plan()
    if plan is not None and plan.should_fire("service_worker"):
        os._exit(23)
