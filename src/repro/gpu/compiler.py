"""Counters of the retired compiled executor, always zero.

Every kernel launch runs on the tree-walker in
:mod:`repro.gpu.interpreter`; nothing is lowered or compiled.  This
module keeps only the two read-outs the end-to-end benchmark harness
imports (``benchmarks/e2e/workloads.py`` reports ``stats().lowered`` and
``len(stats().fallback_reasons)`` as the ``gpu.compiler_*`` rows and calls
:func:`reset_code_cache` before each cold op).  Delete it when the
harness stops importing it (ROADMAP item 1(a)).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

__all__ = ["CompilerStats", "reset_code_cache", "stats"]


@dataclass(frozen=True)
class CompilerStats:
    """Kernels lowered and kernels that fell back: none, by construction."""

    lowered: int = 0
    fallback_reasons: Dict[str, str] = field(default_factory=dict)


def stats() -> CompilerStats:
    return CompilerStats()


def reset_code_cache() -> None:
    """Nothing is cached."""
