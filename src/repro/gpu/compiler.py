"""Compile CudaLite kernels once, execute them many times.

This is the ``compiled`` execution mode's engine: a kernel is lowered
(:mod:`repro.gpu.lowering`) into vectorized numpy Python source exactly
once, ``compile()``d in-process, and cached two ways:

* an in-memory code cache keyed by kernel content hash — repeated
  launches of the same kernel (the common case: verification replays,
  fitness sweeps, multi-step host loops) pay zero lowering cost, and
  kernels that failed to lower are negatively cached so the fallback
  decision is also taken once;
* a persistent ``compiled_kernel`` namespace in the
  :class:`~repro.store.artifact_store.ArtifactStore` the caller passes
  (the run's own store during transforms; ``None`` = memory only) — warm
  runs skip lowering entirely.  Only *source* is persisted,
  version-salted like every other envelope, and recompiled on load.

The cache key is the SHA-256 of the kernel's canonical unparsed text, so
textually identical kernels share one compiled function across programs,
and any edit changes the address.
"""

from __future__ import annotations

import logging
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, Optional

from ..cudalite import ast_nodes as ast
from ..errors import LoweringError
from ..observability.metrics import get_registry
from ..store.keys import compiled_kernel_key, kernel_fingerprint
from .lowering import LOWERING_VERSION, lower_kernel, runtime_namespace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (store -> reliability -> gpu)
    from ..store.artifact_store import ArtifactStore

__all__ = [
    "CompiledKernel",
    "CompilerStats",
    "compile_kernel_source",
    "get_compiled_kernel",
    "kernel_fingerprint",
    "note_fallback",
    "reset_code_cache",
    "stats",
]

logger = logging.getLogger(__name__)

#: signature of a compiled kernel: (executor, initial mask) -> None
CompiledFn = Callable[[object, object], None]


@dataclass(frozen=True)
class CompiledKernel:
    """One lowered + compiled kernel."""

    kernel: str
    fingerprint: str
    source: str
    fn: CompiledFn


@dataclass
class CompilerStats:
    """Cache behaviour of the in-process compiler (observability)."""

    lowered: int = 0
    memory_hits: int = 0
    store_hits: int = 0
    fallbacks: int = 0
    fallback_hits: int = 0
    #: kernel name -> why it bypassed compiled execution (first reason
    #: wins); surfaced in ``run.json`` under ``compiled_kernels`` so a
    #: silent per-kernel fallback always leaves a trace
    fallback_reasons: Dict[str, str] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        return {
            "lowered": self.lowered,
            "memory_hits": self.memory_hits,
            "store_hits": self.store_hits,
            "fallbacks": self.fallbacks,
            "fallback_hits": self.fallback_hits,
            "fallback_reasons": dict(sorted(self.fallback_reasons.items())),
        }


_LOCK = threading.Lock()
#: fingerprint -> CompiledKernel, or None for negatively-cached fallbacks
_CODE_CACHE: Dict[str, Optional[CompiledKernel]] = {}
_STATS = CompilerStats()


def note_fallback(kernel_name: str, reason: str, detail: str = "") -> None:
    """Record why ``kernel_name`` bypassed compiled execution.

    Deduplicated by kernel name (the first reason wins), so multi-launch
    kernels record once.  ``reason`` is a low-cardinality label
    (``lowering`` | ``unbatchable_shared`` — block-variant loop bounds or
    shared extents — | ``cross_block_hazard`` — the batched pass was
    aborted and replayed on the block loop — | ``detect_races``) used
    for the metrics counter; ``detail`` carries the specific diagnostic.
    """
    with _LOCK:
        if kernel_name in _STATS.fallback_reasons:
            return
        _STATS.fallback_reasons[kernel_name] = (
            f"{reason}: {detail}" if detail else reason
        )
    get_registry().inc("compiled_fallbacks_total", reason=reason)


def compile_kernel_source(
    source: str, kernel_name: str, fingerprint: str
) -> CompiledKernel:
    """``compile()`` lowered source into an executable kernel closure."""
    namespace = runtime_namespace()
    code = compile(source, f"<compiled kernel {kernel_name}>", "exec")
    exec(code, namespace)  # noqa: S102 - executing our own generated source
    return CompiledKernel(
        kernel=kernel_name,
        fingerprint=fingerprint,
        source=source,
        fn=namespace["_compiled_kernel"],
    )


def get_compiled_kernel(
    kernel: ast.KernelDef, store: Optional[ArtifactStore] = None
) -> Optional[CompiledFn]:
    """Return the compiled function for ``kernel``, or None to fall back.

    The lowered source is shape-independent, so one entry serves both the
    vectorized and the batched lattice.  With a ``store`` the source is
    also looked up in / persisted to its ``compiled_kernel`` namespace.
    Lowering failures are negatively cached; every path through here is
    safe to call from concurrent evaluator threads.
    """
    fingerprint = kernel_fingerprint(kernel)
    with _LOCK:
        if fingerprint in _CODE_CACHE:
            cached = _CODE_CACHE[fingerprint]
            if cached is None:
                _STATS.fallback_hits += 1
                return None
            _STATS.memory_hits += 1
            return cached.fn
    compiled: Optional[CompiledKernel] = None
    if store is not None:
        from ..store.stage_cache import load_compiled_kernel

        key = compiled_kernel_key(fingerprint, LOWERING_VERSION)
        source = load_compiled_kernel(store, key, LOWERING_VERSION)
        if source is not None:
            try:
                compiled = compile_kernel_source(source, kernel.name, fingerprint)
            except Exception:
                logger.debug(
                    "stored compiled kernel %s failed to recompile; relowering",
                    kernel.name,
                    exc_info=True,
                )
            else:
                with _LOCK:
                    _STATS.store_hits += 1
                    _CODE_CACHE[fingerprint] = compiled
                return compiled.fn
    try:
        source = lower_kernel(kernel)
        compiled = compile_kernel_source(source, kernel.name, fingerprint)
    except LoweringError as exc:
        logger.debug("kernel %s not compiled: %s", kernel.name, exc)
        with _LOCK:
            _STATS.fallbacks += 1
            _CODE_CACHE[fingerprint] = None
        note_fallback(kernel.name, "lowering", str(exc))
        return None
    with _LOCK:
        _STATS.lowered += 1
        _CODE_CACHE[fingerprint] = compiled
    if store is not None:
        from ..store.stage_cache import save_compiled_kernel

        try:
            save_compiled_kernel(
                store, key, kernel.name, compiled.source, LOWERING_VERSION
            )
        except Exception:  # best-effort persistence
            logger.debug("compiled kernel %s not persisted", kernel.name, exc_info=True)
    return compiled.fn


def stats() -> CompilerStats:
    """Snapshot of the in-process compiler's cache counters."""
    with _LOCK:
        return CompilerStats(**_STATS.as_dict())


def reset_code_cache() -> None:
    """Drop the in-memory code cache and stats (tests / benchmarks)."""
    with _LOCK:
        _CODE_CACHE.clear()
        _STATS.lowered = 0
        _STATS.memory_hits = 0
        _STATS.store_hits = 0
        _STATS.fallbacks = 0
        _STATS.fallback_hits = 0
        _STATS.fallback_reasons.clear()
