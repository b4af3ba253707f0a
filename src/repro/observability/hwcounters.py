"""Hardware-ish counters for the CudaLite interpreter.

Real tuning studies validate analytic models against hardware counters
(nvprof's ``gld_transactions`` & friends); the reproduction's "hardware"
is the interpreter, so the counters are defined over its execution and
gathered per kernel launch into a :class:`KernelCounters` attached to the
launch's :class:`~repro.gpu.interpreter.LaunchRecord`.

Counter semantics (deterministic, hand-countable, identical across the
``vectorized`` / ``loop`` / ``batched`` execution modes):

``global_loads`` / ``global_stores``
    Each evaluation of an array read/write site counts **one event per
    active thread** executing it.  A load inside a ``for`` loop therefore
    counts once per active thread per iteration — what a GPU would issue.
    Byte totals accumulate ``events * itemsize`` alongside.
``shared_loads`` / ``shared_stores``
    Same rule, for ``__shared__`` arrays.
``syncthreads``
    One event per ``__syncthreads()`` execution **per thread block** it
    covers (the vectorized and batched lattices span every block at once,
    the loop mode executes it once per block).
``branch_divergence``
    One event per ``if`` execution whose condition is thread-varying and
    on which the active threads disagree (both outcomes taken).  This is
    a launch-level approximation of warp divergence — coarser than a warp
    scoreboard but exactly the effect the performance model's
    ``divergence_factor`` charges.  Unlike the other counters it is
    *execution-shape dependent*: the per-block loop sees one ``if``
    execution per block where the whole-grid lattices see one, so loop
    totals can legitimately exceed batched/vectorized totals.
    :func:`counters_signature` provides the mode-invariant projection
    for cross-mode differential checks.

Counting is opt-in (``collect_counters=True`` on the interpreter entry
points); when off, the interpreter's hot paths pay one ``is not None``
check per event site.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional


@dataclass
class KernelCounters:
    """Event counters for one kernel launch (or an aggregate of many)."""

    kernel: str = ""
    launches: int = 1
    global_loads: int = 0
    global_stores: int = 0
    shared_loads: int = 0
    shared_stores: int = 0
    global_load_bytes: int = 0
    global_store_bytes: int = 0
    syncthreads: int = 0
    branch_divergence: int = 0

    # ------------------------------------------------------------ recording

    def count_load(self, shared: bool, threads: int, itemsize: int) -> None:
        if shared:
            self.shared_loads += threads
        else:
            self.global_loads += threads
            self.global_load_bytes += threads * itemsize

    def count_store(self, shared: bool, threads: int, itemsize: int) -> None:
        if shared:
            self.shared_stores += threads
        else:
            self.global_stores += threads
            self.global_store_bytes += threads * itemsize

    # ----------------------------------------------------------- combining

    def merge(self, other: "KernelCounters") -> None:
        self.launches += other.launches
        self.global_loads += other.global_loads
        self.global_stores += other.global_stores
        self.shared_loads += other.shared_loads
        self.shared_stores += other.shared_stores
        self.global_load_bytes += other.global_load_bytes
        self.global_store_bytes += other.global_store_bytes
        self.syncthreads += other.syncthreads
        self.branch_divergence += other.branch_divergence

    @property
    def global_bytes(self) -> int:
        """Total bytes moved through the (simulated) global memory."""
        return self.global_load_bytes + self.global_store_bytes

    def as_dict(self) -> Dict[str, object]:
        return {
            "kernel": self.kernel,
            "launches": self.launches,
            "global_loads": self.global_loads,
            "global_stores": self.global_stores,
            "shared_loads": self.shared_loads,
            "shared_stores": self.shared_stores,
            "global_load_bytes": self.global_load_bytes,
            "global_store_bytes": self.global_store_bytes,
            "syncthreads": self.syncthreads,
            "branch_divergence": self.branch_divergence,
        }


#: counters whose totals are identical across loop/batched/vectorized
#: execution (branch_divergence is per execution site, which the
#: per-block loop visits once per block)
MODE_INVARIANT_FIELDS = (
    "launches",
    "global_loads",
    "global_stores",
    "shared_loads",
    "shared_stores",
    "global_load_bytes",
    "global_store_bytes",
    "syncthreads",
)


def counters_signature(
    counters: Iterable[Optional[KernelCounters]],
) -> Dict[str, Dict[str, int]]:
    """Canonical per-kernel totals for differential comparison: the
    projection onto :data:`MODE_INVARIANT_FIELDS`, which must compare
    equal across *all* execution modes.
    """
    return {
        kernel: {f: int(getattr(total, f)) for f in MODE_INVARIANT_FIELDS}
        for kernel, total in sorted(aggregate_counters(counters, by_kernel=True).items())
    }


def aggregate_counters(
    counters: Iterable[Optional[KernelCounters]],
    by_kernel: bool = False,
) -> Dict[str, KernelCounters]:
    """Fold per-launch counters into totals.

    Returns ``{"<total>": totals}`` or per-kernel totals when
    ``by_kernel`` is set (keyed by kernel name).  ``None`` entries
    (launches executed without counting) are skipped.
    """
    out: Dict[str, KernelCounters] = {}
    for c in counters:
        if c is None:
            continue
        key = c.kernel if by_kernel else "<total>"
        if key not in out:
            out[key] = KernelCounters(kernel=key, launches=0)
        out[key].merge(c)
    return out
