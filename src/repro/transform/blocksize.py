"""Thread-block-size tuning for generated kernels (§4.2).

Tuning happens at the *final* transformation step, not inside the
optimization algorithm (occupancy measures utilization, not performance —
including it in the search would pollute the performance projection).  The
tuner leverages the performance model's estimates of shared memory per
block and registers per thread, enumerates candidate block shapes and picks
the one with the highest calculated occupancy.

Because fused kernels bake tile extents into the generated code, tuning is
a *re-generation* step: the caller re-invokes the fusion generator with the
winning shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..gpu.device import DeviceSpec
from ..gpu.occupancy import BlockShape, calculate_occupancy, tune_block_size


@dataclass(frozen=True)
class TuningDecision:
    """Outcome of tuning one kernel."""

    kernel: str
    original_block: Tuple[int, int, int]
    tuned_block: Tuple[int, int, int]
    occupancy_before: float
    occupancy_after: float
    changed: bool
    #: decision restored from the persistent store instead of re-derived
    reused: bool = False

    @property
    def improvement(self) -> float:
        return self.occupancy_after - self.occupancy_before


def smem_per_thread(smem_per_block: int, block: Tuple[int, int, int]) -> float:
    """Shared-memory bytes each thread contributes (tile cost scales with
    block area, so per-thread cost is roughly shape-invariant)."""
    threads = max(1, block[0] * block[1] * block[2])
    return smem_per_block / threads


def tune_kernel_block(
    device: DeviceSpec,
    kernel_name: str,
    block: Tuple[int, int, int],
    smem_per_block: int,
    regs_per_thread: int,
    dims: int = 2,
) -> TuningDecision:
    """Tune one kernel's block shape for occupancy.

    The current configuration's occupancy is compared against the best
    achievable over the candidate shapes; the block only changes when the
    tuner strictly improves occupancy.
    """
    threads = max(1, block[0] * block[1] * block[2])
    try:
        before = calculate_occupancy(
            device, threads, smem_per_block, regs_per_thread
        ).occupancy
    except ValueError:
        before = 0.0
    per_thread = smem_per_thread(smem_per_block, block)
    shape, result = tune_block_size(
        device,
        per_thread,
        regs_per_thread,
        dims=dims,
        current=BlockShape(*block),
    )
    if result.occupancy > before + 1e-9:
        return TuningDecision(
            kernel=kernel_name,
            original_block=block,
            tuned_block=shape.as_tuple(),
            occupancy_before=before,
            occupancy_after=result.occupancy,
            changed=shape.as_tuple() != block,
        )
    return TuningDecision(
        kernel=kernel_name,
        original_block=block,
        tuned_block=block,
        occupancy_before=before,
        occupancy_after=before,
        changed=False,
    )
