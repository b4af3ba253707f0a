"""CUDA occupancy calculator model (§4.2 of the paper).

Occupancy is the ratio of sustained active warps to the maximum possible
active warps per SM.  Active blocks per SM are limited by four resources:

* warps            — ``max_warps_per_sm // warps_per_block``
* shared memory    — ``shared_mem_per_sm // smem_per_block`` (granular)
* registers        — register file split across blocks (granular, per warp)
* hardware blocks  — ``max_blocks_per_sm``

The paper tunes the thread-block size of newly generated kernels by
enumerating feasible block sizes and picking the one with the highest
calculated occupancy; :func:`tune_block_size` implements exactly that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Tuple

from .device import DeviceSpec


def _round_up(value: int, granularity: int) -> int:
    if granularity <= 0:
        return value
    return ((value + granularity - 1) // granularity) * granularity


@dataclass(frozen=True)
class OccupancyResult:
    """Outcome of one occupancy calculation."""

    block_size: int
    warps_per_block: int
    active_blocks_per_sm: int
    active_warps_per_sm: int
    occupancy: float
    #: Which resource bound the result: 'warps', 'smem', 'regs' or 'blocks'.
    limiter: str


@lru_cache(maxsize=4096)
def calculate_occupancy(
    device: DeviceSpec,
    threads_per_block: int,
    smem_per_block: int = 0,
    regs_per_thread: int = 32,
) -> OccupancyResult:
    """Compute achievable occupancy for a kernel configuration.

    Mirrors the CUDA occupancy calculator's arithmetic: each limit is
    computed independently and the minimum wins.  Pure in its arguments
    (``DeviceSpec`` is frozen), so results are memoized; the result is
    frozen too.

    Raises
    ------
    ValueError
        If the configuration can never run (block too large, too much shared
        memory per block, too many registers per thread).
    """
    if threads_per_block <= 0:
        raise ValueError("threads_per_block must be positive")
    if threads_per_block > device.max_threads_per_block:
        raise ValueError(
            f"block of {threads_per_block} exceeds device limit "
            f"{device.max_threads_per_block}"
        )
    if smem_per_block > device.shared_mem_per_block:
        raise ValueError(
            f"{smem_per_block} B shared memory exceeds per-block limit "
            f"{device.shared_mem_per_block} B"
        )
    if regs_per_thread > device.max_regs_per_thread:
        raise ValueError(
            f"{regs_per_thread} registers/thread exceeds device limit "
            f"{device.max_regs_per_thread}"
        )

    warps_per_block = math.ceil(threads_per_block / device.warp_size)
    unlimited = 10 ** 9

    limits = {"warps": device.max_warps_per_sm // warps_per_block}

    smem_alloc = _round_up(smem_per_block, device.smem_alloc_granularity)
    limits["smem"] = (
        device.shared_mem_per_sm // smem_alloc if smem_alloc > 0 else unlimited
    )

    regs_per_warp = _round_up(
        regs_per_thread * device.warp_size, device.reg_alloc_granularity
    )
    regs_per_block = regs_per_warp * warps_per_block
    limits["regs"] = (
        device.regs_per_sm // regs_per_block if regs_per_block > 0 else unlimited
    )

    limits["blocks"] = device.max_blocks_per_sm

    limiter = min(limits, key=lambda k: limits[k])
    active_blocks = limits[limiter]
    if active_blocks < 1:
        raise ValueError(
            f"configuration cannot launch: {limiter} limit admits zero "
            f"blocks ({threads_per_block} threads, {smem_per_block} B smem, "
            f"{regs_per_thread} regs/thread)"
        )
    active_warps = active_blocks * warps_per_block
    occupancy = active_warps / device.max_warps_per_sm
    return OccupancyResult(
        block_size=threads_per_block,
        warps_per_block=warps_per_block,
        active_blocks_per_sm=active_blocks,
        active_warps_per_sm=active_warps,
        occupancy=min(occupancy, 1.0),
        limiter=limiter,
    )


def enumerate_block_sizes(
    device: DeviceSpec, minimum: int = 32, step: int = 32
) -> Tuple[int, ...]:
    """All thread-block sizes the tuner considers (multiples of a warp)."""
    return tuple(range(minimum, device.max_threads_per_block + 1, step))


@dataclass(frozen=True)
class BlockShape:
    """A 3-D thread-block shape ``(x, y, z)``."""

    x: int
    y: int
    z: int = 1

    @property
    def size(self) -> int:
        return self.x * self.y * self.z

    def as_tuple(self) -> Tuple[int, int, int]:
        return (self.x, self.y, self.z)


def candidate_shapes(
    device: DeviceSpec, dims: int = 2
) -> Tuple[BlockShape, ...]:
    """Enumerate rectangular block shapes for 1/2/3-D stencil kernels.

    The x extent is kept a multiple of the warp size where possible so the
    contiguous (unit-stride) dimension maps onto whole warps — the common
    horizontal mapping for GPU stencils.
    """
    shapes: List[BlockShape] = []
    if dims == 1:
        for x in enumerate_block_sizes(device):
            shapes.append(BlockShape(x, 1, 1))
        return tuple(shapes)
    xs = (16, 32, 64, 128, 256)
    ys = (1, 2, 4, 8, 16, 32)
    for x in xs:
        for y in ys:
            size = x * y
            if size < device.warp_size or size > device.max_threads_per_block:
                continue
            shapes.append(BlockShape(x, y, 1))
    return tuple(shapes)


def tune_block_size(
    device: DeviceSpec,
    smem_per_thread: float,
    regs_per_thread: int,
    dims: int = 2,
    current: Optional[BlockShape] = None,
) -> Tuple[BlockShape, OccupancyResult]:
    """Pick the block shape with the highest calculated occupancy (§4.2).

    ``smem_per_thread`` is the shared-memory footprint each thread
    contributes (bytes); the per-block footprint scales with the block size,
    which is how fused kernels staging more arrays get steered towards
    smaller blocks.

    Returns the winning shape and its occupancy.  Ties prefer (a) the current
    shape if given (avoid churn), then (b) larger blocks (fewer blocks to
    schedule).
    """
    best: Optional[Tuple[BlockShape, OccupancyResult]] = None
    for shape in candidate_shapes(device, dims):
        smem = int(math.ceil(smem_per_thread * shape.size))
        if smem > device.shared_mem_per_block:
            continue
        try:
            result = calculate_occupancy(device, shape.size, smem, regs_per_thread)
        except ValueError:
            continue
        if best is None:
            best = (shape, result)
            continue
        incumbent = best[1]
        if result.occupancy > incumbent.occupancy + 1e-12:
            best = (shape, result)
        elif abs(result.occupancy - incumbent.occupancy) <= 1e-12:
            if current is not None and shape == current and best[0] != current:
                best = (shape, result)
            elif shape.size > best[0].size and (current is None or best[0] != current):
                best = (shape, result)
    if best is None:
        raise ValueError("no feasible block size for this kernel on this device")
    return best
