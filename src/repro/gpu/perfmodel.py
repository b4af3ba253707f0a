"""Analytic performance model for (simulated) stencil kernels.

This is the reproduction's substitute for running on a K20X/K40: a
roofline-style projection

``t = max(bytes / BW_eff(occupancy), flops / peak) + launch_overhead``

with three effects the paper's evaluation hinges on:

* **Read redundancy.**  Untiled stencil reads pay a cache-miss redundancy
  that grows with the neighborhood radius; shared-memory tiles instead pay
  the halo-load redundancy ``(bx+2r)(by+2r)/(bx·by)``.  Fusion wins by
  replacing N kernels' independent reads of a shared array with one staged
  read.
* **Occupancy.**  Effective bandwidth scales with occupancy up to a Kepler
  saturation point; fused kernels use more shared memory and registers,
  which lowers occupancy — the constraint the GGA search and the
  block-size tuner (§4.2) manage.
* **Code-generation quality.**  The paper found automated fusion loses to
  manual fusion through (a) un-shared deep loop nests (shared data re-read
  per loop) and (b) two-sided divergence guards.  Generated kernels carry
  :class:`CodegenTraits` describing these effects so the model charges them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Set, Tuple

from ..analysis.volume import LaunchVolume
from .device import DeviceSpec
from .occupancy import calculate_occupancy

#: Per-radius cache redundancy for untiled stencil reads.  Radius-0 streams
#: perfectly; each extra halo ring costs ~25% extra traffic on Kepler-class
#: caches.
CACHE_REDUNDANCY_PER_RADIUS = 0.25


def cache_redundancy(radius: int) -> float:
    """Traffic multiplier for an untiled stencil read of the given radius."""
    return 1.0 + CACHE_REDUNDANCY_PER_RADIUS * max(0, radius)


def tile_halo_factor(block: Tuple[int, int, int], radius: int) -> float:
    """Traffic multiplier for a shared-memory tile with halo ``radius``.

    Tiles follow the common horizontal (x, y) mapping; the z dimension is
    iterated sequentially and does not need a halo in shared memory.
    """
    bx, by = max(1, block[0]), max(1, block[1])
    if radius <= 0:
        return 1.0
    return ((bx + 2 * radius) * (by + 2 * radius)) / float(bx * by)


def estimate_registers(n_arrays: int, flops_per_point: float) -> int:
    """Heuristic register usage of a stencil kernel.

    Base thread state plus ~3 registers per live array pointer/index and a
    contribution from expression complexity.  Fused kernels touch more
    arrays and hold more temporaries, which is what pushes occupancy down.
    """
    regs = 14 + 2 * n_arrays + int(flops_per_point / 6.0)
    return max(16, min(112, regs))


@dataclass
class CodegenTraits:
    """How a kernel's generated code interacts with the memory hierarchy.

    Original (untransformed) kernels get default traits: nothing staged,
    every array read once per point with cache redundancy, no divergence
    penalty.
    """

    #: Arrays staged into shared-memory tiles (pay halo factor, not cache).
    staged: Set[str] = field(default_factory=set)
    #: Arrays whose global reads are fully served from on-chip data produced
    #: earlier in the same kernel (complex fusion's intermediate values).
    on_chip: Set[str] = field(default_factory=set)
    #: Per-array read multiplicity: >1 when separate (un-shared) loop nests
    #: each re-read the array (the automated deep-loop inefficiency).
    rereads: Dict[str, int] = field(default_factory=dict)
    #: Per-array stencil radius (for halo / cache factors).
    radius: Dict[str, int] = field(default_factory=dict)
    #: Warp-divergence multiplier on execution time (>= 1.0).
    divergence_factor: float = 1.0
    #: Shared memory per block in bytes.
    smem_per_block: int = 0
    #: Register estimate per thread.
    regs_per_thread: int = 32
    #: Extra sites computed per block for temporal blocking (halo compute).
    halo_compute_factor: float = 1.0

    def read_factor(self, array: str, block: Tuple[int, int, int]) -> float:
        """Effective traffic multiplier for reading ``array`` once per point."""
        r = self.radius.get(array, 0)
        if array in self.on_chip:
            return 0.0
        rereads = max(1, self.rereads.get(array, 1))
        if array in self.staged:
            # a staged array is loaded once regardless of how many fused
            # constituents consume it; rereads only apply when the codegen
            # failed to share loops (the reread count already reflects that)
            return tile_halo_factor(block, r) * rereads
        return cache_redundancy(r) * rereads


@dataclass(frozen=True)
class KernelProjection:
    """Projected execution profile of one kernel launch."""

    kernel_name: str
    bytes_read: float
    bytes_written: float
    flops: float
    occupancy: float
    time_memory_s: float
    time_compute_s: float
    time_s: float
    limiter: str  # 'memory' or 'compute'

    @property
    def bytes_total(self) -> float:
        return self.bytes_read + self.bytes_written

    @property
    def gflops(self) -> float:
        return self.flops / self.time_s / 1e9 if self.time_s > 0 else 0.0

    @property
    def effective_bandwidth_gbs(self) -> float:
        return self.bytes_total / self.time_s / 1e9 if self.time_s > 0 else 0.0


def roofline(
    device: DeviceSpec,
    block: Tuple[int, int, int],
    smem_per_block: int,
    regs_per_thread: int,
    total_bytes: float,
    flops: float,
    divergence_factor: float = 1.0,
    precision: str = "double",
) -> Tuple[float, float, float, float]:
    """``(occupancy, memory time, compute time, time)`` of one launch
    moving ``total_bytes`` and doing ``flops`` on ``device``."""
    threads_per_block = max(1, block[0] * block[1] * block[2])
    occ = calculate_occupancy(
        device,
        min(threads_per_block, device.max_threads_per_block),
        min(smem_per_block, device.shared_mem_per_block),
        min(regs_per_thread, device.max_regs_per_thread),
    ).occupancy
    peak = device.peak_gflops_dp if precision == "double" else device.peak_gflops_sp
    bw = device.effective_bandwidth(occ)
    time_mem = total_bytes / (bw * 1e9) if bw > 0 else float("inf")
    time_cmp = flops / (peak * 1e9) if peak > 0 else float("inf")
    busy = max(time_mem, time_cmp) * divergence_factor
    return occ, time_mem, time_cmp, busy + device.launch_overhead_s


def project_kernel(
    device: DeviceSpec,
    volume: LaunchVolume,
    block: Tuple[int, int, int],
    traits: Optional[CodegenTraits] = None,
    precision: str = "double",
) -> KernelProjection:
    """Project execution time of one launch on ``device``."""
    traits = traits if traits is not None else CodegenTraits()
    bytes_read = 0.0
    for array in volume.arrays_read:
        points = volume.points_per_array.get(array, volume.active_threads)
        bytes_read += points * volume.itemsize * traits.read_factor(array, block)
    bytes_written = volume.bytes_written()
    flops = volume.flops * traits.halo_compute_factor
    occ, time_mem, time_cmp, time = roofline(
        device,
        block,
        traits.smem_per_block,
        traits.regs_per_thread,
        (bytes_read + bytes_written) * traits.halo_compute_factor,
        flops,
        traits.divergence_factor,
        precision,
    )
    return KernelProjection(
        kernel_name=volume.kernel_name,
        bytes_read=bytes_read,
        bytes_written=bytes_written,
        flops=flops,
        occupancy=occ,
        time_memory_s=time_mem,
        time_compute_s=time_cmp,
        time_s=time,
        limiter="memory" if time_mem >= time_cmp else "compute",
    )


@dataclass(frozen=True)
class ProgramProjection:
    """Aggregate projection over a sequence of kernel launches."""

    kernels: Tuple[KernelProjection, ...]

    @property
    def time_s(self) -> float:
        return sum(k.time_s for k in self.kernels)

    @property
    def flops(self) -> float:
        return sum(k.flops for k in self.kernels)

    @property
    def bytes_total(self) -> float:
        return sum(k.bytes_total for k in self.kernels)

    @property
    def gflops(self) -> float:
        t = self.time_s
        return self.flops / t / 1e9 if t > 0 else 0.0

    def speedup_over(self, baseline: "ProgramProjection") -> float:
        """Baseline time divided by this projection's time."""
        return baseline.time_s / self.time_s if self.time_s > 0 else float("inf")
