"""Device models for the GPU simulator substrate.

The paper evaluates on Nvidia Kepler K20X and K40 GPUs.  Since no GPU is
available here, a :class:`DeviceSpec` captures the published architectural
parameters that the paper's methods actually consume: shared-memory capacity
(the fusion search constraint), occupancy limits (block-size tuning) and
peak bandwidth / FLOP rates (the performance projection model).

``query_device`` plays the role of the CUDA SDK ``deviceQuery`` sample used
by the metadata-gathering stage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass(frozen=True)
class DeviceSpec:
    """Architectural parameters of a (simulated) GPU.

    All capacities are per-SM unless noted.  The defaults of the derived
    quantities follow the CUDA occupancy calculator's tables for compute
    capability 3.5 (Kepler).
    """

    name: str
    compute_capability: str
    sm_count: int
    #: Peak off-chip memory bandwidth in GB/s.
    peak_bandwidth_gbs: float
    #: Peak double-precision throughput in GFLOP/s.
    peak_gflops_dp: float
    #: Peak single-precision throughput in GFLOP/s.
    peak_gflops_sp: float
    #: Shared memory available per SM (bytes).
    shared_mem_per_sm: int
    #: Maximum shared memory a single thread block may allocate (bytes).
    shared_mem_per_block: int
    #: 32-bit registers per SM.
    regs_per_sm: int
    #: Maximum registers addressable per thread.
    max_regs_per_thread: int
    max_threads_per_sm: int
    max_threads_per_block: int
    max_blocks_per_sm: int
    warp_size: int = 32
    #: Shared-memory allocation granularity (bytes).
    smem_alloc_granularity: int = 256
    #: Register allocation granularity (registers, per warp).
    reg_alloc_granularity: int = 256
    #: Kernel launch overhead (seconds) charged by the timing model.
    launch_overhead_s: float = 5.0e-6
    #: Occupancy at which the memory system saturates; below this the
    #: effective bandwidth scales roughly linearly with occupancy.
    saturation_occupancy: float = 0.55

    @property
    def max_warps_per_sm(self) -> int:
        return self.max_threads_per_sm // self.warp_size

    def effective_bandwidth(self, occupancy: float) -> float:
        """Effective global-memory bandwidth (GB/s) at a given occupancy.

        Kepler needs roughly half of its maximum resident warps in flight to
        saturate the memory system; beyond the saturation point more warps do
        not add bandwidth.
        """
        occupancy = min(max(occupancy, 0.0), 1.0)
        scale = min(1.0, occupancy / self.saturation_occupancy)
        return self.peak_bandwidth_gbs * scale


#: Tesla K20X — 14 SMX, GDDR5 at 250 GB/s, 1.31 DP TFLOP/s.
K20X = DeviceSpec(
    name="K20X",
    compute_capability="3.5",
    sm_count=14,
    peak_bandwidth_gbs=250.0,
    peak_gflops_dp=1310.0,
    peak_gflops_sp=3935.0,
    shared_mem_per_sm=48 * 1024,
    shared_mem_per_block=48 * 1024,
    regs_per_sm=65536,
    max_regs_per_thread=255,
    max_threads_per_sm=2048,
    max_threads_per_block=1024,
    max_blocks_per_sm=16,
)

#: Tesla K40 — 15 SMX, GDDR5 at 288 GB/s, 1.43 DP TFLOP/s.
K40 = DeviceSpec(
    name="K40",
    compute_capability="3.5",
    sm_count=15,
    peak_bandwidth_gbs=288.0,
    peak_gflops_dp=1430.0,
    peak_gflops_sp=4290.0,
    shared_mem_per_sm=48 * 1024,
    shared_mem_per_block=48 * 1024,
    regs_per_sm=65536,
    max_regs_per_thread=255,
    max_threads_per_sm=2048,
    max_threads_per_block=1024,
    max_blocks_per_sm=16,
)

#: A small generic device used in unit tests (tight shared memory so fusion
#: constraints bind at test problem sizes).
TESTING = DeviceSpec(
    name="TESTING",
    compute_capability="3.5",
    sm_count=2,
    peak_bandwidth_gbs=100.0,
    peak_gflops_dp=500.0,
    peak_gflops_sp=1500.0,
    shared_mem_per_sm=16 * 1024,
    shared_mem_per_block=16 * 1024,
    regs_per_sm=32768,
    max_regs_per_thread=255,
    max_threads_per_sm=1024,
    max_threads_per_block=512,
    max_blocks_per_sm=8,
)

_CATALOG: Dict[str, DeviceSpec] = {d.name: d for d in (K20X, K40, TESTING)}


def query_device(name: str) -> DeviceSpec:
    """Return the :class:`DeviceSpec` for ``name`` (the deviceQuery step).

    Raises
    ------
    KeyError
        If the device is not in the catalog.
    """
    try:
        return _CATALOG[name]
    except KeyError:
        raise KeyError(
            f"unknown device {name!r}; available: {sorted(_CATALOG)}"
        ) from None


def register_device(spec: DeviceSpec) -> None:
    """Add a custom device to the catalog (programmer extension point)."""
    _CATALOG[spec.name] = spec


def available_devices() -> tuple:
    """Names of devices in the catalog."""
    return tuple(sorted(_CATALOG))
