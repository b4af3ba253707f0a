"""GPU simulator substrate: device models, occupancy, interpreter, timing."""

from .device import (
    K20X,
    K40,
    TESTING,
    DeviceSpec,
    available_devices,
    query_device,
    register_device,
)
from .interpreter import (
    Dim3,
    HostInterpreter,
    LaunchRecord,
    RunResult,
    outputs_equal,
    run_program,
    trace_launches,
)
from .occupancy import (
    BlockShape,
    OccupancyResult,
    calculate_occupancy,
    candidate_shapes,
    tune_block_size,
)
from .perfmodel import (
    CodegenTraits,
    KernelProjection,
    ProgramProjection,
    cache_redundancy,
    estimate_registers,
    project_kernel,
    tile_halo_factor,
)
from .profiler import declared_shared_bytes, default_traits, gather_metadata

__all__ = [
    "DeviceSpec", "K20X", "K40", "TESTING",
    "query_device", "register_device", "available_devices",
    "Dim3", "HostInterpreter", "LaunchRecord", "RunResult",
    "run_program", "trace_launches", "outputs_equal",
    "OccupancyResult", "BlockShape", "calculate_occupancy",
    "candidate_shapes", "tune_block_size",
    "CodegenTraits", "KernelProjection", "ProgramProjection",
    "project_kernel", "cache_redundancy", "tile_halo_factor",
    "estimate_registers",
    "gather_metadata", "default_traits", "declared_shared_bytes",
]
