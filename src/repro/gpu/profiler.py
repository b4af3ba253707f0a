"""The profiler: nvprof's stand-in for metadata gathering (§5.1).

The paper instruments the CUDA program (event APIs injected via ROSE), runs
it once under ``nvprof`` and extracts per-kernel performance metadata.  Here
the instrumented run is a *dry run* of the host code on the simulator (which
records every launch with its actual argument bindings) combined with the
analytic performance model; a single call produces the same metadata file
contents the paper's shell script would scrape from the profiler output.
"""

from __future__ import annotations

import logging
from collections import defaultdict
from typing import Dict, List, Mapping, Optional, Set

from ..analysis.accesses import KernelAccesses, collect_accesses
from ..analysis.deps import is_fissionable
from ..analysis.metadata import (
    KernelOperations,
    KernelPerformance,
    ProgramMetadata,
)
from ..analysis.stencil import analyze_stencil
from ..analysis.volume import bind_scalars, estimate_volume
from ..cudalite import ast_nodes as ast
from ..errors import AnalysisError
from ..observability.metrics import get_registry
from .device import DeviceSpec
from .interpreter import LaunchRecord, trace_launches
from .perfmodel import CodegenTraits, estimate_registers, project_kernel

logger = logging.getLogger(__name__)


def declared_shared_bytes(kernel: ast.KernelDef) -> int:
    """Total bytes of ``__shared__`` arrays declared by the kernel.

    Non-constant shared dims are rejected by semantic checking, but a
    kernel that slips through would otherwise have its shared footprint
    silently undercounted (the dim treated as one element) — which skews
    occupancy projections and the paper's Eq. 1 shared-memory penalty.
    We still use the conservative one-element fallback, but loudly:
    a warning is logged and ``metadata_warnings_total`` is incremented so
    the condition surfaces in the run's metrics.
    """
    total = 0
    for decl in collect_accesses(kernel).shared_decls:
        elems = 1
        for dim in decl.array_dims:
            if isinstance(dim, ast.IntLit):
                elems *= dim.value
            else:
                logger.warning(
                    "kernel %s: shared array %s has non-constant dim; "
                    "counting it as 1 element (footprint undercounted)",
                    kernel.name,
                    decl.name,
                )
                get_registry().inc(
                    "metadata_warnings_total",
                    kind="nonconstant_shared_dim",
                    kernel=kernel.name,
                )
        total += elems * decl.type.itemsize
    return total


def default_traits(
    kernel: ast.KernelDef, accesses: KernelAccesses
) -> CodegenTraits:
    """Codegen traits of an *original* (untransformed) kernel.

    Kernels that already stage tiles in shared memory (the "almost fused"
    kernels of AWP-ODC / B-CALM) get their stenciled reads marked as staged.
    """
    axis_vars = set(accesses.index_vars) | {l.var for l in accesses.loops}
    radius = {
        name: info.halo_radius(tuple(axis_vars))
        for name, info in accesses.arrays.items()
    }
    smem = declared_shared_bytes(kernel)
    staged: Set[str] = set()
    if smem > 0:
        staged = {name for name, r in radius.items() if r > 0 and accesses.arrays[name].is_read}
    n_arrays = len(accesses.arrays)
    flops_pp = accesses.total_flops_per_point
    return CodegenTraits(
        staged=staged,
        radius=radius,
        smem_per_block=smem,
        regs_per_thread=estimate_registers(n_arrays, flops_pp),
    )


def _rename(mapping: Mapping[str, str], names) -> List[str]:
    return sorted({mapping.get(n, n) for n in names})


def gather_metadata(
    program: ast.Program,
    device: DeviceSpec,
    traits_overrides: Optional[Dict[str, CodegenTraits]] = None,
) -> ProgramMetadata:
    """Produce the full metadata set for ``program`` on ``device``.

    ``traits_overrides`` lets the pipeline profile *generated* programs whose
    kernels carry non-default codegen traits.
    """
    trace = trace_launches(program)
    meta = ProgramMetadata(device=device)
    meta.array_shapes = {
        name: tuple(arr.shape) for name, arr in trace.arrays.items()
    }

    first_launch: Dict[str, LaunchRecord] = {}
    invocations: Dict[str, int] = defaultdict(int)
    for record in trace.launches:
        invocations[record.kernel] += 1
        first_launch.setdefault(record.kernel, record)
        kernel = program.kernel(record.kernel)
        pointer_names = [p.name for p in kernel.pointer_params()]
        if len(pointer_names) != len(record.array_args):
            raise AnalysisError(
                f"kernel {record.kernel!r}: {len(pointer_names)} pointer "
                f"params but {len(record.array_args)} array args"
            )
        meta.launch_order.append(
            (
                record.kernel,
                tuple(record.array_args),
                record.grid.as_tuple(),
                record.block.as_tuple(),
                tuple(float(s) for s in record.scalar_args),
            )
        )

    touched_by: Dict[str, Set[str]] = defaultdict(set)

    for name, record in first_launch.items():
        kernel = program.kernel(name)
        accesses = collect_accesses(kernel)
        stencil = analyze_stencil(kernel, accesses)
        scalar_env = bind_scalars(kernel, record.scalar_args)
        grid = record.grid.as_tuple()
        block = record.block.as_tuple()
        volume = estimate_volume(kernel, grid, block, scalar_env, accesses)
        traits = (
            traits_overrides.get(name)
            if traits_overrides and name in traits_overrides
            else default_traits(kernel, accesses)
        )
        projection = project_kernel(device, volume, block, traits)

        meta.performance[name] = KernelPerformance(
            kernel=name,
            invocations=invocations[name],
            runtime_s=projection.time_s,
            gflops=projection.gflops,
            effective_bandwidth_gbs=projection.effective_bandwidth_gbs,
            shared_mem_per_block=traits.smem_per_block,
            regs_per_thread=traits.regs_per_thread,
            active_threads=volume.active_threads,
            active_blocks_per_sm=max(
                1, device.max_threads_per_sm // max(1, block[0] * block[1] * block[2])
            ),
            occupancy=projection.occupancy,
            flops=projection.flops,
            bytes_moved=projection.bytes_total,
            grid=grid,
            block=block,
        )

        # map formal pointer params to actual host arrays
        pointer_names = [p.name for p in kernel.pointer_params()]
        formal_to_actual = dict(zip(pointer_names, record.array_args))
        arrays_read = _rename(formal_to_actual, volume.arrays_read)
        arrays_written = _rename(formal_to_actual, volume.arrays_written)
        for arr in arrays_read + arrays_written:
            touched_by[arr].add(name)
        launched = max(1, volume.launched_threads)
        points = volume.active_threads
        loop_points = max(volume.points_per_array.values(), default=points)
        meta.operations[name] = KernelOperations(
            kernel=name,
            stencil_shapes={
                formal_to_actual.get(s.array, s.array): s.shape.label
                for s in stencil.stencils
            },
            radius={
                formal_to_actual.get(a, a): r for a, r in traits.radius.items()
            },
            arrays_read=arrays_read,
            arrays_written=arrays_written,
            shared_arrays=[],  # filled below
            flops_per_array={
                formal_to_actual.get(a, a): float(f)
                for a, f in accesses.per_array_flops().items()
            },
            loop_sizes={
                var: (size if size is not None else -1)
                for var, size in stencil.loop_sizes.items()
            },
            loop_depth=stencil.loop_depth,
            unit_stride=all(s.unit_stride for s in stencil.stencils),
            irregular=stencil.irregular,
            uses_shared_memory=accesses.uses_shared,
            active_fraction=volume.active_threads / launched,
            fissionable=is_fissionable(kernel, accesses),
            flops_per_point=float(accesses.total_flops_per_point),
        )

    for ops in meta.operations.values():
        ops.shared_arrays = sorted(
            arr
            for arr in set(ops.arrays_read) | set(ops.arrays_written)
            if len(touched_by[arr]) > 1
        )

    return meta
