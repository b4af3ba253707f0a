"""Building the :class:`FusionProblem` from program + metadata + targets.

This is the glue between the pipeline's earlier stages and the GGA: it
turns every recorded kernel invocation into a :class:`NodeInfo` (volumes,
radii, eligibility) and runs the **lazy-fission pre-step** — fissioning
every fissionable target once, gathering the fragments' metadata, and
registering the fragments as alternative nodes the search can switch to
(§4.1: "fission is applied in a pre-step in which the metadata of the
fissioned kernels is gathered").

It also keeps the per-node code-generation bindings (kernel AST, argument
lists, launch geometry) the final stage needs to materialize the search's
chosen grouping as CUDA code.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..analysis.accesses import KernelAccesses, collect_accesses
from ..analysis.filtering import TargetReport
from ..analysis.metadata import ProgramMetadata
from ..analysis.volume import estimate_volume
from ..cudalite import ast_nodes as ast
from ..errors import ReproError, SearchError
from ..gpu.device import DeviceSpec
from ..reliability import faults
from ..transform.fission import fission_kernel
from ..transform.kernel_model import extract_model
from .grouping import FusionProblem, NodeInfo

logger = logging.getLogger(__name__)


@dataclass
class CodegenBinding:
    """Everything needed to regenerate / launch one node's kernel."""

    kernel: ast.KernelDef
    #: host array name per pointer parameter, in parameter order
    array_args: Tuple[str, ...]
    #: scalar argument values, in scalar-parameter order
    scalar_values: Tuple[float, ...]
    grid: Tuple[int, int, int]
    block: Tuple[int, int, int]

    def scalar_arg_exprs(self) -> Tuple[ast.Expr, ...]:
        """Scalar args as literal expressions (metadata-driven codegen)."""
        exprs: List[ast.Expr] = []
        for param, value in zip(
            [p for p in self.kernel.params if not p.type.is_pointer],
            self.scalar_values,
        ):
            if param.type.base == "int":
                exprs.append(ast.IntLit(int(value)))
            else:
                exprs.append(ast.FloatLit(float(value)))
        return tuple(exprs)


@dataclass
class BuiltProblem:
    """The search problem plus codegen-side bookkeeping."""

    problem: FusionProblem
    bindings: Dict[str, CodegenBinding]
    #: content digest of the problem (``FusionProblem.fingerprint()``)
    fingerprint: str = ""
    #: node → error message for launches whose static analysis failed and
    #: that were described conservatively (fusion-ineligible) instead
    analysis_failures: Dict[str, str] = field(default_factory=dict)


def _node_info(
    node: str,
    order: float,
    kernel: ast.KernelDef,
    accesses: KernelAccesses,
    array_args: Sequence[str],
    scalar_values: Sequence[float],
    grid: Tuple[int, int, int],
    block: Tuple[int, int, int],
    eligible: bool,
    fissionable: bool,
    parent: Optional[str] = None,
    fragments: Tuple[str, ...] = (),
) -> NodeInfo:
    pointer_names = [p.name for p in kernel.pointer_params()]
    scalar_names = [p.name for p in kernel.scalar_params()]
    binding = dict(zip(pointer_names, array_args))
    scalar_env = dict(zip(scalar_names, scalar_values))
    volume = estimate_volume(kernel, grid, block, scalar_env, accesses)
    axis_vars = tuple(accesses.index_vars) + tuple(l.var for l in accesses.loops)
    radius = {
        binding.get(name, name): info.halo_radius(axis_vars)
        for name, info in accesses.arrays.items()
    }
    fusable = (
        eligible
        and not accesses.has_irregular
        and extract_model(kernel) is not None
    )
    return NodeInfo(
        node=node,
        kernel=kernel.name,
        order=order,
        eligible=eligible,
        fusable=fusable,
        fissionable=fissionable and eligible,
        arrays_read=frozenset(binding[a] for a in volume.arrays_read),
        arrays_written=frozenset(binding[a] for a in volume.arrays_written),
        points_per_array={
            binding.get(a, a): p for a, p in volume.points_per_array.items()
        },
        flops=volume.flops,
        flops_per_point=float(accesses.total_flops_per_point),
        radius=radius,
        extents=(grid[0] * block[0], grid[1] * block[1], grid[2] * block[2]),
        grid=grid,
        block=block,
        parent=parent,
        fragments=fragments,
    )


def _conservative_node_info(
    node: str,
    order: float,
    kernel: ast.KernelDef,
    array_args: Sequence[str],
    grid: Tuple[int, int, int],
    block: Tuple[int, int, int],
) -> NodeInfo:
    """Fusion-ineligible description of a launch whose analysis failed.

    Declaring every bound array both read and written yields the maximal
    precedence constraints in the node OEG, so the launch keeps its
    original position and semantics; ``eligible=False`` keeps the search
    from ever fusing or fissioning it.
    """
    threads = grid[0] * block[0] * grid[1] * block[1] * grid[2] * block[2]
    arrays = frozenset(array_args)
    return NodeInfo(
        node=node,
        kernel=kernel.name,
        order=order,
        eligible=False,
        fusable=False,
        fissionable=False,
        arrays_read=arrays,
        arrays_written=arrays,
        points_per_array={a: threads for a in arrays},
        flops=threads,
        flops_per_point=1.0,
        radius={a: 0 for a in arrays},
        extents=(grid[0] * block[0], grid[1] * block[1], grid[2] * block[2]),
        grid=grid,
        block=block,
    )


def build_problem(
    program: ast.Program,
    metadata: ProgramMetadata,
    report: TargetReport,
    device: DeviceSpec,
    extra_precedence: Sequence[Tuple[str, str]] = (),
    enable_fission: bool = True,
) -> BuiltProblem:
    """Assemble the search problem from the earlier pipeline stages.

    A launch whose static analysis fails (or is fault-injected to fail
    via the ``analysis`` seam) is not fatal: the node is described
    conservatively — all arrays read *and* written, fusion-ineligible —
    which preserves its launch-order semantics while excluding it from
    the search.  Such nodes are reported in
    :attr:`BuiltProblem.analysis_failures`.
    """
    nodes: List[NodeInfo] = []
    bindings: Dict[str, CodegenBinding] = {}
    analysis_failures: Dict[str, str] = {}

    for index, entry in enumerate(metadata.launch_order):
        kernel_name, array_args, grid, block = (
            entry[0],
            entry[1],
            tuple(entry[2]),
            tuple(entry[3]),
        )
        scalars = tuple(entry[4]) if len(entry) > 4 else ()
        kernel = program.kernel(kernel_name)
        node = f"{kernel_name}@{index}"
        try:
            faults.check("analysis", node)
            accesses = collect_accesses(kernel)
        except ReproError as exc:
            logger.warning(
                "analysis failed for %s; describing conservatively: %s", node, exc
            )
            analysis_failures[node] = str(exc)
            nodes.append(
                _conservative_node_info(
                    node, float(index), kernel, array_args, grid, block
                )
            )
            bindings[node] = CodegenBinding(
                kernel=kernel,
                array_args=tuple(array_args),
                scalar_values=scalars,
                grid=grid,
                block=block,
            )
            continue
        decision = report.decisions.get(kernel_name)
        eligible = bool(decision and decision.eligible)
        ops = metadata.operations.get(kernel_name)
        fissionable = bool(ops and ops.fissionable and enable_fission)

        fragment_ids: Tuple[str, ...] = ()
        fragment_infos: List[NodeInfo] = []
        if fissionable and eligible:
            fragments = fission_kernel(kernel)
            if len(fragments) > 1:
                ids = []
                for fi, frag in enumerate(fragments):
                    frag_node = f"{node}/f{fi}"
                    ids.append(frag_node)
                    frag_array_args = []
                    frag_scalars = []
                    pointer_idx = {
                        p.name: i
                        for i, p in enumerate(kernel.params)
                        if p.type.is_pointer
                    }
                    # slice args by the fragment's original parameter indices
                    orig_pointer_order = [
                        i for i, p in enumerate(kernel.params) if p.type.is_pointer
                    ]
                    orig_scalar_order = [
                        i for i, p in enumerate(kernel.params) if not p.type.is_pointer
                    ]
                    for pi in frag.param_indices:
                        param = kernel.params[pi]
                        if param.type.is_pointer:
                            frag_array_args.append(
                                array_args[orig_pointer_order.index(pi)]
                            )
                        else:
                            frag_scalars.append(
                                scalars[orig_scalar_order.index(pi)]
                            )
                    frag_acc = collect_accesses(frag.kernel)
                    fragment_infos.append(
                        _node_info(
                            frag_node,
                            order=index + (fi + 1) / (len(fragments) + 1),
                            kernel=frag.kernel,
                            accesses=frag_acc,
                            array_args=frag_array_args,
                            scalar_values=frag_scalars,
                            grid=grid,
                            block=block,
                            eligible=eligible,
                            fissionable=False,
                            parent=node,
                        )
                    )
                    bindings[frag_node] = CodegenBinding(
                        kernel=frag.kernel,
                        array_args=tuple(frag_array_args),
                        scalar_values=tuple(frag_scalars),
                        grid=grid,
                        block=block,
                    )
                fragment_ids = tuple(ids)
            else:
                fissionable = False

        try:
            info = _node_info(
                node,
                order=float(index),
                kernel=kernel,
                accesses=accesses,
                array_args=array_args,
                scalar_values=scalars,
                grid=grid,
                block=block,
                eligible=eligible,
                fissionable=fissionable,
                fragments=fragment_ids,
            )
        except ReproError as exc:
            logger.warning(
                "analysis failed for %s; describing conservatively: %s", node, exc
            )
            analysis_failures[node] = str(exc)
            info = _conservative_node_info(
                node, float(index), kernel, array_args, grid, block
            )
            fragment_infos = []
        nodes.append(info)
        nodes.extend(fragment_infos)
        bindings[node] = CodegenBinding(
            kernel=kernel,
            array_args=tuple(array_args),
            scalar_values=scalars,
            grid=grid,
            block=block,
        )

    problem = FusionProblem(
        nodes=nodes,
        shared_mem_capacity=device.shared_mem_per_block,
        extra_precedence=extra_precedence,
    )
    return BuiltProblem(
        problem=problem,
        bindings=bindings,
        fingerprint=problem.fingerprint(),
        analysis_failures=analysis_failures,
    )
