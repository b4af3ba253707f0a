"""Applying the search result: generate the transformed program (§3.2.5).

Materializes a :class:`~repro.search.grouping.Grouping` chosen by the GGA:

* groups of size one launch the original kernel (the *no fusion* case) or a
  fission fragment;
* larger groups are fused (`simple` or `complex` depending on internal
  precedence), with thread-block tuning (§4.2) re-generating the kernel at
  the occupancy-optimal block shape;
* every fused kernel passes the per-group semantic verification gate
  (:mod:`repro.reliability.verify`) before it is committed;
* the host code is rewritten to invoke the new kernels in an order
  compatible with the new OEG.

A group the code generator cannot realize — or whose generated kernel
fails verification — degrades down the fusion ladder (complex → per-wave
simple fusion → per-member launches) instead of failing the pipeline;
every demotion is recorded with its cause.  The transformed program is
always valid.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from time import perf_counter
from typing import (
    Callable, Dict, FrozenSet, Hashable, List, Mapping, Optional, Sequence, Set,
    Tuple, TypeVar,
)

from ..cudalite import ast_nodes as ast
from ..cudalite.unparser import unparse
from ..errors import ReproError, TransformError, VerificationError
from ..gpu.device import DeviceSpec
from ..gpu.perfmodel import (
    CodegenTraits,
    KernelProjection,
    ProgramProjection,
    estimate_registers,
    project_kernel,
)
from ..errors import GraphError
from ..graphs.oeg import group_schedule
from ..observability.metrics import get_registry
from ..observability.tracing import span
from ..reliability.degrade import DemotionRecord, fusion_waves
from ..reliability.verify import (
    GROUP_STATUSES,
    GroupVerdict,
    VerifyConfig,
    verify_group,
)
from ..search.grouping import FusionProblem, Grouping
from ..search.problem_builder import CodegenBinding
from ..store import keys as store_keys
from ..store import stage_cache
from ..store.artifact_store import ArtifactStore
from ..transform.blocksize import TuningDecision, tune_kernel_block
from ..transform.fusion import (
    Constituent,
    FusedKernel,
    FusionOptions,
    make_constituent,
)
from ..transform.fusion import fuse_kernels
from ..transform.hostcode import NewLaunch, assemble_program

logger = logging.getLogger(__name__)

T = TypeVar("T")


@dataclass
class GeneratedLaunch:
    """One launch of the transformed program, with projection inputs."""

    kernel_name: str
    grid: Tuple[int, int, int]
    block: Tuple[int, int, int]
    members: Tuple[str, ...]
    fused: Optional[FusedKernel] = None
    node: Optional[str] = None  # for singleton launches


@dataclass
class TransformResult:
    """The materialized transformation."""

    program: ast.Program
    launches: List[GeneratedLaunch]
    tuning: List[TuningDecision]
    #: groups the code generator had to degrade to per-member launches
    degraded_groups: List[Tuple[str, ...]] = field(default_factory=list)
    #: every slide down the fusion ladder, with its cause
    demotions: List[DemotionRecord] = field(default_factory=list)
    #: per-group verification-gate verdicts for the committed kernels
    group_verdicts: List[GroupVerdict] = field(default_factory=list)
    #: seconds the per-group gate spent executing kernels
    group_gate_s: float = 0.0
    #: group verdicts served by the store instead of the gate, by status
    verdicts_reused: Dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(GROUP_STATUSES, 0)
    )

    @property
    def new_kernel_count(self) -> int:
        return len({l.kernel_name for l in self.launches})

    @property
    def fused_kernels(self) -> List[FusedKernel]:
        seen = set()
        out = []
        for launch in self.launches:
            if launch.fused is not None and launch.kernel_name not in seen:
                seen.add(launch.kernel_name)
                out.append(launch.fused)
        return out


def _schedule_groups(
    problem: FusionProblem, grouping: Grouping
) -> List[FrozenSet[str]]:
    """Topologically order the groups under the node-level OEG, earliest
    member first (:func:`~repro.graphs.oeg.group_schedule`)."""
    oeg, _ = problem.node_oeg(grouping.active_nodes(problem))
    try:
        return group_schedule(
            grouping.partition(problem), oeg, key=lambda n: problem.info(n).order
        )
    except GraphError as exc:
        raise TransformError("chosen grouping violates precedence") from exc


def _internal_raw_edges(
    problem: FusionProblem, members: Sequence[str]
) -> List[Tuple[int, int, str]]:
    """Producer→consumer edges (by member position) inside one group."""
    ordered = sorted(members, key=lambda n: problem.info(n).order)
    index = {n: i for i, n in enumerate(ordered)}
    edges: List[Tuple[int, int, str]] = []
    last_writer: Dict[str, str] = {}
    for node in ordered:
        info = problem.info(node)
        for array in sorted(info.arrays_read):
            writer = last_writer.get(array)
            if writer is not None and writer != node:
                edges.append((index[writer], index[node], array))
        for array in info.arrays_written:
            last_writer[array] = node
    return edges


def _group_verify_key(
    fused: FusedKernel,
    member_bindings: Sequence[CodegenBinding],
    compare: Sequence[str],
    array_shapes: Mapping[str, Tuple[int, ...]],
    verify_cfg: VerifyConfig,
) -> str:
    """Content address of one group's verification outcome.

    Covers everything the gate's verdict depends on — the generated kernel
    text, launch configuration, every constituent kernel with its binding,
    the shapes of every touched array, the compared outputs and the
    verification settings — and nothing else, so the verdict survives
    unrelated edits elsewhere in the program.
    """
    launch_sig = (tuple(fused.grid), tuple(fused.block))
    constituents_sig = tuple(
        (
            unparse(b.kernel),
            tuple(b.array_args),
            tuple(float(v) for v in b.scalar_values),
            tuple(b.grid),
            tuple(b.block),
        )
        for b in member_bindings
    )
    touched = sorted(
        {a for b in member_bindings for a in b.array_args} | set(compare)
    )
    shapes_sig = tuple(
        (name, tuple(array_shapes.get(name, ()))) for name in touched
    )
    return store_keys.verified_group_key(
        unparse(fused.kernel),
        launch_sig,
        constituents_sig,
        shapes_sig,
        tuple(sorted(compare)),
        verify_cfg.seed,
    )


def _constituent(binding: CodegenBinding) -> Constituent:
    return make_constituent(
        binding.kernel,
        binding.array_args,
        binding.scalar_arg_exprs(),
        binding.scalar_values,
        binding.grid,
        binding.block,
    )


def materialize(
    original: ast.Program,
    problem: FusionProblem,
    bindings: Mapping[str, CodegenBinding],
    grouping: Grouping,
    device: DeviceSpec,
    array_shapes: Mapping[str, Tuple[int, ...]],
    options: Optional[FusionOptions] = None,
    tune_blocks: bool = True,
    initial_block: Optional[Tuple[int, int, int]] = None,
    verify_config: Optional[VerifyConfig] = None,
    store: Optional[ArtifactStore] = None,
    block_exec: Optional[str] = None,
) -> TransformResult:
    """Generate the transformed program for ``grouping``.

    ``initial_block`` defaults to the constituents' own launch block (the
    fused kernel inherits the original configuration; §4.2's tuner then
    improves it), matching how the paper reports occupancy before/after.

    ``verify_config`` parameterizes the per-group verification gate
    (``None`` = enabled, seed 0, bitwise) and ``block_exec`` the
    interpreter strategy its kernel launches use.  A group that fails
    codegen or verification is demoted down the fusion ladder — complex
    fusion → per-wave simple fusion → per-member launches — and each
    demotion is recorded in :attr:`TransformResult.demotions`.

    ``store`` enables incremental re-verification: a generated group whose
    content (kernel text, launch configuration, constituents, array
    shapes, verification settings) the gate has judged before gets that
    verdict back without re-running the interpreter — a pass is
    committed, a failure demotes with the same cause — and block-tuning
    decisions are memoized by their occupancy inputs.  Only ``auto``
    reads or writes verdicts: a forced ``batched`` launch runs its blocks
    in lockstep and can pass a racy group ``auto`` fails.
    """
    options = options or FusionOptions()
    verify_cfg = verify_config or VerifyConfig()
    verdict_store = store if block_exec in (None, "auto") else None
    schedule = _schedule_groups(problem, grouping)
    device_fp = store_keys.device_fingerprint(device)

    new_kernels: Dict[str, ast.KernelDef] = {}
    launches: List[GeneratedLaunch] = []
    tuning: List[TuningDecision] = []
    degraded: List[Tuple[str, ...]] = []
    demotions: List[DemotionRecord] = []
    verdicts: List[GroupVerdict] = []
    gate_s = 0.0  # in verify_group
    verdicts_reused = dict.fromkeys(GROUP_STATUSES, 0)
    fused_counter = 0

    group_options = FusionOptions(**{**options.__dict__})
    group_options.smem_limit = device.shared_mem_per_block

    def singleton_launch(node: str) -> None:
        binding = bindings[node]
        new_kernels.setdefault(binding.kernel.name, binding.kernel)
        args = tuple(ast.Ident(a) for a in binding.array_args) + binding.scalar_arg_exprs()
        launches.append(
            GeneratedLaunch(
                kernel_name=binding.kernel.name,
                grid=binding.grid,
                block=binding.block,
                members=(node,),
                node=node,
            )
        )
        _launch_args[id(launches[-1])] = args

    _launch_args: Dict[int, Tuple[ast.Expr, ...]] = {}

    def pick_block(members: Sequence[str]) -> Tuple[int, int, int]:
        if initial_block is not None:
            return initial_block
        blocks = [bindings[n].block for n in members]
        return max(set(blocks), key=blocks.count)

    def written_arrays(members: Sequence[str]) -> List[str]:
        out: Set[str] = set()
        for node in members:
            out |= set(problem.info(node).arrays_written)
        return sorted(out)

    def build_verified(
        name: str,
        members: Sequence[str],
        precedence: Sequence[Tuple[int, int, str]],
    ) -> Tuple[FusedKernel, Optional[TuningDecision], GroupVerdict]:
        """Fuse ``members``, tune the block, verify the result.

        Raises a :class:`ReproError` (codegen, verification) when
        the group cannot be realized at this ladder level — the caller
        demotes it.
        """
        with span(f"codegen:group:{name}", members=len(members)):
            return _build_verified_inner(name, members, precedence)

    def _build_verified_inner(
        name: str,
        members: Sequence[str],
        precedence: Sequence[Tuple[int, int, str]],
    ) -> Tuple[FusedKernel, Optional[TuningDecision], GroupVerdict]:
        constituents = [_constituent(bindings[n]) for n in members]
        start_block = pick_block(members)
        fused = fuse_kernels(
            name,
            constituents,
            start_block,
            array_shapes,
            precedence=precedence,
            options=group_options,
        )
        decision: Optional[TuningDecision] = None
        tuned: Optional[FusedKernel] = None
        if tune_blocks:
            dims = (
                2
                if fused.block[1] > 1
                or (initial_block is not None and initial_block[1] > 1)
                else 1
            )
            tuning_key = store_keys.tuning_key(
                device_fp,
                fused.block,
                fused.traits.smem_per_block,
                fused.traits.regs_per_thread,
                dims,
            )
            if store is not None:
                decision = stage_cache.load_tuning(store, tuning_key, name)
            if decision is None:
                decision = tune_kernel_block(
                    device,
                    name,
                    fused.block,
                    fused.traits.smem_per_block,
                    fused.traits.regs_per_thread,
                    dims=dims,
                )
                if store is not None:
                    stage_cache.save_tuning(store, tuning_key, decision)
            if decision.changed:
                try:
                    tuned = fuse_kernels(
                        name,
                        constituents,
                        decision.tuned_block,
                        array_shapes,
                        precedence=precedence,
                        options=group_options,
                    )
                except TransformError:
                    tuned = None  # keep the untuned kernel

        member_bindings = [bindings[n] for n in members]
        compare = written_arrays(members)
        candidate = tuned if tuned is not None else fused

        def gated_verify(kernel_candidate: FusedKernel) -> GroupVerdict:
            """Verify one generated kernel, or serve the verdict the gate
            reached before on the group's full content."""
            nonlocal gate_s
            if not verify_cfg.enabled:
                # the gate is off: keep the fusion, and say no gate ran
                get_registry().inc("verify_group_skips_total")
                return GroupVerdict(
                    kernel_candidate.kernel.name,
                    kernel_candidate.constituents,
                    "skipped",
                    "gate disabled",
                )
            group_key: Optional[str] = None
            if verdict_store is not None:
                group_key = _group_verify_key(
                    kernel_candidate,
                    member_bindings,
                    compare,
                    array_shapes,
                    verify_cfg,
                )
                stored = stage_cache.load_group_verdict(verdict_store, group_key)
                if stored is not None:
                    verdicts_reused[stored.status] += 1
                    get_registry().inc(
                        "verify_group_verdicts_total", status="reused"
                    )
                    return stored
            start = perf_counter()
            with span("verify:group", kernel=name):
                fresh = verify_group(
                    kernel_candidate,
                    member_bindings,
                    array_shapes,
                    compare,
                    verify_cfg,
                    block_exec=block_exec,
                )
            gate_s += perf_counter() - start
            get_registry().inc(
                "verify_group_verdicts_total", status=fresh.status
            )
            if group_key is not None:
                stage_cache.record_group_verdict(verdict_store, group_key, fresh)
            return fresh

        verdict = gated_verify(candidate)
        if verdict.failed and tuned is not None:
            # the tuned regeneration broke the kernel; fall back to the
            # verified-able untuned block and drop the tuning decision
            untuned_verdict = gated_verify(fused)
            if not untuned_verdict.failed:
                logger.warning(
                    "tuned kernel %s failed verification (%s); "
                    "keeping original block %s",
                    name,
                    verdict.cause,
                    fused.block,
                )
                return fused, None, untuned_verdict
            verdict = untuned_verdict
        if verdict.failed:
            raise VerificationError(f"kernel {name}: {verdict.cause}")
        if verdict.status == "inconclusive":
            logger.info(
                "verification inconclusive for %s (%s); keeping fusion",
                name,
                verdict.cause,
            )
        return candidate, decision, verdict

    def commit(
        name: str,
        members: Sequence[str],
        fused: FusedKernel,
        decision: Optional[TuningDecision],
        verdict: GroupVerdict,
    ) -> None:
        nonlocal fused_counter
        fused_counter += 1
        if decision is not None:
            tuning.append(decision)
        verdicts.append(verdict)
        new_kernels[name] = fused.kernel
        args = tuple(ast.Ident(a) for a in fused.pointer_args) + fused.scalar_args
        launches.append(
            GeneratedLaunch(
                kernel_name=name,
                grid=fused.grid,
                block=fused.block,
                members=tuple(members),
                fused=fused,
            )
        )
        _launch_args[id(launches[-1])] = args

    def realize_waves(
        ordered: Sequence[str],
        precedence: Sequence[Tuple[int, int, str]],
        cause: str,
    ) -> None:
        """Middle ladder rung: split a failed complex group into its
        precedence waves and simple-fuse each multi-member wave.  Waves
        launch in depth order, so the inter-launch barrier carries every
        dependence an edge expressed inside the fused kernel."""
        waves = fusion_waves(
            len(ordered), [(p, c) for p, c, _ in precedence]
        )
        if not any(len(wave) > 1 for wave in waves):
            demotions.append(
                DemotionRecord(tuple(ordered), "complex", "none", cause)
            )
            degraded.append(tuple(ordered))
            for node in ordered:
                singleton_launch(node)
            return
        demotions.append(
            DemotionRecord(tuple(ordered), "complex", "simple", cause)
        )
        any_fused = False
        for wave in waves:
            wave_nodes = [ordered[i] for i in wave]
            if len(wave_nodes) == 1:
                singleton_launch(wave_nodes[0])
                continue
            wave_name = f"K_{fused_counter:02d}"
            try:
                fused, decision, verdict = build_verified(
                    wave_name, wave_nodes, precedence=[]
                )
            except ReproError as exc:
                logger.warning(
                    "simple fusion of wave %s failed (%s); "
                    "demoting to per-member launches",
                    wave_nodes,
                    exc,
                )
                demotions.append(
                    DemotionRecord(tuple(wave_nodes), "simple", "none", str(exc))
                )
                for node in wave_nodes:
                    singleton_launch(node)
                continue
            any_fused = True
            commit(wave_name, wave_nodes, fused, decision, verdict)
        if not any_fused:
            degraded.append(tuple(ordered))

    for group in schedule:
        ordered = sorted(group, key=lambda n: problem.info(n).order)
        if len(ordered) == 1:
            singleton_launch(ordered[0])
            continue
        name = f"K_{fused_counter:02d}"
        precedence = _internal_raw_edges(problem, ordered)
        try:
            fused, decision, verdict = build_verified(name, ordered, precedence)
        except ReproError as exc:
            logger.warning(
                "group %s failed at full fusion (%s); demoting", ordered, exc
            )
            if precedence:
                realize_waves(ordered, precedence, str(exc))
            else:
                demotions.append(
                    DemotionRecord(tuple(ordered), "simple", "none", str(exc))
                )
                degraded.append(tuple(ordered))
                for node in ordered:
                    singleton_launch(node)
            continue
        commit(name, ordered, fused, decision, verdict)

    new_launch_stmts = [
        NewLaunch(
            kernel=l.kernel_name,
            grid=l.grid,
            block=l.block,
            args=_launch_args[id(l)],
        )
        for l in launches
    ]
    program = assemble_program(
        original, list(new_kernels.values()), new_launch_stmts
    )
    return TransformResult(
        program=program,
        launches=launches,
        tuning=tuning,
        degraded_groups=degraded,
        demotions=demotions,
        group_verdicts=verdicts,
        group_gate_s=gate_s,
        verdicts_reused=verdicts_reused,
    )


def held(owner: object, slot: str, key: Hashable, compute: Callable[[], T]) -> T:
    """``compute()`` once per ``owner`` and ``key``, held in the owner's
    ``slot`` so that it is freed with the owner.

    For pure functions of objects the store's memory tier shares between
    runs and nobody mutates (a :class:`FusionProblem`, a
    :class:`TransformResult`).  As with the search's group memo
    (:meth:`FusionProblem.group_terms`), a lost race between two runs
    costs one recomputation.
    """
    memo: Dict = owner.__dict__.setdefault(slot, {})
    value = memo.get(key)
    if value is None:
        value = memo[key] = compute()
    return value


def project_transformed(
    result: TransformResult,
    problem: FusionProblem,
    device: DeviceSpec,
) -> ProgramProjection:
    """Project the transformed program's execution time (once per
    materialization, problem and device)."""

    def project() -> ProgramProjection:
        return ProgramProjection(tuple(
            project_kernel(
                device, launch.fused.volume, launch.block, launch.fused.traits
            )
            if launch.fused is not None
            else _project_singleton(problem, launch.node, device)
            for launch in result.launches
        ))

    return held(result, "_projections", (problem, device), project)


def _project_singleton(
    problem: FusionProblem, node: str, device: DeviceSpec
) -> KernelProjection:
    from ..analysis.volume import LaunchVolume

    info = problem.info(node)
    volume = LaunchVolume(
        kernel_name=info.kernel,
        active_threads=info.extents[0] * info.extents[1] * info.extents[2],
        launched_threads=info.extents[0] * info.extents[1] * info.extents[2],
        points_per_array=dict(info.points_per_array),
        arrays_read=set(info.arrays_read),
        arrays_written=set(info.arrays_written),
        flops=info.flops,
    )
    traits = CodegenTraits(
        radius=dict(info.radius),
        regs_per_thread=estimate_registers(
            len(info.arrays_read | info.arrays_written), info.flops_per_point
        ),
    )
    return project_kernel(device, volume, info.block, traits)


def project_baseline(
    problem: FusionProblem, device: DeviceSpec
) -> ProgramProjection:
    """Projection of the *original* program (all whole nodes, untouched),
    once per problem and device."""
    return held(
        problem,
        "_baseline_projections",
        device,
        lambda: ProgramProjection(tuple(
            _project_singleton(problem, node, device)
            for node in problem.whole_nodes()
        )),
    )
