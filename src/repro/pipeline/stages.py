"""Pipeline stages and shared state (§3.2, Figure 2).

The transformation is a sequence of five stages, each of which emits a
report and an amendable artifact (the programmer-intervention surface):

``metadata``   → three metadata files
``targets``    → the filter report (targets of fission/fusion)
``graphs``     → DDG and OEG (DOT files)
``search``     → the GGA result (new grouping; visualizable as a new OEG)
``codegen``    → the transformed CUDA program + block tuning report

:class:`PipelineState` carries every artifact so the framework can run
up-to / from any stage, persist artifacts to a working directory and let
the programmer amend them in between.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, TypeVar

import networkx as nx

from ..analysis.filtering import TargetReport, identify_targets, tag_eligibility
from ..analysis.metadata import ProgramMetadata
from ..cudalite import ast_nodes as ast
from ..cudalite.unparser import unparse
from ..errors import InterpreterError, PipelineError, ReproError
from ..gpu.device import DeviceSpec, K20X
from ..gpu.interpreter import LaunchRecord, RunResult, outputs_allclose, run_program
from ..gpu.perfmodel import ProgramProjection
from ..gpu.profiler import gather_metadata
from ..graphs import (
    build_oeg,
    graph_to_dot,
    invocation_table,
    optimize_ddg,
    validate_ddg,
    validate_oeg,
)
from ..observability.metrics import get_registry
from ..observability.model_validation import validate_model
from ..observability.runtime import telemetry_enabled
from ..observability.search_telemetry import search_telemetry_rows, write_jsonl
from ..observability.tracing import span
from ..reliability.degrade import DemotionRecord
from ..reliability.verify import VerifyConfig
from ..search import (
    BuiltProblem,
    GAParams,
    SearchResult,
    build_problem,
    fast_params,
    run_search,
    singleton_grouping,
)
from ..search.objective import drop_individual_memos
from ..store import keys as store_keys
from ..store import stage_cache
from ..store.artifact_store import ArtifactStore, Deps
from ..transform.fusion import FusionOptions
from .apply import (
    TransformResult,
    materialize,
    project_baseline,
    project_transformed,
)

logger = logging.getLogger(__name__)

T = TypeVar("T")

STAGES: Tuple[str, ...] = ("metadata", "targets", "graphs", "search", "codegen")


@dataclass
class PipelineConfig:
    """Configuration of one end-to-end transformation."""

    device: DeviceSpec = K20X
    #: 'automated' (default), 'guided' or 'manual' — §6.2.2 terminology;
    #: guided/manual enable the higher-quality codegen strategies.
    mode: str = "automated"
    ga_params: Optional[GAParams] = None
    boundary_fraction: float = 0.30
    manual_exclusions: Tuple[str, ...] = ()
    disable_filtering: bool = False
    enable_fission: bool = True
    tune_blocks: bool = True
    stage_shared: bool = True
    #: verify the transformed program's output against the original
    verify: bool = True
    #: verify each fused group against its unfused constituents as it is
    #: generated (the per-group gate; see repro.reliability.verify)
    verify_groups: bool = True
    #: the gate's input-synthesis seed
    verify_seed: int = 0
    #: the gate's tolerance: 0 = bitwise, >0 = allclose rtol
    verify_rtol: float = 0.0
    #: interpreter strategy for every kernel launch of the run:
    #: 'auto' | 'loop' | 'batched'
    block_exec: str = "auto"
    #: degrade gracefully instead of raising: a failed search falls back
    #: to the identity grouping, a failed whole-program verification
    #: falls back to the identity (untransformed-kernel) program
    fail_soft: bool = True
    #: optional directory where stage artifacts are written
    workdir: Optional[str] = None
    #: persistent cross-run artifact cache (``None`` disables reuse); see
    #: :mod:`repro.store` — corruption always degrades to a cold run
    store: Optional[ArtifactStore] = None
    #: fine-grained codegen-strategy overrides (field name -> value), applied
    #: on top of the mode defaults; this is how a *guided* run enables only
    #: the specific fix the programmer identified (§6.2.2)
    fusion_overrides: Optional[Dict[str, object]] = None

    def fusion_options(self) -> FusionOptions:
        quality = self.mode == "manual"
        options = FusionOptions(
            stage_shared=self.stage_shared,
            merge_deep_loops=quality,
            one_sided_guards=quality,
        )
        if self.fusion_overrides:
            for key, value in self.fusion_overrides.items():
                if not hasattr(options, key):
                    raise PipelineError(f"unknown fusion option {key!r}")
                setattr(options, key, value)
        return options


@dataclass
class PipelineState:
    """Everything produced so far."""

    program: ast.Program
    config: PipelineConfig
    metadata: Optional[ProgramMetadata] = None
    targets: Optional[TargetReport] = None
    ddg: Optional[nx.DiGraph] = None
    oeg: Optional[nx.DiGraph] = None
    built: Optional[BuiltProblem] = None
    search: Optional[SearchResult] = None
    transform: Optional[TransformResult] = None
    baseline_projection: Optional[ProgramProjection] = None
    transformed_projection: Optional[ProgramProjection] = None
    verified: Optional[bool] = None
    reports: Dict[str, str] = field(default_factory=dict)
    #: stage/artifact reuse provenance (stage name -> what was reused);
    #: lands in ``run.json`` so a repeat run is auditable
    reused: Dict[str, str] = field(default_factory=dict)
    #: what codegen interpreted, and why (``run.json`` / ledger
    #: ``verification`` block)
    verification: Dict[str, Any] = field(
        default_factory=lambda: {
            "program_runs": 0,
            "reversed_run": False,
            "order_sensitive_launches": {},
            "counters_from": None,
        }
    )
    #: the program the gate last ran with counters on and that run's
    #: launch records — only those: its arrays are dead once compared
    _counted_run: Optional[Tuple[ast.Program, List[LaunchRecord]]] = field(
        default=None, repr=False
    )
    _program_fp: Optional[str] = field(default=None, repr=False)
    #: artifacts the store served this state (metadata, targets, graphs,
    #: built, search) -> (content key, the store entries they came from):
    #: shared with the store's memory tier, so never mutated, and the
    #: inputs a memory-only entry may be derived from
    _served: Dict[str, Tuple[str, Deps]] = field(default_factory=dict, repr=False)

    def own_served(self) -> None:
        """Replace the served stage artifacts a programmer may amend with
        private copies, before the state is handed to code outside the
        pipeline — an edit must not reach the store's memory tier, and
        nothing derived from an edited artifact may enter it."""
        if "metadata" in self._served:
            self.metadata = self.metadata.copy()
        if "targets" in self._served:
            self.targets = self.targets.copy()
        if "graphs" in self._served:
            self.ddg = self.ddg.copy()
            self.oeg = self.oeg.copy()
        if "search" in self._served:
            self.search = replace(
                self.search,
                history=list(self.search.history),
                final_population=list(self.search.final_population),
            )
        self._served.clear()

    def _served_inputs(self, *names: str) -> Optional[Deps]:
        """The store entries behind ``names`` — ``None`` unless every one
        of them was served by the store."""
        if not all(name in self._served for name in names):
            return None
        return tuple(dep for name in names for dep in self._served[name][1])

    @property
    def program_fingerprint(self) -> str:
        if self._program_fp is None:
            self._program_fp = store_keys.program_fingerprint(self.program)
        return self._program_fp

    @property
    def device_fingerprint(self) -> str:
        return store_keys.device_fingerprint(self.config.device)

    @property
    def speedup(self) -> float:
        if self.baseline_projection is None or self.transformed_projection is None:
            raise PipelineError("run the codegen stage before asking for speedup")
        return self.baseline_projection.time_s / self.transformed_projection.time_s

    def _persist(self, name: str, content: str) -> None:
        if self.config.workdir is None:
            return
        directory = Path(self.config.workdir)
        directory.mkdir(parents=True, exist_ok=True)
        (directory / name).write_text(content)


# -------------------------------------------------------------------- stages


def _writes_telemetry(state: PipelineState) -> bool:
    """Telemetry is on and there is a working directory to write it to."""
    return telemetry_enabled() and state.config.workdir is not None


def _serve(
    state: PipelineState, name: str, key: str, load: Callable[[], Optional[T]]
) -> Optional[T]:
    """``load()`` from the store, recorded in ``state._served`` as ``name``
    when it served (a miss leaves ``name`` to be computed, unrecorded)."""
    store = state.config.store
    state._served.pop(name, None)
    if store is None:
        return None
    mark = store.mark()
    value = load()
    deps = store.served_since(mark)
    if value is not None and deps:
        state._served[name] = (key, deps)
    return value


def _metadata_store_key(state: PipelineState) -> str:
    return store_keys.metadata_key(
        state.program_fingerprint, state.device_fingerprint
    )


def stage_metadata(state: PipelineState) -> PipelineState:
    """Stage 1: gather performance / operations / device metadata.

    With a store attached, a previously profiled (program, device) pair
    is reconstructed from its persisted metadata files instead of
    re-running the profiling interpreter.
    """
    store = state.config.store
    reuse_note = ""
    key = _metadata_store_key(state)
    metadata = _serve(
        state, "metadata", key, lambda: stage_cache.load_metadata(store, key)
    )
    if metadata is not None:
        state.reused["metadata"] = "profile"
        reuse_note = " (reused from store)"
    else:
        metadata = gather_metadata(state.program, state.config.device)
        if store is not None:
            stage_cache.save_metadata(store, key, metadata)
    state.metadata = metadata
    if state.config.workdir is not None:
        state.metadata.write(Path(state.config.workdir) / "metadata")
    kernels = state.metadata.kernels()
    state.reports["metadata"] = (
        f"profiled {len(kernels)} kernels over "
        f"{len(state.metadata.launch_order)} launches; "
        f"total projected runtime {state.metadata.total_runtime_s() * 1e3:.3f} ms"
        + reuse_note
    )
    return state


def _targets_store_key(state: PipelineState) -> str:
    return store_keys.targets_key(
        state.program_fingerprint,
        state.device_fingerprint,
        state.config.boundary_fraction,
        tuple(state.config.manual_exclusions),
        state.config.disable_filtering,
    )


def stage_targets(state: PipelineState) -> PipelineState:
    """Stage 2: identify the fusion targets."""
    if state.metadata is None:
        raise PipelineError("metadata stage has not run")
    store = state.config.store
    reuse_note = ""
    key = _targets_store_key(state)
    targets = _serve(
        state, "targets", key, lambda: stage_cache.load_targets(store, key)
    )
    if targets is not None:
        state.reused["targets"] = "filter"
        reuse_note = "\n(reused from store)"
    else:
        targets = identify_targets(
            state.metadata,
            state.config.device,
            boundary_fraction=state.config.boundary_fraction,
            manual_exclusions=state.config.manual_exclusions,
            disable_filtering=state.config.disable_filtering,
        )
        if store is not None:
            stage_cache.save_targets(store, key, targets)
    state.targets = targets
    state.reports["targets"] = state.targets.summary() + reuse_note
    state._persist("targets.txt", state.reports["targets"])
    return state


def _graphs_store_key(state: PipelineState) -> str:
    return store_keys.graphs_key(_targets_store_key(state))


def stage_graphs(state: PipelineState) -> PipelineState:
    """Stage 3: build and optimize the DDG, derive the OEG."""
    if state.metadata is None or state.targets is None:
        raise PipelineError("earlier stages have not run")
    store = state.config.store
    graphs_key = _graphs_store_key(state)
    reuse_note = ""
    ddg = oeg = None
    report_text: Optional[str] = None
    cached = _serve(
        state, "graphs", graphs_key,
        lambda: stage_cache.load_graphs(store, graphs_key),
    )
    if cached is not None:
        ddg, oeg, report_text = cached
        state.reused["graphs"] = "ddg+oeg"
        reuse_note = " (reused from store)"
    else:
        invocations = invocation_table(state.program, state.metadata)
        ddg, report = optimize_ddg(invocations)
        validate_ddg(ddg)
        oeg = build_oeg(ddg)
        validate_oeg(oeg)
        tag_eligibility(ddg, oeg, state.targets)
        report_text = report.summary()
        if store is not None:
            stage_cache.save_graphs(store, graphs_key, ddg, oeg, report_text)
    state.ddg = ddg
    state.oeg = oeg
    state.reports["graphs"] = (
        f"DDG: {ddg.number_of_nodes()} nodes / {ddg.number_of_edges()} edges; "
        f"OEG: {oeg.number_of_nodes()} nodes / {oeg.number_of_edges()} edges"
        + reuse_note
        + "\n"
        + (report_text or "")
    )
    if state.config.workdir is not None:
        state._persist("ddg.dot", graph_to_dot(ddg, "DDG"))
        state._persist("oeg.dot", graph_to_dot(oeg, "OEG"))
    return state


def stage_search(state: PipelineState) -> PipelineState:
    """Stage 4: run the GGA to find the best fissions/fusions."""
    if state.targets is None or state.metadata is None:
        raise PipelineError("earlier stages have not run")
    # programmer-amended OEG edges (dep="USER" in the DOT file) become
    # additional precedence constraints for the search (§3.2.3)
    extra_precedence = []
    if state.oeg is not None:
        for u, v, dep in state.oeg.edges(data="dep"):
            if dep == "USER":
                extra_precedence.append((u, v))
    store = state.config.store
    # the problem is a function of what the store served, so a memory-only
    # entry keyed on it (and on the search inputs the graphs key misses)
    # holds exactly what building it from those served artifacts gives
    inputs = state._served_inputs("metadata", "targets", "graphs")
    built_key: Optional[str] = None
    state.built = None
    state._served.pop("built", None)
    if store is not None and inputs is not None:
        built_key = store_keys.digest(
            "built-problem",
            _graphs_store_key(state),
            state.device_fingerprint,
            tuple(extra_precedence),
            state.config.enable_fission,
        )
        state.built = store.recall(stage_cache.NS_BUILT_PROBLEMS, built_key)
    if state.built is None:
        state.built = build_problem(
            state.program,
            state.metadata,
            state.targets,
            state.config.device,
            extra_precedence=extra_precedence,
            enable_fission=state.config.enable_fission,
        )
        if built_key is not None:
            store.remember(
                stage_cache.NS_BUILT_PROBLEMS, built_key, state.built, inputs
            )
    if built_key is not None:
        state._served["built"] = (built_key, inputs)
    params = state.config.ga_params or fast_params()
    search_note = ""
    fell_back = False
    reused_result: Optional[SearchResult] = None
    seeds: List = []
    if store is not None:
        search_key = stage_cache.search_result_key(
            state.built.problem, state.config.device, params
        )
        reused_result = _serve(
            state, "search", search_key,
            lambda: stage_cache.load_search_result(
                store, state.built.problem, state.config.device, params
            ),
        )
        if reused_result is not None:
            state.reused["search"] = "result"
            search_note = "; result reused from store"
        else:
            seeds = stage_cache.load_warm_start(
                store, state.built.problem, state.config.device, params
            )
            if seeds:
                state.reused["search"] = f"warm-start:{len(seeds)} seeds"
                search_note = f"; warm-started from store ({len(seeds)} seeds)"
    if reused_result is not None:
        state.search = reused_result
    else:
        try:
            state.search = run_search(
                state.built.problem,
                state.config.device,
                params,
                seed_population=seeds or None,
            )
        except ReproError as exc:
            if not state.config.fail_soft:
                raise
            logger.error(
                "search failed (%s); falling back to the identity grouping", exc
            )
            state.search = SearchResult(
                best=singleton_grouping(state.built.problem),
                best_fitness=0.0,
                projected_time_s=0.0,
                history=[],
                generations_run=0,
                converged_at=0,
                avg_fissions_per_generation=0.0,
                evaluations=0,
            )
            fell_back = True
            search_note += (
                f"; search failed ({exc}), fell back to identity grouping"
            )
        finally:
            # the problem may be shared with later runs (memory tier): a
            # search's per-individual memo ends with it
            drop_individual_memos(state.built.problem)
        if store is not None and not fell_back:
            stage_cache.save_search(
                store,
                state.built.problem,
                state.config.device,
                params,
                state.search,
                state.search.final_population,
            )
    result = state.search
    if state.built.analysis_failures:
        failed = ", ".join(sorted(state.built.analysis_failures))
        search_note += (
            f"; {len(state.built.analysis_failures)} launches "
            f"analyzed conservatively ({failed})"
        )
    if result.surrogate_skipped:
        search_note += (
            f"; surrogate pre-filter skipped {result.surrogate_skipped} "
            f"exact evaluations"
        )
    state.reports["search"] = (
        f"GGA: {result.generations_run} generations, "
        f"{result.evaluations} evaluations, converged at generation "
        f"{result.converged_at}; best projected fitness "
        f"{result.best_fitness:.2f} GFLOPS; "
        f"{result.fused_group_count} fused groups / "
        f"{result.new_kernel_count} new kernels; "
        f"avg fissions/generation {result.avg_fissions_per_generation:.3f}"
        + search_note
    )
    state._persist("search.txt", state.reports["search"])
    if _writes_telemetry(state):
        Path(state.config.workdir).mkdir(parents=True, exist_ok=True)
        write_jsonl(
            str(Path(state.config.workdir) / "search_telemetry.jsonl"),
            search_telemetry_rows(result),
        )
    return state


def _run(state: PipelineState, program: ast.Program, **kwargs) -> RunResult:
    """``run_program`` under the run's interpreter strategy."""
    state.verification["program_runs"] += 1
    return run_program(program, block_exec=state.config.block_exec, **kwargs)


#: demotion causes of a failed whole-program verification
MISMATCH = "whole-program verification mismatch"
EXECUTION_FAILED = "whole-program execution failed"


def _whole_program_failure(state: PipelineState) -> Optional[str]:
    """Run original vs transformed — and transformed again under the
    reversed block order when a launch could tell the difference.

    Returns ``None`` when the transformed program verified, else the
    cause: its outputs differ (:data:`MISMATCH`) or a run of it raised an
    :class:`~repro.errors.InterpreterError` (:data:`EXECUTION_FAILED` —
    e.g. a fused kernel out of bounds on the app's own data, which only
    the per-group gate would otherwise have caught).

    The reversed run exposes inter-block races.  It is skipped when no
    launch of the forward run was order-sensitive
    (:class:`~repro.gpu.interpreter.LaunchRecord`): by induction over the
    launches it would recompute bit-identical arrays.  The forward run
    doubles as the counted run of :func:`_model_validation`.
    """
    assert state.transform is not None
    program = state.transform.program
    counted = _writes_telemetry(state)
    sensitive: List[str] = []
    reverse = False
    with span("verify:program") as gate:
        before = _run(state, state.program)
        try:
            after = _run(state, program, collect_counters=counted)
            if counted:
                state._counted_run = (program, after.launches)
            sensitive = [r.kernel for r in after.launches if r.order_sensitive]
            verified = outputs_allclose(before, after)
            reverse = verified and bool(sensitive)
            if reverse:
                verified = outputs_allclose(
                    before, _run(state, program, block_order="reverse")
                )
            failure = None if verified else MISMATCH
        except InterpreterError as exc:
            logger.warning("transformed program failed to run: %s", exc)
            failure = EXECUTION_FAILED
        gate.set(runs=3 if reverse else 2, reversed=reverse)
    info = state.verification
    info["reversed_run"] |= reverse
    by_kernel = info["order_sensitive_launches"]
    for kernel in sensitive:
        by_kernel[kernel] = by_kernel.get(kernel, 0) + 1
    return failure


def stage_codegen(state: PipelineState) -> PipelineState:
    """Stage 5: generate the new kernels and rewrite the host code.

    Per-group verification and ladder demotion happen inside
    :func:`~repro.pipeline.apply.materialize`; this stage additionally
    verifies the whole transformed program and — under ``fail_soft`` —
    falls back to the identity (no-fusion) program rather than raising
    when that last check fails.
    """
    if state.built is None or state.search is None or state.metadata is None:
        raise PipelineError("earlier stages have not run")
    verify_cfg = VerifyConfig(
        enabled=state.config.verify_groups,
        seed=state.config.verify_seed,
        rtol=state.config.verify_rtol,
    )
    store = state.config.store
    options = state.config.fusion_options()
    # a materialization of a served problem and search result, whose own
    # store reads all hit, is what any later such run materializes
    inputs = state._served_inputs("built", "search")
    materialized_key: Optional[str] = None
    state.transform = None
    if store is not None and inputs is not None:
        materialized_key = store_keys.digest(
            "materialized",
            state._served["built"][0],
            state._served["search"][0],
            repr(options),
            repr(verify_cfg),
            state.config.tune_blocks,
            state.config.block_exec,
        )
        state.transform = store.recall(
            stage_cache.NS_MATERIALIZED, materialized_key
        )
    if state.transform is None:
        mark = store.mark() if store is not None else None
        state.transform = materialize(
            state.program,
            state.built.problem,
            state.built.bindings,
            state.search.best,
            state.config.device,
            state.metadata.array_shapes,
            options=options,
            tune_blocks=state.config.tune_blocks,
            verify_config=verify_cfg,
            store=store,
            block_exec=state.config.block_exec,
        )
        reads = store.served_since(mark) if materialized_key else None
        if reads is not None:
            store.remember(
                stage_cache.NS_MATERIALIZED,
                materialized_key,
                state.transform,
                inputs + reads,
            )
    reused_groups = [
        v.kernel
        for v in state.transform.group_verdicts
        if v.cause == "reused from store"
    ]
    if reused_groups:
        state.reused["verify_groups"] = f"{len(reused_groups)} groups"
    reused_tuning = sum(1 for t in state.transform.tuning if t.reused)
    if reused_tuning:
        state.reused["tuning"] = f"{reused_tuning} blocks"
    state.baseline_projection = project_baseline(
        state.built.problem, state.config.device
    )
    codegen_note = ""
    # the transformed program's text: unparsed once, where first needed
    transformed_text: Optional[str] = None
    if state.config.verify:
        program_key = None
        if store is not None:
            transformed_text = unparse(state.transform.program)
            program_key = store_keys.verified_program_key(
                state.program_fingerprint, transformed_text
            )
        failure: Optional[str] = None
        if program_key is not None and stage_cache.program_previously_verified(
            store, program_key
        ):
            state.verified = True
            state.reused["verify_program"] = "verdict"
            codegen_note = "; verification reused from store"
        else:
            failure = _whole_program_failure(state)
            state.verified = failure is None
            if state.verified and program_key is not None:
                stage_cache.record_verified_program(store, program_key)
        if not state.verified:
            if not state.config.fail_soft:
                raise PipelineError(
                    "transformed program output does not match the original"
                    if failure == MISMATCH
                    else "transformed program failed to run on the app's data"
                )
            logger.error(
                "whole-program verification failed (%s); falling back to "
                "the identity (no-fusion) program", failure,
            )
            demoted = [
                DemotionRecord(
                    launch.members,
                    "complex" if launch.fused.is_complex else "simple",
                    "none",
                    failure,
                )
                for launch in state.transform.launches
                if launch.fused is not None
            ]
            fallback = materialize(
                state.program,
                state.built.problem,
                state.built.bindings,
                singleton_grouping(state.built.problem),
                state.config.device,
                state.metadata.array_shapes,
                options=options,
                tune_blocks=False,
                verify_config=VerifyConfig(enabled=False),
            )
            # a new result, never an assignment into one the tier may share
            state.transform = replace(
                fallback,
                demotions=state.transform.demotions + demoted,
                degraded_groups=state.transform.degraded_groups
                + [d.members for d in demoted],
            )
            transformed_text = None  # that was the demoted program's
            codegen_note = "; fell back to identity program"
            state.verified = _whole_program_failure(state) is None
            if not state.verified:
                raise PipelineError(
                    "identity fallback program does not match the original "
                    "— the pipeline cannot produce a correct program"
                )
    state.transformed_projection = project_transformed(
        state.transform, state.built.problem, state.config.device
    )
    validation_note = _model_validation(state)
    tuned = [t for t in state.transform.tuning if t.changed]
    demotions = state.transform.demotions
    registry = get_registry()
    for d in demotions:
        registry.inc(
            "demotions_total", **{"from": d.from_level, "to": d.to_level}
        )
    demotion_note = ""
    if demotions:
        demotion_note = f"; {len(demotions)} demotions:\n" + "\n".join(
            "  " + d.describe() for d in demotions
        )
    state.reports["codegen"] = (
        f"generated {state.transform.new_kernel_count} kernels "
        f"({len(state.transform.fused_kernels)} fused, "
        f"{len(state.transform.degraded_groups)} degraded groups); "
        f"tuned {len(tuned)} / {len(state.transform.tuning)} blocks; "
        f"projected speedup {state.speedup:.3f}x"
        + ("; output verified" if state.verified else "")
        + codegen_note
        + demotion_note
        + validation_note
    )
    if state.config.workdir is not None:
        if transformed_text is None:
            transformed_text = unparse(state.transform.program)
        state._persist("transformed.cu", transformed_text)
    state._persist("codegen.txt", state.reports["codegen"])
    if _writes_telemetry(state):
        telemetry_path = Path(state.config.workdir) / "search_telemetry.jsonl"
        if telemetry_path.exists():
            write_jsonl(
                str(telemetry_path),
                [
                    {
                        "type": "codegen_summary",
                        "demotions": len(demotions),
                        "degraded_groups": len(state.transform.degraded_groups),
                        "verified": state.verified,
                        "speedup": state.speedup,
                    }
                ],
                append=True,
            )
    return state


def _model_validation(state: PipelineState) -> str:
    """Compare interpreter counters against the perf model's projections.

    Lines every launch of the transformed program, run with hardware-ish
    counters enabled, up with its :class:`KernelProjection`.  The run is the
    one whole-program verification already made (counters are mode- and
    order-invariant); only when the gate made none of *this* program —
    ``verify`` off, verdict reused from the store — is it run here.  Gated
    on telemetry + a working directory (counting is not free, so library
    users and benchmarks that set neither never pay for it).
    Returns a one-line note for the codegen report ("" when skipped).
    """
    if not _writes_telemetry(state):
        return ""
    assert state.transform is not None and state.transformed_projection is not None
    program = state.transform.program
    counted_program, launches = state._counted_run or (None, [])
    state._counted_run = None
    reran = counted_program is not program
    with span("telemetry:model_validation", reran=reran):
        if reran:
            try:
                launches = _run(state, program, collect_counters=True).launches
            except ReproError as exc:  # pragma: no cover - best effort
                logger.warning("model-validation run failed: %s", exc)
                return ""
        state.verification["counters_from"] = "rerun" if reran else "verify"
        report = validate_model(launches, state.transformed_projection.kernels)
    report.write_json(str(Path(state.config.workdir) / "model_validation.json"))
    state._persist("model_validation.txt", report.summary() + "\n")
    registry = get_registry()
    registry.inc("model_validation_kernels_total", len(report.kernels))
    ratio = report.aggregate_bytes_ratio
    if ratio is not None:
        registry.set_gauge("model_validation_bytes_ratio", ratio)
    return (
        f"; model validation: {len(report.kernels)} launches compared"
        + (f", projected/measured bytes {ratio:.2f}x" if ratio is not None else "")
    )


STAGE_FUNCTIONS = {
    "metadata": stage_metadata,
    "targets": stage_targets,
    "graphs": stage_graphs,
    "search": stage_search,
    "codegen": stage_codegen,
}
