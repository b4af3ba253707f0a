"""The end-to-end transformation framework (§3).

:class:`Framework` drives the five stages and exposes the two operating
modes the paper describes:

* **automated transformation** — ``Framework(program, config).run()``
  executes every stage without interference;
* **programmer-guided transformation** — the programmer registers
  *intervention* callbacks that receive each stage's artifact and may amend
  it before the next stage consumes it, and/or runs the pipeline
  ``until``/``from_stage`` a chosen point (the command-line arguments of
  the paper's tool).

Example
-------
>>> fw = Framework(program, TransformConfig(device="K20X"))
>>> fw.intervene("targets", lambda state: my_fix_targets(state))
>>> state = fw.run()
>>> print(state.speedup)

A guided run that enables one codegen fix passes its own options::

>>> Framework(program, config,
...           fusion=replace(FusionOptions(), merge_deep_loops=True)).run()
"""

from __future__ import annotations

import logging
import time
from typing import Callable, Dict, List, Optional

from ..config import STAGES, TransformConfig
from ..cudalite import ast_nodes as ast
from ..cudalite.parser import parse_program
from ..errors import PipelineError, ReproError
from ..observability.metrics import get_registry
from ..observability.tracing import span
from ..store.artifact_store import ArtifactStore
from ..transform.fusion import FusionOptions
from .stages import STAGE_FUNCTIONS, PipelineState

logger = logging.getLogger(__name__)

Intervention = Callable[[PipelineState], Optional[PipelineState]]


class Framework:
    """Drives an end-to-end kernel fission/fusion transformation.

    Runs ``config`` as it is.  The pipeline reads every field but
    ``telemetry``, ``metrics_out``, ``trace_out``, ``store`` and
    ``store_root``: those are :func:`repro.api.transform`'s, which scopes
    telemetry, writes the outputs and opens the store.  Beside the
    config, three run arguments that are not user configuration:

    * ``store`` — the opened :class:`~repro.store.ArtifactStore`
      (``None`` = no cross-run reuse);
    * ``fusion`` — the codegen strategy switches; ``None`` = the options
      ``config.mode`` implies (:meth:`FusionOptions.for_mode`).  A guided
      run passes its fix, e.g. ``replace(FusionOptions(),
      merge_deep_loops=True)``;
    * ``block_exec`` — the interpreter strategy of every launch, 'auto'
      | 'loop' | 'batched'.  Forcing one is for checks (the
      mode-differential CI, ``scripts/differential_modes.py``).
    """

    def __init__(
        self,
        program: "ast.Program | str",
        config: Optional[TransformConfig] = None,
        *,
        store: Optional[ArtifactStore] = None,
        fusion: Optional[FusionOptions] = None,
        block_exec: str = "auto",
        program_fingerprint: Optional[str] = None,
        read_only: bool = False,
    ) -> None:
        if isinstance(program, str):
            program = parse_program(program)
        # a caller that already holds the program's digest (repro.api's
        # front door) seeds it; otherwise it is computed on first use
        self.state = PipelineState(
            program=program,
            config=config or TransformConfig(),
            store=store,
            block_exec=block_exec,
            fusion=fusion,
            _program_fp=program_fingerprint,
        )
        #: the caller only reads the state run() returns and never runs it
        #: again (:func:`repro.api.transform`): skip the private copies
        self._read_only = read_only
        self._interventions: Dict[str, List[Intervention]] = {s: [] for s in STAGES}
        self._completed: List[str] = []
        #: wall time per completed stage, in execution order (telemetry)
        self.stage_times: Dict[str, float] = {}

    # ------------------------------------------------------------ intervention

    def intervene(self, stage: str, callback: Intervention) -> "Framework":
        """Register a programmer intervention to run *after* ``stage``.

        The callback receives the pipeline state and may mutate it (or
        return a replacement).  Returns ``self`` for chaining.
        """
        if stage not in STAGES:
            raise PipelineError(f"unknown stage {stage!r}; stages: {STAGES}")
        self._interventions[stage].append(callback)
        return self

    # -------------------------------------------------------------- execution

    def run_stage(self, stage: str) -> PipelineState:
        """Run one stage (its prerequisites must have run already).

        A :class:`ReproError` escaping a stage is tagged with the stage
        name (``exc.stage``) so front ends can report where the pipeline
        failed without parsing messages.
        """
        if stage not in STAGES:
            raise PipelineError(f"unknown stage {stage!r}; stages: {STAGES}")
        logger.info("running stage %s", stage, extra={"stage": stage})
        start = time.perf_counter()
        try:
            with span(f"stage:{stage}"):
                self.state = STAGE_FUNCTIONS[stage](self.state)
        except ReproError as exc:
            if exc.stage is None:
                exc.stage = stage
            logger.error(
                "stage %s failed: %s", stage, exc, extra={"stage": stage}
            )
            self._record_stage_time(stage, time.perf_counter() - start, failed=True)
            raise
        if self._interventions[stage]:
            self.state.own_served()
        for callback in self._interventions[stage]:
            replacement = callback(self.state)
            if replacement is not None:
                self.state = replacement
        if stage not in self._completed:
            self._completed.append(stage)
        self._record_stage_time(stage, time.perf_counter() - start)
        logger.info(
            "stage %s complete: %s",
            stage,
            self.state.reports.get(stage, ""),
            extra={"stage": stage},
        )
        return self.state

    def _record_stage_time(
        self, stage: str, elapsed: float, failed: bool = False
    ) -> None:
        self.stage_times[stage] = self.stage_times.get(stage, 0.0) + elapsed
        registry = get_registry()
        registry.observe("pipeline_stage_seconds", elapsed, stage=stage)
        registry.inc(
            "pipeline_stage_runs_total",
            stage=stage,
            outcome="failed" if failed else "ok",
        )

    def run(
        self,
        until: Optional[str] = None,
        from_stage: Optional[str] = None,
    ) -> PipelineState:
        """Run the pipeline, optionally bounded (`--until` / `--from`).

        ``until`` defaults to the config's ``until``.

        The returned state is the programmer's to amend before a later
        ``run(from_stage=…)``: the artifacts the store served are swapped
        for private copies (:meth:`PipelineState.own_served`), so an edit
        cannot reach the store's memory tier — unless the framework was
        made ``read_only``, which skips the copies (~2 ms for half-scale
        Fluam).
        """
        until = until or self.state.config.until
        start = STAGES.index(from_stage) if from_stage else 0
        stop = STAGES.index(until) + 1 if until else len(STAGES)
        if start > 0 and STAGES[start - 1] not in self._completed:
            raise PipelineError(
                f"cannot start from {STAGES[start]!r}: stage "
                f"{STAGES[start - 1]!r} has not completed"
            )
        for stage in STAGES[start:stop]:
            self.run_stage(stage)
        if not self._read_only:
            self.state.own_served()
        return self.state

    # --------------------------------------------------------------- reporting

    def report(self) -> str:
        """Aggregate report of all completed stages."""
        lines = []
        for stage in STAGES:
            if stage in self.state.reports:
                lines.append(f"== {stage} ==")
                lines.append(self.state.reports[stage])
        return "\n".join(lines)

