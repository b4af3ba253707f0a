"""repro.api — the stable Python entry point for the framework.

One call transforms an application::

    from repro.api import TransformConfig, transform

    result = transform("Fluam", TransformConfig(device="K20X"))
    print(result.speedup, result.verified)
    print(result.source)          # the transformed CUDA(Lite) program

:class:`TransformConfig` (defined in :mod:`repro.config`, re-exported
here) holds every knob of a run (verification, telemetry, the search's
surrogate pre-filter, the persistent artifact store).  It is the one
config type: the config is resolved once at the front door
(:func:`transform`, the CLIs) and the pipeline
(:class:`~repro.pipeline.framework.Framework`) runs that same object,
handing each layer the values it needs.  Two fields may also come from
the process environment —
``telemetry`` (``REPRO_TELEMETRY``) and ``store`` / ``store_root``
(``REPRO_STORE``) — with precedence

    explicit config field  >  environment variable  >  built-in default

materialized by :meth:`TransformConfig.resolved` (and recorded verbatim
in ``run.json``).  Nothing else reads the environment for configuration
and nothing writes to it.

For asynchronous, deduplicated or multi-tenant use, run ``repro-serve``
(:mod:`repro.service`): it queues requests at ``/v1/jobs`` and runs each
one through :func:`transform` in a worker process.
"""

from __future__ import annotations

import logging
import threading
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, Optional, Tuple, Union

from .config import TransformConfig, _current_fields
from .cudalite import ast_nodes as ast
from .cudalite.parser import parse_program
from .cudalite.unparser import unparse
from .errors import ConfigError, PipelineError, ReproError
from .gpu import interpreter
from .observability.metrics import get_registry
from .observability.runinfo import build_run_record, write_run_record
from .observability.runtime import telemetry
from .observability.tracing import get_tracer
from .pipeline.framework import Framework
from .pipeline.stages import PipelineState
from .store import keys as store_keys
from .store.artifact_store import ArtifactStore, open_store

__all__ = [
    "TransformConfig",
    "TransformResult",
    "transform",
]

logger = logging.getLogger(__name__)


# ------------------------------------------------------------------ result


@dataclass
class TransformResult:
    """Outcome of one :func:`transform` call."""

    #: full pipeline state (every stage artifact) — read-only: what the
    #: store served is shared with later runs in this process
    state: PipelineState
    #: the fully resolved configuration that produced this result
    config: TransformConfig
    #: combined human-readable stage report
    report: str
    #: wall time per completed stage, in execution order
    stage_times: Dict[str, float] = field(default_factory=dict)
    #: this run's ``repro.run/2`` record — what ``run.json`` and the run
    #: ledger hold: the deterministic ``outcome`` section beside the
    #: per-run sections (:mod:`repro.observability.runinfo`)
    record: Dict[str, Any] = field(default_factory=dict)

    @property
    def program(self) -> Optional[ast.Program]:
        """The transformed program (``None`` before the codegen stage)."""
        if self.state.transform is None:
            return None
        return self.state.transform.program

    @property
    def source(self) -> Optional[str]:
        """The transformed program's text: the one codegen produced (or
        rendered on first access without a store or workdir) — ``unparse``
        renders a program object once, later calls are a dict probe."""
        program = self.program
        return None if program is None else unparse(program)

    @property
    def speedup(self) -> Optional[float]:
        try:
            return self.state.speedup
        except PipelineError:
            return None

    @property
    def verified(self) -> Optional[bool]:
        return self.state.verified

    @property
    def reused(self) -> Dict[str, str]:
        """Stage/artifact reuse provenance (empty on a cold run)."""
        return dict(self.state.reused)

    @property
    def reports(self) -> Dict[str, str]:
        return dict(self.state.reports)


# ------------------------------------------------------------------ facade


#: bound on the source text the front-door memo retains, summed over its
#: entries (``len(text)``, which is bytes for the ASCII the lexer accepts
#: outside comments).  Text size, not entry count: an AST costs 21-27 B
#: per source byte and a single request body may be 64 MiB, so 4 MiB of
#: text is ~100 MiB of AST however many programs it is.
_SOURCE_MEMO_BYTES = 4 * 1024 * 1024
_SOURCE_MEMO: "OrderedDict[str, Tuple[ast.Program, str]]" = OrderedDict()
_source_memo_lock = threading.Lock()


def load_source(text: str) -> Tuple[ast.Program, str, str]:
    """The front door for source text: ``(program, fingerprint, memo)``.

    One parse and one fingerprint per distinct text per process: equal
    text returns the *same* ``Program`` (the AST is frozen dataclasses,
    so runs can share it) and its canonical fingerprint,
    ``program_fingerprint(parse_program(text))``.  ``memo`` says how:
    ``"hit"``, ``"miss"`` (parsed and retained, least recently used
    entries evicted down to ``_SOURCE_MEMO_BYTES``) or ``"uncached"`` (a
    text over the bound on its own is parsed and not kept).  A
    ``LexError`` / ``ParseError`` propagates and is never cached.  The
    lock is held across the parse, so concurrent loads of one text
    parse it once.
    """
    with _source_memo_lock:
        entry = _SOURCE_MEMO.get(text)
        if entry is not None:
            _SOURCE_MEMO.move_to_end(text)
            return (*entry, "hit")
        program = parse_program(text)
        entry = (program, store_keys.program_fingerprint(program))
        if len(text) > _SOURCE_MEMO_BYTES:
            return (*entry, "uncached")
        _SOURCE_MEMO[text] = entry
        retained = sum(map(len, _SOURCE_MEMO))
        while retained > _SOURCE_MEMO_BYTES:
            evicted, _ = _SOURCE_MEMO.popitem(last=False)
            retained -= len(evicted)
        return (*entry, "miss")


def _coerce_program(
    app_or_program: object, telemetry: bool, front_door: Dict[str, Any]
) -> Tuple[ast.Program, str, str]:
    """Accept a Program, app name, source path, source text or GeneratedApp.

    Returns ``(program, fingerprint, source_label)`` — the label lands in
    ``run.json``.  Source text (a path is re-read on every call) goes
    through :func:`load_source`; the other inputs are fingerprinted here,
    once, and nothing downstream unparses the input program again.
    Fills the caller's ``front_door`` (the ``run.json`` / ledger block of
    that name), so a load that raises still reports its size and time.
    """
    front_door.update(source_bytes=None, load_s=0.0, memo=None)
    start = perf_counter()
    try:
        source, label = _program_or_text(app_or_program)
        if isinstance(source, ast.Program):
            return source, store_keys.program_fingerprint(source), label
        front_door["source_bytes"] = len(source)
        program, fingerprint, memo = load_source(source)
        front_door["memo"] = memo
        if telemetry:
            get_registry().inc("source_loads_total", outcome=memo)
        return program, fingerprint, label
    finally:
        front_door["load_s"] = round(perf_counter() - start, 6)


def _program_or_text(
    app_or_program: object,
) -> Tuple[Union[ast.Program, str], str]:
    """``(Program or source text, source_label)`` of a transform input."""
    if isinstance(app_or_program, ast.Program):
        return app_or_program, "<program>"
    program = getattr(app_or_program, "program", None)
    if isinstance(program, ast.Program):  # GeneratedApp
        name = getattr(app_or_program, "name", "<app>")
        return program, f"app:{name}"
    if isinstance(app_or_program, Path):
        return app_or_program.read_text(), str(app_or_program)
    if isinstance(app_or_program, str):
        from .apps import APP_NAMES, build_app

        if app_or_program in APP_NAMES:
            return build_app(app_or_program).program, f"app:{app_or_program}"
        if "\n" not in app_or_program and Path(app_or_program).is_file():
            return Path(app_or_program).read_text(), app_or_program
        return app_or_program, "<source>"
    raise ConfigError(
        f"cannot transform a {type(app_or_program).__name__}; expected a "
        "Program, app name, source path, source text or GeneratedApp"
    )


def write_run_outputs(
    config: TransformConfig,
    source_label: str,
    framework: Optional[Framework],
    store: Optional[ArtifactStore],
    exit_code: int,
    error: Optional[Dict[str, object]] = None,
    front_door: Optional[Dict[str, Any]] = None,
    trace_mark: Optional[Tuple[int, int]] = None,
    counters_mark: Optional[Dict[str, float]] = None,
) -> Dict[str, Any]:
    """Build this run's record and write it; returns the record.

    The one write path of a run, on success *and* on the failure path, so
    failed runs leave a machine-readable diagnostic.  With telemetry on,
    the record is written as ``run.json`` (+ the optional metrics/trace
    files) when a destination (workdir / metrics_out / trace_out) was
    configured, and appended to the store's run ledger when a store is
    attached.  With telemetry off nothing is written; the record is still
    built, for :attr:`TransformResult.record`.  The ``trace`` section
    summarises the spans opened since ``trace_mark``
    (:meth:`~repro.observability.tracing.Tracer.mark`, taken when the run
    began; none when the run never started), not everything the process's
    tracer kept, and the ``counters`` section what the registry's counter
    totals gained since ``counters_mark`` (taken when ``transform()`` was
    called), not the process's cumulative totals.
    """
    from .observability.trace_analytics import summarize_spans

    started = perf_counter()
    state = framework.state if framework is not None else None
    record = build_run_record(
        source=source_label,
        config=config.to_dict(),
        exit_code=exit_code,
        error=error,
        state=state,
        stage_times=framework.stage_times if framework is not None else {},
        store=store,
        # this run's executors: reset in _execute_transform
        interpreter=interpreter.stats().as_dict(),
        # what transform() did before the pipeline started: the load
        front_door=front_door,
        counters=_counters_since(counters_mark or {}),
        trace=summarize_spans(
            get_tracer().spans_since(trace_mark) if trace_mark else []
        ),
        started=started,
    )
    if not config.telemetry:
        return record
    if config.workdir or config.metrics_out or config.trace_out:
        # don't surprise the caller with a run.json in their cwd
        run_dir = Path(config.workdir) if config.workdir else Path(".")
        run_dir.mkdir(parents=True, exist_ok=True)
        write_run_record(str(run_dir / "run.json"), record)
    if config.metrics_out:
        registry = get_registry()
        if config.metrics_out.endswith(".prom"):
            registry.write_prometheus(config.metrics_out)
        else:
            registry.write_json(config.metrics_out)
    if config.trace_out:
        get_tracer().write(config.trace_out)
    _ledger_append(store, record)
    return record


def _counters_since(mark: Dict[str, float]) -> Dict[str, float]:
    """The counter totals that moved since ``mark`` (a
    ``counter_totals()`` snapshot), by how much."""
    return {
        name: total - mark.get(name, 0.0)
        for name, total in get_registry().counter_totals().items()
        if total != mark.get(name, 0.0)
    }


def _ledger_append(
    store: Optional[ArtifactStore], record: Dict[str, Any]
) -> None:
    """Append ``record`` to the store's run ledger (no store: nothing).

    Strictly fail-soft bookkeeping: a failed append degrades to a
    warning — a run must never break on its own history.  Kept apart
    from :func:`write_run_outputs` so the append has its own span.
    """
    if store is None:
        return
    from .observability.ledger import append_record

    try:
        append_record(store, record)
    except Exception as exc:  # noqa: BLE001 - bookkeeping is best-effort
        logger.warning("ledger: could not append run record (%s)", exc)


def _merge_overrides(
    config: Optional[TransformConfig], overrides: Dict[str, Any]
) -> TransformConfig:
    """``config`` (or a default one) with ``overrides`` applied on top."""
    base = config or TransformConfig()
    values = _current_fields(overrides)
    return replace(base, **values) if values else base


def _execute_transform(
    program: ast.Program,
    fingerprint: str,
    source_label: str,
    front_door: Dict[str, Any],
    resolved: TransformConfig,
    counters_mark: Dict[str, float],
) -> TransformResult:
    """Run one fully-resolved transformation end to end.

    The execution body of :func:`transform`, under ``_EXEC_LOCK``:
    telemetry scope, store wiring, ``run.json`` and the run ledger on
    both the success and the failure path.  ``fingerprint`` and
    ``front_door`` are what :func:`_coerce_program` made of the input,
    ``counters_mark`` the counter totals before it ran.
    """
    with telemetry(bool(resolved.telemetry)):
        # run.json / the ledger report this run's executors and loop launches
        interpreter.reset_stats()
        # ... and the ledger's trace block this run's spans
        trace_mark = get_tracer().mark() if resolved.telemetry else None
        store: Optional[ArtifactStore] = None
        if resolved.store:
            store = open_store(resolved.store_root)
        framework: Optional[Framework] = None
        try:
            framework = Framework(
                program,
                resolved,
                store=store,
                program_fingerprint=fingerprint,
                # the result is final: its state is read, never run again
                read_only=True,
            )
            state = framework.run()
        except ReproError as exc:
            exc.record = write_run_outputs(
                resolved, source_label, framework, store, exit_code=2,
                error=_error_of(exc), front_door=front_door,
                trace_mark=trace_mark, counters_mark=counters_mark,
            )
            raise
        record = write_run_outputs(
            resolved, source_label, framework, store, exit_code=0,
            front_door=front_door, trace_mark=trace_mark,
            counters_mark=counters_mark,
        )
        return TransformResult(
            state=state,
            config=resolved,
            report=framework.report(),
            stage_times=dict(framework.stage_times),
            record=record,
        )


def _error_of(exc: ReproError) -> Dict[str, object]:
    """The ``error`` section of a failed run's record."""
    return {"type": type(exc).__name__, "stage": exc.stage, "message": str(exc)}


# ---------------------------------------------------------------- entry

#: one transformation executes at a time in this process: the metrics
#: registry, the tracer, the telemetry switch and the interpreter's
#: stats are process-global, so concurrent runs would mix their counters
#: and spans — concurrency comes from the service's worker *processes*,
#: not from in-process threads
_EXEC_LOCK = threading.Lock()


def request_key(program_fingerprint: str, resolved: TransformConfig) -> str:
    """The content-addressed identity of one transformation request.

    Digest of the program fingerprint (as :func:`_coerce_program`
    returns it) and the *semantic* configuration (output paths, store
    wiring and telemetry excluded) — the dedup key of the service layer.
    """
    from .observability.ledger import config_digest

    return store_keys.service_request_key(
        program_fingerprint, config_digest(resolved.to_dict())
    )


def transform(
    app_or_program: object,
    config: Optional[TransformConfig] = None,
    **overrides: Any,
) -> TransformResult:
    """Transform an application end-to-end and return the result.

    ``app_or_program`` may be a parsed :class:`~repro.cudalite.ast_nodes.
    Program`, a generated app (or its registry name, e.g. ``"Fluam"``), a
    source file path, or CUDA(Lite) source text.  ``overrides`` are
    :class:`TransformConfig` fields applied on top of ``config``.

    Input coercion, override validation and config resolution happen
    first (bad requests fail fast, and this is the one place the
    environment is read); the pipeline then runs in the calling thread
    under :data:`_EXEC_LOCK`.  For asynchronous use, run ``repro-serve``
    and submit through its ``/v1/jobs`` API
    (:meth:`repro.service.ServiceClient.submit`).

    Raises :class:`~repro.errors.ReproError` subclasses on failure; when
    a working directory is configured, ``run.json`` is written on both
    the success and the failure path.
    """
    resolved = _merge_overrides(config, overrides).resolved()
    front_door: Dict[str, Any] = {}
    # the record counts what this call adds, the front door's load included
    counters_mark = get_registry().counter_totals()
    try:
        program, fingerprint, source_label = _coerce_program(
            app_or_program, bool(resolved.telemetry), front_door
        )
    except ReproError as exc:
        # unparseable input still leaves a machine-readable diagnostic,
        # exactly as a failed pipeline stage would; this runs outside
        # _EXEC_LOCK (another thread may be mid-transform), so it consults
        # resolved.telemetry and touches no process-global switch
        store = open_store(resolved.store_root) if resolved.store else None
        exc.record = write_run_outputs(
            resolved, "<unknown>", None, store, exit_code=2,
            error=_error_of(exc), front_door=front_door,
            counters_mark=counters_mark,
        )
        raise
    with _EXEC_LOCK:
        return _execute_transform(
            program, fingerprint, source_label, front_door, resolved,
            counters_mark,
        )
