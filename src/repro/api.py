"""repro.api — the stable Python entry point for the framework.

One call transforms an application::

    from repro.api import TransformConfig, transform

    result = transform("Fluam", TransformConfig(device="K20X"))
    print(result.speedup, result.verified)
    print(result.source)          # the transformed CUDA(Lite) program

:class:`TransformConfig` holds every knob of a run (verification,
interpreter strategy, telemetry, the search's surrogate pre-filter, the
persistent artifact store).  Configuration flows downward as arguments:
the config is resolved once at the front door (:func:`submit`, the
CLIs) and handed to the pipeline, which hands each layer the values it
needs.  Two fields may also come from the process environment —
``telemetry`` (``REPRO_TELEMETRY``) and ``store`` / ``store_root``
(``REPRO_STORE``) — with precedence

    explicit config field  >  environment variable  >  built-in default

materialized by :meth:`TransformConfig.resolved` (and recorded verbatim
in ``run.json``).  Nothing below this module reads the environment for
configuration and nothing writes to it.

Underneath :func:`transform` sits a job-oriented core::

    job = submit("Fluam", TransformConfig(device="K20X"))
    print(job.status())           # 'pending' | 'running' | 'done' | 'failed'
    result = job.result()         # blocks; re-raises the job's error

:func:`submit` validates the request up front, computes its
content-addressed ``key`` (the identity ``repro.service`` deduplicates
on) and schedules the pipeline on this process's job-worker thread;
:func:`status` and :func:`result` look jobs up by handle or id.
:func:`transform` is the synchronous facade: ``submit(...,
inline=True).result()``.
"""

from __future__ import annotations

import itertools
import json
import logging
import os
import threading
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from .cudalite import ast_nodes as ast
from .cudalite.parser import parse_program
from .cudalite.unparser import unparse
from .errors import ConfigError, JobNotFound, PipelineError, ReproError
from .gpu import interpreter
from .gpu.device import DeviceSpec, available_devices, query_device
from .observability.metrics import get_registry
from .observability.runinfo import build_run_manifest, write_run_manifest
from .observability.runtime import telemetry
from .observability.tracing import get_tracer
from .pipeline.framework import Framework
from .pipeline.stages import STAGES, PipelineConfig, PipelineState
from .search.params import GAParams, drop_retired, fast_params
from .store import keys as store_keys
from .store.artifact_store import (
    DEFAULT_ROOT,
    ENV_FALSY,
    ENV_STORE,
    ArtifactStore,
    default_store_root,
    open_store,
    store_enabled_from_env,
)

__all__ = [
    "JobHandle",
    "TransformConfig",
    "TransformResult",
    "result",
    "status",
    "submit",
    "transform",
]

logger = logging.getLogger(__name__)


ENV_TELEMETRY = "REPRO_TELEMETRY"


def _read_env(environ: Optional[Mapping[str, str]]) -> Dict[str, Any]:
    """The one configuration read of the process environment.

    Returns the :class:`TransformConfig` fields that ``REPRO_TELEMETRY``
    and ``REPRO_STORE`` set; an unset or blank variable sets nothing.
    """
    env = os.environ if environ is None else environ
    values: Dict[str, Any] = {}
    raw = (env.get(ENV_TELEMETRY) or "").strip().lower()
    if raw:
        values["telemetry"] = raw not in ENV_FALSY
    if (env.get(ENV_STORE) or "").strip():
        values["store"] = store_enabled_from_env(env)
        if values["store"]:
            values["store_root"] = default_store_root(env)
    return values


#: fields a config written before 4.0 carries (``null`` = defer to the GA
#: parameter set), read through :func:`drop_retired`
_RETIRED_CONFIG_FIELDS = ("islands", "migration_interval", "migration_size")


@dataclass
class TransformConfig:
    """Complete configuration of one transformation run.

    Every field has an ordinary default except ``surrogate_topk``
    (``None`` defers to the GA parameter set) and ``telemetry`` /
    ``store`` / ``store_root``, where ``None`` means *unset*:
    :meth:`resolved` fills those three from ``REPRO_TELEMETRY`` /
    ``REPRO_STORE`` when present, else from the built-in default.  An
    explicitly assigned value always wins.
    """

    #: device model name (see ``repro.gpu.device.available_devices``)
    device: Union[str, DeviceSpec] = "K20X"
    #: 'automated' | 'guided' | 'manual' (§6.2.2)
    mode: str = "automated"
    #: GA random seed (used when ``ga_params`` is not given)
    seed: int = 12345
    #: full GA parameter set; ``None`` = ``fast_params(seed)``
    ga_params: Optional[GAParams] = None
    #: stop after this stage (``None`` = run everything)
    until: Optional[str] = None
    #: kernels manually excluded from the search
    exclude: Tuple[str, ...] = ()
    #: roofline/boundary target filtering (§3.2.2)
    filtering: bool = True
    #: kernel fission (lazy fission encoding)
    fission: bool = True
    #: thread-block tuning (§4.2)
    tuning: bool = True
    #: whole-program output verification on the interpreter
    verify: bool = True
    #: abort on search/verification failure instead of degrading
    fail_hard: bool = False
    #: directory for stage artifacts, reports and ``run.json``
    workdir: Optional[str] = None
    #: end-of-run metrics destination (.json or .prom)
    metrics_out: Optional[str] = None
    #: Chrome trace-event destination
    trace_out: Optional[str] = None

    #: per-group verification gate
    verify_groups: bool = True
    #: verification input-synthesis seed
    verify_seed: int = 0
    #: 0 = bitwise comparison, >0 = allclose rtol
    verify_rtol: float = 0.0
    #: interpreter strategy: 'auto' | 'loop' | 'batched'
    block_exec: str = "auto"
    #: observability layer on/off; ``None`` = unset (REPRO_TELEMETRY)
    telemetry: Optional[bool] = None
    #: fraction of offspring admitted to exact evaluation after surrogate
    #: ranking, 1.0 = pre-filter off; ``None`` defers to the GA parameter set
    surrogate_topk: Optional[float] = None
    #: persistent cross-run artifact store; ``None`` = unset (REPRO_STORE
    #: opts in)
    store: Optional[bool] = None
    #: store root directory; ``None`` = unset (REPRO_STORE, else
    #: ``~/.cache/repro``)
    store_root: Optional[str] = None

    # ----------------------------------------------------- validation

    def __post_init__(self) -> None:
        if isinstance(self.exclude, list):
            self.exclude = tuple(self.exclude)
        if self.mode not in ("automated", "guided", "manual"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.until is not None and self.until not in STAGES:
            raise ConfigError(
                f"unknown stage {self.until!r} (expected one of {STAGES})"
            )
        if isinstance(self.device, str) and self.device not in available_devices():
            raise ConfigError(
                f"unknown device {self.device!r} "
                f"(available: {sorted(available_devices())})"
            )
        # a config file or request written when these four were
        # env-backed carries null for "unset"
        for name in ("verify_groups", "verify_seed", "verify_rtol", "block_exec"):
            if getattr(self, name) is None:
                setattr(self, name, getattr(type(self), name))
        if self.block_exec not in interpreter.BLOCK_EXEC_MODES:
            raise ConfigError(
                f"block_exec must be one of {interpreter.BLOCK_EXEC_MODES}, "
                f"not {self.block_exec!r}"
            )
        if self.surrogate_topk is not None and not (
            0.0 < self.surrogate_topk <= 1.0
        ):
            raise ConfigError("surrogate_topk must be in (0, 1]")

    # ------------------------------------------------------ environment

    @classmethod
    def from_env(
        cls, environ: Optional[Mapping[str, str]] = None, **overrides: Any
    ) -> "TransformConfig":
        """A config with whatever ``REPRO_TELEMETRY`` / ``REPRO_STORE``
        set filled in; ``overrides`` are applied on top."""
        return cls(**{**_read_env(environ), **overrides})

    def resolved(
        self, environ: Optional[Mapping[str, str]] = None
    ) -> "TransformConfig":
        """Materialize ``explicit > env > default`` into concrete values."""
        defaults = {
            "telemetry": True,
            "store": False,
            "store_root": DEFAULT_ROOT,
            **_read_env(environ),
        }
        return replace(
            self,
            **{
                name: value
                for name, value in defaults.items()
                if getattr(self, name) is None
            },
        )

    # --------------------------------------------------- file round-trip

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TransformConfig":
        """Build a config from a plain dict (e.g. a parsed config file)."""
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        values = {
            k: v
            for k, v in data.items()
            if not (k in _RETIRED_CONFIG_FIELDS and drop_retired(k, v))
        }
        known = {f.name for f in fields(cls)}
        unknown = set(values) - known
        if unknown:
            raise ConfigError(
                f"unknown config field(s): {', '.join(sorted(unknown))}"
            )
        ga = values.get("ga_params")
        if isinstance(ga, dict):
            values["ga_params"] = _ga_params_from_dict(ga)
        if "exclude" in values and values["exclude"] is not None:
            values["exclude"] = tuple(values["exclude"])
        try:
            return cls(**values)
        except TypeError as exc:
            raise ConfigError(f"invalid config: {exc}") from None

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "TransformConfig":
        """Load a JSON config file (the CLI's ``--config``)."""
        try:
            data = json.loads(Path(path).read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
        return cls.from_dict(data)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable dict (round-trips through :meth:`from_dict`)."""
        data: Dict[str, Any] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "ga_params" and value is not None:
                value = asdict(value)
            elif f.name == "device" and isinstance(value, DeviceSpec):
                value = value.name
            elif isinstance(value, tuple):
                value = list(value)
            data[f.name] = value
        return data

    def to_json(self, path: Union[str, Path]) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")

    # ------------------------------------------------------- execution

    def device_spec(self) -> DeviceSpec:
        if isinstance(self.device, DeviceSpec):
            return self.device
        return query_device(self.device)

    def resolved_ga_params(self) -> GAParams:
        params = self.ga_params or fast_params(seed=self.seed)
        if self.surrogate_topk is None:
            return params
        return replace(params, surrogate_topk=self.surrogate_topk)

    def pipeline_config(
        self, store: Optional[ArtifactStore] = None
    ) -> PipelineConfig:
        """The :class:`PipelineConfig` this (resolved) config describes."""
        return PipelineConfig(
            device=self.device_spec(),
            mode=self.mode,
            ga_params=self.resolved_ga_params(),
            manual_exclusions=tuple(self.exclude),
            disable_filtering=not self.filtering,
            enable_fission=self.fission,
            tune_blocks=self.tuning,
            verify=self.verify,
            verify_groups=self.verify_groups,
            verify_seed=self.verify_seed,
            verify_rtol=self.verify_rtol,
            block_exec=self.block_exec,
            fail_soft=not self.fail_hard,
            workdir=self.workdir,
            store=store,
        )


def _ga_params_from_dict(data: Dict[str, Any]) -> GAParams:
    from .search.penalty import PenaltyParams

    values = {k: v for k, v in data.items() if not drop_retired(k, v)}
    known = {f.name for f in fields(GAParams)}
    unknown = set(values) - known
    if unknown:
        raise ConfigError(
            f"unknown ga_params field(s): {', '.join(sorted(unknown))}"
        )
    penalties = values.get("penalties")
    if isinstance(penalties, dict):
        try:
            values["penalties"] = PenaltyParams(**penalties)
        except TypeError as exc:
            raise ConfigError(f"invalid ga_params.penalties: {exc}") from None
    try:
        return GAParams(**values)
    except TypeError as exc:
        raise ConfigError(f"invalid ga_params: {exc}") from None


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


def _store_provenance(
    state: Optional[PipelineState], store: Optional[ArtifactStore]
) -> Dict[str, object]:
    if store is None:
        return {"enabled": False}
    return {
        "enabled": True,
        "root": str(store.root),
        "reused_stages": dict(state.reused) if state is not None else {},
        "stats": store.stats.as_dict(),
    }


def _outcome_of(
    state: Optional[PipelineState],
) -> Tuple[Optional[float], Optional[bool], int]:
    """(speedup, verified, demotions) from a possibly-partial state."""
    speedup = None
    verified = None
    demotions = 0
    if state is not None:
        verified = state.verified
        if state.transform is not None:
            demotions = len(state.transform.demotions)
            try:
                speedup = state.speedup
            except PipelineError:
                speedup = None
    return speedup, verified, demotions


def _ledger_append(
    config: TransformConfig,
    source_label: str,
    framework: Optional[Framework],
    store: Optional[ArtifactStore],
    exit_code: int,
    front_door: Optional[Dict[str, Any]] = None,
    trace_mark: Optional[Tuple[int, int]] = None,
) -> None:
    """Append this run to the store's run ledger.

    Strictly fail-soft bookkeeping: skipped entirely when telemetry is
    off or no store is attached, and a failed append degrades to a
    warning — a run must never break on its own history.  The ``trace``
    block summarises the spans opened since ``trace_mark``
    (:meth:`~repro.observability.tracing.Tracer.mark`, taken when the
    run began; none when the run never started), not everything the
    process's tracer kept.
    """
    if store is None or not config.telemetry:
        return
    from .observability.ledger import append_record, build_transform_record
    from .observability.trace_analytics import summarize_spans

    state = framework.state if framework is not None else None
    speedup, verified, demotions = _outcome_of(state)
    try:
        record = build_transform_record(
            source=source_label,
            config=config.to_dict(),
            seed=config.seed,
            stage_times=(
                framework.stage_times if framework is not None else {}
            ),
            speedup=speedup,
            verified=verified,
            demotions=demotions,
            exit_code=exit_code,
            reused=dict(state.reused) if state is not None else {},
            store_stats=store.stats.as_dict(),
            counters=get_registry().counter_totals(),
            trace=summarize_spans(
                get_tracer().spans_since(trace_mark) if trace_mark else []
            ),
            interpreter=interpreter.stats().as_dict(),
            verification=state.verification if state is not None else None,
            front_door=front_door,
        )
        append_record(store, record)
    except Exception as exc:  # noqa: BLE001 - bookkeeping is best-effort
        logger.warning("ledger: could not append run record (%s)", exc)


def write_run_outputs(
    config: TransformConfig,
    source_label: str,
    framework: Optional[Framework],
    store: Optional[ArtifactStore],
    exit_code: int,
    error: Optional[Dict[str, object]] = None,
    front_door: Optional[Dict[str, Any]] = None,
) -> None:
    """Persist ``run.json`` (+ optional metrics/trace files) for one run.

    Runs on success *and* on the failure path, so failed runs leave a
    machine-readable diagnostic; skipped when telemetry is off or when no
    destination (workdir / metrics_out / trace_out) was configured.
    """
    if not config.telemetry:
        return
    if not (config.workdir or config.metrics_out or config.trace_out):
        # don't surprise the caller with a run.json in their cwd
        return
    state = framework.state if framework is not None else None
    speedup, verified, demotions = _outcome_of(state)
    run_dir = Path(config.workdir) if config.workdir else Path(".")
    run_dir.mkdir(parents=True, exist_ok=True)
    manifest = build_run_manifest(
        source=source_label,
        config=config.to_dict(),
        stage_times=framework.stage_times if framework is not None else {},
        reports=dict(state.reports) if state is not None else {},
        speedup=speedup,
        verified=verified,
        demotions=demotions,
        exit_code=exit_code,
        error=error,
        extra={
            "store": _store_provenance(state, store),
            # this run's executors: reset in _execute_transform
            "interpreter": interpreter.stats().as_dict(),
            # whole-program interpretations codegen made, and why
            "verification": state.verification if state is not None else None,
            # what submit() did before the pipeline started: the load
            "front_door": front_door,
        },
    )
    write_run_manifest(str(run_dir / "run.json"), manifest)
    if config.metrics_out:
        registry = get_registry()
        if config.metrics_out.endswith(".prom"):
            registry.write_prometheus(config.metrics_out)
        else:
            registry.write_json(config.metrics_out)
    if config.trace_out:
        get_tracer().write(config.trace_out)


def _merge_overrides(
    config: Optional[TransformConfig], overrides: Dict[str, Any]
) -> TransformConfig:
    """``config`` (or a default one) with ``overrides`` applied on top."""
    base = config or TransformConfig()
    if overrides:
        known = {f.name for f in fields(TransformConfig)}
        unknown = set(overrides) - known
        if unknown:
            raise ConfigError(
                f"unknown config field(s): {', '.join(sorted(unknown))}"
            )
        base = replace(base, **overrides)
    return base


def _execute_transform(
    program: ast.Program,
    fingerprint: str,
    source_label: str,
    front_door: Dict[str, Any],
    resolved: TransformConfig,
) -> TransformResult:
    """Run one fully-resolved transformation end to end.

    The shared execution body behind :func:`transform` and the job core:
    telemetry scope, store wiring, ``run.json`` and the run ledger on
    both the success and the failure path.  ``fingerprint`` and
    ``front_door`` are what :func:`_coerce_program` made of the input.
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
                resolved.pipeline_config(store),
                program_fingerprint=fingerprint,
                # the result is final: its state is read, never run again
                read_only=True,
            )
            state = framework.run(until=resolved.until)
        except ReproError as exc:
            write_run_outputs(
                resolved,
                source_label,
                framework,
                store,
                exit_code=2,
                error={
                    "type": type(exc).__name__,
                    "stage": exc.stage,
                    "message": str(exc),
                },
                front_door=front_door,
            )
            _ledger_append(
                resolved, source_label, framework, store, exit_code=2,
                front_door=front_door, trace_mark=trace_mark,
            )
            raise
        write_run_outputs(
            resolved, source_label, framework, store, exit_code=0,
            front_door=front_door,
        )
        _ledger_append(
            resolved, source_label, framework, store, exit_code=0,
            front_door=front_door, trace_mark=trace_mark,
        )
        return TransformResult(
            state=state,
            config=resolved,
            report=framework.report(),
            stage_times=dict(framework.stage_times),
        )


# ---------------------------------------------------------------- job core

#: lifecycle of a job, in order
JOB_STATES = ("pending", "running", "done", "failed")


class JobHandle:
    """One submitted transformation job.

    Returned by :func:`submit`; thread-safe.  ``job_id`` is unique per
    submission while ``key`` is the content-addressed request identity
    (two submissions of the same program + semantic config share a
    ``key`` but never a ``job_id``) — the same key the service layer
    deduplicates on.
    """

    def __init__(self, job_id: str, key: str, source_label: str) -> None:
        self.job_id = job_id
        self.key = key
        self.source_label = source_label
        self._done = threading.Event()
        self._lock = threading.Lock()
        self._status = "pending"
        self._result: Optional[TransformResult] = None
        self._error: Optional[BaseException] = None

    # ------------------------------------------------------- state queries

    def status(self) -> str:
        """'pending' | 'running' | 'done' | 'failed'."""
        with self._lock:
            return self._status

    def done(self) -> bool:
        """Has the job reached a terminal state (done or failed)?"""
        return self._done.is_set()

    def result(self, timeout: Optional[float] = None) -> TransformResult:
        """Block until the job finishes; return or re-raise its outcome."""
        if not self._done.wait(timeout):
            raise TimeoutError(
                f"job {self.job_id} still {self.status()!r} "
                f"after {timeout} s"
            )
        with self._lock:
            if self._error is not None:
                raise self._error
            assert self._result is not None
            return self._result

    def exception(
        self, timeout: Optional[float] = None
    ) -> Optional[BaseException]:
        """The job's error, or None once it completed successfully."""
        if not self._done.wait(timeout):
            raise TimeoutError(
                f"job {self.job_id} still {self.status()!r} "
                f"after {timeout} s"
            )
        with self._lock:
            return self._error

    # -------------------------------------------------- state transitions

    def _mark_running(self) -> None:
        with self._lock:
            self._status = "running"

    def _finish(
        self,
        result: Optional[TransformResult],
        error: Optional[BaseException],
    ) -> None:
        with self._lock:
            self._result = result
            self._error = error
            self._status = "failed" if error is not None else "done"
        self._done.set()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"JobHandle({self.job_id!r}, status={self.status()!r}, "
            f"source={self.source_label!r})"
        )


#: asynchronously submitted jobs by id, newest last; finished jobs are
#: evicted beyond _JOB_HISTORY so a long-lived process cannot grow without
#: bound.  An inline job (every ``transform()``) is not entered: its caller
#: holds the only handle anyone can use, and an entry here would pin the
#: result's AST, problem and memo for 256 calls.
_JOBS: "Dict[str, JobHandle]" = {}
_JOB_HISTORY = 256
_jobs_lock = threading.Lock()
_job_seq = itertools.count(1)

#: one transformation executes at a time in this process: the metrics
#: registry, the tracer, the telemetry switch and the interpreter's
#: stats are process-global, so concurrent runs would mix their counters
#: and spans — concurrency comes from the service's worker *processes*,
#: not from in-process threads
_EXEC_LOCK = threading.Lock()

_executor: Optional[ThreadPoolExecutor] = None
_executor_lock = threading.Lock()


def _job_executor() -> ThreadPoolExecutor:
    global _executor
    with _executor_lock:
        if _executor is None:
            _executor = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-job"
            )
        return _executor


def request_key(program_fingerprint: str, resolved: TransformConfig) -> str:
    """The content-addressed identity of one transformation request.

    Digest of the program fingerprint (as :func:`_coerce_program`
    returns it) and the *semantic* configuration (output paths, store
    wiring and telemetry excluded) — the dedup key of the service layer
    and the ``key`` on every :class:`JobHandle`.
    """
    from .observability.ledger import config_digest

    return store_keys.service_request_key(
        program_fingerprint, config_digest(resolved.to_dict())
    )


def _register_job(handle: JobHandle) -> None:
    with _jobs_lock:
        _JOBS[handle.job_id] = handle
        if len(_JOBS) > _JOB_HISTORY:
            for job_id in [
                j for j, h in _JOBS.items() if h.done()
            ][: len(_JOBS) - _JOB_HISTORY]:
                del _JOBS[job_id]


def _run_job(
    handle: JobHandle,
    program: ast.Program,
    fingerprint: str,
    front_door: Dict[str, Any],
    resolved: TransformConfig,
) -> None:
    with _EXEC_LOCK:
        handle._mark_running()
        try:
            result = _execute_transform(
                program, fingerprint, handle.source_label, front_door, resolved
            )
        except BaseException as exc:  # noqa: BLE001 - stored, re-raised
            handle._finish(None, exc)
        else:
            handle._finish(result, None)


def submit(
    app_or_program: object,
    config: Optional[TransformConfig] = None,
    *,
    inline: bool = False,
    **overrides: Any,
) -> JobHandle:
    """Submit a transformation job; returns immediately with its handle.

    Input coercion, override validation and config resolution happen
    here in the caller's thread (bad requests fail fast, and this is the
    one place the environment is read); the pipeline itself runs on this
    process's single job-worker thread.  With ``inline=True`` the job
    executes to completion in the calling thread before ``submit``
    returns — the path :func:`transform` uses — and is reachable through
    the returned handle only, not by id.
    """
    base = _merge_overrides(config, overrides)
    resolved = base.resolved()
    front_door: Dict[str, Any] = {}
    try:
        program, fingerprint, source_label = _coerce_program(
            app_or_program, bool(resolved.telemetry), front_door
        )
    except ReproError as exc:
        # unparseable input still leaves a machine-readable diagnostic,
        # exactly as a failed pipeline stage would; this runs outside
        # _EXEC_LOCK (a job may be mid-transform), so it consults
        # resolved.telemetry and touches no process-global switch
        store = open_store(resolved.store_root) if resolved.store else None
        write_run_outputs(
            resolved,
            "<unknown>",
            None,
            store,
            exit_code=2,
            error={
                "type": type(exc).__name__,
                "stage": exc.stage,
                "message": str(exc),
            },
            front_door=front_door,
        )
        _ledger_append(
            resolved, "<unknown>", None, store, exit_code=2,
            front_door=front_door,
        )
        raise
    key = request_key(fingerprint, resolved)
    handle = JobHandle(
        job_id=f"{key[:16]}-{next(_job_seq)}",
        key=key,
        source_label=source_label,
    )
    if inline:
        _run_job(handle, program, fingerprint, front_door, resolved)
    else:
        _register_job(handle)
        _job_executor().submit(
            _run_job, handle, program, fingerprint, front_door, resolved
        )
    return handle


def _resolve_handle(job: "JobHandle | str") -> JobHandle:
    if isinstance(job, JobHandle):
        return job
    with _jobs_lock:
        handle = _JOBS.get(job)
    if handle is None:
        raise JobNotFound(f"unknown job id {job!r}")
    return handle


def status(job: "JobHandle | str") -> str:
    """The state of a job (by handle or id): pending/running/done/failed."""
    return _resolve_handle(job).status()


def result(
    job: "JobHandle | str", timeout: Optional[float] = None
) -> TransformResult:
    """Block until a job (by handle or id) finishes; return its result."""
    return _resolve_handle(job).result(timeout)


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

    The synchronous facade over the job core: equivalent to
    ``submit(..., inline=True).result()``, so the pipeline runs in the
    calling thread and the call blocks until the job finishes.

    Raises :class:`~repro.errors.ReproError` subclasses on failure; when
    a working directory is configured, ``run.json`` is written on both
    the success and the failure path.
    """
    return submit(
        app_or_program, config, inline=True, **overrides
    ).result()
