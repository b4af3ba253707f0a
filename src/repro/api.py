"""repro.api — the stable Python entry point for the framework.

One call transforms an application::

    from repro.api import TransformConfig, transform

    result = transform("Fluam", TransformConfig(device="K20X"))
    print(result.speedup, result.verified)
    print(result.source)          # the transformed CUDA(Lite) program

:class:`TransformConfig` holds every knob of a run (verification,
telemetry, the search's surrogate pre-filter, the persistent artifact
store).  Configuration flows downward as arguments:
the config is resolved once at the front door (:func:`transform`, the
CLIs) and handed to the pipeline, which hands each layer the values it
needs.  Two fields may also come from the process environment —
``telemetry`` (``REPRO_TELEMETRY``) and ``store`` / ``store_root``
(``REPRO_STORE``) — with precedence

    explicit config field  >  environment variable  >  built-in default

materialized by :meth:`TransformConfig.resolved` (and recorded verbatim
in ``run.json``).  Nothing below this module reads the environment for
configuration and nothing writes to it.

For asynchronous, deduplicated or multi-tenant use, run ``repro-serve``
(:mod:`repro.service`): it queues requests at ``/v1/jobs`` and runs each
one through :func:`transform` in a worker process.
"""

from __future__ import annotations

import json
import logging
import os
import threading
from collections import OrderedDict
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from .cudalite import ast_nodes as ast
from .cudalite.parser import parse_program
from .cudalite.unparser import unparse
from .errors import ConfigError, PipelineError, ReproError
from .gpu import interpreter
from .gpu.device import DeviceSpec, available_devices, query_device
from .observability.metrics import get_registry
from .observability.runinfo import build_run_record, write_run_record
from .observability.runtime import telemetry
from .observability.tracing import get_tracer
from .pipeline.framework import Framework
from .pipeline.stages import STAGES, PipelineConfig, PipelineState
from .search.params import RETIRED_GA_FIELDS, GAParams, drop_retired, fast_params
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
    "TransformConfig",
    "TransformResult",
    "transform",
]

logger = logging.getLogger(__name__)


ENV_TELEMETRY = "REPRO_TELEMETRY"

#: variables that changed behaviour before 8.0 and would now silently do
#: nothing: setting one is an error rather than a run that ignores it
_RETIRED_ENV = ("REPRO_FAULT_SEAMS", "REPRO_FAULT_SEED")


def _read_env(environ: Optional[Mapping[str, str]]) -> Dict[str, Any]:
    """The one configuration read of the process environment.

    Returns the :class:`TransformConfig` fields that ``REPRO_TELEMETRY``
    and ``REPRO_STORE`` set; an unset or blank variable sets nothing.
    A set retired variable (:data:`_RETIRED_ENV`) is a :class:`ConfigError`.
    """
    env = os.environ if environ is None else environ
    retired = [name for name in _RETIRED_ENV if (env.get(name) or "").strip()]
    if retired:
        raise ConfigError(
            f"{', '.join(retired)}: fault injection was removed in 8.0 "
            "(the degradation paths are tested through real inputs); "
            "unset the variable"
        )
    values: Dict[str, Any] = {}
    raw = (env.get(ENV_TELEMETRY) or "").strip().lower()
    if raw:
        values["telemetry"] = raw not in ENV_FALSY
    if (env.get(ENV_STORE) or "").strip():
        values["store"] = store_enabled_from_env(env)
        if values["store"]:
            values["store_root"] = default_store_root(env)
    return values


#: fields configs written by earlier versions carry, read through
#: :func:`drop_retired`: the island knobs before 4.0 (``null`` = defer to
#: the GA parameter set), the gates' tolerance before 6.0 and the
#: interpreter strategy before 7.0
_RETIRED_CONFIG_FIELDS = {
    **{
        name: RETIRED_GA_FIELDS[name]
        for name in ("islands", "migration_interval", "migration_size")
    },
    "verify_rtol": (
        (0, None),
        "the verification gates compare bits since 6.0 and take no tolerance",
    ),
    "block_exec": (
        ("auto", None),
        "the interpreter strategy is not a product setting since 7.0 (a "
        "forced executor is for checks: PipelineConfig.block_exec)",
    ),
}


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
    #: 'automated' | 'guided' | 'manual' (§6.2.2); 'manual' enables the
    #: higher-quality codegen strategies, 'guided' runs as 'automated'
    mode: str = "automated"
    #: GA random seed; with ``ga_params`` given, :meth:`resolved` sets it
    #: to ``ga_params.seed``
    seed: int = 12345
    #: full GA parameter set, or its dict spelling (the form a config
    #: file uses); ``None`` = ``fast_params(seed)``
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
        if isinstance(self.ga_params, dict):
            self.ga_params = _ga_params_from_dict(self.ga_params)
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
        # a config file or request written when these two were
        # env-backed carries null for "unset"
        for name in ("verify_groups", "verify_seed"):
            if getattr(self, name) is None:
                setattr(self, name, getattr(type(self), name))
        if self.surrogate_topk is not None and not (
            0.0 < self.surrogate_topk <= 1.0
        ):
            raise ConfigError("surrogate_topk must be in (0, 1]")

    # ------------------------------------------------------ environment

    def resolved(
        self, environ: Optional[Mapping[str, str]] = None
    ) -> "TransformConfig":
        """Materialize ``explicit > env > default`` into concrete values.

        With ``ga_params`` given, ``seed`` becomes ``ga_params.seed``: that
        is the seed the search uses, so the request key, the config digest
        and the run record name it rather than an ignored ``seed``.
        """
        defaults = {
            "telemetry": True,
            "store": False,
            "store_root": DEFAULT_ROOT,
            **_read_env(environ),
        }
        values = {
            name: value
            for name, value in defaults.items()
            if getattr(self, name) is None
        }
        if self.ga_params is not None:
            values["seed"] = self.ga_params.seed
        return replace(self, **values)

    # --------------------------------------------------- file round-trip

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TransformConfig":
        """Build a config from a plain dict (e.g. a parsed config file)."""
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        values = _current_fields(data)
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


def _current_fields(data: Mapping[str, Any]) -> Dict[str, Any]:
    """``data`` without the retired fields that load as absent; a retired
    field at any other value, or an unknown one, is a ``ConfigError``."""
    values = {
        k: v
        for k, v in data.items()
        if not drop_retired(k, v, _RETIRED_CONFIG_FIELDS)
    }
    unknown = set(values) - {f.name for f in fields(TransformConfig)}
    if unknown:
        raise ConfigError(
            f"unknown config field(s): {', '.join(sorted(unknown))}"
        )
    return values


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
                resolved.pipeline_config(store),
                program_fingerprint=fingerprint,
                # the result is final: its state is read, never run again
                read_only=True,
            )
            state = framework.run(until=resolved.until)
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
