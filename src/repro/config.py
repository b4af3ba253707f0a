"""repro.config — the one configuration type of a transformation run.

:class:`TransformConfig` holds every knob of a run.  The CLIs, the
service, config files and ``run.json`` speak it, and the pipeline
(:class:`~repro.pipeline.framework.Framework`) runs it as it is.  It
lives here, below both, so the pipeline can import it; :mod:`repro.api`
re-exports it.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from .errors import ConfigError
from .gpu.device import DeviceSpec, available_devices, query_device
from .search.params import RETIRED_GA_FIELDS, GAParams, drop_retired, fast_params
from .store.artifact_store import (
    DEFAULT_ROOT,
    ENV_FALSY,
    ENV_STORE,
    default_store_root,
    store_enabled_from_env,
)

__all__ = ["STAGES", "TransformConfig"]

STAGES: Tuple[str, ...] = ("metadata", "targets", "graphs", "search", "codegen")

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
        "forced executor is for checks: Framework(..., block_exec=...))",
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
