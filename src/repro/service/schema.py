"""The versioned wire schema of the transformation service.

Every byte that crosses the HTTP boundary is described here — the HTTP
layer never touches raw dicts.  The schema is versioned as
``repro.service/1``: a request or response carries its schema tag, and a
payload with a different tag (or any field this version does not know)
is rejected loudly instead of being half-understood.

Two dataclasses:

* :class:`TransformRequest` — what a client asks for: the program
  (source text or a registry app name), a :class:`~repro.api.
  TransformConfig` fragment, and an optional correlation id.  The
  serving policy is encoded in validation: output-path and store-wiring
  fields are *rejected* (the server owns its filesystem and its shared
  store, and the dedup key excludes them — honoring them would break
  response bit-identity across deduplicated clients).
* :class:`TransformResponse` — what every client of one execution gets
  back, byte-identical across deduplicated requests.  Per-request
  metadata (dedup flag, echoed correlation id) rides in HTTP headers,
  never in the body, precisely so the body can be shared.

``from_json`` / ``to_json`` round-trip losslessly (property-tested) and
``to_json`` is canonical (sorted keys, fixed separators), so equal
responses are equal byte strings.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Dict, Optional, Union

from ..errors import ServiceError

__all__ = [
    "SERVICE_SCHEMA",
    "REJECTED_CONFIG_FIELDS",
    "TransformRequest",
    "TransformResponse",
]

#: the wire-format version tag carried by every request and response
SERVICE_SCHEMA = "repro.service/1"

#: TransformConfig fields a service request may not set: output paths
#: belong to the server's filesystem, store wiring is serving policy,
#: and none of them participate in the dedup key — accepting them would
#: let two deduplicated clients observe different responses.
REJECTED_CONFIG_FIELDS = (
    "workdir",
    "metrics_out",
    "trace_out",
    "store",
    "store_root",
)


def _load(payload: "Union[str, bytes, Dict[str, Any]]") -> Dict[str, Any]:
    if isinstance(payload, (str, bytes)):
        try:
            payload = json.loads(payload)
        except json.JSONDecodeError as exc:
            raise ServiceError(f"payload is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ServiceError(
            f"payload must be a JSON object, not {type(payload).__name__}"
        )
    return payload


def _check_fields(cls, data: Dict[str, Any], what: str) -> None:
    known = {f.name for f in fields(cls)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ServiceError(
            f"unknown {what} field(s): {', '.join(unknown)} "
            f"(schema {SERVICE_SCHEMA})"
        )
    tag = data.get("schema", SERVICE_SCHEMA)
    if tag != SERVICE_SCHEMA:
        raise ServiceError(
            f"unsupported {what} schema {tag!r} (this server speaks "
            f"{SERVICE_SCHEMA})"
        )


@dataclass(frozen=True)
class TransformRequest:
    """One transformation request (``POST /v1/transform`` body)."""

    #: CudaLite source text (exactly one of ``source`` / ``app``)
    source: Optional[str] = None
    #: registry application name, e.g. ``"Fluam"``
    app: Optional[str] = None
    #: :class:`repro.api.TransformConfig` fragment (``to_dict`` subset);
    #: unset fields fall back to the server's base configuration
    config: Optional[Dict[str, Any]] = None
    #: client correlation id, echoed back in the ``X-Repro-Request``
    #: header (never in the body — see the module docstring)
    request_id: Optional[str] = None
    schema: str = SERVICE_SCHEMA

    def __post_init__(self) -> None:
        if (self.source is None) == (self.app is None):
            raise ServiceError(
                "a request must carry exactly one of 'source' or 'app'"
            )
        if self.source is not None and not isinstance(self.source, str):
            raise ServiceError("'source' must be CudaLite program text")
        if self.app is not None and not isinstance(self.app, str):
            raise ServiceError("'app' must be a registry application name")
        if self.config is not None:
            if not isinstance(self.config, dict):
                raise ServiceError("'config' must be a JSON object")
            rejected = sorted(
                set(self.config) & set(REJECTED_CONFIG_FIELDS)
            )
            if rejected:
                raise ServiceError(
                    f"config field(s) not accepted over the wire: "
                    f"{', '.join(rejected)} (output paths and store "
                    f"wiring are serving policy)"
                )
        if self.request_id is not None and not isinstance(
            self.request_id, str
        ):
            raise ServiceError("'request_id' must be a string")

    @classmethod
    def from_json(
        cls, payload: "Union[str, bytes, Dict[str, Any]]"
    ) -> "TransformRequest":
        data = _load(payload)
        _check_fields(cls, data, "request")
        return cls(**data)

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class TransformResponse:
    """The outcome of one served transformation (shared across all
    deduplicated requesters of the execution, byte for byte)."""

    #: 'ok' or 'error'
    status: str = "ok"
    #: the executing job's id (``<key prefix>-<server>-<n>``, unique
    #: across server restarts), shared by every request answered from
    #: that execution: those that joined it in flight and the repeats a
    #: finished, retained execution answers without running again
    job_id: Optional[str] = None
    #: content-addressed request key (the dedup/store identity)
    key: Optional[str] = None
    #: the transformed program text (None before codegen / on error)
    source: Optional[str] = None
    #: predicted speedup of the transformed program
    speedup: Optional[float] = None
    #: whole-program verification verdict
    verified: Optional[bool] = None
    #: fusion demotions recorded during codegen
    demotions: int = 0
    #: per-stage store-reuse provenance (empty on a cold run)
    reused: Dict[str, str] = field(default_factory=dict)
    #: wall time of the one execution, in seconds (shared, not per-client)
    wall_time_s: Optional[float] = None
    #: worker crashes absorbed while serving this job
    worker_retries: int = 0
    #: ``{"type", "stage", "message"}`` when ``status == "error"``
    error: Optional[Dict[str, Any]] = None
    schema: str = SERVICE_SCHEMA

    def __post_init__(self) -> None:
        if self.status not in ("ok", "error"):
            raise ServiceError(
                f"response status must be 'ok' or 'error', not "
                f"{self.status!r}"
            )
        if self.status == "error" and self.error is None:
            raise ServiceError("an error response must carry 'error'")
        if self.error is not None and not isinstance(self.error, dict):
            raise ServiceError("'error' must be a JSON object")
        if not isinstance(self.reused, dict):
            raise ServiceError("'reused' must be a JSON object")

    @classmethod
    def from_json(
        cls, payload: "Union[str, bytes, Dict[str, Any]]"
    ) -> "TransformResponse":
        data = _load(payload)
        _check_fields(cls, data, "response")
        return cls(**data)

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    def to_json(self) -> str:
        """Canonical encoding: equal responses are equal byte strings."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
