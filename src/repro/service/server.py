"""The transformation service: an asyncio HTTP front over the pool.

``TransformService`` is the tentpole of the serving layer — a
multi-tenant, deduplicating front door to :func:`repro.api.transform`:

* **Validation first.**  Every request body passes through
  :class:`repro.service.schema.TransformRequest`; the HTTP layer never
  sees a raw dict.  Schema violations are a 400 before any work starts.
* **Dedup before dispatch.**  The content-addressed request key
  (:func:`repro.api.request_key`) is computed up front; a request whose
  key matches an execution *joins* it instead of spawning a second one,
  and every joined client receives the byte-identical response body.
  The match holds past completion: a finished ``ok`` execution answers
  a repeat at once from the event loop, for as long as the job history
  keeps it.  Per-request metadata (the dedup verdict, the echoed
  correlation id) rides in headers so the body can be shared.
* **Workers, not threads.**  Executions are dispatched to the
  persistent :class:`~repro.service.pool.WorkerPool`; a crashed worker
  is respawned and the job retried within a bounded budget, invisibly
  to the client except for the ``worker_retries`` field.
* **Progress as SSE.**  Stage completions stream out of the worker as
  progress frames and are re-served as ``text/event-stream`` on
  ``GET /v1/jobs/{id}/events``.
* **Observability.**  The metrics registry carries queue depth, dedup
  hits (in-flight joins), completed hits (answers from a finished
  execution), executions and worker restarts; every execution appends
  one ``kind == "service"`` record to the shared store's run ledger.

Routes (all JSON unless noted)::

    POST /v1/transform          run to completion; 200 ok / 422 error
    POST /v1/jobs               submit; 202 with job_id + key
    GET  /v1/jobs/{id}          job status
    GET  /v1/jobs/{id}/result   200 body once done, else 202
    GET  /v1/jobs/{id}/events   SSE stage-progress stream
    GET  /v1/healthz            liveness + pool facts
    GET  /v1/metrics            counter/gauge snapshot

The HTTP/1.1 implementation is deliberately minimal (stdlib-only
constraint): one request per connection, explicit Content-Length,
``Connection: close``.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import logging
import uuid
from typing import Any, Dict, List, Optional, Tuple

from ..api import TransformConfig, _coerce_program, request_key
from ..errors import ConfigError, ReproError, ServiceError
from ..observability.metrics import get_registry
from .pool import WorkerPool
from .schema import SERVICE_SCHEMA, TransformRequest, TransformResponse

logger = logging.getLogger(__name__)

__all__ = ["TransformService", "serve"]

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    422: "Unprocessable Entity",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

MAX_BODY_BYTES = 64 * 1024 * 1024


class _Execution:
    """One deduplicated execution: N clients, one worker job, one body.

    ``clients`` counts the requests that joined before it finished (the
    ledger's ``dedup_clients``); later answers from a retained execution
    are counted by ``service_completed_hits_total``.
    """

    def __init__(self, job_id: str, key: str, source_label: str) -> None:
        self.job_id = job_id
        self.key = key
        self.source_label = source_label
        self.state = "queued"  # queued | running | done | failed
        self.clients = 1
        self.events: List[Dict[str, Any]] = []
        self.body: Optional[bytes] = None
        self.http_status = 500
        self.done = asyncio.Event()
        self.changed = asyncio.Condition()

    async def add_events(self, events: List[Dict[str, Any]]) -> None:
        async with self.changed:
            self.events.extend(events)
            self.changed.notify_all()

    async def finish(self, state: str, status: int, body: bytes) -> None:
        self.state = state
        self.http_status = status
        self.body = body
        self.done.set()
        async with self.changed:
            self.changed.notify_all()


class TransformService:
    """One service instance: pool + dedup map + job registry + ledger."""

    #: finished executions kept queryable by job id (and, when retained,
    #: joinable by request key)
    JOB_HISTORY = 256

    def __init__(
        self,
        base_config: Optional[TransformConfig] = None,
        *,
        store_root: Optional[str] = None,
        pool_size: int = 2,
        max_retries: int = 2,
    ) -> None:
        base = (base_config or TransformConfig()).resolved()
        # serving policy: the server owns its store and filesystem; no
        # request (and no ambient base config) may redirect outputs
        self.store_root = store_root or base.store_root
        self.base_config = self._scrub(base)
        self.pool = WorkerPool(pool_size, max_retries=max_retries)
        # request key -> the execution a request with that key joins:
        # running, or finished and retained (see _conclude)
        self._by_key: Dict[str, _Execution] = {}
        self._jobs: Dict[str, _Execution] = {}
        # job ids stay unique in a ledger that outlives one server
        self._job_prefix = uuid.uuid4().hex[:8]
        self._job_seq = itertools.count(1)
        self._draining = False
        self._server: Optional[asyncio.AbstractServer] = None

    def _scrub(self, config: TransformConfig) -> TransformConfig:
        from dataclasses import replace

        return replace(
            config,
            workdir=None,
            metrics_out=None,
            trace_out=None,
            store=True,
            store_root=self.store_root,
        )

    # -------------------------------------------------------------- lifecycle

    async def start(self, host: str = "127.0.0.1", port: int = 8642) -> Tuple[str, int]:
        """Spawn the pool and start listening; returns the bound address."""
        await self.pool.start()
        self._server = await asyncio.start_server(
            self._handle_connection, host, port
        )
        sock = self._server.sockets[0].getsockname()
        logger.info(
            "service: listening on %s:%s (%d workers, store %s)",
            sock[0], sock[1], self.pool.size, self.store_root,
        )
        return sock[0], sock[1]

    async def stop(self, drain: bool = True) -> None:
        """Stop accepting, optionally drain in-flight jobs, shut the pool."""
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        inflight = self._inflight()
        if drain and inflight:
            logger.info("service: draining %d in-flight job(s)", len(inflight))
            await asyncio.gather(*(ex.done.wait() for ex in inflight))
        await self.pool.shutdown()

    def _inflight(self) -> List[_Execution]:
        return [ex for ex in self._by_key.values() if not ex.done.is_set()]

    # ------------------------------------------------------------- execution

    def _effective_config(self, request: TransformRequest) -> TransformConfig:
        merged = self.base_config.to_dict()
        merged.update(request.config or {})
        return self._scrub(TransformConfig.from_dict(merged).resolved())

    def _admit(
        self, request: TransformRequest
    ) -> Tuple[_Execution, bool]:
        """Dedup gate: join the execution with the request's key, in
        flight or finished and retained, or start a new one."""
        config = self._effective_config(request)
        # the same front door as transform(): a repeated text costs a lookup
        _, fingerprint, source_label = _coerce_program(
            request.source if request.source is not None else request.app,
            bool(config.telemetry),
            {},
        )
        key = request_key(fingerprint, config)
        registry = get_registry()
        existing = self._by_key.get(key)
        if existing is not None:
            if existing.done.is_set():
                registry.inc("service_completed_hits_total")
                registry.inc("service_requests_total", outcome="ok")
            else:
                existing.clients += 1
                registry.inc("service_dedup_hits_total")
            return existing, True
        execution = _Execution(
            job_id=f"{key[:16]}-{self._job_prefix}-{next(self._job_seq)}",
            key=key,
            source_label=source_label,
        )
        self._by_key[key] = execution
        self._jobs[execution.job_id] = execution
        self._evict_history()
        registry.inc("service_executions_total")
        payload = {
            "source": request.source,
            "app": request.app,
            "config": config.to_dict(),
        }
        asyncio.get_running_loop().create_task(
            self._run_execution(execution, config, payload)
        )
        return execution, False

    def _evict_history(self) -> None:
        if len(self._jobs) <= self.JOB_HISTORY:
            return
        finished = [
            job_id for job_id, ex in self._jobs.items() if ex.done.is_set()
        ]
        for job_id in finished[: len(self._jobs) - self.JOB_HISTORY]:
            execution = self._jobs.pop(job_id)
            if self._by_key.get(execution.key) is execution:
                del self._by_key[execution.key]

    async def _run_execution(
        self,
        execution: _Execution,
        config: TransformConfig,
        payload: Dict[str, Any],
    ) -> None:
        loop = asyncio.get_running_loop()

        def on_progress(events: List[Dict[str, Any]]) -> None:
            loop.create_task(execution.add_events(events))

        execution.state = "running"
        try:
            outcome = await self.pool.run_job(
                execution.job_id, payload, on_progress
            )
        except ServiceError as exc:
            response = TransformResponse(
                status="error",
                job_id=execution.job_id,
                key=execution.key,
                error={
                    "type": "ServiceError",
                    "stage": None,
                    "message": str(exc),
                },
            )
            await self._conclude(execution, config, response, 500, record=None)
            return
        status = outcome.get("status", "error")
        response = TransformResponse(
            status=status,
            job_id=execution.job_id,
            key=execution.key,
            source=outcome.get("source"),
            speedup=outcome.get("speedup"),
            verified=outcome.get("verified"),
            demotions=outcome.get("demotions", 0),
            reused=dict(outcome.get("reused") or {}),
            wall_time_s=outcome.get("wall_time_s"),
            worker_retries=outcome.get("worker_retries", 0),
            error=outcome.get("error"),
        )
        await self._conclude(
            execution,
            config,
            response,
            200 if status == "ok" else 422,
            record=outcome.get("record"),
        )

    async def _conclude(
        self,
        execution: _Execution,
        config: TransformConfig,
        response: TransformResponse,
        http_status: int,
        *,
        record: Optional[Dict[str, Any]],
    ) -> None:
        """Publish the one canonical body every deduplicated client
        receives; an ``ok`` execution is retained and keeps answering its
        key."""
        body = response.to_json().encode("utf-8")
        self._ledger_append(execution, config, response, record)
        if response.status != "ok":
            self._by_key.pop(execution.key, None)
        state = "done" if response.status == "ok" else "failed"
        await execution.finish(state, http_status, body)
        get_registry().inc(
            "service_requests_total",
            value=execution.clients,
            outcome=response.status,
        )

    def _ledger_append(
        self,
        execution: _Execution,
        config: TransformConfig,
        response: TransformResponse,
        record: Optional[Dict[str, Any]],
    ) -> None:
        """Append the execution's service record: the worker's run record
        (built here when the worker returned none) as ``kind ==
        "service"`` with a ``service`` section."""
        try:
            from ..observability.ledger import append_record
            from ..observability.runinfo import build_run_record
            from ..store.artifact_store import open_store

            if record is None:
                record = build_run_record(
                    source=execution.source_label,
                    config=config.to_dict(),
                    exit_code=2,
                    error=response.error,
                )
            record = {
                **record,
                "kind": "service",
                "service": {
                    "request_key": execution.key,
                    "job_id": execution.job_id,
                    "status": response.status,
                    "dedup_clients": execution.clients,
                    "worker_retries": response.worker_retries,
                    "wall_time_s": response.wall_time_s,
                },
            }
            append_record(open_store(self.store_root), record)
        except Exception as exc:  # noqa: BLE001 - bookkeeping is best-effort
            logger.warning("service: ledger append failed (%s)", exc)

    # ------------------------------------------------------------------ HTTP

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            method, path, headers = await self._read_head(reader)
            body = await self._read_body(reader, headers)
            await self._route(method, path, body, writer)
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            BrokenPipeError,
        ):
            pass
        except ServiceError as exc:
            await self._send_error(writer, 400, str(exc))
        except Exception as exc:  # noqa: BLE001 - a handler bug is a 500
            logger.exception("service: unhandled error serving a request")
            await self._send_error(writer, 500, f"internal error: {exc}")
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _read_head(
        self, reader: asyncio.StreamReader
    ) -> Tuple[str, str, Dict[str, str]]:
        request_line = (await reader.readline()).decode("latin-1").strip()
        parts = request_line.split()
        if len(parts) != 3:
            raise ServiceError(f"malformed request line {request_line!r}")
        method, path, _version = parts
        headers: Dict[str, str] = {}
        while True:
            line = (await reader.readline()).decode("latin-1").rstrip("\r\n")
            if not line:
                break
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        return method.upper(), path, headers

    async def _read_body(
        self, reader: asyncio.StreamReader, headers: Dict[str, str]
    ) -> bytes:
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            raise ServiceError("malformed Content-Length header") from None
        if length < 0 or length > MAX_BODY_BYTES:
            raise ServiceError(f"request body of {length} bytes refused")
        return await reader.readexactly(length) if length else b""

    async def _route(
        self,
        method: str,
        path: str,
        body: bytes,
        writer: asyncio.StreamWriter,
    ) -> None:
        if path == "/v1/transform" and method == "POST":
            await self._post_transform(body, writer)
        elif path == "/v1/jobs" and method == "POST":
            await self._post_job(body, writer)
        elif path.startswith("/v1/jobs/") and method == "GET":
            rest = path[len("/v1/jobs/"):]
            if rest.endswith("/events"):
                await self._get_events(rest[: -len("/events")].rstrip("/"), writer)
            elif rest.endswith("/result"):
                await self._get_result(rest[: -len("/result")].rstrip("/"), writer)
            else:
                await self._get_job(rest, writer)
        elif path == "/v1/healthz" and method == "GET":
            await self._get_healthz(writer)
        elif path == "/v1/metrics" and method == "GET":
            await self._get_metrics(writer)
        else:
            code = 404 if method in ("GET", "POST") else 405
            await self._send_error(writer, code, f"no route {method} {path}")

    def _parse_and_admit(
        self, body: bytes
    ) -> Tuple[Optional[_Execution], bool, Optional[TransformRequest], Optional[Tuple[int, str]]]:
        """Shared admission for the sync and async submit routes.

        Returns ``(execution, dedup, request, error)`` where ``error`` is
        ``(http_status, message)`` when admission failed.
        """
        if self._draining:
            return None, False, None, (503, "service is shutting down")
        request = TransformRequest.from_json(body)  # ServiceError -> 400
        try:
            execution, dedup = self._admit(request)
        except (ConfigError, ServiceError) as exc:
            return None, False, request, (400, str(exc))
        except ReproError as exc:
            # the program itself is bad (parse error, unknown app):
            # a transformation outcome, not a protocol violation
            return None, False, request, (422, str(exc))
        return execution, dedup, request, None

    def _request_headers(
        self,
        execution: Optional[_Execution],
        dedup: bool,
        request: Optional[TransformRequest],
    ) -> Dict[str, str]:
        headers = {"X-Repro-Dedup": "hit" if dedup else "miss"}
        if execution is not None:
            headers["X-Repro-Key"] = execution.key
            headers["X-Repro-Job"] = execution.job_id
        if request is not None and request.request_id is not None:
            headers["X-Repro-Request"] = request.request_id
        return headers

    async def _post_transform(
        self, body: bytes, writer: asyncio.StreamWriter
    ) -> None:
        execution, dedup, request, error = self._parse_and_admit(body)
        if error is not None:
            await self._send_error(writer, error[0], error[1])
            return
        assert execution is not None
        await execution.done.wait()
        assert execution.body is not None
        await self._send(
            writer,
            execution.http_status,
            execution.body,
            extra=self._request_headers(execution, dedup, request),
        )

    async def _post_job(
        self, body: bytes, writer: asyncio.StreamWriter
    ) -> None:
        execution, dedup, request, error = self._parse_and_admit(body)
        if error is not None:
            await self._send_error(writer, error[0], error[1])
            return
        assert execution is not None
        await self._send_json(
            writer,
            202,
            {
                "schema": SERVICE_SCHEMA,
                "job_id": execution.job_id,
                "key": execution.key,
                "status": execution.state,
            },
            extra=self._request_headers(execution, dedup, request),
        )

    def _find_job(self, job_id: str) -> Optional[_Execution]:
        return self._jobs.get(job_id)

    async def _get_job(
        self, job_id: str, writer: asyncio.StreamWriter
    ) -> None:
        execution = self._find_job(job_id)
        if execution is None:
            await self._send_error(writer, 404, f"unknown job {job_id!r}")
            return
        await self._send_json(
            writer,
            200,
            {
                "schema": SERVICE_SCHEMA,
                "job_id": execution.job_id,
                "key": execution.key,
                "status": execution.state,
                "clients": execution.clients,
                "stages_completed": len(execution.events),
            },
        )

    async def _get_result(
        self, job_id: str, writer: asyncio.StreamWriter
    ) -> None:
        execution = self._find_job(job_id)
        if execution is None:
            await self._send_error(writer, 404, f"unknown job {job_id!r}")
            return
        if not execution.done.is_set():
            await self._send_json(
                writer,
                202,
                {
                    "schema": SERVICE_SCHEMA,
                    "job_id": execution.job_id,
                    "status": execution.state,
                },
            )
            return
        assert execution.body is not None
        await self._send(writer, execution.http_status, execution.body)

    async def _get_events(
        self, job_id: str, writer: asyncio.StreamWriter
    ) -> None:
        execution = self._find_job(job_id)
        if execution is None:
            await self._send_error(writer, 404, f"unknown job {job_id!r}")
            return
        writer.write(
            f"HTTP/1.1 200 {_REASONS[200]}\r\n"
            "Content-Type: text/event-stream\r\n"
            "Cache-Control: no-cache\r\n"
            "Connection: close\r\n\r\n".encode("latin-1")
        )
        await writer.drain()
        sent = 0
        while True:
            async with execution.changed:
                while (
                    len(execution.events) == sent
                    and not execution.done.is_set()
                ):
                    await execution.changed.wait()
                fresh = execution.events[sent:]
                sent = len(execution.events)
                finished = execution.done.is_set()
            for event in fresh:
                data = json.dumps(event, sort_keys=True)
                writer.write(f"event: stage\ndata: {data}\n\n".encode("utf-8"))
            if finished:
                data = json.dumps(
                    {"status": execution.state, "job_id": execution.job_id},
                    sort_keys=True,
                )
                writer.write(f"event: done\ndata: {data}\n\n".encode("utf-8"))
                await writer.drain()
                return
            await writer.drain()

    async def _get_healthz(self, writer: asyncio.StreamWriter) -> None:
        inflight = len(self._inflight())
        await self._send_json(
            writer,
            200 if not self._draining else 503,
            {
                "schema": SERVICE_SCHEMA,
                "status": "draining" if self._draining else "ok",
                "workers": self.pool.size,
                "queue_depth": self.pool.queued,
                "worker_restarts": self.pool.restarts,
                "inflight": inflight,
                "retained": len(self._by_key) - inflight,
                "store_root": str(self.store_root),
            },
        )

    async def _get_metrics(self, writer: asyncio.StreamWriter) -> None:
        registry = get_registry()
        await self._send_json(
            writer,
            200,
            {
                "schema": SERVICE_SCHEMA,
                "counters": registry.counter_totals(),
                "queue_depth": self.pool.queued,
                "worker_restarts": self.pool.restarts,
            },
        )

    # --------------------------------------------------------- raw responses

    async def _send(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        body: bytes,
        content_type: str = "application/json",
        extra: Optional[Dict[str, str]] = None,
    ) -> None:
        head = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
            "Connection: close",
        ]
        for name, value in (extra or {}).items():
            head.append(f"{name}: {value}")
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1"))
        writer.write(body)
        await writer.drain()

    async def _send_json(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Dict[str, Any],
        extra: Optional[Dict[str, str]] = None,
    ) -> None:
        body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        await self._send(writer, status, body.encode("utf-8"), extra=extra)

    async def _send_error(
        self, writer: asyncio.StreamWriter, status: int, message: str
    ) -> None:
        await self._send_json(
            writer,
            status,
            {"schema": SERVICE_SCHEMA, "error": message, "status": "error"},
        )


async def serve(
    host: str = "127.0.0.1",
    port: int = 8642,
    *,
    base_config: Optional[TransformConfig] = None,
    store_root: Optional[str] = None,
    pool_size: int = 2,
    max_retries: int = 2,
    ready: Optional["asyncio.Event"] = None,
    shutdown: Optional["asyncio.Event"] = None,
) -> None:
    """Run a service until ``shutdown`` is set (or forever).

    ``ready`` is set once the pool is up and the socket is bound —
    embedding tests use it to know when to connect.
    """
    service = TransformService(
        base_config,
        store_root=store_root,
        pool_size=pool_size,
        max_retries=max_retries,
    )
    await service.start(host, port)
    if ready is not None:
        ready.set()
    try:
        if shutdown is not None:
            await shutdown.wait()
        else:  # pragma: no cover - interactive serving
            await asyncio.Event().wait()
    finally:
        await service.stop(drain=True)
