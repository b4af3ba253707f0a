"""One long-lived service pool worker (``python -m repro.service.worker``).

A worker is a persistent subprocess that amortizes interpreter startup,
imports, the per-kernel analysis memos and the fitness cache
across many served jobs.  It speaks the length-prefixed pickle protocol
of :mod:`repro.service.protocol` over its stdin/stdout pipes:

* announce ``ready`` once the (expensive) imports are done,
* loop: receive a ``run`` frame, execute :func:`repro.api.transform`
  with the fully-resolved config the server shipped, stream
  ``progress`` frames as pipeline stages complete (sourced from the
  tracing spans), answer with one ``result`` frame,
* exit 0 on a ``shutdown`` frame.

Failed transformations are *results* (``status: "error"``), not worker
failures — the worker stays alive.  A genuinely dead worker is detected
by the pool as EOF on the pipe; the ``service_worker`` fault seam
(:func:`repro.reliability.faults.service_worker_fault`) simulates
exactly that between accepting a job and running it.

Stage progress is sampled, not instrumented: spans record on
completion, so a 50 ms poll of the process tracer yields each
``stage:*`` span as it closes.  The tracer and metrics registry are
reset per job — a long-lived worker must not replay one tenant's spans
into the next tenant's event stream.
"""

from __future__ import annotations

import sys
import threading
import time
from typing import Any, BinaryIO, Dict, List, Optional

from ..api import TransformConfig, TransformResult, transform
from ..errors import ReproError
from ..observability.metrics import reset_registry
from ..observability.tracing import get_tracer, reset_tracer
from ..reliability import faults
from .protocol import recv_msg, send_msg

__all__ = ["main", "run_request"]

#: seconds between polls of the tracer for newly completed stage spans
PROGRESS_POLL_S = 0.05


class _StageSampler:
    """Streams ``stage:*`` span completions as progress frames."""

    def __init__(
        self, out: BinaryIO, out_lock: threading.Lock, job_id: str
    ) -> None:
        self._out = out
        self._out_lock = out_lock
        self._job_id = job_id
        self._stop = threading.Event()
        self._sent = 0
        self._thread = threading.Thread(
            target=self._loop, name="repro-stage-sampler", daemon=True
        )

    def _new_events(self) -> List[Dict[str, Any]]:
        spans = [
            s
            for s in get_tracer().spans()
            if s.name.startswith("stage:") and s.parent_id is None
        ]
        fresh = spans[self._sent:]
        self._sent = len(spans)
        return [
            {
                "stage": s.name.split(":", 1)[1],
                "duration_s": round(s.duration_us / 1e6, 6),
                "seq": self._sent - len(fresh) + i,
            }
            for i, s in enumerate(fresh)
        ]

    def _emit(self) -> None:
        events = self._new_events()
        if events:
            send_msg(
                self._out,
                {"op": "progress", "job_id": self._job_id, "events": events},
                lock=self._out_lock,
            )

    def _loop(self) -> None:
        while not self._stop.wait(PROGRESS_POLL_S):
            try:
                self._emit()
            except Exception:  # pragma: no cover - a dead pipe ends the job
                return

    def start(self) -> None:
        self._thread.start()

    def finish(self) -> None:
        """Stop polling and flush any stages the last poll missed."""
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._emit()


def run_request(request: Dict[str, Any]) -> Dict[str, Any]:
    """Execute one job request; returns the outcome envelope.

    ``request`` carries ``source`` or ``app`` plus the server-resolved
    ``config`` dict.  The envelope mirrors the wire response fields the
    server owns none of: status/source/speedup/verified/demotions/
    reused/wall_time_s/error.
    """
    config = TransformConfig.from_dict(request["config"])
    app_or_source = (
        request["source"] if request.get("source") is not None
        else request["app"]
    )
    start = time.perf_counter()
    try:
        result: TransformResult = transform(app_or_source, config)
    except ReproError as exc:
        return {
            "status": "error",
            "source": None,
            "speedup": None,
            "verified": None,
            "demotions": 0,
            "reused": {},
            "wall_time_s": round(time.perf_counter() - start, 6),
            "error": {
                "type": type(exc).__name__,
                "stage": exc.stage,
                "message": str(exc),
            },
        }
    transform_state = result.state.transform
    return {
        "status": "ok",
        "source": result.source,
        "speedup": result.speedup,
        "verified": result.verified,
        "demotions": (
            len(transform_state.demotions) if transform_state is not None else 0
        ),
        "reused": result.reused,
        "wall_time_s": round(time.perf_counter() - start, 6),
        "error": None,
    }


def main(argv: Optional[List[str]] = None) -> int:
    # the protocol owns the real stdout; anything the pipeline (or a
    # dependency) prints must not corrupt the frame stream
    proto_out = sys.stdout.buffer
    sys.stdout = sys.stderr
    out_lock = threading.Lock()
    proto_in = sys.stdin.buffer

    import os

    send_msg(proto_out, {"op": "ready", "pid": os.getpid()}, lock=out_lock)
    while True:
        try:
            msg = recv_msg(proto_in)
        except EOFError:
            # parent vanished; nothing left to serve
            return 0
        op = msg.get("op")
        if op == "shutdown":
            return 0
        if op != "run":
            send_msg(
                proto_out,
                {"op": "result", "job_id": msg.get("job_id"),
                 "outcome": {
                     "status": "error",
                     "error": {
                         "type": "ServiceError",
                         "stage": None,
                         "message": f"unknown worker op {op!r}",
                     },
                 }},
                lock=out_lock,
            )
            continue
        job_id = msg.get("job_id", "?")
        # the crash seam sits between accept and execute: the hardest
        # point for the pool to confuse with a clean outcome
        faults.service_worker_fault()
        reset_tracer()
        reset_registry()
        sampler = _StageSampler(proto_out, out_lock, job_id)
        sampler.start()
        try:
            outcome = run_request(msg.get("request") or {})
        except Exception as exc:  # noqa: BLE001 - a bug is a result too
            outcome = {
                "status": "error",
                "source": None,
                "speedup": None,
                "verified": None,
                "demotions": 0,
                "reused": {},
                "wall_time_s": None,
                "error": {
                    "type": type(exc).__name__,
                    "stage": None,
                    "message": str(exc),
                },
            }
        finally:
            sampler.finish()
        send_msg(
            proto_out,
            {"op": "result", "job_id": job_id, "outcome": outcome},
            lock=out_lock,
        )


if __name__ == "__main__":  # pragma: no cover - subprocess entry
    sys.exit(main())
