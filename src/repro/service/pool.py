"""Persistent worker-process pool for the transformation service.

Long-lived ``repro.service.worker`` subprocesses behind an asyncio
front: jobs are dispatched to idle workers over length-prefixed pickle
frames (:mod:`repro.service.protocol`), and the pipe itself is the
health check — EOF mid-job means the worker died, and the pool respawns
it and retries the job within a bounded budget.  Modeled on the
long-lived compile-worker pools production compilers use (one spawn +
import cost amortized over the process lifetime), wired to this repo's
reliability seams: the ``service_worker`` fault seam kills a worker at
the worst moment, and these retries are what absorb it.

Worker environment hygiene
--------------------------
Workers are spawned with every ``REPRO_*`` variable stripped and only
the pool's explicit ``worker_env`` re-added.  The server ships each job
a *fully resolved* config, so ambient server environment must never
leak into request semantics — a stray ``REPRO_STORE`` in the server's
shell must not redirect a tenant's artifacts (nor break response
bit-identity across a pool whose workers were spawned under different
shells).  Inside the worker the config travels as arguments from
``transform()`` down to the interpreter, the gate and the search; a
``surrogate_topk`` that is ``None`` on the wire defers to the request's
GA parameter set.
"""

from __future__ import annotations

import asyncio
import logging
import os
import struct
import sys
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from ..errors import ServiceError
from ..observability.metrics import get_registry
from .protocol import MAX_FRAME_BYTES, send_msg

logger = logging.getLogger(__name__)

__all__ = ["WorkerPool", "worker_environment"]

_HEADER = struct.Struct(">I")

#: seconds to wait for a fresh worker's ``ready`` frame (cold imports)
READY_TIMEOUT_S = 120.0
#: seconds a draining worker gets to exit after ``shutdown`` before SIGKILL
SHUTDOWN_GRACE_S = 10.0


def worker_environment(
    overrides: Optional[Dict[str, str]] = None,
) -> Dict[str, str]:
    """The scrubbed environment a pool worker is spawned with.

    Ambient ``REPRO_*`` knobs are dropped (request semantics travel in
    the resolved config, not the environment); ``overrides`` — the store
    root, telemetry switches, injected fault plans — are applied on top.
    """
    env = {
        name: value
        for name, value in os.environ.items()
        if not name.startswith("REPRO_")
    }
    # the worker must import the same repro the server is running —
    # which may live on sys.path rather than in site-packages (dev
    # checkouts, PYTHONPATH=src test runs)
    import repro

    package_parent = str(Path(repro.__file__).resolve().parent.parent)
    existing = env.get("PYTHONPATH")
    if existing:
        parts = existing.split(os.pathsep)
        if package_parent not in parts:
            env["PYTHONPATH"] = os.pathsep.join([package_parent, existing])
    else:
        env["PYTHONPATH"] = package_parent
    env.update(overrides or {})
    return env


class _Worker:
    """One live subprocess plus its pipe endpoints."""

    _ids = 0

    def __init__(self, proc: asyncio.subprocess.Process) -> None:
        _Worker._ids += 1
        self.worker_id = _Worker._ids
        self.proc = proc
        self.jobs_served = 0

    async def send(self, msg: Dict[str, Any]) -> None:
        assert self.proc.stdin is not None
        # reuse the sync framer against a buffer, then write it out
        import io

        buf = io.BytesIO()
        send_msg(buf, msg)
        self.proc.stdin.write(buf.getvalue())
        await self.proc.stdin.drain()

    async def recv(self) -> Dict[str, Any]:
        assert self.proc.stdout is not None
        try:
            header = await self.proc.stdout.readexactly(_HEADER.size)
            (length,) = _HEADER.unpack(header)
            if length > MAX_FRAME_BYTES:
                raise ServiceError(
                    f"worker {self.worker_id} announced a {length}-byte "
                    f"frame (corrupt stream)"
                )
            payload = await self.proc.stdout.readexactly(length)
        except (asyncio.IncompleteReadError, ConnectionResetError) as exc:
            raise EOFError(
                f"worker {self.worker_id} pipe closed mid-frame"
            ) from exc
        import pickle

        return pickle.loads(payload)

    async def kill(self) -> None:
        if self.proc.returncode is None:
            try:
                self.proc.kill()
            except ProcessLookupError:  # pragma: no cover - already gone
                pass
        await self.proc.wait()


class WorkerPool:
    """A fixed-size pool of persistent transformation workers."""

    def __init__(
        self,
        size: int = 2,
        *,
        worker_env: Optional[Dict[str, str]] = None,
        max_retries: int = 2,
    ) -> None:
        if size < 1:
            raise ServiceError("worker pool size must be >= 1")
        if max_retries < 0:
            raise ServiceError("max_retries must be >= 0")
        self.size = size
        self.worker_env = dict(worker_env or {})
        self.max_retries = max_retries
        self._idle: "asyncio.Queue[_Worker]" = asyncio.Queue()
        self._workers: List[_Worker] = []
        self._closed = False
        #: workers respawned after a crash, over the pool's lifetime
        self.restarts = 0
        #: jobs currently waiting for an idle worker
        self.queued = 0

    # ------------------------------------------------------------ lifecycle

    async def _spawn(self) -> _Worker:
        proc = await asyncio.create_subprocess_exec(
            sys.executable,
            "-m",
            "repro.service.worker",
            stdin=asyncio.subprocess.PIPE,
            stdout=asyncio.subprocess.PIPE,
            stderr=None,  # worker diagnostics share the server's stderr
            env=worker_environment(self.worker_env),
        )
        worker = _Worker(proc)
        ready = await asyncio.wait_for(worker.recv(), READY_TIMEOUT_S)
        if ready.get("op") != "ready":
            await worker.kill()
            raise ServiceError(
                f"worker {worker.worker_id} sent {ready.get('op')!r} "
                f"instead of 'ready'"
            )
        logger.info(
            "pool: worker %d ready (pid %s)", worker.worker_id, ready.get("pid")
        )
        return worker

    async def start(self) -> None:
        """Spawn the full complement of workers (concurrently)."""
        workers = await asyncio.gather(
            *(self._spawn() for _ in range(self.size))
        )
        for worker in workers:
            self._workers.append(worker)
            self._idle.put_nowait(worker)

    async def _respawn(self, dead: _Worker) -> None:
        self.restarts += 1
        get_registry().inc("service_worker_restarts_total")
        await dead.kill()
        self._workers.remove(dead)
        logger.warning(
            "pool: worker %d died (exit %s); respawning",
            dead.worker_id,
            dead.proc.returncode,
        )
        replacement = await self._spawn()
        self._workers.append(replacement)
        self._idle.put_nowait(replacement)

    async def shutdown(self) -> None:
        """Drain idle workers gracefully; callers must have finished (or
        abandoned) their in-flight ``run_job`` calls first."""
        self._closed = True
        for worker in list(self._workers):
            try:
                await worker.send({"op": "shutdown"})
                await asyncio.wait_for(worker.proc.wait(), SHUTDOWN_GRACE_S)
            except (
                OSError,
                ConnectionResetError,
                BrokenPipeError,
                asyncio.TimeoutError,
            ):
                await worker.kill()
        self._workers.clear()
        while not self._idle.empty():
            self._idle.get_nowait()

    # ------------------------------------------------------------ dispatch

    async def _acquire(self) -> _Worker:
        registry = get_registry()
        self.queued += 1
        registry.set_gauge("service_queue_depth", self.queued)
        try:
            worker = await self._idle.get()
        finally:
            self.queued -= 1
            registry.set_gauge("service_queue_depth", self.queued)
        return worker

    async def run_job(
        self,
        job_id: str,
        request: Dict[str, Any],
        on_progress: Optional[Callable[[List[Dict[str, Any]]], None]] = None,
    ) -> Dict[str, Any]:
        """Run one job to completion; returns its outcome envelope.

        The envelope gains a ``worker_retries`` field counting the
        crashes absorbed on the way.  Raises :class:`ServiceError` once
        the retry budget is exhausted.
        """
        if self._closed:
            raise ServiceError("worker pool is shut down")
        retries = 0
        while True:
            worker = await self._acquire()
            healthy = True
            try:
                await worker.send(
                    {"op": "run", "job_id": job_id, "request": request}
                )
                while True:
                    msg = await worker.recv()
                    op = msg.get("op")
                    if op == "progress":
                        if on_progress is not None:
                            on_progress(list(msg.get("events") or []))
                    elif op == "result":
                        worker.jobs_served += 1
                        outcome = dict(msg.get("outcome") or {})
                        outcome["worker_retries"] = retries
                        return outcome
                    else:
                        raise EOFError(
                            f"worker {worker.worker_id} sent unexpected "
                            f"op {op!r}"
                        )
            except (EOFError, OSError, BrokenPipeError, ConnectionResetError):
                healthy = False
                await self._respawn(worker)
                retries += 1
                if retries > self.max_retries:
                    raise ServiceError(
                        f"job {job_id} failed after {retries} worker "
                        f"crash(es); retry budget exhausted"
                    ) from None
                logger.warning(
                    "pool: retrying job %s (attempt %d/%d)",
                    job_id,
                    retries + 1,
                    self.max_retries + 1,
                )
            finally:
                if healthy:
                    self._idle.put_nowait(worker)
