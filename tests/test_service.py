"""Integration tests for the transformation service (server + pool).

Each harness runs a real :class:`TransformService` — asyncio HTTP
server, persistent worker subprocesses, shared artifact store — inside
a background thread on an ephemeral port, and drives it with the
synchronous :class:`ServiceClient` exactly as external tenants would.
"""

import asyncio
import threading
import time

import pytest

from repro.observability.ledger import RunLedger
from repro.observability.metrics import get_registry
from repro.service import ServiceClient, TransformService
from repro.service.pool import worker_environment

from conftest import THREE_KERNEL_SRC

#: a deliberately small search so one served transform is sub-second
TINY_CONFIG = {
    "ga_params": {
        "population": 10,
        "generations": 6,
        "stall_generations": 3,
        "seed": 7,
    }
}

#: TINY_CONFIG as a pre-PR-12 client sends it: the retired evaluation-pool
#: keys are accepted and dropped, so it is the *same* request
TINY_CONFIG_OLD_CLIENT = {
    "ga_params": dict(
        TINY_CONFIG["ga_params"],
        workers=1, executor="thread", fitness_cache=True,
    )
}

#: a slower search for the dedup test: the first request must still be
#: in flight when the second identical one arrives
SLOW_CONFIG = {
    "ga_params": {
        "population": 24,
        "generations": 18,
        "stall_generations": 18,
        "seed": 11,
    }
}


class ServiceHarness:
    """A live service in a daemon thread, stopped (with drain) on exit."""

    def __init__(self, store_root, *, pool_size=1, max_retries=2,
                 worker_env=None):
        self.store_root = str(store_root)
        self.port = None
        self.service = None
        self.loop = None
        self._started = threading.Event()
        self._shutdown = None
        self._thread = threading.Thread(
            target=self._run,
            args=(pool_size, max_retries, worker_env),
            daemon=True,
        )

    def _run(self, pool_size, max_retries, worker_env):
        async def main():
            self.loop = asyncio.get_running_loop()
            self._shutdown = asyncio.Event()
            self.service = TransformService(
                store_root=self.store_root,
                pool_size=pool_size,
                max_retries=max_retries,
                worker_env=worker_env,
            )
            _host, self.port = await self.service.start("127.0.0.1", 0)
            self._started.set()
            await self._shutdown.wait()
            await self.service.stop(drain=True)

        asyncio.run(main())

    def __enter__(self):
        self._thread.start()
        assert self._started.wait(timeout=120), "service did not start"
        client = ServiceClient(port=self.port)
        client.wait_ready(timeout=120)
        return self, client

    def __exit__(self, *exc):
        self.stop()

    def stop(self, timeout=60):
        if self.loop is not None and self._thread.is_alive():
            self.loop.call_soon_threadsafe(self._shutdown.set)
        self._thread.join(timeout=timeout)
        assert not self._thread.is_alive(), "service shutdown hung"


def _counter(name):
    return get_registry().counter_total(name)


# ------------------------------------------------------------- basic serving


def test_served_transform_and_warm_reuse(tmp_path):
    with ServiceHarness(tmp_path / "store") as (harness, client):
        cold = client.transform(
            source=THREE_KERNEL_SRC,
            config=TINY_CONFIG_OLD_CLIENT,
            request_id="cold",
        )
        assert cold.status == 200
        assert cold.request_id == "cold"
        assert not cold.dedup
        response = cold.response()
        assert response.status == "ok"
        assert response.speedup is not None and response.speedup > 1.0
        assert response.verified is True
        assert response.reused == {}

        start = time.perf_counter()
        warm = client.transform(source=THREE_KERNEL_SRC, config=TINY_CONFIG)
        warm_wall = time.perf_counter() - start
        assert warm.status == 200
        warm_response = warm.response()
        # same request, new execution -> warm via the shared store
        assert warm_response.reused
        assert warm_response.speedup == response.speedup
        assert warm_wall < 1.0, f"warm request took {warm_wall:.2f}s"
        assert warm.key == cold.key
        assert warm.job_id != cold.job_id


def test_error_paths(tmp_path):
    with ServiceHarness(tmp_path / "store") as (harness, client):
        bad_schema = client._request(
            "POST", "/v1/transform", b'{"source": "x", "surprise": 1}'
        )
        assert bad_schema.status == 400

        bad_config = client.transform(
            source=THREE_KERNEL_SRC, config={"mode": "telepathic"}
        )
        assert bad_config.status == 400

        # only the three retired ga_params keys are tolerated
        bad_ga = client.transform(
            source=THREE_KERNEL_SRC, config={"ga_params": {"threads": 2}}
        )
        assert bad_ga.status == 400

        bad_program = client.transform(source="int main( {")
        assert bad_program.status == 422

        assert client.job("no-such-job").status == 404
        assert client._request("GET", "/v1/nowhere").status == 404

        health = client.healthz()
        assert health.status == 200
        assert health.json()["status"] == "ok"


# ---------------------------------------------------------------- dedup


def test_concurrent_identical_requests_deduplicate(tmp_path):
    with ServiceHarness(tmp_path / "store", pool_size=2) as (harness, client):
        executions_before = _counter("service_executions_total")
        dedup_before = _counter("service_dedup_hits_total")

        # admit the first request asynchronously; its 202 means the
        # execution is registered in the in-flight map
        submitted = client.submit(
            source=THREE_KERNEL_SRC, config=SLOW_CONFIG, request_id="a"
        )
        assert submitted.status == 202
        job_id = submitted.json()["job_id"]
        assert not submitted.dedup

        # an identical request while the first is in flight joins it
        joined = client.transform(
            source=THREE_KERNEL_SRC, config=SLOW_CONFIG, request_id="b"
        )
        assert joined.status == 200
        assert joined.dedup, "second identical request did not dedup"
        assert joined.job_id == job_id
        assert joined.request_id == "b"

        finished = client.wait(job_id, timeout=300)
        assert finished.status == 200
        # one execution served both clients, byte for byte
        assert finished.body == joined.body
        assert _counter("service_executions_total") - executions_before == 1
        assert _counter("service_dedup_hits_total") - dedup_before == 1

        records = RunLedger(harness.store_root).list(kind="service")
        assert len(records) == 1
        assert records[0]["service"]["dedup_clients"] == 2


# ----------------------------------------------------------- fault injection


def test_killed_worker_respawns_and_retries(tmp_path):
    # visit 2 only: the first job sails through, the second one's worker
    # is hard-killed on accept; the respawned worker (fresh visit
    # counter) serves the retry cleanly
    with ServiceHarness(
        tmp_path / "store",
        pool_size=1,
        worker_env={"REPRO_FAULT_SEAMS": "service_worker:@2"},
    ) as (harness, client):
        restarts_before = _counter("service_worker_restarts_total")

        first = client.transform(source=THREE_KERNEL_SRC, config=TINY_CONFIG)
        assert first.status == 200
        assert first.response().worker_retries == 0

        crashed = client.transform(
            source=THREE_KERNEL_SRC,
            config={**TINY_CONFIG, "seed": 4242},
        )
        assert crashed.status == 200, crashed.body
        response = crashed.response()
        assert response.status == "ok"
        assert response.worker_retries == 1
        assert (
            _counter("service_worker_restarts_total") - restarts_before == 1
        )
        assert harness.service.pool.restarts >= 1


def test_retry_budget_exhaustion_is_a_500(tmp_path):
    # every visit fires: the job crashes its worker on every attempt
    with ServiceHarness(
        tmp_path / "store",
        pool_size=1,
        max_retries=1,
        worker_env={"REPRO_FAULT_SEAMS": "service_worker"},
    ) as (harness, client):
        served = client.transform(source=THREE_KERNEL_SRC, config=TINY_CONFIG)
        assert served.status == 500
        response = served.response()
        assert response.status == "error"
        assert response.error["type"] == "ServiceError"
        assert "retry budget" in response.error["message"]


# ------------------------------------------------------------ jobs + events


def test_async_job_lifecycle_and_events(tmp_path):
    with ServiceHarness(tmp_path / "store") as (harness, client):
        submitted = client.submit(
            source=THREE_KERNEL_SRC, config=TINY_CONFIG
        )
        assert submitted.status == 202
        job_id = submitted.json()["job_id"]

        events = list(client.events(job_id))
        assert events, "event stream was empty"
        kinds = [kind for kind, _data in events]
        assert kinds[-1] == "done"
        stages = [data["stage"] for kind, data in events if kind == "stage"]
        assert "search" in stages
        assert events[-1][1]["status"] == "done"

        finished = client.wait(job_id, timeout=300)
        assert finished.status == 200
        assert client.job(job_id).json()["status"] == "done"


# ------------------------------------------------------------------ shutdown


def test_graceful_shutdown_drains_inflight_jobs(tmp_path):
    store_root = tmp_path / "store"
    harness, client = ServiceHarness(store_root).__enter__()
    try:
        submitted = client.submit(
            source=THREE_KERNEL_SRC, config=SLOW_CONFIG
        )
        assert submitted.status == 202
        job_id = submitted.json()["job_id"]
    finally:
        # stop while the job is in flight; drain must finish it
        harness.stop(timeout=300)
    records = RunLedger(str(store_root)).list(kind="service")
    assert [r["service"]["job_id"] for r in records] == [job_id]
    assert records[0]["service"]["status"] == "ok"


# ------------------------------------------------------------------ pool env


def test_worker_environment_scrubs_ambient_repro_knobs(monkeypatch):
    monkeypatch.setenv("REPRO_STORE", "/srv/ambient-store")
    monkeypatch.setenv("REPRO_TELEMETRY", "0")
    monkeypatch.setenv("HOME", "/home/x")
    env = worker_environment({"REPRO_FAULT_SEAMS": "service_worker"})
    assert "REPRO_STORE" not in env
    assert "REPRO_TELEMETRY" not in env
    assert env["HOME"] == "/home/x"
    # explicit overrides survive the scrub
    assert env["REPRO_FAULT_SEAMS"] == "service_worker"
    # the worker can import this very repro checkout
    import repro
    from pathlib import Path

    parent = str(Path(repro.__file__).resolve().parent.parent)
    assert parent in env["PYTHONPATH"].split(":")
