"""Integration tests for the transformation service (server + pool).

Each harness runs a real :class:`TransformService` — asyncio HTTP
server, persistent worker subprocesses, shared artifact store — inside
a background thread on an ephemeral port, and drives it with the
synchronous :class:`ServiceClient` exactly as external tenants would.
"""

import asyncio
import json
import os
import signal
import threading
import time
from pathlib import Path

from repro.observability.ledger import RunLedger
from repro.observability.metrics import get_registry
from repro.service import ServiceClient, TransformService
from repro.service.pool import worker_environment

from conftest import THREE_KERNEL_SRC

CORPUS = Path(__file__).resolve().parent / "corpus"

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

#: a search that keeps a worker busy for about a second after its first
#: stage completes, so a test can kill it mid-job
LONG_CONFIG = {
    "ga_params": {
        "population": 100,
        "generations": 600,
        "stall_generations": 600,
        "seed": 5,
    }
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

    def __init__(self, store_root, *, pool_size=1, max_retries=2):
        self.store_root = str(store_root)
        self.port = None
        self.service = None
        self.loop = None
        self._started = threading.Event()
        self._shutdown = None
        self._thread = threading.Thread(
            target=self._run,
            args=(pool_size, max_retries),
            daemon=True,
        )

    def _run(self, pool_size, max_retries):
        async def main():
            self.loop = asyncio.get_running_loop()
            self._shutdown = asyncio.Event()
            self.service = TransformService(
                store_root=self.store_root,
                pool_size=pool_size,
                max_retries=max_retries,
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
    store_root = tmp_path / "store"
    with ServiceHarness(store_root) as (harness, client):
        restarts_before = _counter("service_worker_restarts_total")
        start = time.perf_counter()
        cold = client.transform(
            source=THREE_KERNEL_SRC,
            config=TINY_CONFIG_OLD_CLIENT,
            request_id="cold",
        )
        cold_wall = time.perf_counter() - start
        assert cold.status == 200
        assert cold.request_id == "cold"
        assert not cold.dedup
        response = cold.response()
        assert response.status == "ok"
        assert response.speedup is not None and response.speedup > 1.0
        assert response.verified is True
        assert response.reused == {}
        assert (
            _counter("service_worker_restarts_total") == restarts_before
        )

    # a fresh server retains nothing: the same request is a new
    # execution, warm via the shared store
    with ServiceHarness(store_root) as (harness, client):
        restarts_before = _counter("service_worker_restarts_total")
        start = time.perf_counter()
        warm = client.transform(source=THREE_KERNEL_SRC, config=TINY_CONFIG)
        warm_wall = time.perf_counter() - start
        assert warm.status == 200
        assert not warm.dedup
        warm_response = warm.response()
        assert warm_response.reused
        assert warm_response.speedup == response.speedup
        assert warm_wall < 1.0, f"warm request took {warm_wall:.2f}s"
        assert warm_wall < cold_wall, (cold_wall, warm_wall)
        assert warm.key == cold.key
        assert warm.job_id != cold.job_id
        # two executions, one service ledger record each, no worker lost
        records = RunLedger(harness.store_root).list(kind="service")
        assert sorted(r["service"]["job_id"] for r in records) == sorted(
            [cold.job_id, warm.job_id]
        )
        assert (
            _counter("service_worker_restarts_total") == restarts_before
        )


# ------------------------------------------------- finished executions


def test_a_repeat_of_a_finished_request_runs_no_job(tmp_path):
    """A finished ok execution answers its key at once: the first body
    byte for byte, its job id, no worker job and no ledger record."""
    with ServiceHarness(tmp_path / "store") as (harness, client):
        first = client.transform(source=THREE_KERNEL_SRC, config=TINY_CONFIG)
        assert first.status == 200 and not first.dedup
        assert client.healthz().json()["retained"] == 1
        executions = _counter("service_executions_total")
        dedup = _counter("service_dedup_hits_total")
        completed = _counter("service_completed_hits_total")

        repeat = client.transform(
            source=THREE_KERNEL_SRC,
            config=TINY_CONFIG_OLD_CLIENT,
            request_id="again",
        )
        assert repeat.status == 200
        assert repeat.dedup
        assert repeat.body == first.body
        assert repeat.job_id == first.job_id
        assert repeat.request_id == "again"

        submitted = client.submit(source=THREE_KERNEL_SRC, config=TINY_CONFIG)
        assert submitted.status == 202
        assert submitted.dedup
        assert submitted.json()["status"] == "done"
        assert submitted.json()["job_id"] == first.job_id
        result = client.result(first.job_id)
        assert result.status == 200 and result.body == first.body

        assert _counter("service_executions_total") == executions
        assert _counter("service_dedup_hits_total") == dedup
        assert _counter("service_completed_hits_total") - completed == 2
        assert harness.service.pool.queued == 0
        records = RunLedger(harness.store_root).list(kind="service")
        assert [r["service"]["job_id"] for r in records] == [first.job_id]


def test_a_repeat_of_a_failed_request_runs_again(tmp_path):
    """A 422 outcome (here codegen's: no kernel launches) is not kept."""
    with ServiceHarness(tmp_path / "store") as (harness, client):
        executions = _counter("service_executions_total")
        served = [
            client.transform(source="int main() { return 0; }")
            for _ in range(2)
        ]
        assert [s.status for s in served] == [422, 422]
        assert not any(s.dedup for s in served)
        assert served[0].job_id != served[1].job_id
        assert _counter("service_executions_total") - executions == 2
        assert client.healthz().json()["retained"] == 0


def test_a_demoting_outcome_is_retained(tmp_path):
    """An ok outcome that demoted groups is as final as any: the repeat is
    answered from the finished execution."""
    entry = json.loads((CORPUS / "rung-simple-none.json").read_text())
    config = {
        "ga_params": {"population": 10, "generations": 6, "seed": entry["seed"]}
    }
    with ServiceHarness(tmp_path / "store") as (harness, client):
        executions = _counter("service_executions_total")
        served = [
            client.transform(source=entry["source"], config=config)
            for _ in range(2)
        ]
        assert [s.status for s in served] == [200, 200]
        assert served[0].response().demotions > 0
        assert served[1].dedup and served[1].body == served[0].body
        assert _counter("service_executions_total") - executions == 1
        assert client.healthz().json()["retained"] == 1


def test_retention_is_bounded_by_the_job_history(tmp_path, monkeypatch):
    monkeypatch.setattr(TransformService, "JOB_HISTORY", 1)
    with ServiceHarness(tmp_path / "store") as (harness, client):

        def request(seed):
            return client.transform(
                source=THREE_KERNEL_SRC,
                config={"ga_params": {**TINY_CONFIG["ga_params"], "seed": seed}},
            )

        first, second = request(1), request(2)
        executions = _counter("service_executions_total")
        # admitting the second execution dropped the first from history
        assert client.healthz().json()["retained"] == 1
        assert request(2).job_id == second.job_id
        assert _counter("service_executions_total") == executions
        again = request(1)
        assert not again.dedup and again.job_id != first.job_id
        assert again.body != first.body  # a new job id, a new execution
        assert _counter("service_executions_total") - executions == 1
        assert client.job(first.job_id).status == 404
        assert client.healthz().json()["retained"] == 1


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


def test_a_retired_tolerance_is_refused_at_the_door(tmp_path):
    """``verify_rtol`` loads at 0 — the same request as without it — and
    any other value is a 400 that names the removal."""
    with ServiceHarness(tmp_path / "store") as (harness, client):
        refused = client.transform(
            source=THREE_KERNEL_SRC, config=dict(TINY_CONFIG, verify_rtol=1e-6)
        )
        assert refused.status == 400
        assert "compare bits" in refused.body.decode()

        plain = client.transform(source=THREE_KERNEL_SRC, config=TINY_CONFIG)
        old = client.transform(
            source=THREE_KERNEL_SRC, config=dict(TINY_CONFIG, verify_rtol=0.0)
        )
        assert plain.status == old.status == 200
        assert old.response().key == plain.response().key


def test_a_retired_executor_is_refused_at_the_door(tmp_path):
    """``block_exec`` loads at ``"auto"`` or null — the same request as
    without it — and a forced executor is a 400 that names the removal."""
    with ServiceHarness(tmp_path / "store") as (harness, client):
        for mode in ("loop", "batched"):
            refused = client.transform(
                source=THREE_KERNEL_SRC, config=dict(TINY_CONFIG, block_exec=mode)
            )
            assert refused.status == 400
            assert "not a product setting" in refused.body.decode()

        plain = client.transform(source=THREE_KERNEL_SRC, config=TINY_CONFIG)
        for old in ("auto", None):
            served = client.transform(
                source=THREE_KERNEL_SRC, config=dict(TINY_CONFIG, block_exec=old)
            )
            assert served.status == 200
            assert served.response().key == plain.response().key


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


# ------------------------------------------------------------ worker death


def _kill_workers_mid_job(harness, client, job_id, kills):
    """SIGKILL the pool's one worker while it runs ``job_id``, on each of
    the job's first ``kills`` attempts: an attempt is in flight once its
    first stage completes.  Returns the killed pids."""
    killed = []
    for kind, _data in client.events(job_id):
        if kind != "stage" or len(killed) == kills:
            continue
        workers = list(harness.service.pool._workers)
        if len(workers) != 1 or workers[0].proc.pid in killed:
            continue  # a stage of the attempt just killed, not yet respawned
        killed.append(workers[0].proc.pid)
        os.kill(killed[-1], signal.SIGKILL)
    return killed


def test_killed_worker_respawns_and_retries(tmp_path):
    with ServiceHarness(tmp_path / "store", pool_size=1) as (harness, client):
        restarts_before = _counter("service_worker_restarts_total")
        first = client.transform(source=THREE_KERNEL_SRC, config=TINY_CONFIG)
        assert first.status == 200
        assert first.response().worker_retries == 0

        job_id = client.submit(
            source=THREE_KERNEL_SRC, config=LONG_CONFIG
        ).json()["job_id"]
        (pid,) = _kill_workers_mid_job(harness, client, job_id, kills=1)
        crashed = client.wait(job_id, timeout=300)
        assert crashed.status == 200, crashed.body
        response = crashed.response()
        assert response.status == "ok"
        assert response.worker_retries == 1
        assert (
            _counter("service_worker_restarts_total") - restarts_before == 1
        )
        assert harness.service.pool.restarts == 1
        (worker,) = harness.service.pool._workers
        assert worker.proc.pid != pid


def test_retry_budget_exhaustion_is_a_500(tmp_path):
    # the job loses its worker on every attempt the budget allows
    with ServiceHarness(
        tmp_path / "store", pool_size=1, max_retries=1
    ) as (harness, client):
        job_id = client.submit(
            source=THREE_KERNEL_SRC, config=LONG_CONFIG
        ).json()["job_id"]
        assert len(_kill_workers_mid_job(harness, client, job_id, 2)) == 2
        served = client.wait(job_id, timeout=300)
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
    monkeypatch.setenv("REPRO_LOG_FORMAT", "json")
    monkeypatch.setenv("HOME", "/home/x")
    env = worker_environment()
    assert not [name for name in env if name.startswith("REPRO_")]
    assert env["HOME"] == "/home/x"
    # the worker can import this very repro checkout
    import repro
    from pathlib import Path

    parent = str(Path(repro.__file__).resolve().parent.parent)
    assert parent in env["PYTHONPATH"].split(":")
