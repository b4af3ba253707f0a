#!/usr/bin/env python
"""Drive a running ``repro-serve`` with mixed multi-tenant traffic.

The CI smoke for the serving layer (and a runnable demo): against an
already-listening server this script issues 8 requests from concurrent
client threads —

* a **cold pair**: 2 distinct requests against the fresh store (the
  very first one must reuse nothing),
* a **repeat pair**: the same 2 requests again, which the finished
  executions answer: a dedup hit with the first job id and body, and no
  new execution,
* a **dedup burst**: one slow job submitted async plus 3 identical
  requests that must all join it (4 clients, 1 execution,
  byte-identical bodies).

It then checks the server's own accounting end to end: the ``/v1/
metrics`` counters and the ``kind == "service"`` records in the shared
store's run ledger (dedup client counts).

With ``--store-warm``, against a server restarted on the same store (it
retains no execution), the cold pair is sent once more: each is a new
execution served from the shared store with stages reused, in under
1 s, and the ledger shows both as warm.

Usage::

    PYTHONPATH=src python scripts/service_smoke.py \
        --port 8765 --store-root /tmp/service-store [--store-warm]
"""

from __future__ import annotations

import argparse
import sys
import threading
import time

from repro.observability.ledger import RunLedger
from repro.service import ServiceClient

SOURCE = """
__global__ void k1(double *A, const double *B, int nx, int ny, int nz) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    int j = blockIdx.y * blockDim.y + threadIdx.y;
    if (i >= 1 && i < nx - 1 && j >= 1 && j < ny - 1) {
        for (int k = 0; k < nz; k++) {
            A[i][j][k] = 0.25 * (B[i + 1][j][k] + B[i - 1][j][k] + B[i][j + 1][k] + B[i][j - 1][k]);
        }
    }
}
__global__ void k2(double *C, const double *B, int nx, int ny, int nz) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    int j = blockIdx.y * blockDim.y + threadIdx.y;
    if (i < nx && j < ny) {
        for (int k = 0; k < nz; k++) {
            C[i][j][k] = B[i][j][k] * 2.0;
        }
    }
}
__global__ void k3(double *D, const double *A, const double *C, int nx, int ny, int nz) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    int j = blockIdx.y * blockDim.y + threadIdx.y;
    if (i < nx && j < ny) {
        for (int k = 0; k < nz; k++) {
            D[i][j][k] = A[i][j][k] + C[i][j][k];
        }
    }
}
int main() {
    int nx = 32;
    int ny = 32;
    int nz = 8;
    double *A = cudaMalloc3D(nx, ny, nz);
    double *B = cudaMalloc3D(nx, ny, nz);
    double *C = cudaMalloc3D(nx, ny, nz);
    double *D = cudaMalloc3D(nx, ny, nz);
    deviceRandom(B, 7);
    dim3 grid(4, 4, 1);
    dim3 block(8, 8, 1);
    k1<<<grid, block>>>(A, B, nx, ny, nz);
    k2<<<grid, block>>>(C, B, nx, ny, nz);
    k3<<<grid, block>>>(D, A, C, nx, ny, nz);
    return 0;
}
"""

GA = {
    "population": 10,
    "generations": 6,
    "stall_generations": 3,
}
SLOW_GA = {**GA, "population": 24, "generations": 18, "stall_generations": 18}


def dedup_burst(client: ServiceClient) -> str:
    """4 identical clients -> 1 execution; returns the shared job id."""
    submitted = client.submit(
        source=SOURCE, config={"ga_params": SLOW_GA, "seed": 77},
        request_id="burst-owner",
    )
    assert submitted.status == 202, submitted.body
    job_id = submitted.json()["job_id"]

    bodies, flags = [None] * 3, [None] * 3

    def join(slot: int) -> None:
        served = client.transform(
            source=SOURCE, config={"ga_params": SLOW_GA, "seed": 77},
            request_id=f"burst-{slot}",
        )
        bodies[slot], flags[slot] = served.body, served.dedup

    threads = [threading.Thread(target=join, args=(s,)) for s in range(3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    owner = client.wait(job_id, timeout=300)
    assert owner.status == 200, owner.body
    assert all(flags), f"joins did not dedup: {flags}"
    assert all(b == owner.body for b in bodies), "bodies not bit-identical"
    print(f"dedup: 4 clients -> 1 execution ({job_id}), bit-identical bodies")
    return job_id


#: two distinct cold requests: the GA seed is ``ga_params.seed`` (a
#: top-level ``seed`` beside ``ga_params`` is not part of the request)
SEEDS = (101, 202)


def _executions(client: ServiceClient) -> float:
    return client.metrics().json()["counters"].get("service_executions_total", 0)


def cold_warm(client: ServiceClient) -> None:
    first = {}
    for phase in ("cold", "repeat"):
        for seed in SEEDS:
            executions = _executions(client)
            start = time.perf_counter()
            served = client.transform(
                source=SOURCE, config={"ga_params": {**GA, "seed": seed}},
                request_id=f"{phase}-{seed}",
            )
            wall = time.perf_counter() - start
            assert served.status == 200, served.body
            response = served.response()
            if phase == "cold":
                if seed == SEEDS[0]:  # very first request on a fresh store
                    assert response.reused == {}, response.reused
                first[seed] = served
            else:
                assert served.dedup, "repeat of a finished request ran again"
                assert served.job_id == first[seed].job_id
                assert served.body == first[seed].body, "bodies differ"
                assert _executions(client) == executions, "repeat ran a job"
            print(
                f"{phase} seed={seed}: {wall:.3f}s job={served.job_id} "
                f"speedup={response.speedup:.2f} reused={sorted(response.reused)}"
            )


def store_warm(client: ServiceClient) -> list:
    """The cold pair against a restarted server; returns the job ids."""
    job_ids = []
    for seed in SEEDS:
        start = time.perf_counter()
        served = client.transform(
            source=SOURCE, config={"ga_params": {**GA, "seed": seed}},
            request_id=f"store-warm-{seed}",
        )
        wall = time.perf_counter() - start
        assert served.status == 200, served.body
        assert not served.dedup, "a restarted server answered from memory"
        response = served.response()
        assert response.reused, "warm request executed cold"
        assert wall < 1.0, f"warm request took {wall:.2f}s"
        job_ids.append(served.job_id)
        print(
            f"store-warm seed={seed}: {wall:.2f}s "
            f"speedup={response.speedup:.2f} reused={sorted(response.reused)}"
        )
    return job_ids


def check_accounting(
    client: ServiceClient, store_root: str, burst_job_id: str
) -> None:
    counters = client.metrics().json()["counters"]
    # 2 cold + 1 burst: the repeat pair ran nothing
    assert counters.get("service_executions_total", 0) == 3, counters
    assert counters.get("service_dedup_hits_total", 0) >= 3, counters
    assert counters.get("service_completed_hits_total", 0) >= 2, counters

    records = RunLedger(store_root).list(kind="service")
    by_job = {r["service"]["job_id"]: r for r in records}
    assert len(by_job) == len(records) == 3, sorted(by_job)
    assert by_job[burst_job_id]["service"]["dedup_clients"] == 4, (
        by_job[burst_job_id]["service"]
    )
    print(f"ledger: {len(records)} service records, burst dedup_clients=4")


def check_warm_ledger(store_root: str, job_ids: list) -> None:
    records = RunLedger(store_root).list(kind="service")
    warm_records = [
        r for r in records
        if r["service"]["job_id"] in job_ids and r["reused_stages"]
    ]
    assert len(warm_records) >= 2, "warm reuse not visible in the ledger"
    print(f"ledger: {len(records)} service records, {len(warm_records)} warm")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--store-root", required=True)
    parser.add_argument(
        "--store-warm", action="store_true",
        help="run the store-warm leg against a server restarted on the store",
    )
    args = parser.parse_args(argv)

    client = ServiceClient(host=args.host, port=args.port)
    client.wait_ready(timeout=120)
    if args.store_warm:
        check_warm_ledger(args.store_root, store_warm(client))
        print("service smoke OK (2 store-warm requests)")
        return 0
    cold_warm(client)
    burst_job_id = dedup_burst(client)
    check_accounting(client, args.store_root, burst_job_id)
    print("service smoke OK (8 mixed requests)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
