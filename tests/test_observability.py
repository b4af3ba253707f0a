"""Tests for the observability layer: metrics, tracing, counters.

Covers the PR's acceptance points directly:

* registry semantics, including merge across real process-pool workers
  (the wire format ``search/parallel.py`` uses),
* span nesting/ordering and Chrome trace-event schema validity,
* interpreter hardware-ish counters on hand-countable micro-kernels,
  in every block-execution mode,
* model validation round-robin matching of launches to projections,
* the profiler's loud fallback for non-constant shared dims,
* a no-op-overhead guard: disabled telemetry must cost well under 5%
  of a small end-to-end pipeline run.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from time import perf_counter

import pytest

from repro.cudalite import ast_nodes as ast
from repro.cudalite import parse_program
from repro.gpu.interpreter import run_program
from repro.gpu.profiler import declared_shared_bytes
from repro.observability import (
    KernelCounters,
    MetricsRegistry,
    aggregate_counters,
    get_registry,
    get_tracer,
    reset_registry,
    reset_tracer,
    set_telemetry_enabled,
    span,
    telemetry,
    telemetry_enabled,
    validate_model,
)
from repro.pipeline import Framework, PipelineConfig
from repro.search import fast_params

from conftest import CHAIN_SRC


@pytest.fixture(autouse=True)
def _fresh_telemetry_state():
    """Isolate every test from the process-wide registry/tracer."""
    reset_registry()
    reset_tracer()
    yield
    reset_registry()
    reset_tracer()


# --------------------------------------------------------------- registry


def test_registry_counters_gauges_histograms():
    with telemetry(True):
        reg = MetricsRegistry()
        reg.inc("events_total", kind="a")
        reg.inc("events_total", 2.5, kind="a")
        reg.inc("events_total", kind="b")
        reg.set_gauge("depth", 3, stage="search")
        reg.set_gauge("depth", 7, stage="search")
        reg.observe("latency_seconds", 0.002)
        reg.observe("latency_seconds", 9.0)

        assert reg.counter_value("events_total", kind="a") == 3.5
        assert reg.counter_value("events_total", kind="b") == 1.0
        assert reg.counter_total("events_total") == 4.5
        assert reg.gauge_value("depth", stage="search") == 7.0
        hist = reg.histogram_data("latency_seconds")
        assert hist.count == 2
        assert hist.total == pytest.approx(9.002)


def test_registry_label_order_does_not_split_series():
    with telemetry(True):
        reg = MetricsRegistry()
        reg.inc("x_total", a=1, b=2)
        reg.inc("x_total", b=2, a=1)
        assert reg.counter_value("x_total", a=1, b=2) == 2.0


def test_registry_disabled_mutators_are_noops():
    with telemetry(False):
        reg = MetricsRegistry()
        reg.inc("events_total")
        reg.set_gauge("depth", 1)
        reg.observe("latency_seconds", 0.5)
    with telemetry(True):
        assert reg.counter_total("events_total") == 0.0
        assert reg.gauge_value("depth") is None
        assert reg.histogram_data("latency_seconds") is None


def test_registry_merge_semantics():
    with telemetry(True):
        a = MetricsRegistry()
        b = MetricsRegistry()
        a.inc("events_total", 2, kind="x")
        b.inc("events_total", 3, kind="x")
        a.set_gauge("best", 1.0)
        b.set_gauge("best", 4.0)
        a.observe("latency_seconds", 0.001)
        b.observe("latency_seconds", 0.001)
        b.observe("latency_seconds", 2.0)

        a.merge(b.snapshot())
        assert a.counter_value("events_total", kind="x") == 5.0
        assert a.gauge_value("best") == 4.0  # last write wins
        hist = a.histogram_data("latency_seconds")
        assert hist.count == 3
        assert hist.total == pytest.approx(2.002)
        # bucket counts added bucket-wise: two observations of 1ms share one
        bucket_of_1ms = hist.buckets.index(0.001)
        assert hist.counts[bucket_of_1ms] == 2


def _pool_worker(i: int):
    """Module-level so the process pool can pickle it by reference.

    Mirrors ``search/parallel.py``'s snapshot-and-clear wire protocol:
    the worker records into its own process-wide registry and ships a
    picklable snapshot back.
    """
    set_telemetry_enabled(True)
    reset_registry()
    reg = get_registry()
    reg.inc("worker_events_total", worker=i % 2)
    reg.inc("worker_events_total", 2.0, worker=i % 2)
    reg.observe("worker_latency_seconds", 0.01 * (i + 1))
    reg.set_gauge("worker_last_item", i)
    snap = reg.snapshot()
    reg.clear()
    return snap


def test_registry_merge_across_process_pool_workers():
    with telemetry(True):
        with ProcessPoolExecutor(max_workers=2) as pool:
            snapshots = list(pool.map(_pool_worker, range(6)))
        reg = MetricsRegistry()
        for snap in snapshots:
            reg.merge(snap)
        # each of the 6 items contributed 1 + 2 events
        assert reg.counter_total("worker_events_total") == 18.0
        assert reg.counter_value("worker_events_total", worker=0) == 9.0
        assert reg.counter_value("worker_events_total", worker=1) == 9.0
        hist = reg.histogram_data("worker_latency_seconds")
        assert hist.count == 6
        assert hist.total == pytest.approx(0.21)


def test_exporters_produce_valid_output():
    with telemetry(True):
        reg = MetricsRegistry()
        reg.inc("events_total", kind='quo"ted')
        reg.set_gauge("best_fitness", 0.5)
        reg.observe("latency_seconds", 0.3)

        dump = reg.to_json()
        json.dumps(dump)  # must be serializable
        assert {s["name"] for s in dump["counters"]} == {"events_total"}
        assert dump["histograms"][0]["count"] == 1

        text = reg.to_prometheus_text()
        assert "# TYPE events_total counter" in text
        assert 'kind="quo\\"ted"' in text
        assert "# TYPE latency_seconds histogram" in text
        assert 'latency_seconds_bucket{le="+Inf"} 1' in text
        assert "latency_seconds_count 1" in text


# ---------------------------------------------------------------- tracing


def test_span_nesting_and_ordering():
    with telemetry(True):
        with span("outer", stage="search"):
            with span("inner:a"):
                pass
            with span("inner:b") as b:
                b.set(batch=7)
        tracer = get_tracer()
        spans = tracer.spans()
        # spans complete innermost-first
        assert [s.name for s in spans] == ["inner:a", "inner:b", "outer"]
        (outer_rec,) = tracer.find("outer")
        assert outer_rec.parent_id is None
        assert outer_rec.args == {"stage": "search"}
        children = tracer.children_of(outer_rec)
        assert {c.name for c in children} == {"inner:a", "inner:b"}
        (b_rec,) = tracer.find("inner:b")
        assert b_rec.args["batch"] == 7
        # parent fully contains its children in time
        for child in children:
            assert child.start_us >= outer_rec.start_us
            assert (child.start_us + child.duration_us
                    <= outer_rec.start_us + outer_rec.duration_us)


def test_span_records_error_on_exception():
    with telemetry(True):
        with pytest.raises(ValueError):
            with span("doomed"):
                raise ValueError("boom")
        (rec,) = get_tracer().find("doomed")
        assert rec.args["error"] == "ValueError"


def test_disabled_span_records_nothing():
    with telemetry(False):
        cm = span("invisible", x=1)
        with cm:
            cm.set(y=2)
        # same shared no-op object every time — no allocation per call
        assert span("another") is cm
    with telemetry(True):
        assert get_tracer().spans() == []


def test_chrome_trace_schema():
    with telemetry(True):
        with span("stage:search"):
            with span("gga:gen:0"):
                pass
        trace = get_tracer().to_chrome_trace()
        json.dumps(trace)  # Perfetto needs real JSON
        events = trace["traceEvents"]
        assert events[0]["ph"] == "M"  # process_name metadata
        complete = [e for e in events if e["ph"] == "X"]
        assert len(complete) == 2
        by_name = {e["name"]: e for e in complete}
        for event in complete:
            assert {"name", "ph", "ts", "dur", "pid", "tid", "cat", "args"} \
                <= set(event)
            assert event["dur"] >= 0
        ids = {e["args"]["span_id"] for e in complete}
        parent = by_name["gga:gen:0"]["args"]["parent_id"]
        assert parent in ids
        assert by_name["stage:search"]["args"]["parent_id"] is None
        assert by_name["gga:gen:0"]["cat"] == "gga"


# --------------------------------------------------- interpreter counters

_ADD_SRC = """
__global__ void add(const double* a, double* b, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        b[i] = a[i] + 1.0;
    }
}

int main() {
    int n = %(n)d;
    double* a = cudaMalloc1D(16);
    double* b = cudaMalloc1D(16);
    deviceRandom(a, 7);
    dim3 grid(2, 1, 1);
    dim3 block(8, 1, 1);
    add<<<grid, block>>>(a, b, n);
    return 0;
}
"""

_TILE_SRC = """
__global__ void copy_tile(const double* in, double* out, int n) {
    __shared__ double t[8];
    int tx = threadIdx.x;
    int i = blockIdx.x * blockDim.x + tx;
    t[tx] = in[i];
    __syncthreads();
    out[i] = t[tx];
    __syncthreads();
}

int main() {
    int n = 16;
    double* a = cudaMalloc1D(16);
    double* b = cudaMalloc1D(16);
    deviceRandom(a, 11);
    dim3 grid(2, 1, 1);
    dim3 block(8, 1, 1);
    copy_tile<<<grid, block>>>(a, b, n);
    return 0;
}
"""

_GUARDED_SRC = """
__global__ void interior(const double* a, double* b, int n) {
    __shared__ double t[8];
    int tx = threadIdx.x;
    int i = blockIdx.x * blockDim.x + tx;
    t[tx] = a[i];
    __syncthreads();
    if (i >= 1 && i < n - 1) {
        b[i] = t[tx];
    }
}

int main() {
    int n = 16;
    double* a = cudaMalloc1D(16);
    double* b = cudaMalloc1D(16);
    deviceRandom(a, 3);
    dim3 grid(2, 1, 1);
    dim3 block(8, 1, 1);
    interior<<<grid, block>>>(a, b, n);
    return 0;
}
"""


def _counted(src: str, **kwargs):
    result = run_program(parse_program(src), collect_counters=True, **kwargs)
    (launch,) = result.launches
    assert launch.counters is not None
    return launch.counters


def test_counters_hand_counted_full_activity():
    # 2 blocks x 8 threads, n=16: every thread loads a[i] and stores b[i]
    c = _counted(_ADD_SRC % {"n": 16})
    assert c.kernel == "add"
    assert c.launches == 1
    assert c.global_loads == 16
    assert c.global_stores == 16
    assert c.global_load_bytes == 16 * 8  # doubles
    assert c.global_store_bytes == 16 * 8
    assert c.global_bytes == 256
    assert c.shared_loads == 0 and c.shared_stores == 0
    assert c.syncthreads == 0
    assert c.branch_divergence == 0  # all 16 threads agree on i < 16


def test_counters_hand_counted_partial_guard():
    # n=12: threads 12..15 fail the guard -> 12 loads/stores, one
    # divergent branch execution
    c = _counted(_ADD_SRC % {"n": 12})
    assert c.global_loads == 12
    assert c.global_stores == 12
    assert c.global_load_bytes == 12 * 8
    assert c.branch_divergence == 1


def test_counters_shared_tile_consistent_across_modes():
    expected = {
        "global_loads": 16,
        "global_stores": 16,
        "global_load_bytes": 128,
        "global_store_bytes": 128,
        "shared_loads": 16,
        "shared_stores": 16,
        # 2 __syncthreads() sites, each covering both blocks
        "syncthreads": 4,
        "branch_divergence": 0,
    }
    for mode in ("loop", "batched"):
        c = _counted(_TILE_SRC, block_exec=mode)
        got = {k: getattr(c, k) for k in expected}
        assert got == expected, f"mode={mode}"


def test_branch_divergence_is_per_execution_site():
    # the two-sided guard deactivates thread 0 (block 0) and thread 15
    # (block 1).  Loads/stores are mode-consistent; divergence counts one
    # event per *If execution with disagreeing threads*, so the per-block
    # loop sees two executions where the whole-grid batched pass sees one.
    per_block = _counted(_GUARDED_SRC, block_exec="loop")
    whole_grid = _counted(_GUARDED_SRC, block_exec="batched")
    for c in (per_block, whole_grid):
        assert c.global_loads == 16   # a[i] is staged unconditionally
        assert c.shared_stores == 16
        assert c.syncthreads == 2
        assert c.shared_loads == 14   # only the 14 guarded threads read t
        assert c.global_stores == 14
    assert per_block.branch_divergence == 2
    assert whole_grid.branch_divergence == 1


def test_counters_off_by_default():
    result = run_program(parse_program(_ADD_SRC % {"n": 16}))
    assert all(launch.counters is None for launch in result.launches)


def test_aggregate_counters_totals_and_by_kernel():
    a = KernelCounters(kernel="k1", global_loads=10, global_load_bytes=80)
    b = KernelCounters(kernel="k2", global_stores=4, global_store_bytes=32)
    c = KernelCounters(kernel="k1", global_loads=5, global_load_bytes=40)

    total = aggregate_counters([a, b, c])
    assert set(total) == {"<total>"}
    assert total["<total>"].launches == 3
    assert total["<total>"].global_loads == 15
    assert total["<total>"].global_bytes == 152

    per_kernel = aggregate_counters([a, b, c], by_kernel=True)
    assert set(per_kernel) == {"k1", "k2"}
    assert per_kernel["k1"].launches == 2
    assert per_kernel["k1"].global_load_bytes == 120


# --------------------------------------------------------- model validation


@dataclass
class _FakeProjection:
    kernel_name: str
    bytes_total: float
    flops: float = 0.0
    time_s: float = 1e-6
    occupancy: float = 1.0
    limiter: str = "bandwidth"


@dataclass
class _FakeLaunch:
    kernel: str
    counters: object


def test_validate_model_matches_by_name_round_robin():
    # two sites for kernel "a" executed twice each (a host time loop),
    # one site for "b", plus an uncounted launch
    projections = [
        _FakeProjection("a", bytes_total=100.0),
        _FakeProjection("a", bytes_total=200.0),
        _FakeProjection("b", bytes_total=300.0),
    ]
    counters = KernelCounters(kernel="a", global_load_bytes=100)
    launches = [
        _FakeLaunch("a", KernelCounters(kernel="a", global_load_bytes=100)),
        _FakeLaunch("a", KernelCounters(kernel="a", global_load_bytes=100)),
        _FakeLaunch("b", KernelCounters(kernel="b", global_load_bytes=150)),
        _FakeLaunch("a", counters),
        _FakeLaunch("a", KernelCounters(kernel="a", global_load_bytes=100)),
        _FakeLaunch("c", None),  # never counted
    ]
    report = validate_model(launches, projections)
    assert len(report.kernels) == 5
    assert report.uncompared == 1
    projected = [k.projected_bytes for k in report.kernels
                 if k.kernel == "a"]
    # round-robin over the two "a" sites: 100, 200, 100, 200
    assert projected == [100.0, 200.0, 100.0, 200.0]
    b_entry = next(k for k in report.kernels if k.kernel == "b")
    assert b_entry.bytes_ratio == pytest.approx(2.0)
    assert report.total_measured_bytes == 550
    json.dumps(report.as_dict())


def test_validate_model_unknown_kernel_is_uncompared():
    launches = [_FakeLaunch("mystery", KernelCounters(kernel="mystery"))]
    report = validate_model(launches, [_FakeProjection("a", 1.0)])
    assert report.kernels == []
    assert report.uncompared == 1


# ------------------------------------------------------- profiler warning


def test_profiler_warns_on_nonconstant_shared_dim(caplog):
    # semantic checking rejects this, so build the AST directly: a shared
    # array with a runtime-sized dim must warn + count, not silently
    # undercount the footprint
    kernel = ast.KernelDef(
        name="sneaky",
        params=(),
        body=ast.Block(
            stmts=(
                ast.VarDecl(
                    type=ast.TypeSpec(base="double"),
                    name="tile",
                    array_dims=(ast.Ident(name="n"), ast.IntLit(value=4)),
                    is_shared=True,
                ),
            )
        ),
    )
    with telemetry(True):
        with caplog.at_level("WARNING", logger="repro.gpu.profiler"):
            total = declared_shared_bytes(kernel)
        # the non-constant dim falls back to one element, loudly
        assert total == 4 * 8
        assert any("non-constant dim" in r.message for r in caplog.records)
        assert (
            get_registry().counter_value(
                "metadata_warnings_total",
                kind="nonconstant_shared_dim",
                kernel="sneaky",
            )
            == 1.0
        )


# --------------------------------------------------------- overhead guard


def _run_small_pipeline():
    params = fast_params(seed=5)
    params.population = 12
    params.generations = 8
    params.stall_generations = 4
    config = PipelineConfig(ga_params=params, verify=False)
    return Framework(parse_program(CHAIN_SRC), config).run()


def test_noop_overhead_guard_under_5_percent():
    # measure how much instrumentation a real (small) pipeline run emits...
    with telemetry(True):
        _run_small_pipeline()  # warm-up: imports, caches
        reset_registry()
        reset_tracer()
        _run_small_pipeline()
        n_spans = len(get_tracer().spans()) + get_tracer().dropped
        snap = get_registry().snapshot()
        n_counter_ops = sum(snap.counters.values())
        n_hist_ops = sum(h.count for h in snap.histograms.values())

    with telemetry(False):
        start = perf_counter()
        _run_small_pipeline()
        disabled_time = perf_counter() - start

        # ...then price the disabled fast path per call site
        reg = get_registry()
        iters = 50_000
        start = perf_counter()
        for _ in range(iters):
            with span("x", probe=1):
                pass
        span_cost = (perf_counter() - start) / iters
        start = perf_counter()
        for _ in range(iters):
            reg.inc("probe_total", kind="x")
        inc_cost = (perf_counter() - start) / iters

    assert telemetry_enabled()  # the context manager restored the switch
    estimated_overhead = (
        n_spans * span_cost + (n_counter_ops + n_hist_ops) * inc_cost
    )
    assert n_spans > 0  # the enabled run really was instrumented
    assert estimated_overhead < 0.05 * disabled_time, (
        f"disabled-telemetry overhead estimate {estimated_overhead:.6f}s "
        f"({n_spans} spans, {n_counter_ops + n_hist_ops:.0f} counter ops) "
        f"is not <5% of the {disabled_time:.3f}s run"
    )
