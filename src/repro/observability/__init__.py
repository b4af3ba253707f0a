"""End-to-end observability for the transformation pipeline.

Five cooperating pieces, all zero-dependency and all behind one global
switch (``TransformConfig.telemetry`` / :func:`set_telemetry_enabled`):

* :mod:`~repro.observability.metrics` — a thread-safe, process-pool-
  mergeable registry of counters / gauges / histograms with Prometheus
  and JSON exporters;
* :mod:`~repro.observability.tracing` — hierarchical spans exported as a
  Chrome trace-event file (Perfetto-loadable ``trace.json``);
* :mod:`~repro.observability.hwcounters` — per-launch interpreter
  counters (global/shared loads & stores, ``__syncthreads()``, branch
  divergence);
* :mod:`~repro.observability.search_telemetry` — the GGA's
  per-generation ``search_telemetry.jsonl`` record;
* :mod:`~repro.observability.runinfo` /
  :mod:`~repro.observability.model_validation` — the ``run.json``
  manifest and the counters-vs-perf-model validation report.

On top of the per-run layer sits the *cross-run* layer (PR 8):

* :mod:`~repro.observability.ledger` — the run ledger: one compact
  record per run appended into the artifact store, with a query API;
* :mod:`~repro.observability.trace_analytics` — critical-path
  extraction, per-name self-time rollups and a text waterfall;
* :mod:`~repro.observability.regress` — the regression sentinel's
  comparison engine (ledger records and ``BENCH_*.json`` floors);
* :mod:`~repro.observability.logfmt` — structured JSON log output with
  trace/span correlation (``REPRO_LOG_FORMAT=json``);
* :mod:`~repro.observability.cli` — the ``repro-obs`` command
  (``list`` / ``show`` / ``diff`` / ``regress``).
"""

from .hwcounters import (
    MODE_INVARIANT_FIELDS,
    KernelCounters,
    aggregate_counters,
    counters_signature,
)
from .ledger import (
    LEDGER_SCHEMA,
    RUN_LEDGER_NAMESPACE,
    RunLedger,
    append_record,
    build_fuzz_record,
    build_transform_record,
)
from .logfmt import ENV_LOG_FORMAT, JsonLogFormatter, configure_logging
from .metrics import (
    MetricsRegistry,
    MetricsSnapshot,
    get_registry,
    reset_registry,
)
from .model_validation import ModelValidationReport, validate_model
from .regress import (
    Finding,
    compare_bench_records,
    compare_ledger_records,
)
from .runinfo import build_run_manifest, env_knobs, git_sha, write_run_manifest
from .runtime import (
    set_telemetry_enabled,
    telemetry,
    telemetry_enabled,
)
from .search_telemetry import (
    read_jsonl,
    search_telemetry_rows,
    write_jsonl,
)
from .trace_analytics import (
    SpanStat,
    critical_path,
    render_waterfall,
    rollup,
    summarize_spans,
)
from .tracing import (
    SpanRecord,
    Tracer,
    current_span_id,
    current_trace_id,
    get_tracer,
    reset_tracer,
    span,
)

__all__ = [
    "ENV_LOG_FORMAT",
    "Finding",
    "JsonLogFormatter",
    "KernelCounters",
    "LEDGER_SCHEMA",
    "MetricsRegistry",
    "MetricsSnapshot",
    "ModelValidationReport",
    "RUN_LEDGER_NAMESPACE",
    "RunLedger",
    "SpanRecord",
    "SpanStat",
    "Tracer",
    "MODE_INVARIANT_FIELDS",
    "aggregate_counters",
    "append_record",
    "build_fuzz_record",
    "build_run_manifest",
    "build_transform_record",
    "compare_bench_records",
    "compare_ledger_records",
    "configure_logging",
    "counters_signature",
    "critical_path",
    "current_span_id",
    "current_trace_id",
    "env_knobs",
    "get_registry",
    "get_tracer",
    "git_sha",
    "read_jsonl",
    "render_waterfall",
    "reset_registry",
    "reset_tracer",
    "rollup",
    "search_telemetry_rows",
    "set_telemetry_enabled",
    "span",
    "summarize_spans",
    "telemetry",
    "telemetry_enabled",
    "validate_model",
    "write_jsonl",
    "write_run_manifest",
]
