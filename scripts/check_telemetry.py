#!/usr/bin/env python3
"""Validate the observability artifacts one pipeline run emits.

Usage::

    python scripts/check_telemetry.py WORKDIR [--trace PATH] [--metrics PATH]
    python scripts/check_telemetry.py --ledger STORE_ROOT
    python scripts/check_telemetry.py --repeat WORKDIR
    python scripts/check_telemetry.py --cold-codegen WORKDIR

Checks, with plain asserts:

* ``run.json``        — one ``repro.run/2`` run record (:func:`check_run_record`):
  header, config, the deterministic ``outcome`` section, stage times, the
  ``verification`` block (program runs, reversed run, counter source,
  launches the paired run shared, gate times, first divergence, gate
  verdicts the store served), the ``front_door`` block (source size,
  load time, memo outcome), the ``interpreter`` block (launches per
  executor, accesses per path), the ``store`` block, counters, the trace
  summary, env, reports, the record's own cost and what re-running the
  program for its counters cost;
* ``trace.json``      — Chrome trace-event shape, a well-formed span tree
  (every parent_id resolves), and a ``stage:*`` span per pipeline stage;
* ``search_telemetry.jsonl`` — one well-formed row per GGA generation
  plus a trailing summary;
* ``model_validation.json``  — per-kernel measured/projected pairs;
* the metrics JSON    — counter/gauge/histogram series structure;
* ``--ledger``        — every ``run_ledger`` envelope in an artifact
  store: store envelope shape, run_id/key agreement, and the same
  :func:`check_run_record` on its payload (a ``repro.ledger/1`` payload
  written before 7.0 is checked as the ledger reads it: upgraded by
  ``repro.observability.ledger.upgrade_record``, imported from ``src/``
  for that case only);
* ``--repeat``        — the ``run.json`` of a repeat made in the process
  that ran the same transform before: every stage it reused was served
  by the store's memory tier (``memory_hits`` in that stage's namespace);
* ``--cold-codegen``  — the ``run.json`` of a cold verified run
  (:func:`check_cold_codegen`): two programs interpreted in one paired
  run with shared launches, no reversed run, and the model validation's
  counters taken from the gate's run.

Exit code 0 when everything validates, 1 with a message otherwise.
CI runs this against a Fluam end-to-end run and against the ledgers of
the warm-start job's store and the service job's store.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

STAGES = ("metadata", "targets", "graphs", "search", "codegen")

VERIFICATION_FIELDS = (
    "program_runs", "reversed_run", "order_sensitive_launches", "counters_from",
    "program_launches", "shared_launches", "first_divergence",
    "program_gate_s", "group_gate_s",
)

#: ``verification.verdicts_reused``: group verdicts by status + program
VERDICT_KINDS = {"pass", "fail", "inconclusive", "program"}

FRONT_DOOR_FIELDS = ("source_bytes", "load_s", "memo")

INTERPRETER_FIELDS = (
    "launches_by_executor", "loop_launches", "hazard_replays",
    "accesses_by_path", "statements_by_path", "lift_replays",
)

GENERATION_FIELDS = (
    "generation", "best_fitness", "best_feasible_fitness", "mean_fitness",
    "std_fitness", "feasible_count", "penalty_activations", "fissions",
    "cache_hits", "cache_lookups", "evaluations",
    "surrogate_candidates", "surrogate_admitted",
    "surrogate_rank_correlation", "elapsed_s",
)

COUNTER_FIELDS = (
    "kernel", "launches", "global_loads", "global_stores", "shared_loads",
    "shared_stores", "global_load_bytes", "global_store_bytes",
    "syncthreads", "branch_divergence",
)


def fail(message: str) -> None:
    print(f"check_telemetry: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def expect(condition: bool, message: str) -> None:
    if not condition:
        fail(message)


def load_json(path: Path) -> object:
    expect(path.is_file(), f"{path} does not exist")
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        fail(f"{path} is not valid JSON: {exc}")


RECORD_FIELDS = (
    "schema", "kind", "timestamp", "unix_time", "pid", "git_sha",
    "repro_version", "source", "app", "config", "config_digest",
    "exit_code", "error", "outcome", "stage_wall_time_s",
    "total_wall_time_s", "reused_stages", "store", "interpreter",
    "verification", "front_door", "counters", "trace", "env", "reports",
    "observability",
)

OUTCOME_FIELDS = (
    "speedup", "verified", "demotions", "kernels_in", "kernels_out",
    "fused_groups", "targets_kept", "ddg_nodes", "oeg_edges",
)

TRACE_FIELDS = ("span_count", "critical_path", "self_time_ms")

SERVICE_FIELDS = (
    "request_key", "job_id", "status", "dedup_clients", "worker_retries",
    "wall_time_s",
)

FUZZ_FIELDS = (
    "seed_start", "seed_end", "seeds_run", "oracles", "failures",
    "crashes", "unbucketed", "crash_buckets", "oracle_failures",
)


def check_run_record(record: object, where: str) -> None:
    """One ``repro.run/2`` record: ``run.json`` or a ledger payload.

    A record upgraded from ``repro.ledger/1`` (``upgraded_from``) may
    carry null for the sections that schema did not have or added later
    (``env``, ``observability``, ``interpreter``, ``verification``,
    ``front_door``, ``trace``, the store's memory-tier counts); every
    other requirement holds for it too.
    """
    expect(isinstance(record, dict), f"{where}: record must be an object")
    expect(record.get("schema") == "repro.run/2",
           f"{where}: bad record schema {record.get('schema')!r}")
    for key in RECORD_FIELDS:
        expect(key in record, f"{where}: missing field {key!r}")
    kind = record["kind"]
    expect(kind in ("transform", "service", "fuzz"),
           f"{where}: unknown record kind {kind!r}")
    legacy = record.get("upgraded_from") is not None
    config = record["config"]
    expect(isinstance(config, dict), f"{where}: config must be an object")
    outcome = record["outcome"]
    expect(isinstance(outcome, dict), f"{where}: outcome must be an object")
    for key in OUTCOME_FIELDS:
        expect(key in outcome, f"{where}: outcome missing {key!r}")
    times = record["stage_wall_time_s"]
    expect(isinstance(times, dict), f"{where}: stage_wall_time_s must be an object")
    for stage, value in times.items():
        expect(stage in STAGES, f"{where}: unknown stage {stage!r} in stage times")
        expect(isinstance(value, (int, float)) and value >= 0,
               f"{where}: stage time for {stage!r} must be a non-negative number")
    expect(isinstance(record["total_wall_time_s"], (int, float)),
           f"{where}: total_wall_time_s must be a number")
    for key in ("reused_stages", "counters", "reports"):
        expect(isinstance(record[key], dict), f"{where}: {key} must be an object")
    if record["exit_code"] != 0 and kind != "fuzz":
        expect(record["error"] is not None,
               f"{where}: a failed run must carry an error diagnostic")
    ran = kind != "fuzz" and (record["exit_code"] == 0 or kind == "transform")
    # a served execution's config names its seed since 7.0
    if kind == "transform" or (kind == "service" and not legacy):
        expect("seed" in config, f"{where}: config missing 'seed'")
    if ran and record["exit_code"] == 0 and not legacy:
        expect(set(times) == set(STAGES) or config.get("until"),
               f"{where}: a complete run must record wall time for all "
               "five stages")
    if not legacy:
        env = record["env"]
        expect(isinstance(env, dict) and "knobs" in env,
               f"{where}: env.knobs missing")
        cost = record["observability"]
        expect(isinstance(cost, dict)
               and isinstance(cost.get("record_s"), (int, float))
               and cost["record_s"] >= 0,
               f"{where}: observability.record_s must be a non-negative number")
        # additive: records written before the counted re-run was timed
        # carry none
        rerun_s = cost.get("counters_s", 0.0)
        expect(isinstance(rerun_s, (int, float)) and rerun_s >= 0,
               f"{where}: observability.counters_s must be a non-negative number")
        expect(rerun_s == 0 or (record["verification"] or {}).get(
                   "counters_from") in ("rerun", None),
               f"{where}: counters_s beside counters the gate or the store gave")
    trace = record["trace"]
    expect((trace is None and (legacy or not ran))
           or (isinstance(trace, dict)
               and all(key in trace for key in TRACE_FIELDS)),
           f"{where}: trace must summarise {TRACE_FIELDS}")
    block = record["verification"]
    expect(block is None or legacy or "verdicts_reused" in block,
           f"{where}: verification missing 'verdicts_reused'")
    check_verification(block, where)
    for key, check in (("front_door", check_front_door),
                       ("interpreter", check_interpreter)):
        if record[key] is not None or (ran and not legacy):
            check(record[key], where)
    check_store(record["store"], where, legacy)
    if kind == "service":
        service = record.get("service")
        expect(isinstance(service, dict),
               f"{where}: service record missing its service block")
        for key in SERVICE_FIELDS:
            expect(key in service, f"{where}: service block missing {key!r}")
    elif kind == "fuzz":
        fuzz = record.get("fuzz")
        expect(isinstance(fuzz, dict),
               f"{where}: fuzz record missing its fuzz block")
        for key in FUZZ_FIELDS:
            expect(key in fuzz, f"{where}: fuzz block missing {key!r}")


def check_run_json(path: Path) -> dict:
    run = load_json(path)
    check_run_record(run, "run.json")
    expect("run_id" not in run, "run.json: a run_id is the ledger's")
    print(f"  run record ok ({len(run['stage_wall_time_s'])} stage times, "
          f"exit {run['exit_code']})")
    return run


#: reused stage (``reused_stages``) -> the store namespace that served it
#: on an in-process repeat (groups and tuning come with the materialized
#: program)
REUSED_NAMESPACES = {
    "metadata": "metadata",
    "targets": "targets",
    "graphs": "graphs",
    "search": "search",
    "verify_groups": "materialized",
    "tuning": "materialized",
    "verify_program": "verified_programs",
}


def check_store(block: object, where: str, legacy: bool = False) -> None:
    """The ``store`` block: tier hits are a part of hits."""
    expect(isinstance(block, dict) and "enabled" in block,
           f"{where}: store block must be an object with 'enabled'")
    if not block["enabled"]:
        return
    stats = block.get("stats")
    expect(isinstance(stats, dict), f"{where}: store.stats missing")
    if legacy and "memory_hits" not in stats:
        return  # written before the memory tier
    expect(0 <= stats.get("memory_hits", -1) <= stats["hits"],
           f"{where}: store.stats.memory_hits must be within hits")
    expect(stats.get("memory_misses", -1) >= 0,
           f"{where}: store.stats.memory_misses missing")
    for namespace, row in stats["namespaces"].items():
        expect(0 <= row.get("memory_hits", -1) <= row["hits"],
               f"{where}: namespace {namespace!r} memory_hits must be "
               "within its hits")


def check_repeat(path: Path) -> None:
    """An in-process repeat reports a tier hit for every stage it reused."""
    run = check_run_json(path)
    store = run["store"]
    expect(store["enabled"], "--repeat needs a store-backed run")
    reused = run["reused_stages"]
    expect(bool(reused), "the repeat reused nothing from the store")
    # a memory-only entry is never on disk, so its absence is no miss
    expect(store["stats"]["misses"] == 0,
           "a repeat of a warm run must not miss in the store")
    rows = store["stats"]["namespaces"]
    for stage, what in sorted(reused.items()):
        if stage == "search" and what != "result":
            continue  # a warm start reads the population, which is not kept
        namespace = REUSED_NAMESPACES.get(stage)
        expect(namespace is not None, f"unknown reused stage {stage!r}")
        expect(rows.get(namespace, {}).get("memory_hits", 0) > 0,
               f"the repeat reused {stage} without a memory-tier hit in "
               f"namespace {namespace!r}")
    print(f"  repeat ok ({len(reused)} reused stages, "
          f"{store['stats']['memory_hits']} memory-tier hits)")


def check_cold_codegen(workdir: Path) -> None:
    """A cold, verified run: codegen interpreted two programs, the
    original and one transformed run with counters on, together in one
    paired run that executed some launches once for both, and the model
    validation came from that run."""
    block = check_run_json(workdir / "run.json")["verification"]
    expect(block["program_runs"] == 2,
           f"a cold verified run interprets 2 programs, not {block}")
    expect(block["reversed_run"] is False, f"unexpected reversed run: {block}")
    expect(block["counters_from"] == "verify",
           f"the counters must come from the gate's run: {block}")
    expect(block["shared_launches"] > 0,
           f"the paired run shared no launch: {block}")
    expect((workdir / "model_validation.json").is_file(),
           f"{workdir} has no model_validation.json")
    print(f"  cold codegen ok ({block['shared_launches']} shared launches)")


def check_verification(block: object, where: str) -> None:
    """The ``verification`` block of ``run.json`` / a ledger record: what
    codegen interpreted.  ``None`` when the run never built a state."""
    if block is None:
        return
    expect(isinstance(block, dict), f"{where}: verification must be an object")
    for key in VERIFICATION_FIELDS:
        expect(key in block, f"{where}: verification missing {key!r}")
    runs, sensitive = block["program_runs"], block["order_sensitive_launches"]
    expect(isinstance(runs, int) and runs >= 0,
           f"{where}: verification.program_runs must be a count")
    expect(isinstance(block["reversed_run"], bool),
           f"{where}: verification.reversed_run must be a boolean")
    expect(isinstance(sensitive, dict)
           and all(isinstance(n, int) and n > 0 for n in sensitive.values()),
           f"{where}: order_sensitive_launches must map kernel -> count")
    expect(block["counters_from"] in ("verify", "stored", "rerun", None),
           f"{where}: bad counters_from {block['counters_from']!r}")
    # the reversed run exists for order-sensitive launches and only them
    expect(not block["reversed_run"] or (bool(sensitive) and runs >= 3),
           f"{where}: reversed run without an order-sensitive launch")
    launches, shared = block["program_launches"], block["shared_launches"]
    expect(isinstance(launches, dict)
           and set(launches) == {"original", "transformed"}
           and all(isinstance(n, int) and n >= 0 for n in launches.values()),
           f"{where}: program_launches must map original/transformed -> count")
    expect(isinstance(shared, int) and 0 <= shared <= min(launches.values()),
           f"{where}: shared_launches {shared!r} exceeds a program's launches "
           f"{launches}")
    for key in ("program_gate_s", "group_gate_s"):
        expect(isinstance(block[key], (int, float)) and block[key] >= 0,
               f"{where}: verification.{key} must be a non-negative number")
    # additive: ledger records written before failures were stored carry
    # none; every repro.run/2 record must (check_run_record)
    reused = block.get("verdicts_reused")
    expect(reused is None
           or (isinstance(reused, dict) and set(reused) == VERDICT_KINDS
               and all(isinstance(n, int) and n >= 0 for n in reused.values())),
           f"{where}: verdicts_reused must map {sorted(VERDICT_KINDS)} -> count")
    expect(reused is None or reused["program"] <= 2,
           f"{where}: more served program verdicts than gates "
           f"(the transformed program and its identity fallback)")
    divergence = block["first_divergence"]
    expect(divergence is None
           or (isinstance(divergence, dict)
               and set(divergence) == {"original", "transformed", "arrays"}
               and bool(divergence["arrays"])),
           f"{where}: bad first_divergence {divergence!r}")


def check_front_door(block: object, where: str) -> None:
    """The ``front_door`` block of ``run.json`` / a ledger record: what
    ``transform()`` loaded before the pipeline started.  ``source_bytes``
    and ``memo`` are null for an input that was not text (a Program, an
    app name); ``memo`` is also null when the load itself failed."""
    expect(isinstance(block, dict), f"{where}: front_door must be an object")
    for key in FRONT_DOOR_FIELDS:
        expect(key in block, f"{where}: front_door missing {key!r}")
    size, memo = block["source_bytes"], block["memo"]
    expect(size is None or (isinstance(size, int) and size >= 0),
           f"{where}: front_door.source_bytes must be a size or null")
    expect(isinstance(block["load_s"], (int, float)) and block["load_s"] >= 0,
           f"{where}: front_door.load_s must be a non-negative number")
    expect(memo in ("hit", "miss", "uncached", None),
           f"{where}: bad front_door.memo {memo!r}")
    expect(memo is None or size is not None,
           f"{where}: a memo outcome without a source text")


def check_interpreter(block: object, where: str) -> None:
    """The ``interpreter`` block of ``run.json`` / a ledger record: which
    executor ran the launches and which path the array references took."""
    expect(isinstance(block, dict), f"{where}: interpreter must be an object")
    for key in INTERPRETER_FIELDS:
        expect(key in block, f"{where}: interpreter missing {key!r}")
    by_path = block["accesses_by_path"]
    expect(isinstance(by_path, dict) and set(by_path) == {"slice", "funnel"},
           f"{where}: accesses_by_path must count 'slice' and 'funnel'")
    expect(all(isinstance(n, int) and n >= 0 for n in by_path.values()),
           f"{where}: accesses_by_path values must be counts")
    statements = block["statements_by_path"]
    expect(isinstance(statements, dict)
           and set(statements) == {"lifted", "sequential"},
           f"{where}: statements_by_path must count 'lifted' and 'sequential'")
    expect(all(isinstance(n, int) and n >= 0 for n in statements.values()),
           f"{where}: statements_by_path values must be counts")
    replays = block["lift_replays"]
    expect(isinstance(replays, dict)
           and all(isinstance(n, int) and n > 0 for n in replays.values()),
           f"{where}: lift_replays must map kernel -> count")
    launches = block["launches_by_executor"]
    expect(isinstance(launches, dict)
           and all(isinstance(n, int) and n > 0 for n in launches.values()),
           f"{where}: launches_by_executor must map executor -> count")
    expect(bool(launches) or not any(by_path.values()),
           f"{where}: array accesses without a launch")


def check_trace(path: Path) -> None:
    trace = load_json(path)
    expect(isinstance(trace, dict) and "traceEvents" in trace,
           "trace.json must have traceEvents")
    events = trace["traceEvents"]
    expect(isinstance(events, list) and events, "traceEvents must be non-empty")
    spans = []
    for event in events:
        expect({"name", "ph", "pid", "tid"} <= set(event),
               f"malformed trace event: {event}")
        if event["ph"] != "X":
            continue
        expect("ts" in event and "dur" in event and event["dur"] >= 0,
               f"complete event needs ts/dur: {event}")
        spans.append(event)
    ids = {s["args"]["span_id"] for s in spans}
    for s in spans:
        parent = s["args"]["parent_id"]
        expect(parent is None or parent in ids,
               f"span {s['name']} has dangling parent {parent}")
    names = [s["name"] for s in spans]
    for stage in STAGES:
        expect(f"stage:{stage}" in names, f"no span for stage {stage!r}")
    print(f"  trace ok ({len(spans)} spans, all five stages covered)")


def check_search_telemetry(path: Path) -> None:
    expect(path.is_file(), f"{path} does not exist")
    rows = []
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        if not line.strip():
            continue
        try:
            rows.append(json.loads(line))
        except json.JSONDecodeError as exc:
            fail(f"{path}:{lineno} is not valid JSON: {exc}")
    generations = [r for r in rows if r.get("type") == "generation"]
    expect(generations, "no generation rows in search telemetry")
    for row in generations:
        missing = [f for f in GENERATION_FIELDS if f not in row]
        expect(not missing, f"generation row missing fields {missing}")
    expect(any(r.get("type") == "search_summary" for r in rows),
           "no search_summary row in search telemetry")
    sequence = [r["generation"] for r in generations]
    expect(sequence == list(range(len(sequence))),
           f"generation rows must be consecutive from 0, "
           f"got {sequence[:8]}...")
    print(f"  search telemetry ok ({len(generations)} generations)")


def check_model_validation(path: Path) -> None:
    report = load_json(path)
    expect(isinstance(report, dict) and "kernels" in report,
           "model_validation.json must have kernels")
    kernels = report["kernels"]
    expect(isinstance(kernels, list) and kernels,
           "model validation compared no kernels")
    for entry in kernels:
        for key in ("kernel", "measured", "measured_global_bytes",
                    "projected_bytes", "bytes_ratio"):
            expect(key in entry, f"kernel validation missing {key!r}")
        missing = [f for f in COUNTER_FIELDS if f not in entry["measured"]]
        expect(not missing, f"measured counters missing fields {missing}")
    expect(report.get("uncompared", 0) == 0,
           f"{report['uncompared']} launches were not compared to the model")
    print(f"  model validation ok ({len(kernels)} kernel launches)")


def check_metrics(path: Path) -> None:
    metrics = load_json(path)
    expect(isinstance(metrics, dict), "metrics must be an object")
    for section in ("counters", "gauges", "histograms"):
        expect(section in metrics, f"metrics missing section {section!r}")
        for series in metrics[section]:
            expect("name" in series and "labels" in series,
                   f"malformed series in {section}: {series}")
    counter_names = {c["name"] for c in metrics["counters"]}
    expect("pipeline_stage_runs_total" in counter_names,
           "expected pipeline_stage_runs_total counter")
    print(f"  metrics ok ({len(metrics['counters'])} counter series)")


def check_ledger(root: Path) -> None:
    base = root / "v1" / "run_ledger"
    expect(base.is_dir(), f"{base} does not exist (no ledger records)")
    paths = sorted(
        p for p in base.rglob("*.json") if not p.name.startswith(".")
    )
    expect(bool(paths), "ledger namespace holds no records")
    kinds = {}
    for path in paths:
        envelope = load_json(path)
        expect(isinstance(envelope, dict), f"{path} must be an object")
        expect(envelope.get("schema") == "repro.store/1",
               f"{path.name}: bad store envelope schema")
        expect(envelope.get("namespace") == "run_ledger",
               f"{path.name}: wrong namespace")
        record = envelope.get("payload")
        expect(isinstance(record, dict), f"{path.name}: payload missing")
        expect(record.get("run_id") == envelope.get("key") == path.stem,
               f"{path.name}: run_id/key/filename disagree")
        if record.get("schema") == "repro.ledger/1":
            record = upgrade_legacy(record)
        check_run_record(record, path.name)
        kinds[record["kind"]] = kinds.get(record["kind"], 0) + 1
    print(f"  ledger ok ({len(paths)} records) - "
          + ", ".join(f"{n} {kind}" for kind, n in sorted(kinds.items())))


def upgrade_legacy(record: dict) -> dict:
    """A ``repro.ledger/1`` payload as the ledger reads it."""
    src = Path(__file__).resolve().parent.parent / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    from repro.observability.ledger import upgrade_record

    return upgrade_record(record)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workdir", nargs="?", default=None,
                        help="pipeline working directory")
    parser.add_argument("--trace", default=None,
                        help="trace file (default WORKDIR/trace.json)")
    parser.add_argument("--metrics", default=None,
                        help="metrics file (default WORKDIR/metrics.json)")
    parser.add_argument("--ledger", default=None, metavar="STORE_ROOT",
                        help="validate the run ledger of this store root")
    parser.add_argument("--repeat", default=None, metavar="WORKDIR",
                        help="validate the run.json of an in-process repeat")
    parser.add_argument("--cold-codegen", default=None, metavar="WORKDIR",
                        help="validate what codegen interpreted in a cold "
                             "verified run")
    args = parser.parse_args(argv)

    if args.cold_codegen is not None:
        print(f"checking cold codegen in {args.cold_codegen}")
        check_cold_codegen(Path(args.cold_codegen))
    if args.repeat is not None:
        print(f"checking repeat in {args.repeat}")
        check_repeat(Path(args.repeat) / "run.json")
    if args.workdir is None and args.ledger is None and (
        args.cold_codegen is not None or args.repeat is not None
    ):
        print("check_telemetry: OK")
        return 0

    if args.ledger is not None:
        root = Path(args.ledger)
        expect(root.is_dir(), f"{root} is not a directory")
        print(f"checking ledger in {root}")
        check_ledger(root)
        if args.workdir is None:
            print("check_telemetry: OK")
            return 0

    if args.workdir is None:
        parser.error("need a WORKDIR and/or --ledger STORE_ROOT")

    workdir = Path(args.workdir)
    expect(workdir.is_dir(), f"{workdir} is not a directory")
    print(f"checking telemetry in {workdir}")
    check_run_json(workdir / "run.json")
    check_trace(Path(args.trace) if args.trace else workdir / "trace.json")
    check_search_telemetry(workdir / "search_telemetry.jsonl")
    check_model_validation(workdir / "model_validation.json")
    check_metrics(
        Path(args.metrics) if args.metrics else workdir / "metrics.json"
    )
    print("check_telemetry: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
