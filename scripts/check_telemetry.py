#!/usr/bin/env python3
"""Validate the observability artifacts one pipeline run emits.

Usage::

    python scripts/check_telemetry.py WORKDIR [--trace PATH] [--metrics PATH]
    python scripts/check_telemetry.py --ledger STORE_ROOT
    python scripts/check_telemetry.py --repeat WORKDIR

Checks, with plain asserts and no dependencies:

* ``run.json``        — schema tag, config/env/stage-time structure, the
  ``verification`` block (program runs, reversed run, counter source,
  launches the paired run shared, gate times, first divergence, gate
  verdicts the store served),
  the ``front_door`` block (source size, load time, memo outcome) and
  the ``interpreter`` block (launches per executor, accesses per path);
* ``trace.json``      — Chrome trace-event shape, a well-formed span tree
  (every parent_id resolves), and a ``stage:*`` span per pipeline stage;
* ``search_telemetry.jsonl`` — one well-formed row per GGA generation
  plus a trailing summary;
* ``model_validation.json``  — per-kernel measured/projected pairs;
* the metrics JSON    — counter/gauge/histogram series structure;
* ``--ledger``        — every ``run_ledger`` envelope in an artifact
  store: store envelope shape, ``repro.ledger/1`` payload schema,
  run_id/key agreement and kind-specific required fields;
* ``--repeat``        — the ``run.json`` of a repeat made in the process
  that ran the same transform before: every stage it reused was served
  by the store's memory tier (``memory_hits`` in that stage's namespace).

Exit code 0 when everything validates, 1 with a message otherwise.
CI runs this against a Fluam end-to-end run (and, in the warm-start
job, against the shared store's ledger).
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


def check_run_manifest(path: Path) -> None:
    run = load_json(path)
    expect(isinstance(run, dict), "run.json must be an object")
    expect(run.get("schema") == "repro.run/1", "run.json schema tag missing")
    for key in ("config", "env", "stage_wall_time_s", "reports", "exit_code"):
        expect(key in run, f"run.json missing key {key!r}")
    expect(isinstance(run["env"], dict) and "knobs" in run["env"],
           "run.json env.knobs missing")
    times = run["stage_wall_time_s"]
    expect(isinstance(times, dict), "stage_wall_time_s must be an object")
    for stage, value in times.items():
        expect(stage in STAGES, f"unknown stage {stage!r} in stage times")
        expect(isinstance(value, (int, float)) and value >= 0,
               f"stage time for {stage!r} must be a non-negative number")
    if run["exit_code"] == 0:
        expect(set(times) == set(STAGES) or run["config"].get("until"),
               "a complete run must record wall time for all five stages")
    else:
        expect(run.get("error") is not None,
               "a failed run must carry an error diagnostic")
    block = run.get("verification")
    expect(block is None or "verdicts_reused" in block,
           "run.json: verification missing 'verdicts_reused'")
    check_verification(block, "run.json")
    expect("front_door" in run, "run.json missing key 'front_door'")
    check_front_door(run["front_door"], "run.json")
    expect("interpreter" in run, "run.json missing key 'interpreter'")
    check_interpreter(run["interpreter"], run["config"], "run.json")
    if "store" in run:
        check_store(run["store"], "run.json")
    print(f"  run manifest ok ({len(times)} stage times, "
          f"exit {run['exit_code']})")


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


def check_store(block: object, where: str) -> None:
    """The ``store`` block of ``run.json``: tier hits are a part of hits."""
    expect(isinstance(block, dict), f"{where}: store block must be an object")
    if not block.get("enabled"):
        return
    stats = block.get("stats")
    expect(isinstance(stats, dict), f"{where}: store.stats missing")
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
    run = load_json(path)
    store = run.get("store") or {}
    check_store(store, "run.json")
    expect(store.get("enabled"), "--repeat needs a store-backed run")
    reused = store.get("reused_stages") or {}
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
    expect(block["counters_from"] in ("verify", "rerun", None),
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
    # none; run.json must (check_run_manifest)
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


def check_interpreter(block: object, config: object, where: str) -> None:
    """The ``interpreter`` block of ``run.json`` / a ledger record: which
    executor ran the launches and which path the array references took.
    The per-block loop is the oracle: a ``block_exec="loop"`` run never
    takes the slice path and never lifts a loop."""
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
    if isinstance(config, dict) and config.get("block_exec") == "loop":
        expect(by_path["slice"] == 0,
               f"{where}: block_exec=loop took the slice path")
        expect(statements["lifted"] == 0 and not replays,
               f"{where}: block_exec=loop lifted a loop")


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


LEDGER_COMMON_FIELDS = (
    "schema", "kind", "run_id", "timestamp", "unix_time", "pid",
    "git_sha", "repro_version", "source", "exit_code",
)

TRANSFORM_FIELDS = (
    "app", "config_digest", "seed", "stage_wall_time_s",
    "total_wall_time_s", "speedup", "verified", "demotions",
    "reused_stages", "store", "counters", "trace",
)

FUZZ_FIELDS = (
    "seed_start", "seed_end", "seeds_run", "oracles", "failures",
    "crashes", "unbucketed", "crash_buckets", "oracle_failures",
)


def check_ledger(root: Path) -> None:
    base = root / "v1" / "run_ledger"
    expect(base.is_dir(), f"{base} does not exist (no ledger records)")
    paths = sorted(
        p for p in base.rglob("*.json") if not p.name.startswith(".")
    )
    expect(bool(paths), "ledger namespace holds no records")
    for path in paths:
        envelope = load_json(path)
        expect(isinstance(envelope, dict), f"{path} must be an object")
        expect(envelope.get("schema") == "repro.store/1",
               f"{path.name}: bad store envelope schema")
        expect(envelope.get("namespace") == "run_ledger",
               f"{path.name}: wrong namespace")
        record = envelope.get("payload")
        expect(isinstance(record, dict), f"{path.name}: payload missing")
        expect(record.get("schema") == "repro.ledger/1",
               f"{path.name}: bad ledger schema "
               f"{record.get('schema')!r}")
        for key in LEDGER_COMMON_FIELDS:
            expect(key in record, f"{path.name}: missing field {key!r}")
        expect(record["run_id"] == envelope.get("key") == path.stem,
               f"{path.name}: run_id/key/filename disagree")
        kind = record.get("kind")
        if kind == "transform":
            for key in TRANSFORM_FIELDS:
                expect(key in record,
                       f"{path.name}: transform record missing {key!r}")
            times = record["stage_wall_time_s"]
            expect(isinstance(times, dict), f"{path.name}: bad stage times")
            for stage, value in times.items():
                expect(stage in STAGES,
                       f"{path.name}: unknown stage {stage!r}")
                expect(isinstance(value, (int, float)) and value >= 0,
                       f"{path.name}: bad time for stage {stage!r}")
            check_verification(record.get("verification"), path.name)
            # additive: records written before the memory tier count none
            stats = record.get("store")
            if isinstance(stats, dict) and "memory_hits" in stats:
                check_store({"enabled": True, "stats": stats}, path.name)
            # additive field: records written before it carry none
            if record.get("front_door") is not None:
                check_front_door(record["front_door"], path.name)
            # likewise statements_by_path inside the interpreter block
            block = record.get("interpreter")
            if block is not None and "statements_by_path" in block:
                check_interpreter(block, None, path.name)
        elif kind == "fuzz":
            fuzz = record.get("fuzz")
            expect(isinstance(fuzz, dict),
                   f"{path.name}: fuzz record missing its fuzz block")
            for key in FUZZ_FIELDS:
                expect(key in fuzz,
                       f"{path.name}: fuzz block missing {key!r}")
        else:
            fail(f"{path.name}: unknown record kind {kind!r}")
    print(f"  ledger ok ({len(paths)} records)")


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
    args = parser.parse_args(argv)

    if args.repeat is not None:
        print(f"checking repeat in {args.repeat}")
        check_run_manifest(Path(args.repeat) / "run.json")
        check_repeat(Path(args.repeat) / "run.json")
        if args.workdir is None and args.ledger is None:
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
    check_run_manifest(workdir / "run.json")
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
