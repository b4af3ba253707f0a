"""Reduce one pass (op records + spans) to the bench's metric rows.

End-to-end rows come from the untraced pass; per-layer rows from the
traced one.  Times are **self** times of the wrapped calls (duration
minus the part their child spans cover) unless the name ends in
``_incl_s``; counts are exact and repeat bit-for-bit for a given seed.
"""

from __future__ import annotations

import math
import statistics
from typing import Any, Dict, List, Sequence

from trace import Span, reduce_spans
from workloads import OpRecord, peak_rss_kib, percentile

STAGES = ("metadata", "targets", "graphs", "search", "codegen")
PAPER_APPS = ("MITgcm", "Fluam")


def end_to_end_rows(
    records: Sequence[OpRecord], wall_s: float, setup_s: float, child_peak_rss_kib: int
) -> Dict[str, float]:
    latencies = sorted(r.latency for r in records)
    speedups = [r.speedup for r in records if r.speedup is not None]
    if not speedups:
        raise RuntimeError("no op reached codegen: speedup_geomean is undefined")
    return {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "op_p50_s": percentile(latencies, 50),
        "op_p90_s": percentile(latencies, 90),
        "speedup_geomean": math.exp(
            sum(math.log(s) for s in speedups) / len(speedups)
        ),
        # of the largest process: this one, or one the workload started
        "peak_rss_mb": max(peak_rss_kib(), child_peak_rss_kib) / 1024.0,
    }


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_rows(
    records: Sequence[OpRecord], spans: List[Span], counters: Dict[str, float]
) -> Dict[str, float]:
    """Every per-layer row the bench process itself can measure.

    ``counters`` holds what the product's own metrics registry added over
    the measured window (store byte counts).
    """
    reduced = reduce_spans(spans)

    def self_s(*names: str) -> float:
        return sum(reduced.get(n, {}).get("self_s", 0.0) for n in names)

    def calls(name: str) -> float:
        return reduced.get(name, {}).get("calls", 0)

    measured = [s for s in spans if s.measured]
    run_programs = [s for s in measured if s.name == "run_program"]
    counted = [s for s in run_programs if s.args.get("counted")]
    uncounted = [s for s in run_programs if not s.args.get("counted")]
    launches = sum(s.args.get("launches", 0) for s in measured)
    gets = [s for s in measured if s.name == "store.get"]

    def fact_sum(key: str) -> float:
        return sum(r.facts.get(key, 0) for r in records)

    searches = [r.facts["search"] for r in records if r.facts.get("search")]

    def search_sum(key: str) -> float:
        return sum(s[key] for s in searches)

    def search_mean(key: str) -> float:
        return search_sum(key) / len(searches) if searches else 0.0

    targeted = [s for s in searches if "time_to_target_s" in s]
    reached = [s["time_to_target_s"] for s in targeted if s["time_to_target_s"] is not None]
    run_search_s = self_s("run_search")
    interpreting_s = self_s("run_program", "launch_kernel")
    fuse_calls = calls("fuse_kernels")
    staged = [r for r in records if r.stage_times]

    rows: Dict[str, float] = {
        "cudalite.parse_s": self_s("parse_program"),
        "cudalite.parse_calls": calls("parse_program"),
        "cudalite.unparse_s": self_s("unparse"),
        "cudalite.unparse_calls": calls("unparse"),
        "cudalite.source_bytes_out": sum(
            len(r.source.encode("utf-8")) for r in records if r.source is not None
        ),
        "analysis.identify_targets_s": self_s("identify_targets"),
        "analysis.targets_kept": fact_sum("targets_kept"),
        "gpu.run_program_s": self_s("run_program"),
        "gpu.run_program_calls": calls("run_program"),
        "gpu.launch_kernel_s": self_s("launch_kernel"),
        "gpu.launch_kernel_calls": calls("launch_kernel"),
        "gpu.gather_metadata_s": self_s("gather_metadata"),
        "gpu.launches": launches,
        "gpu.ms_per_launch": 1e3 * interpreting_s / launches if launches else 0.0,
        "gpu.compiler_compiled": fact_sum("compiler_compiled"),
        "gpu.compiler_fallbacks": fact_sum("compiler_fallbacks"),
        "graphs.build_s": self_s(
            "optimize_ddg", "validate_ddg", "build_oeg", "validate_oeg"
        ),
        "graphs.ddg_nodes": fact_sum("ddg_nodes"),
        "graphs.oeg_edges": fact_sum("oeg_edges"),
        "search.run_search_s": run_search_s,
        "search.build_problem_s": self_s("build_problem"),
        "search.evaluations": search_sum("evaluations"),
        "search.fitness_lookups": search_sum("fitness_lookups"),
        "search.cache_hit_share": (
            search_sum("cache_hits") / search_sum("fitness_lookups")
            if searches and search_sum("fitness_lookups")
            else 0.0
        ),
        "search.evals_per_s": search_sum("evaluations") / run_search_s if run_search_s else 0.0,
        "search.lookups_per_s": search_sum("fitness_lookups") / run_search_s if run_search_s else 0.0,
        "search.generations_run": search_mean("generations_run"),
        "search.converged_at": search_mean("converged_at"),
        "search.best_fitness": search_mean("best_fitness"),
        "search.time_to_target_s": _median(reached),
        "search.target_missed": len(targeted) - len(reached),
        "transform.fuse_kernels_s": self_s("fuse_kernels"),
        "transform.fuse_kernels_calls": fuse_calls,
        "transform.tune_block_s": self_s("tune_kernel_block"),
        "transform.tune_block_calls": calls("tune_kernel_block"),
        "transform.kernels_in": fact_sum("kernels_in"),
        "transform.kernels_out": fact_sum("kernels_out"),
        "transform.fused_groups": fact_sum("fused_groups"),
        "transform.demotions": fact_sum("demotions"),
        "transform.fusion_commit_share": (
            fact_sum("fused_groups") / fuse_calls if fuse_calls else 0.0
        ),
        "reliability.verify_group_incl_s": reduced.get("verify_group", {}).get("incl_s", 0.0),
        "reliability.verify_group_s": self_s("verify_group"),
        "reliability.verify_group_calls": calls("verify_group"),
        "reliability.verdicts_failed": sum(
            1 for s in measured if s.name == "verify_group" and s.args.get("status") == "fail"
        ),
        "pipeline.whole_verify_s": sum(s.duration for s in uncounted),
        "pipeline.whole_verify_runs": len(uncounted),
        "pipeline.materialize_s": self_s("materialize"),
        "store.get_calls": len(gets),
        "store.put_calls": calls("store.put"),
        "store.hit_share": (
            sum(1 for s in gets if s.args.get("hit")) / len(gets) if gets else 0.0
        ),
        "store.get_s": self_s("store.get"),
        "store.put_s": self_s("store.put"),
        "store.bytes_read": counters.get("store_read_bytes_total", 0.0),
        "store.bytes_written": counters.get("store_write_bytes_total", 0.0),
        "observability.model_validation_s": (
            sum(s.duration for s in counted) + self_s("validate_model")
        ),
        "observability.run_outputs_s": self_s("write_run_outputs"),
        "observability.ledger_append_s": self_s("ledger_append"),
        "api.overhead_s": sum(
            r.latency - sum(r.stage_times.values()) for r in staged
        ),
        "api.repeat_p50_s": _median([r.latency for r in records if r.kind == "repeat"]),
        "api.reseed_p50_s": _median([r.latency for r in records if r.kind == "reseed"]),
        "bench.ops": len(records),
    }
    for stage in STAGES:
        rows[f"pipeline.stage_s.{stage}"] = sum(
            r.stage_times.get(stage, 0.0) for r in records
        )
    for app in PAPER_APPS:
        rows[f"api.transform_s.{app}"] = _median(
            [r.latency for r in records if r.kind == app]
        )
    return rows


def fill(
    declared: Sequence[Dict[str, Any]], measured: Dict[str, float], complete: bool
) -> Dict[str, Dict[str, Any]]:
    """``{name: {value, unit}}`` for every declared metric.

    A row nobody declared is a bug in the bench.  A declared row that was
    not measured is one too when the set must be ``complete`` (end-to-end);
    otherwise it reads 0: the layer is not exercised on this workload.
    """
    names = {m["name"] for m in declared}
    stray = sorted(set(measured) - names)
    if stray:
        raise RuntimeError(f"rows not declared in BENCHMARK.json: {stray}")
    if complete and names - set(measured):
        raise RuntimeError(f"declared metrics not measured: {sorted(names - set(measured))}")
    return {
        m["name"]: {"value": float(measured.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in declared
    }
