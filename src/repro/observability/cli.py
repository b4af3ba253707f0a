"""Command-line front end (``repro-obs``): cross-run observability.

Query the run ledger, compare runs and gate CI on regressions::

    repro-obs list                          # recent ledger records
    repro-obs show latest                   # one record in full
    repro-obs diff prev latest              # stage times + store traffic
    repro-obs regress --threshold 1.5       # exit 3 on a slowdown

The ledger lives in the artifact store (``--store ROOT``, else
``REPRO_STORE``, else ``~/.cache/repro``).  Exit status: ``0`` ok, ``2``
on configuration/data errors, ``3`` when the regression sentinel fires.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from ..store.artifact_store import ArtifactStore, default_store_root
from .ledger import RunLedger
from .regress import compare_ledger_records, render_findings
from .trace_analytics import render_waterfall, spans_from_chrome_trace

EXIT_OK = 0
EXIT_ERROR = 2
EXIT_REGRESSION = 3


def _open_ledger(root: Optional[str]) -> RunLedger:
    return RunLedger(ArtifactStore(root if root else default_store_root()))


def _fmt_age(record: Dict[str, object]) -> str:
    return str(record.get("timestamp") or "?")


def _one_line(record: Dict[str, object]) -> str:
    kind = record.get("kind", "?")
    run_id = str(record.get("run_id") or "?")[:10]
    sha = str(record.get("git_sha") or "-")[:8]
    if kind == "fuzz":
        fuzz = record.get("fuzz") or {}
        detail = (
            f"seeds={fuzz.get('seeds_run')} failures={fuzz.get('failures')} "
            f"crashes={fuzz.get('crashes')}"
        )
    else:
        detail = (
            f"app={record['app'] or record['source']} "
            f"total={record['total_wall_time_s']}s "
            f"speedup={record['outcome']['speedup']} "
            f"reused={len(record['reused_stages'])}"
        )
    return (
        f"{run_id}  {_fmt_age(record)}  {kind:<9} sha={sha:<8} "
        f"exit={record.get('exit_code')}  {detail}"
    )


# -------------------------------------------------------------- subcommands


def _cmd_list(args) -> int:
    ledger = _open_ledger(args.store)
    records = ledger.list(
        kind=args.kind, app=args.app, sha=args.sha, limit=args.limit
    )
    if not records:
        print("ledger: no records", file=sys.stderr)
        return EXIT_OK
    for record in reversed(records):  # newest first
        print(_one_line(record))
    return EXIT_OK


def _resolve_or_die(ledger: RunLedger, spec: str) -> Dict[str, object]:
    record = ledger.resolve(spec)
    if record is None:
        raise SystemExit(
            f"repro-obs: no ledger record matches {spec!r} "
            f"(root: {ledger.store.root})"
        )
    return record


def _cmd_show(args) -> int:
    if args.trace:
        trace = json.loads(Path(args.trace).read_text())
        print(render_waterfall(spans_from_chrome_trace(trace)))
        return EXIT_OK
    ledger = _open_ledger(args.store)
    record = _resolve_or_die(ledger, args.run)
    print(json.dumps(record, indent=2, sort_keys=True))
    trace = record.get("trace") or {}
    path = trace.get("critical_path") or []
    if path:
        print("\ncritical path:")
        for hop in path:
            print(f"  {hop['duration_ms']:>10.2f} ms  {hop['name']}")
    return EXIT_OK


def _stage_delta_table(
    a: Dict[str, object], b: Dict[str, object]
) -> List[str]:
    a_times: Dict[str, float] = a["stage_wall_time_s"]
    b_times: Dict[str, float] = b["stage_wall_time_s"]
    lines = [f"{'stage':<12} {'a (s)':>10} {'b (s)':>10} {'delta':>10}"]
    for stage in sorted(set(a_times) | set(b_times)):
        av, bv = a_times.get(stage), b_times.get(stage)
        delta = (
            f"{bv - av:+.3f}" if av is not None and bv is not None else "-"
        )
        lines.append(
            f"{stage:<12} "
            f"{av if av is not None else '-':>10} "
            f"{bv if bv is not None else '-':>10} {delta:>10}"
        )
    a_total = float(a["total_wall_time_s"])
    b_total = float(b["total_wall_time_s"])
    lines.append(
        f"{'total':<12} {a_total:>10.3f} {b_total:>10.3f} "
        f"{b_total - a_total:>+10.3f}"
    )
    return lines


def _ns_table(record: Dict[str, object]) -> Dict[str, Dict[str, int]]:
    stats = record["store"].get("stats") or {}
    namespaces = stats.get("namespaces")
    if isinstance(namespaces, dict) and namespaces:
        return namespaces
    # older records carry only the hit table
    return {
        ns: {"hits": count}
        for ns, count in (stats.get("hit_namespaces") or {}).items()
    }


def _cmd_diff(args) -> int:
    ledger = _open_ledger(args.store)
    a = _resolve_or_die(ledger, args.a)
    b = _resolve_or_die(ledger, args.b)
    print(f"a: {_one_line(a)}")
    print(f"b: {_one_line(b)}")
    print("\nstage wall time:")
    for line in _stage_delta_table(a, b):
        print(f"  {line}")
    a_ns, b_ns = _ns_table(a), _ns_table(b)
    print("\nstore traffic by namespace (hits a -> b):")
    if not a_ns and not b_ns:
        print("  (no store traffic recorded)")
    for ns in sorted(set(a_ns) | set(b_ns)):
        ah = a_ns.get(ns, {}).get("hits", 0)
        bh = b_ns.get(ns, {}).get("hits", 0)
        am = a_ns.get(ns, {}).get("misses", 0)
        bm = b_ns.get(ns, {}).get("misses", 0)
        print(
            f"  {ns:<20} hits {ah:>5} -> {bh:<5} misses {am:>5} -> {bm:<5}"
        )
    a_counters: Dict[str, float] = a["counters"]
    b_counters: Dict[str, float] = b["counters"]
    changed = {
        name
        for name in set(a_counters) | set(b_counters)
        if a_counters.get(name, 0.0) != b_counters.get(name, 0.0)
    }
    if changed:
        print("\ncounter totals that changed:")
        for name in sorted(changed):
            print(
                f"  {name:<40} {a_counters.get(name, 0):>12g} -> "
                f"{b_counters.get(name, 0):<12g}"
            )
    return EXIT_OK


def _cmd_regress(args) -> int:
    ledger = _open_ledger(args.store)
    if args.current == "latest" and args.app:
        current = ledger.latest(kind="transform", app=args.app)
        if current is None:
            print(
                f"repro-obs: no transform records for app {args.app!r}",
                file=sys.stderr,
            )
            return EXIT_ERROR
    else:
        current = _resolve_or_die(ledger, args.current)
    if args.baseline == "prev":
        baseline = ledger.previous(current)
        if baseline is None:
            print(
                "repro-obs: no baseline in the ledger yet (first run of "
                "this app/config) — nothing to compare",
            )
            return EXIT_OK
    else:
        baseline = _resolve_or_die(ledger, args.baseline)
    findings = compare_ledger_records(
        baseline,
        current,
        threshold=args.threshold,
        min_seconds=args.min_seconds,
    )
    print(
        f"baseline: {_one_line(baseline)}\n"
        f"current:  {_one_line(current)}\n"
    )
    print(render_findings(findings))
    regressed = [f for f in findings if f.regressed]
    if regressed:
        print(
            f"\nrepro-obs: REGRESSION — {len(regressed)} metric(s) exceeded "
            "their threshold",
            file=sys.stderr,
        )
        return EXIT_REGRESSION
    print("\nrepro-obs: no regression detected")
    return EXIT_OK


# --------------------------------------------------------------- arg parsing


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-obs",
        description=(
            "Cross-run observability: query the run ledger, diff runs "
            "and gate CI on performance regressions."
        ),
    )
    parser.add_argument(
        "--store",
        default=None,
        metavar="ROOT",
        help="artifact store root (default: REPRO_STORE or ~/.cache/repro)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list ledger records (newest first)")
    p_list.add_argument(
        "--kind", choices=("transform", "service", "fuzz"), default=None
    )
    p_list.add_argument("--app", default=None, help="filter by app name")
    p_list.add_argument("--sha", default=None, help="filter by git SHA prefix")
    p_list.add_argument("-n", "--limit", type=int, default=20)
    p_list.set_defaults(func=_cmd_list)

    p_show = sub.add_parser(
        "show", help="print one record (or a trace waterfall)"
    )
    p_show.add_argument(
        "run", nargs="?", default="latest",
        help="run id prefix, 'latest' or 'prev' (default: latest)",
    )
    p_show.add_argument(
        "--trace", default=None, metavar="TRACE_JSON",
        help="render a text waterfall from a Chrome trace file instead",
    )
    p_show.set_defaults(func=_cmd_show)

    p_diff = sub.add_parser("diff", help="compare two records")
    p_diff.add_argument("a", nargs="?", default="prev")
    p_diff.add_argument("b", nargs="?", default="latest")
    p_diff.set_defaults(func=_cmd_diff)

    p_reg = sub.add_parser(
        "regress", help="fail (exit 3) when the current run regressed"
    )
    p_reg.add_argument(
        "--current", default="latest",
        help="record under test (default: latest)",
    )
    p_reg.add_argument(
        "--baseline", default="prev",
        help=(
            "baseline record; 'prev' = most recent successful run of the "
            "same app+config (default)"
        ),
    )
    p_reg.add_argument(
        "--app", default=None,
        help="with --current latest: restrict to this app's records",
    )
    p_reg.add_argument(
        "--threshold", type=float, default=1.5,
        help="ratio beyond which a wall-time increase fails (default 1.5)",
    )
    p_reg.add_argument(
        "--min-seconds", type=float, default=0.05,
        help="ignore ratio breaches smaller than this absolute delta",
    )
    p_reg.set_defaults(func=_cmd_regress)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_arg_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0) and EXIT_ERROR
    try:
        return args.func(args)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return EXIT_ERROR
        raise
    except (OSError, ValueError, KeyError) as exc:
        print(f"repro-obs: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
