"""End-to-end benchmark of the transformation pipeline and its service.

    python3 benchmarks/e2e/run.py --workload <name|all> [--seed N]
        [--seconds S] [--trace [0|1]] [--out DIR] [--smoke]

Prints every metric as ``name value unit``, writes the same as JSON under
``--out`` and checks the emitted programs (see ``check.py``).  The last
line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  Exits non-zero when any op failed.

One process runs one pass.  End-to-end metrics always come from an
untraced pass; ``--trace 1`` first runs that pass as a child process,
then repeats the workload (set-up included) in this process with the
wrappers of ``trace.py`` installed and reduces the recorded spans to the
per-layer rows.  Two passes in one process do not compare: what the
first leaves behind (heap, caches, the product's own tracer) costs the
second 3–8 %, which would read as tracing overhead.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

# hygiene: no ambient REPRO_* knob may reach the code under test; scrub
# before anything of repro is imported
_SCRUBBED = sorted(name for name in os.environ if name.startswith("REPRO_"))
for _name in _SCRUBBED:
    del os.environ[_name]

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, Optional  # noqa: E402

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
DEFAULT_SEED = 20150615
SCHEMA = "repro.e2e-bench/1"


def load_spec() -> Dict[str, Any]:
    return json.loads((REPO / "BENCHMARK.json").read_text())


def calibrate() -> float:
    """A fixed pure-Python + numpy loop, so ratios can be machine-normalised."""
    import numpy as np

    best = float("inf")
    grid = np.linspace(0.0, 1.0, 64 * 64 * 16).reshape(64, 64, 16)
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(150_000):
            total += i * i % 7
        for _ in range(40):
            grid = 0.25 * (
                np.roll(grid, 1, 0) + np.roll(grid, -1, 0)
                + np.roll(grid, 1, 1) + np.roll(grid, -1, 1)
            )
        best = min(best, time.perf_counter() - start)
    return best


def child_command(args: argparse.Namespace, workload: str, trace: int, out: Path) -> List[str]:
    return [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(trace),
        "--out", str(out),
    ] + (["--smoke"] if args.smoke else [])


def run_workload(args: argparse.Namespace, spec: Dict[str, Any]) -> int:
    sys.path.insert(0, str(REPO / "src"))
    import numpy

    import check
    import rows
    import trace
    import workloads
    from repro.observability.metrics import get_registry
    from repro.observability.runinfo import git_sha

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="scratch-", dir=out))
    rounds = max(1, round(args.seconds / workloads.ROUND_SECONDS))
    tracer = trace.BenchTracer() if args.trace else None
    untraced: Optional[Dict[str, Any]] = None
    try:
        if tracer is not None:
            child = subprocess.run(
                child_command(args, args.workload, 0, scratch / "untraced"),
                stdout=subprocess.DEVNULL,
            )
            result_file = scratch / "untraced" / f"result-{args.workload}.json"
            if not result_file.exists():
                raise RuntimeError(f"the untraced pass exited with {child.returncode}")
            untraced = json.loads(result_file.read_text())
            tracer.install()
        calibration_s = calibrate()
        workload = workloads.WORKLOADS[args.workload](
            workloads.Context(args.seed, rounds, args.smoke, scratch, tracer)
        )
        try:
            setup_span = tracer.begin("setup", "bench", op="setup") if tracer else None
            workload.setup()
            if tracer is not None:
                tracer.end(setup_span)
            setup_s = time.perf_counter() - _T0
            before = get_registry().counter_totals()
            records, wall_s = workload.measure()
            counters = {
                name: value - before.get(name, 0.0)
                for name, value in get_registry().counter_totals().items()
            }
            workload_rows = workload.layer_rows(records)
        finally:
            workload.teardown()
            if tracer is not None:
                tracer.uninstall()

        check_start = time.perf_counter()
        bad_outputs = check.check_outputs(
            (r.original, r.source)
            for r in records
            if r.original is not None and r.source is not None
        )
        check_s = time.perf_counter() - check_start
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    failures = [
        {"op": r.op_id, "reason": r.error or bad_outputs[(r.original, r.source)]}
        for r in records
        if r.error or (r.original, r.source) in bad_outputs
    ]
    result: Dict[str, Any] = {
        "schema": SCHEMA,
        "smoke": bool(args.smoke),
        "workload": args.workload,
        "header": {
            "seed": args.seed,
            "seconds": args.seconds,
            "rounds": rounds,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "git_sha": git_sha(str(REPO)),
            "scrubbed_env": _SCRUBBED,
            "calibration_s": calibration_s,
            "check_s": check_s,
        },
        "attempted": len(records),
        "failed": len(failures),
        "failures": failures[:20],
        "per_layer": None,
    }
    if tracer is None:
        e2e = rows.end_to_end_rows(records, wall_s, setup_s, workload.child_peak_rss_kib)
        result["end_to_end"] = rows.fill(spec["end_to_end"], e2e, complete=True)
    else:
        tracer.check_hits(args.workload)
        trace.write_chrome_trace(
            tracer.spans, str(out / f"trace-{args.workload}.json"), args.workload
        )
        layer = rows.layer_rows(records, tracer.spans, counters)
        layer.update(workload_rows)
        layer["bench.calibration_s"] = calibration_s
        layer["bench.check_s"] = check_s
        layer["bench.trace_overhead_ratio"] = (
            wall_s / untraced["end_to_end"]["wall_s"]["value"]
        )
        result["per_layer"] = rows.fill(spec["per_layer"], layer, complete=False)
        # per traced op, self time per layer (sums to the op's wall time)
        split = trace.layer_self_times(tracer.spans)
        result["traced_ops"] = [
            {"op": r.op_id, "kind": r.kind, "wall_s": r.latency, "self_s": split[r.op_id]}
            for r in records
        ]
        # the end-to-end side is the untraced pass's; its failures count too
        result["end_to_end"] = untraced["end_to_end"]
        result["failed"] += untraced["failed"]
        result["failures"] = (untraced["failures"] + result["failures"])[:20]
    result["correct"] = result["failed"] == 0
    (out / f"result-{args.workload}.json").write_text(json.dumps(result, indent=1) + "\n")
    report(result)
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": result["per_layer"] if args.trace else result["end_to_end"],
            }
        )
    )
    return 0 if result["correct"] else 1


def report(result: Dict[str, Any]) -> None:
    header = result["header"]
    print(
        f"# {result['workload']}{' (smoke)' if result['smoke'] else ''}: "
        f"seed {header['seed']}, {header['rounds']} round(s), nproc {header['nproc']}, "
        f"python {header['python']}, numpy {header['numpy']}, "
        f"git {header['git_sha'] or 'n/a'}, calibration {header['calibration_s']:.4f} s, "
        f"check {header['check_s']:.2f} s"
    )
    for section in ("end_to_end", "per_layer"):
        for name, metric in (result[section] or {}).items():
            print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(f"ops attempted {result['attempted']} failed {result['failed']}")
    for failure in result["failures"]:
        print(f"FAILED {failure['op']}: {failure['reason']}")


def run_all(args: argparse.Namespace, spec: Dict[str, Any]) -> int:
    """Each workload in its own process: set-up time and peak RSS are
    per-process quantities."""
    out = Path(args.out)
    merged: Dict[str, Any] = {"schema": SCHEMA, "smoke": bool(args.smoke), "workloads": {}}
    status = 0
    for workload in spec["workloads"]:
        command = child_command(args, workload["name"], args.trace, out)
        status = max(status, subprocess.run(command).returncode)
        path = out / f"result-{workload['name']}.json"
        if path.exists():
            merged["workloads"][workload["name"]] = json.loads(path.read_text())
    (out / "results.json").write_text(json.dumps(merged, indent=1) + "\n")
    return status


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--seconds", type=float, default=spec["run_seconds"],
        help="how long to measure: buys whole rounds of ~10 s of work each",
    )
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--out", default=str(HERE / "out"))
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny fuzz apps and short op lists (for the bench's own test)",
    )
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args, spec)
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
