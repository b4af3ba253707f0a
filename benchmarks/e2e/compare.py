"""Compare two result files of the end-to-end bench.

    python3 benchmarks/e2e/compare.py A.json B.json

``A`` is the base, ``B`` the candidate; both are ``results.json`` (all
workloads) or ``result-<workload>.json`` files written by ``run.py``.
Per (metric, workload) it prints the ratio B/A with its base, flags any
end-to-end metric that got worse by more than its bound in
BENCHMARK.json, prints the layer rows that moved beside them, and
requires the count rows to be exactly equal.  Exit code 1 when anything
is flagged; smoke results are refused.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, List

REPO = Path(__file__).resolve().parents[2]

#: deterministic for a given seed: any difference is a behaviour change
EXACT_ROWS = (
    "search.evaluations",
    "search.fitness_lookups",
    "gpu.run_program_calls",
    "gpu.launches",
    "store.put_calls",
    "cudalite.source_bytes_out",
)
EXACT_END_TO_END = ("speedup_geomean",)

#: layer rows are printed when they moved by more than this share
LAYER_NOISE = 0.05


def load(path: str) -> Dict[str, Dict[str, Any]]:
    """``{workload: result}`` from either file shape."""
    data = json.loads(Path(path).read_text())
    if data.get("smoke"):
        raise SystemExit(f"{path}: smoke results are not comparable")
    if "workloads" in data:
        return data["workloads"]
    return {data["workload"]: data}


def worse_by(base: float, new: float, better: str) -> float:
    """Share of the base by which ``new`` is worse (negative = better)."""
    if base == 0:
        return 0.0 if new == 0 else float("inf")
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def compare(a_path: str, b_path: str) -> int:
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    base, cand = load(a_path), load(b_path)
    flagged: List[str] = []
    for workload in (w["name"] for w in spec["workloads"]):
        if workload not in base or workload not in cand:
            continue
        a, b = base[workload], cand[workload]
        print(f"== {workload}")
        same_seed = a["header"]["seed"] == b["header"]["seed"]
        if not same_seed:
            print("  note: seeds differ, count rows are not required to be equal")
        if b["failed"]:
            flagged.append(f"{workload}: {b['failed']} of {b['attempted']} ops failed")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            x, y = a["end_to_end"][name]["value"], b["end_to_end"][name]["value"]
            worse = worse_by(x, y, metric["better"])
            mark = ""
            if worse > metric["bound"]:
                mark = f"  REGRESSION (bound {metric['bound']:.1%})"
                flagged.append(f"{workload}: {name} worse by {worse:.1%}")
            if same_seed and name in EXACT_END_TO_END and x != y:
                mark += "  NOT EXACT"
                flagged.append(f"{workload}: {name} {x!r} != {y!r}")
            ratio = y / x if x else float("nan")
            print(f"  {name:34s} {y:12.6g} / {x:12.6g} = {ratio:7.4f} {metric['unit']}{mark}")
        if not (a.get("per_layer") and b.get("per_layer")):
            continue
        for metric in spec["per_layer"]:
            name = metric["name"]
            x, y = a["per_layer"][name]["value"], b["per_layer"][name]["value"]
            exact = same_seed and name in EXACT_ROWS
            if exact and x != y:
                flagged.append(f"{workload}: count row {name} {x!r} != {y!r}")
            moved = abs(worse_by(x, y, metric["better"])) > LAYER_NOISE
            if (exact and x != y) or (moved and not name.startswith("bench.")):
                ratio = y / x if x else float("nan")
                mark = "  NOT EXACT" if exact and x != y else ""
                print(f"    {name:32s} {y:12.6g} / {x:12.6g} = {ratio:7.4f} {metric['unit']}{mark}")
    if flagged:
        print("FLAGGED:")
        for line in flagged:
            print(f"  {line}")
        return 1
    print("ok: every end-to-end metric within its bound, count rows equal")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        raise SystemExit(__doc__)
    sys.exit(compare(sys.argv[1], sys.argv[2]))
