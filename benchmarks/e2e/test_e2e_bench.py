"""Self-test of the end-to-end bench (``pytest benchmarks/e2e``).

Not part of tier-1: run it explicitly.  Everything goes through the
``--smoke`` scale, which swaps the paper apps for two small fuzz apps and
cuts the op lists, so all four workloads plus their traced passes finish
in well under a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import trace  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(out: Path, *extra: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seconds", "1",
         "--out", str(out), *extra],
        capture_output=True, text=True, timeout=300,
    )


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory):
    """Two same-seed smoke runs of every workload, traced."""
    outs = []
    for tag in ("a", "b"):
        out = tmp_path_factory.mktemp(f"smoke-{tag}")
        done = run_bench(out, "--workload", "all", "--trace", "1", "--seed", "7")
        assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
        outs.append(out)
    return outs


def test_every_declared_metric_is_emitted_with_its_unit(smoke_runs):
    results = json.loads((smoke_runs[0] / "results.json").read_text())
    assert results["smoke"] is True
    assert list(results["workloads"]) == WORKLOADS
    for name, result in results["workloads"].items():
        assert result["failed"] == 0 and result["correct"] is True, result["failures"]
        for section in ("end_to_end", "per_layer"):
            emitted = {k: v["unit"] for k, v in result[section].items()}
            declared = {m["name"]: m["unit"] for m in SPEC[section]}
            assert emitted == declared, (name, section)
        assert all(v["value"] != 0 for v in result["end_to_end"].values()), name
        events = json.loads((smoke_runs[0] / f"trace-{name}.json").read_text())
        assert len(events["traceEvents"]) > 1


def test_same_seed_runs_agree_exactly_on_the_count_rows(smoke_runs):
    a, b = (
        json.loads((out / "results.json").read_text())["workloads"] for out in smoke_runs
    )
    for name in WORKLOADS:
        for row in compare.EXACT_ROWS:
            assert a[name]["per_layer"][row] == b[name]["per_layer"][row], (name, row)
        for row in compare.EXACT_END_TO_END:
            assert a[name]["end_to_end"][row] == b[name]["end_to_end"][row], (name, row)


def test_compare_refuses_smoke_results(smoke_runs):
    with pytest.raises(SystemExit, match="smoke"):
        compare.load(str(smoke_runs[0] / "results.json"))


def test_last_line_is_the_contract_object(tmp_path):
    done = run_bench(tmp_path, "--workload", "cold-transform", "--trace", "0", "--seed", "3")
    assert done.returncode == 0, done.stderr[-2000:]
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert set(last["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1


def test_seed_changes_the_generated_service_programs():
    assert workloads.service_programs(1, 3) == workloads.service_programs(1, 3)
    assert workloads.service_programs(1, 3) != workloads.service_programs(2, 3)
    source = workloads.app_source("Fluam", 1, smoke=True)
    assert source != workloads.app_source("Fluam", 2, smoke=True)


def test_missing_patch_point_is_a_hard_error(monkeypatch):
    gone = trace.PatchPoint("repro.api", "no_such_function", "x", "api", frozenset())
    monkeypatch.setattr(trace, "PATCH_POINTS", (gone,))
    tracer = trace.BenchTracer()
    with pytest.raises(trace.PatchPointError, match="no_such_function"):
        tracer.install()
    tracer.uninstall()


def test_silent_patch_point_is_a_hard_error():
    tracer = trace.BenchTracer()
    tracer.install()
    tracer.uninstall()
    with pytest.raises(trace.PatchPointError, match="never hit on cold-transform"):
        tracer.check_hits("cold-transform")
