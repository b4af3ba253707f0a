"""One run record: ``run.json``, the ledger and the service share it.

Every run builds one ``repro.run/2`` record
(:func:`repro.observability.runinfo.build_run_record`).
``TransformResult.record`` (or, for a failed run, the raised error's
``record``) is that record; ``run.json`` holds it; the ledger entry is
it plus ``run_id``; a served execution's ledger entry is the worker's
record with ``kind == "service"`` and a ``service`` section.  Records
written before 7.0 (``repro.ledger/1``) are upgraded as they are read.
"""

import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.api import TransformConfig, transform
from repro.errors import PipelineError, ReproError
from repro.observability.cli import EXIT_OK
from repro.observability.cli import main as obs_main
from repro.observability.ledger import (
    LEGACY_LEDGER_SCHEMA,
    RUN_LEDGER_NAMESPACE,
    RunLedger,
    append_record,
    build_fuzz_record,
)
from repro.observability.runinfo import OUTCOME_FIELDS, RUN_SCHEMA
from repro.pipeline import framework
from repro.search import fast_params
from repro.store.artifact_store import MEMORY_TIER, ArtifactStore

from conftest import THREE_KERNEL_SRC

CHECKER = Path(__file__).resolve().parents[1] / "scripts" / "check_telemetry.py"


def small_params(seed=1):
    params = fast_params(seed=seed)
    params.population = 16
    params.generations = 15
    params.stall_generations = 6
    return params


@pytest.fixture(autouse=True)
def _cold_tier():
    MEMORY_TIER.clear()
    yield
    MEMORY_TIER.clear()


def _state_facts(result):
    """The counts the end-to-end bench reads off ``result.state``."""
    state = result.state
    facts = {}
    if state.targets is not None and "targets" not in result.reused:
        facts["targets_kept"] = len(state.targets.targets)
    if state.ddg is not None and "graphs" not in result.reused:
        facts["ddg_nodes"] = state.ddg.number_of_nodes()
        facts["oeg_edges"] = state.oeg.number_of_edges()
    if state.transform is not None:
        facts["kernels_in"] = len(state.program.kernels)
        facts["kernels_out"] = len(state.transform.program.kernels)
        facts["fused_groups"] = len(state.transform.fused_kernels)
        facts["demotions"] = len(state.transform.demotions)
    return facts


def _written(workdir, root):
    """``(run.json, the newest ledger payload)`` as they are on disk."""
    run = json.loads((Path(workdir) / "run.json").read_text())
    store = ArtifactStore(root)
    run_id = RunLedger(store).latest()["run_id"]
    return run, store.get(RUN_LEDGER_NAMESPACE, run_id)


def _assert_one_record(record, workdir, root):
    run, payload = _written(workdir, root)
    assert record == run
    assert "run_id" not in run
    assert payload.pop("run_id") is not None
    assert payload == run
    assert record["schema"] == RUN_SCHEMA
    assert set(record["outcome"]) == set(OUTCOME_FIELDS)
    assert record["observability"]["record_s"] >= 0.0


def test_cold_repeat_and_failed_runs_write_one_record(tmp_path, monkeypatch):
    root = tmp_path / "store"
    config = TransformConfig(
        ga_params=small_params(), store=True, store_root=str(root)
    )

    cold = transform(THREE_KERNEL_SRC, config, workdir=str(tmp_path / "cold"))
    _assert_one_record(cold.record, tmp_path / "cold", root)
    facts = _state_facts(cold)
    assert set(facts) == set(OUTCOME_FIELDS) - {"speedup", "verified"}
    assert {k: cold.record["outcome"][k] for k in facts} == facts
    assert cold.record["outcome"]["speedup"] == cold.speedup
    assert cold.record["outcome"]["verified"] is cold.verified is True
    assert cold.record["reused_stages"] == {}

    repeat = transform(THREE_KERNEL_SRC, config, workdir=str(tmp_path / "repeat"))
    _assert_one_record(repeat.record, tmp_path / "repeat", root)
    assert repeat.record["reused_stages"] == repeat.reused != {}
    facts = _state_facts(repeat)
    assert {k: repeat.record["outcome"][k] for k in facts} == facts
    # the outcome is the deterministic section: a repeat reproduces it
    assert repeat.record["outcome"] == cold.record["outcome"]

    def exploding_codegen(state):
        raise PipelineError("codegen blew up")

    monkeypatch.setitem(framework.STAGE_FUNCTIONS, "codegen", exploding_codegen)
    with pytest.raises(PipelineError) as failed:
        transform(
            THREE_KERNEL_SRC, config,
            ga_params=small_params(seed=2), workdir=str(tmp_path / "failed"),
        )
    record = failed.value.record
    _assert_one_record(record, tmp_path / "failed", root)
    assert record["exit_code"] == 2
    assert record["error"]["type"] == "PipelineError"
    assert record["error"]["stage"] == "codegen"
    assert record["outcome"]["ddg_nodes"] == cold.record["outcome"]["ddg_nodes"]
    assert record["outcome"]["kernels_out"] is None

    result = subprocess.run(
        [sys.executable, str(CHECKER), "--ledger", str(root)],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr


def test_each_record_counts_its_own_run(monkeypatch):
    """``counters`` is what one ``transform()`` added to the registry, not
    the process's totals: a second run in the process reports what that
    run reports alone, in a fresh registry."""
    from repro.observability import metrics

    def run():
        return transform(
            THREE_KERNEL_SRC, ga_params=small_params(), store=False
        ).record["counters"]

    first, second = run(), run()
    monkeypatch.setattr(metrics, "_registry", metrics.MetricsRegistry())
    alone = run()
    assert second == alone
    assert second["gpu_launches_total"] == first["gpu_launches_total"] > 0
    assert second["source_loads_total"] == 1


def test_a_failed_load_carries_its_record(tmp_path):
    with pytest.raises(ReproError) as failed:
        transform("int main( {", workdir=str(tmp_path), telemetry=True)
    record = failed.value.record
    assert record == json.loads((tmp_path / "run.json").read_text())
    assert record["source"] == "<unknown>" and record["exit_code"] == 2
    assert record["outcome"] == {
        **dict.fromkeys(OUTCOME_FIELDS), "demotions": 0,
    }


def test_telemetry_off_writes_nothing_and_still_returns_the_record(tmp_path):
    root = tmp_path / "store"
    result = transform(
        THREE_KERNEL_SRC, ga_params=small_params(), telemetry=False,
        workdir=str(tmp_path / "wd"), store=True, store_root=str(root),
    )
    assert not (tmp_path / "wd" / "run.json").exists()
    assert RunLedger(root).records() == []
    assert result.record["outcome"]["speedup"] == result.speedup
    assert result.record["config"]["telemetry"] is False


# -------------------------------------------------- every kind in one ledger


#: records as the ledger wrote them before 7.0 (``repro.ledger/1``)
LEGACY = [
    {
        "schema": LEGACY_LEDGER_SCHEMA, "kind": "transform",
        "timestamp": "2026-01-01T00:00:00+0000", "unix_time": 1.0,
        "pid": 1, "git_sha": "f00d", "repro_version": "6.1.0",
        "source": "app:Fluam", "app": "Fluam", "config_digest": "ab" * 32,
        "seed": 1, "exit_code": 0,
        "stage_wall_time_s": {"metadata": 0.5, "search": 1.0},
        "total_wall_time_s": 1.5, "speedup": 1.2, "verified": True,
        "demotions": 0, "reused_stages": {},
        "store": {"hits": 0, "misses": 5, "hit_rate": 0.0,
                  "hit_namespaces": {}},
        "counters": {"pipeline_stage_runs_total": 5.0},
        "trace": {"span_count": 0, "critical_path": [], "self_time_ms": {}},
    },
    {
        "schema": LEGACY_LEDGER_SCHEMA, "kind": "service",
        "timestamp": "2026-01-01T00:00:01+0000", "unix_time": 2.0,
        "pid": 1, "git_sha": "f00d", "repro_version": "6.1.0",
        "source": "<source>", "app": None, "config_digest": "cd" * 32,
        "exit_code": 0,
        "service": {"request_key": "ef" * 32, "job_id": "ef-1-1",
                    "status": "ok", "dedup_clients": 2,
                    "worker_retries": 0, "wall_time_s": 0.4},
        "speedup": 1.1, "verified": True, "demotions": 0,
        "reused_stages": {"search": "result"},
    },
    {
        "schema": LEGACY_LEDGER_SCHEMA, "kind": "fuzz",
        "timestamp": "2026-01-01T00:00:02+0000", "unix_time": 3.0,
        "pid": 1, "git_sha": "f00d", "repro_version": "6.1.0",
        "source": "fuzz-campaign", "app": None, "exit_code": 0,
        "fuzz": {"seed_start": 0, "seed_end": 1, "seeds_run": 2,
                 "oracles": ["transform"], "duration_seconds": 1.0,
                 "stopped_early": False, "failures": 0, "crashes": 0,
                 "unbucketed": 0, "crash_buckets": {},
                 "oracle_failures": {}},
    },
]


def _served(root, payload_config):
    """Append the ledger entries of two served executions the way the
    server does: one the worker ran, one lost to a dead worker."""
    from repro.service.schema import TransformResponse
    from repro.service.server import TransformService, _Execution
    from repro.service.worker import run_request

    service = TransformService(store_root=str(root))
    config = service._effective_config(SimpleNamespace(config=payload_config))
    outcome = run_request({"source": THREE_KERNEL_SRC, "config": config.to_dict()})
    assert outcome["status"] == "ok"
    ran = _Execution("k1-s-1", "k1" * 32, "<source>")
    ran.clients = 3
    service._ledger_append(
        ran, config,
        TransformResponse(status="ok", job_id=ran.job_id, key=ran.key,
                          wall_time_s=outcome["wall_time_s"]),
        outcome["record"],
    )
    lost = _Execution("k2-s-2", "k2" * 32, "<source>")
    error = {"type": "ServiceError", "stage": None, "message": "worker died"}
    service._ledger_append(
        lost, config,
        TransformResponse(status="error", job_id=lost.job_id, key=lost.key,
                          error=error),
        None,
    )
    return outcome["record"]


def test_a_ledger_of_every_kind_is_checked_and_read(tmp_path, capsys):
    root = tmp_path / "store"
    store = ArtifactStore(root)
    for n, record in enumerate(LEGACY):
        store.put(RUN_LEDGER_NAMESPACE, f"{n:064x}", {**record, "run_id": f"{n:064x}"})
    transform(
        THREE_KERNEL_SRC, ga_params=small_params(), store=True,
        store_root=str(root),
    )
    worker_record = _served(root, {"ga_params": {"population": 10, "generations": 6}})
    append_record(store, build_fuzz_record({
        "campaign": {"seed_start": 0, "seed_end": 0, "seeds_run": 1,
                     "oracles": ["transform"]},
        "summary": {"failures": 0, "crashes": 0},
    }))

    records = RunLedger(root).records()
    assert {r["schema"] for r in records} == {RUN_SCHEMA}
    kinds = [r["kind"] for r in records]
    assert sorted(kinds) == sorted(
        ["transform"] * 3 + ["service"] * 3 + ["fuzz"] * 2
    )
    upgraded = [r for r in records if r.get("upgraded_from")]
    assert len(upgraded) == 3
    assert upgraded[0]["outcome"]["speedup"] == 1.2
    assert upgraded[0]["config"] == {"seed": 1}
    assert upgraded[0]["store"]["stats"]["misses"] == 5
    served = [r for r in records if r["kind"] == "service" and r["exit_code"] == 0
              and not r.get("upgraded_from")]
    # the served entry is the worker's record plus its service section
    (entry,) = served
    assert entry["service"]["dedup_clients"] == 3
    assert {k: v for k, v in entry.items()
            if k not in ("kind", "service", "run_id")} == {
        k: v for k, v in worker_record.items() if k != "kind"
    }

    result = subprocess.run(
        [sys.executable, str(CHECKER), "--ledger", str(root)],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    assert f"ledger ok ({len(records)} records)" in result.stdout

    capsys.readouterr()
    assert obs_main(["--store", str(root), "list", "-n", "0"]) == EXIT_OK
    listed = capsys.readouterr().out
    for kind in ("--kind", "transform"), ("--kind", "service"), ("--kind", "fuzz"):
        assert obs_main(["--store", str(root), "list", *kind]) == EXIT_OK
    capsys.readouterr()
    for record in records:
        assert record["run_id"][:10] in listed
        assert obs_main(["--store", str(root), "show", record["run_id"]]) == EXIT_OK
    for a, b in zip(records, records[1:]):
        assert obs_main(
            ["--store", str(root), "diff", a["run_id"], b["run_id"]]
        ) == EXIT_OK
    assert obs_main(["--store", str(root), "regress"]) == EXIT_OK


def test_the_checker_refuses_a_record_missing_a_section(tmp_path):
    root = tmp_path / "store"
    transform(
        THREE_KERNEL_SRC, ga_params=small_params(), store=True,
        store_root=str(root), workdir=str(tmp_path / "wd"),
    )
    store = ArtifactStore(root)
    (record,) = RunLedger(store).records()
    for section in ("outcome", "reports", "env", "front_door", "observability"):
        broken = {k: v for k, v in record.items() if k != section}
        store.put(RUN_LEDGER_NAMESPACE, record["run_id"], broken)
        result = subprocess.run(
            [sys.executable, str(CHECKER), "--ledger", str(root)],
            capture_output=True, text=True,
        )
        assert result.returncode == 1 and repr(section) in result.stderr
    run = tmp_path / "wd" / "run.json"
    run.write_text(json.dumps({**record}))
    result = subprocess.run(
        [sys.executable, str(CHECKER), "--repeat", str(tmp_path / "wd")],
        capture_output=True, text=True,
    )
    assert result.returncode == 1 and "run_id" in result.stderr


def test_cold_codegen_check_on_a_half_scale_fluam_run(tmp_path):
    """``check_telemetry.py --cold-codegen`` (the CI step "Codegen
    interpreted two programs (before + one counted after)") accepts a cold
    verified run, and names what is wrong with one that is not."""
    from repro.apps import build_app
    from repro.cudalite import unparse

    workdir = tmp_path / "wd"
    source = unparse(build_app("Fluam", scale=0.5).program)
    transform(source, seed=1, store=False, workdir=str(workdir))
    ok = subprocess.run(
        [sys.executable, str(CHECKER), "--cold-codegen", str(workdir)],
        capture_output=True, text=True,
    )
    assert ok.returncode == 0, ok.stderr
    assert "cold codegen ok" in ok.stdout
    run = workdir / "run.json"
    record = json.loads(run.read_text())
    record["verification"]["counters_from"] = "rerun"
    run.write_text(json.dumps(record))
    bad = subprocess.run(
        [sys.executable, str(CHECKER), "--cold-codegen", str(workdir)],
        capture_output=True, text=True,
    )
    assert bad.returncode == 1
    assert "the counters must come from the gate's run" in bad.stderr
