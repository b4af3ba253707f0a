"""The run ledger: append, query, lineage, concurrency, fuzz, upgrade.

The ledger rides the artifact store's envelope contract, so most tests
build records with the one run-record builder directly (no pipeline run
needed) and the concurrency test
reuses the multi-process harness of ``test_store_concurrency.py``: two
writer processes appending records while a reader queries — every append
must survive and no query may crash.
"""

import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.fuzz.campaign import CampaignConfig, run_campaign
from repro.observability import telemetry
from repro.observability.ledger import (
    RUN_LEDGER_NAMESPACE,
    RunLedger,
    append_record,
    build_fuzz_record,
    config_digest,
)
from repro.observability.runinfo import RUN_SCHEMA, build_run_record
from repro.store.artifact_store import ArtifactStore


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "store")


def _record(app="Fluam", seed=1, exit_code=0, total=1.0, when=None,
            config=None):
    record = build_run_record(
        source=f"app:{app}",
        config=config if config is not None else {"seed": seed, "mode": "automated"},
        stage_times={"search": total / 2, "codegen": total / 2},
        exit_code=exit_code,
        counters={"pipeline_stage_runs_total": 5.0},
        trace={"span_count": 0, "critical_path": [], "self_time_ms": {}},
    )
    record["outcome"].update(speedup=1.2, verified=True)
    if when is not None:
        record["unix_time"] = when
    return record


# ------------------------------------------------------------------ digest


def test_config_digest_ignores_output_paths():
    base = {"seed": 1, "device": "K20X", "workdir": "/tmp/a",
            "metrics_out": "a.json", "trace_out": "t.json",
            "store": True, "store_root": "/x", "telemetry": True}
    other = dict(base, workdir="/tmp/b", metrics_out=None, trace_out=None,
                 store=False, store_root="/y", telemetry=False)
    assert config_digest(base) == config_digest(other)
    assert config_digest(base) != config_digest(dict(base, seed=2))


# ----------------------------------------------------------- append/query


def _fake_git(monkeypatch, replies):
    """Replace the ``git rev-parse`` fork: each call pops the next reply (a
    revision, or an exception to raise) and logs its directory."""
    from repro.observability import runinfo

    forks = []
    real = subprocess.run

    def run(args, cwd=None, **kw):
        if args[:1] != ["git"]:  # e.g. platform.processor() asking uname
            return real(args, cwd=cwd, **kw)
        forks.append(cwd)
        reply = replies.pop(0)
        if isinstance(reply, Exception):
            raise reply
        return subprocess.CompletedProcess(args, 0, stdout=reply + "\n")

    monkeypatch.setattr(runinfo, "_GIT_SHAS", {})
    monkeypatch.setattr(runinfo.subprocess, "run", run)
    return runinfo, forks


def test_git_revision_is_read_once_per_directory(tmp_path, monkeypatch):
    """Every record and run.json asks for the revision; only the first ask
    in a directory forks ``git``."""
    runinfo, forks = _fake_git(monkeypatch, ["f00d", "beef"])
    assert runinfo.git_sha(str(tmp_path)) == "f00d"
    assert runinfo.git_sha(str(tmp_path / ".")) == "f00d"
    assert forks == [str(tmp_path.resolve())]
    here = runinfo.git_sha()
    assert here == "beef"
    forks.clear()
    assert [_record(when=float(i))["git_sha"] for i in range(3)] == [here] * 3
    assert forks == []


def test_a_failed_git_read_is_retried(tmp_path, monkeypatch):
    """A timeout is not remembered: the next record reads the revision."""
    runinfo, forks = _fake_git(
        monkeypatch, [subprocess.TimeoutExpired("git", 5), OSError(), "f00d"]
    )
    assert runinfo.git_sha(str(tmp_path)) is None
    assert runinfo.git_sha(str(tmp_path)) is None
    assert runinfo.git_sha(str(tmp_path)) == "f00d"
    assert runinfo.git_sha(str(tmp_path)) == "f00d"
    assert len(forks) == 3


def test_outside_a_repository_git_is_asked_once(tmp_path, monkeypatch):
    """``git rev-parse`` that ran and said "not a repository" is an
    answer: later records in that directory fork nothing."""
    from repro.observability import runinfo

    forks = []

    def run(args, cwd=None, **_kw):
        forks.append(cwd)
        return subprocess.CompletedProcess(args, 128, stdout="")

    monkeypatch.setattr(runinfo, "_GIT_SHAS", {})
    monkeypatch.setattr(runinfo.subprocess, "run", run)
    assert [runinfo.git_sha(str(tmp_path)) for _ in range(3)] == [None] * 3
    assert forks == [str(tmp_path.resolve())]


def test_append_assigns_unique_ids_and_roundtrips(store):
    ids = {append_record(store, _record(when=i)) for i in range(5)}
    assert len(ids) == 5 and None not in ids
    ledger = RunLedger(store)
    assert len(ledger.records()) == 5
    got = ledger.get(sorted(ids)[0])
    assert got["schema"] == RUN_SCHEMA
    assert got["kind"] == "transform"
    assert got["app"] == "Fluam"


def test_records_sorted_oldest_first_and_filters(store):
    append_record(store, _record(app="Fluam", when=100.0))
    append_record(store, _record(app="Mini", when=200.0))
    append_record(store, _record(app="Fluam", when=300.0, exit_code=2))
    ledger = RunLedger(store)
    times = [r["unix_time"] for r in ledger.records()]
    assert times == sorted(times)
    assert [r["app"] for r in ledger.by_app("Mini")] == ["Mini"]
    assert len(ledger.list(app="Fluam")) == 2
    assert ledger.latest()["unix_time"] == 300.0
    assert len(ledger.list(limit=2)) == 2
    assert ledger.list(limit=2)[-1]["unix_time"] == 300.0


def test_ledger_accepts_root_path(tmp_path, store):
    append_record(store, _record())
    assert len(RunLedger(store.root).records()) == 1
    assert RunLedger(tmp_path / "empty").records() == []


def test_previous_matches_lineage_and_skips_failures(store):
    cfg = {"seed": 7, "mode": "automated"}
    append_record(store, _record(when=1.0, config=cfg))
    append_record(store, _record(when=2.0, config=cfg, exit_code=2))
    append_record(store, _record(when=3.0, config={"seed": 8}))
    rid = append_record(store, _record(when=4.0, config=cfg))
    ledger = RunLedger(store)
    current = ledger.get(rid)
    baseline = ledger.previous(current)
    # same config lineage, successful, most recent earlier run
    assert baseline["unix_time"] == 1.0
    # a lone record has no baseline
    first = ledger.records()[0]
    assert ledger.previous(first) is None


def test_resolve_latest_prev_and_prefix(store):
    a = append_record(store, _record(when=1.0))
    b = append_record(store, _record(when=2.0))
    ledger = RunLedger(store)
    assert ledger.resolve("latest")["run_id"] == b
    assert ledger.resolve("prev")["run_id"] == a
    assert ledger.resolve(a[:12])["run_id"] == a
    assert ledger.resolve("nope") is None


def test_corrupt_record_is_skipped_not_fatal(store):
    keep = append_record(store, _record(when=1.0))
    bad = append_record(store, _record(when=2.0))
    ledger = RunLedger(store)
    path = store.path_for(RUN_LEDGER_NAMESPACE, bad)
    path.write_text("{ not json")
    records = ledger.records()
    assert [r["run_id"] for r in records] == [keep]
    # the corrupt entry was quarantined by the store's validation
    assert not path.exists()


def test_wrong_schema_payload_is_skipped(store):
    append_record(store, _record())
    store.put(RUN_LEDGER_NAMESPACE, "f" * 64, {"schema": "other/1"})
    assert len(RunLedger(store).records()) == 1


# ------------------------------------------------------------ fuzz records


def test_build_fuzz_record_aggregates_report():
    report = {
        "campaign": {
            "seed_start": 0, "seed_end": 9, "seeds_run": 10,
            "oracles": ["transform"], "duration_seconds": 1.5,
            "stopped_early": False,
        },
        "summary": {
            "apps": 10, "failures": 2, "crashes": 1, "unbucketed": 0,
            "buckets": {"codegen:KeyError": 1},
        },
        "failures": [
            {"oracle": "transform"}, {"oracle": "transform"},
        ],
    }
    record = build_fuzz_record(report)
    assert record["kind"] == "fuzz"
    assert record["exit_code"] == 1
    fuzz = record["fuzz"]
    assert fuzz["seeds_run"] == 10
    assert fuzz["oracle_failures"] == {"transform": 2}
    assert fuzz["crash_buckets"] == {"codegen:KeyError": 1}
    clean = dict(report, summary=dict(report["summary"], failures=0,
                                      crashes=0))
    assert build_fuzz_record(clean)["exit_code"] == 0


def test_campaign_appends_ledger_record(tmp_path):
    root = tmp_path / "store"
    with telemetry(True):
        report = run_campaign(
            CampaignConfig(
                seed_start=0, seed_end=0, oracles=("transform",),
                reduce=False, store=True, store_root=str(root),
            )
        )
    records = RunLedger(root).list(kind="fuzz")
    assert len(records) == 1
    assert records[0]["fuzz"]["seeds_run"] == report["summary"]["apps"]


def test_campaign_skips_ledger_without_telemetry(tmp_path):
    root = tmp_path / "store"
    with telemetry(False):
        run_campaign(
            CampaignConfig(
                seed_start=0, seed_end=0, oracles=("transform",),
                reduce=False, store=True, store_root=str(root),
            )
        )
    assert RunLedger(root).records() == []


# ------------------------------------------------------------- concurrency


APPENDER = """
import sys
sys.path.insert(0, {src!r})
from repro.observability.ledger import append_record
from repro.observability.runinfo import build_run_record
from repro.store.artifact_store import ArtifactStore

store = ArtifactStore({root!r})
ok = 0
for n in range({rounds}):
    record = build_run_record(
        source="app:Fluam",
        config={{"seed": {writer}, "mode": "automated"}},
        stage_times={{"search": 0.1}},
        exit_code=0,
    )
    if append_record(store, record) is not None:
        ok += 1
print(ok)
"""

ROUNDS = 40


def _spawn_appender(root, writer_id):
    src = Path(__file__).resolve().parent.parent / "src"
    code = APPENDER.format(
        src=str(src), root=str(root), rounds=ROUNDS, writer=writer_id
    )
    return subprocess.Popen(
        [sys.executable, "-c", code],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env={"PATH": "/usr/bin:/bin"},
    )


def test_concurrent_appenders_never_lose_or_corrupt(tmp_path):
    root = tmp_path / "store"
    writers = [_spawn_appender(root, 0), _spawn_appender(root, 1)]
    ledger = RunLedger(root)

    # queries during the race must never raise
    deadline = time.monotonic() + 120
    while any(proc.poll() is None for proc in writers):
        ledger.records()
        ledger.latest()
        assert time.monotonic() < deadline, "appenders hung"

    for writer_id, proc in enumerate(writers):
        out, err = proc.communicate(timeout=60)
        assert proc.returncode == 0, (writer_id, err)
        assert int(out.strip()) == ROUNDS, (writer_id, out, err)

    records = ledger.records()
    assert len(records) == 2 * ROUNDS  # unique ids: nothing overwritten
    assert len({r["run_id"] for r in records}) == 2 * ROUNDS
    by_seed = {0: 0, 1: 0}
    for r in records:
        by_seed[r["config"]["seed"]] += 1
    assert by_seed == {0: ROUNDS, 1: ROUNDS}


# -------------------------------------------------- schema checker (CI)


def _complete_record():
    """A record of a run that went through every stage."""
    from repro.gpu import interpreter
    from repro.pipeline.stages import STAGES

    return build_run_record(
        source="app:Fluam",
        config={"seed": 1, "mode": "automated"},
        stage_times=dict.fromkeys(STAGES, 0.1),
        interpreter=interpreter.stats().as_dict(),
        front_door={"source_bytes": None, "load_s": 0.0, "memo": None},
        trace={"span_count": 0, "critical_path": [], "self_time_ms": {}},
    )


def test_check_telemetry_validates_ledger(tmp_path, store):
    append_record(store, _complete_record())
    script = Path(__file__).resolve().parent.parent / "scripts"
    result = subprocess.run(
        [sys.executable, str(script / "check_telemetry.py"),
         "--ledger", str(store.root)],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    assert "ledger ok (1 records)" in result.stdout

    # a record missing required fields must fail the check
    bad = dict(_complete_record())
    bad.pop("config_digest")
    rid = "a" * 64
    bad["run_id"] = rid
    store.put(RUN_LEDGER_NAMESPACE, rid, bad)
    result = subprocess.run(
        [sys.executable, str(script / "check_telemetry.py"),
         "--ledger", str(store.root)],
        capture_output=True, text=True,
    )
    assert result.returncode == 1
    assert "config_digest" in result.stderr
