"""The ``repro-obs`` CLI: list/show/diff/regress.

Exercises the acceptance criteria of the observability PR end to end
against a crafted ledger: a clean repeat exits 0, an injected slowdown
exits 3, ``diff`` surfaces per-namespace store traffic and stage deltas,
and bench mode gates committed ``BENCH_*.json`` floors.
"""

import json

import pytest

from repro.observability.cli import (
    EXIT_ERROR,
    EXIT_OK,
    EXIT_REGRESSION,
    main,
)
from repro.observability.ledger import append_record, build_transform_record
from repro.store.artifact_store import ArtifactStore


@pytest.fixture
def root(tmp_path):
    return tmp_path / "store"


def _append(root, *, app="Fluam", when, search=1.0, codegen=0.5,
            speedup=1.4, exit_code=0, hits=4, misses=1, seed=1):
    record = build_transform_record(
        source=f"app:{app}",
        config={"seed": seed, "mode": "automated"},
        seed=seed,
        stage_times={"search": search, "codegen": codegen},
        speedup=speedup,
        verified=True,
        demotions=0,
        exit_code=exit_code,
        reused={},
        store_stats={
            "hits": hits, "misses": misses,
            "hit_rate": hits / max(1, hits + misses),
            "namespaces": {
                "search": {"hits": hits, "misses": misses, "writes": 1,
                           "bytes_read": 512, "bytes_written": 256},
            },
        },
        counters={"pipeline_stage_runs_total": 5.0},
        trace={"span_count": 2,
               "critical_path": [{"name": "stage:search",
                                  "duration_ms": search * 1000.0}],
               "self_time_ms": {"stage:search": search * 1000.0}},
    )
    record["unix_time"] = when
    return append_record(ArtifactStore(root), record)


# -------------------------------------------------------------------- list


def test_list_newest_first(root, capsys):
    a = _append(root, when=1.0)
    b = _append(root, when=2.0)
    assert main(["--store", str(root), "list"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.index(b[:10]) < out.index(a[:10])


def test_list_empty_ledger(root, capsys):
    assert main(["--store", str(root), "list"]) == EXIT_OK
    assert "no records" in capsys.readouterr().err


# -------------------------------------------------------------------- show


def test_show_latest_prints_record_and_critical_path(root, capsys):
    _append(root, when=1.0)
    assert main(["--store", str(root), "show"]) == EXIT_OK
    out = capsys.readouterr().out
    assert '"kind": "transform"' in out
    assert "critical path:" in out
    assert "stage:search" in out


def test_show_unknown_run_is_an_error(root, capsys):
    _append(root, when=1.0)
    assert main(["--store", str(root), "show", "feedfeed"]) == EXIT_ERROR
    assert "no ledger record matches" in capsys.readouterr().err


def test_show_trace_waterfall(root, tmp_path, capsys):
    trace = {
        "traceEvents": [
            {"name": "stage:search", "ph": "X", "pid": 1, "tid": 1,
             "ts": 0.0, "dur": 1000.0,
             "args": {"span_id": 1, "parent_id": None}},
        ]
    }
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(trace))
    assert main(["show", "--trace", str(path)]) == EXIT_OK
    assert "stage:search" in capsys.readouterr().out


# -------------------------------------------------------------------- diff


def test_diff_shows_stage_deltas_and_store_traffic(root, capsys):
    _append(root, when=1.0, search=1.0, hits=2)
    _append(root, when=2.0, search=1.5, hits=9)
    assert main(["--store", str(root), "diff"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "stage wall time:" in out
    assert "+0.500" in out  # search slowdown a -> b
    assert "store traffic by namespace" in out
    assert "hits     2 -> 9" in out


# ------------------------------------------------------------------ regress


def test_regress_ok_on_clean_repeat(root, capsys):
    _append(root, when=1.0)
    _append(root, when=2.0)
    assert main(["--store", str(root), "regress"]) == EXIT_OK
    assert "no regression detected" in capsys.readouterr().out


def test_regress_fires_on_injected_slowdown(root, capsys):
    _append(root, when=1.0, search=1.0, codegen=0.5)
    _append(root, when=2.0, search=3.0, codegen=1.5)
    assert main(["--store", str(root), "regress"]) == EXIT_REGRESSION
    captured = capsys.readouterr()
    assert "REGRESSED" in captured.out
    assert "REGRESSION" in captured.err


def test_regress_respects_threshold(root):
    _append(root, when=1.0, search=1.0)
    _append(root, when=2.0, search=3.0)
    args = ["--store", str(root), "regress", "--threshold", "4.0"]
    assert main(args) == EXIT_OK


def test_regress_min_seconds_ignores_tiny_deltas(root):
    # 3x ratio but only 3ms absolute: below the 50ms floor
    _append(root, when=1.0, search=0.001, codegen=0.001)
    _append(root, when=2.0, search=0.003, codegen=0.003)
    assert main(["--store", str(root), "regress"]) == EXIT_OK


def test_regress_first_run_has_no_baseline(root, capsys):
    _append(root, when=1.0)
    assert main(["--store", str(root), "regress"]) == EXIT_OK
    assert "no baseline in the ledger yet" in capsys.readouterr().out


def test_regress_skips_failed_baselines(root):
    _append(root, when=1.0, search=1.0)
    _append(root, when=2.0, search=0.1, exit_code=2)  # crashed: not a baseline
    _append(root, when=3.0, search=1.1)
    assert main(["--store", str(root), "regress"]) == EXIT_OK


def test_regress_app_filter(root, capsys):
    _append(root, when=1.0, app="Mini", seed=2, search=1.0)
    _append(root, when=2.0, app="Fluam", search=9.0)
    _append(root, when=3.0, app="Mini", seed=2, search=1.0)
    args = ["--store", str(root), "regress", "--app", "Mini"]
    assert main(args) == EXIT_OK


# --------------------------------------------------------------- bench mode


def _bench(tmp_path, name, total_ms):
    path = tmp_path / name
    path.write_text(json.dumps({
        "suite": {"pipeline": {"total_ms": total_ms, "runs": 3}},
    }))
    return str(path)


def test_regress_bench_mode_gates_floors(root, tmp_path, capsys):
    baseline = _bench(tmp_path, "BENCH_base.json", 100.0)
    slow = _bench(tmp_path, "fresh_slow.json", 200.0)
    args = ["regress", "--bench-baseline", baseline,
            "--bench-current", slow]
    assert main(args) == EXIT_REGRESSION
    assert "total_ms" in capsys.readouterr().out

    fine = _bench(tmp_path, "fresh_ok.json", 110.0)
    args = ["regress", "--bench-baseline", baseline,
            "--bench-current", fine]
    assert main(args) == EXIT_OK


def test_regress_bench_mode_needs_both_files(tmp_path, capsys):
    baseline = _bench(tmp_path, "BENCH_base.json", 100.0)
    args = ["regress", "--bench-baseline", baseline]
    assert main(args) == EXIT_ERROR
    assert "needs both" in capsys.readouterr().err


def test_regress_bench_missing_file_is_an_error(tmp_path, capsys):
    baseline = _bench(tmp_path, "BENCH_base.json", 100.0)
    args = ["regress", "--bench-baseline", baseline,
            "--bench-current", str(tmp_path / "absent.json")]
    assert main(args) == EXIT_ERROR
