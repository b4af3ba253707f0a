"""A warm run recomputes nothing the store already holds — gated on counts.

Two things a store-served run used to redo:

* the program projections (``project_baseline`` / ``project_transformed``)
  and the program-verdict key, pure functions of objects the store's
  memory tier shares: computed once per served object and held on it;
* the counted run behind ``model_validation.json``: the counters of the
  gate's run are stored beside the program verdict, under its key, so a
  run served the verdict is served the counters too
  (``verification.counters_from == "stored"``).  A counted re-run happens
  only when neither exists, and is timed (``observability.counters_s``).
"""

import json
from pathlib import Path

import pytest

from repro.api import transform
from repro.apps import build_app
from repro.cudalite import unparse
from repro.pipeline import apply, stages
from repro.store import stage_cache
from repro.store.artifact_store import MEMORY_TIER, ArtifactStore

from conftest import forced_transform
from test_cold_path_counts import APP_SCALE, PINNED_GA_SEED

SOURCE = unparse(build_app("MITgcm", scale=APP_SCALE).program)


@pytest.fixture(autouse=True)
def _isolated(monkeypatch):
    monkeypatch.delenv("REPRO_STORE", raising=False)
    MEMORY_TIER.clear()
    yield
    MEMORY_TIER.clear()


@pytest.fixture
def calls(monkeypatch):
    """Counts of ``project_kernel`` calls and whole-program runs."""
    counts = {"project_kernel": 0, "run_program": 0}

    def spy(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    spy(apply, "project_kernel")
    spy(stages, "run_program")
    return counts


def _run(root, workdir=None, **overrides):
    return transform(
        SOURCE, store=True, store_root=str(root), seed=PINNED_GA_SEED,
        workdir=None if workdir is None else str(workdir), **overrides,
    )


def _counter_files(root):
    return sorted((Path(root) / "v1" / stage_cache.NS_PROGRAM_COUNTERS).rglob("*.json"))


def test_a_repeat_projects_nothing(tmp_path, calls):
    root = tmp_path / "store"
    cold = _run(root)
    first = _run(root)  # disk-served: a new problem and materialization
    assert calls["project_kernel"] > 0
    calls["project_kernel"] = 0
    second = _run(root)
    assert calls["project_kernel"] == 0
    assert second.state.baseline_projection is first.state.baseline_projection
    assert second.state.transformed_projection is first.state.transformed_projection
    assert second.record["outcome"] == first.record["outcome"] == cold.record["outcome"]


def test_a_warm_run_is_served_its_counters(tmp_path, calls):
    root = tmp_path / "store"
    cold = _run(root, tmp_path / "cold")
    assert cold.state.verification["counters_from"] == "verify"
    assert len(_counter_files(root)) == 1
    MEMORY_TIER.clear()  # as a fresh process would
    calls["run_program"] = 0

    warm = _run(root, tmp_path / "warm")
    assert calls["run_program"] == 0
    record = json.loads((tmp_path / "warm" / "run.json").read_text())
    assert record["verification"]["counters_from"] == "stored"
    assert sum(record["interpreter"]["launches_by_executor"].values()) == 0
    assert record["observability"]["counters_s"] == 0.0
    assert warm.reused["verify_program"] == "verdict"
    for name in ("model_validation.json", "model_validation.txt", "transformed.cu"):
        assert (tmp_path / "warm" / name).read_bytes() == (
            tmp_path / "cold" / name
        ).read_bytes(), name
    assert record["outcome"] == cold.record["outcome"]


def test_a_corrupt_counters_entry_is_counted_again_and_restored(tmp_path, calls):
    root = tmp_path / "store"
    _run(root, tmp_path / "cold")
    (path,) = _counter_files(root)
    envelope = json.loads(path.read_text())
    envelope["sha256"] = "0" * len(envelope["sha256"])
    path.write_text(json.dumps(envelope))
    calls["run_program"] = 0

    warm = _run(root, tmp_path / "warm")
    assert calls["run_program"] == 1  # the counted re-run, not a gate
    assert warm.state.verification["counters_from"] == "rerun"
    record = json.loads((tmp_path / "warm" / "run.json").read_text())
    assert record["observability"]["counters_s"] > 0.0
    assert (tmp_path / "warm" / "model_validation.json").read_bytes() == (
        tmp_path / "cold" / "model_validation.json"
    ).read_bytes()
    # stored again: the next run is served
    assert _counter_files(root) == [path]
    assert ArtifactStore(root).get(stage_cache.NS_PROGRAM_COUNTERS, path.stem)
    again = _run(root, tmp_path / "again")
    assert again.state.verification["counters_from"] == "stored"


def test_a_served_verdict_without_counters_reruns_once(tmp_path, calls):
    """A store filled without a workdir holds the verdict but no counters:
    the first run that writes reports counts, and stores what it counted."""
    root = tmp_path / "store"
    _run(root)
    assert _counter_files(root) == []
    calls["run_program"] = 0
    first = _run(root, tmp_path / "first")
    assert first.state.verification["counters_from"] == "rerun"
    assert calls["run_program"] == 1
    assert len(_counter_files(root)) == 1
    second = _run(root, tmp_path / "second")
    assert second.state.verification["counters_from"] == "stored"
    assert calls["run_program"] == 1
    assert (tmp_path / "first" / "model_validation.json").read_bytes() == (
        tmp_path / "second" / "model_validation.json"
    ).read_bytes()


@pytest.mark.parametrize("mode", ["loop", "batched"])
def test_a_forced_executor_reads_and_writes_no_counters(tmp_path, mode):
    root = tmp_path / "store"
    # gate-free, so only stored counters could spare the counted run
    forced = forced_transform(
        SOURCE, mode, store=True, store_root=str(root), seed=PINNED_GA_SEED,
        verify=False, workdir=str(tmp_path / "forced"),
    )
    assert forced.state.verification["counters_from"] == "rerun"
    assert _counter_files(root) == []

    _run(root, tmp_path / "cold")
    (path,) = _counter_files(root)
    stored = path.read_bytes()
    forced = forced_transform(
        SOURCE, mode, store=True, store_root=str(root), seed=PINNED_GA_SEED,
        verify=False, workdir=str(tmp_path / "forced-warm"),
    )
    assert forced.state.verification["counters_from"] == "rerun"
    assert _counter_files(root) == [path] and path.read_bytes() == stored
