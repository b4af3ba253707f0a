"""The artifact store's memory tier (``repro.store.artifact_store``).

A repeat served from memory must be indistinguishable from one served
from disk: same emitted program, reports and ``reused`` provenance.  The
disk stays the source of truth — a deleted, corrupted or wiped entry
falls through to today's disk behaviour — and a served object is never
mutated, so a programmer's edit cannot reach a later run.
"""

import json
import shutil
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.api import transform
from repro.cudalite import parse_program, unparse
from repro.pipeline.framework import Framework
from repro.pipeline.stages import PipelineConfig
from repro.reliability import faults
from repro.search import fast_params
from repro.store import artifact_store, stage_cache
from repro.store.artifact_store import MEMORY_TIER, ArtifactStore, MemoryTier

from conftest import THREE_KERNEL_SRC

SRC = Path(__file__).resolve().parents[1] / "src"


def small_params(seed=1):
    params = fast_params(seed=seed)
    params.population = 16
    params.generations = 15
    params.stall_generations = 6
    return params


@pytest.fixture(autouse=True)
def _isolated(monkeypatch):
    """No ambient store or fault plan, and an empty tier per test."""
    monkeypatch.delenv("REPRO_STORE", raising=False)
    faults.clear_plan()
    MEMORY_TIER.clear()
    yield
    faults.clear_plan()
    MEMORY_TIER.clear()


def _run(root, seed=1, **overrides):
    """One pipeline run against ``root``; returns (state, its store).

    Read-only, as ``repro.api.transform`` runs it: the state holds what
    the store served, so tests can tell a tier hit by identity."""
    store = ArtifactStore(root)
    config = PipelineConfig(
        ga_params=small_params(seed), store=store, **overrides
    )
    state = Framework(
        parse_program(THREE_KERNEL_SRC), config, read_only=True
    ).run()
    return state, store


def _outcome(result):
    return {
        "source": result.source,
        "reports": result.reports,
        "reused": result.reused,
    }


# ------------------------------------------------------------- equivalence


_FRESH_PROCESS_REPEAT = """
import json, sys
from repro.api import transform
from repro.search import fast_params
params = fast_params(seed=1)
params.population, params.generations, params.stall_generations = 16, 15, 6
r = transform(sys.argv[1], ga_params=params, store=True, store_root=sys.argv[2],
              telemetry=False)
print(json.dumps({"source": r.source, "reports": r.reports, "reused": r.reused}))
"""


def test_memory_served_repeat_equals_a_disk_served_repeat(tmp_path):
    config = dict(
        ga_params=small_params(), store=True,
        store_root=str(tmp_path / "store"), telemetry=False,
    )
    transform(THREE_KERNEL_SRC, **config)  # cold: fills the disk only
    disk = transform(THREE_KERNEL_SRC, **config)  # decodes, fills the tier
    memory = transform(THREE_KERNEL_SRC, **config)
    # served from memory: the very objects the disk-served repeat decoded
    assert memory.state.metadata is disk.state.metadata
    assert memory.state.transform is disk.state.transform
    assert memory.state.built is disk.state.built

    source = tmp_path / "app.cu"
    source.write_text(THREE_KERNEL_SRC)
    fresh = subprocess.run(
        [sys.executable, "-c", _FRESH_PROCESS_REPEAT, str(source),
         str(tmp_path / "store")],
        capture_output=True, text=True, check=True,
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
    )
    other = json.loads(fresh.stdout.strip().splitlines()[-1])
    assert json.dumps(_outcome(memory), sort_keys=True) == json.dumps(
        other, sort_keys=True
    )
    assert _outcome(disk) == _outcome(memory)
    assert set(memory.reused) == {
        "metadata", "targets", "graphs", "search", "verify_groups",
        "tuning", "verify_program",
    }


def test_stats_count_tier_hits_as_hits(tmp_path):
    root = tmp_path / "store"
    _run(root)
    _, disk = _run(root)
    assert disk.stats.memory_hits == 0 and disk.stats.hits > 0
    _, memory = _run(root)
    stats = memory.stats.as_dict()
    assert stats["memory_hits"] > 0 and stats["bytes_read"] == 0
    for namespace in ("metadata", "targets", "graphs", "search",
                      "verified_programs", "built_problems", "materialized"):
        row = stats["namespaces"][namespace]
        assert row["hits"] == row["memory_hits"] == 1, namespace
    assert stats["hits"] == stats["memory_hits"]
    assert stats["misses"] == stats["memory_misses"] == 0


def test_a_disk_served_run_reports_no_store_miss(tmp_path):
    """The memory-only entries a disk-served run looks for are not on
    disk by design: their absence is a memory miss, not a store miss."""
    root = tmp_path / "store"
    _run(root)
    _, disk = _run(root)
    assert disk.stats.misses == 0
    assert disk.stats.memory_misses == 2  # the built problem, the program
    assert "built_problems" not in disk.stats.namespaces
    assert disk.stats.hit_rate == 1.0


# ------------------------------------------------------------------ cold


def test_store_false_never_touches_the_tier(tmp_path):
    root = tmp_path / "store"
    _run(root)
    _run(root)
    filled = len(MEMORY_TIER)
    assert filled > 0
    MEMORY_TIER.clear()
    result = transform(
        THREE_KERNEL_SRC, ga_params=small_params(), store=False,
        telemetry=False,
    )
    assert result.reused == {} and len(MEMORY_TIER) == 0


def test_a_fresh_root_is_cold(tmp_path):
    _run(tmp_path / "a")
    _run(tmp_path / "a")
    state, store = _run(tmp_path / "b")
    assert state.reused == {}
    assert store.stats.hits == store.stats.memory_hits == 0


# ------------------------------------------------ the disk is the truth


def _metadata_entry(store, state):
    from repro.pipeline.stages import _metadata_store_key

    return store.path_for(stage_cache.NS_METADATA, _metadata_store_key(state))


def test_a_deleted_entry_falls_through_to_the_disk(tmp_path):
    root = tmp_path / "store"
    _run(root)
    reference, store = _run(root)
    _metadata_entry(store, reference).unlink()
    state, store = _run(root)
    assert "metadata" not in state.reused
    assert store.stats.namespaces["metadata"]["misses"] == 1
    assert state.metadata is not reference.metadata
    # nothing derived from the old metadata was served either
    assert state.built is not reference.built
    assert state.transform is not reference.transform
    assert state.targets is reference.targets  # its own file is unchanged
    assert state.reports["codegen"] == reference.reports["codegen"]


def test_a_corrupted_entry_is_quarantined_as_today(tmp_path):
    root = tmp_path / "store"
    _run(root)
    reference, store = _run(root)
    entry = _metadata_entry(store, reference)
    entry.write_text("{ not json")
    state, store = _run(root)
    assert store.stats.invalid == 1
    assert "metadata" not in state.reused
    assert state.metadata is not reference.metadata
    assert entry.is_file()  # quarantined, then re-written by the cold stage
    assert state.reports["codegen"] == reference.reports["codegen"]


def test_wipe_makes_the_next_run_cold(tmp_path):
    root = tmp_path / "store"
    _run(root)
    _run(root)
    ArtifactStore(root).wipe()
    state, store = _run(root)
    assert state.reused == {}
    assert store.stats.memory_hits == 0


def test_poison_recovery_fires_on_a_served_read(tmp_path):
    root = tmp_path / "store"
    _run(root)
    reference, _ = _run(root)
    faults.install_plan(
        faults.FaultPlan(seams=faults.parse_seam_specs("store:x1"))
    )
    state, store = _run(root)
    assert store.stats.invalid == 1
    assert "metadata" not in state.reused
    assert state.metadata is not reference.metadata
    assert state.reports["codegen"] == reference.reports["codegen"]


def _degraded_warm_run(root, seams):
    """A disk-served run under the fault plan ``seams``; returns its state."""
    faults.install_plan(faults.FaultPlan(seams=faults.parse_seam_specs(seams)))
    try:
        return _run(root)[0]
    finally:
        faults.clear_plan()


@pytest.mark.parametrize("seams", ["analysis:x1", "codegen:x1", "parse:x1"])
def test_a_run_under_a_fault_plan_leaves_nothing_in_the_tier(tmp_path, seams):
    """A seam that fires while a problem or program is derived degrades
    it; a later clean run must be served what a disk-served one gets."""
    root = tmp_path / "store"
    _run(root)
    degraded = _degraded_warm_run(root, seams)
    assert degraded.built.analysis_failures or degraded.transform.demotions
    clean, store = _run(root)
    assert store.stats.memory_misses == 2  # nothing was remembered
    assert clean.built is not degraded.built
    assert clean.transform is not degraded.transform
    assert not clean.built.analysis_failures
    assert not clean.transform.demotions
    MEMORY_TIER.clear()
    disk, _ = _run(root)
    for name in ("reused", "reports"):
        assert getattr(clean, name) == getattr(disk, name), name
    assert unparse(clean.transform.program) == unparse(disk.transform.program)


def test_a_run_under_a_fault_plan_is_not_served_memory_only_entries(tmp_path):
    """Seams visit problem building on a disk-served run, so a faulted
    run must build the problem itself, not take a clean one from memory."""
    root = tmp_path / "store"
    _run(root)
    reference, _ = _run(root)
    _run(root)  # the tier now holds the clean problem and program
    degraded = _degraded_warm_run(root, "analysis:x1")
    assert degraded.built is not reference.built
    assert degraded.built.analysis_failures


# ------------------------------------------------------------ immutability


def test_an_edit_between_until_and_from_stage_stays_private(tmp_path):
    root = tmp_path / "store"
    _run(root)
    reference, _ = _run(root)
    edges = set(reference.oeg.edges)

    config = PipelineConfig(ga_params=small_params(), store=ArtifactStore(root))
    framework = Framework(parse_program(THREE_KERNEL_SRC), config)
    state = framework.run(until="graphs")
    assert state.oeg is not reference.oeg  # handed out as a copy
    state.oeg.add_edge("k2@1", "k1@0", dep="USER", array="")
    state.metadata.performance.clear()
    edited = framework.run(from_stage="search")
    assert edited.built is not reference.built
    for launch in edited.transform.launches:
        assert not {"k1@0", "k2@1"} <= set(launch.members)

    repeat, _ = _run(root)
    assert set(repeat.oeg.edges) == edges
    assert repeat.metadata.performance
    assert repeat.reused == reference.reused
    assert repeat.reports == reference.reports
    assert repeat.transform is reference.transform


def test_an_edit_after_a_full_run_stays_private(tmp_path):
    """``Framework.run()`` hands the programmer copies too, so a USER
    edge added after a full run and a ``run(from_stage="search")``
    cannot reach the next repeat."""
    root = tmp_path / "store"
    _run(root)
    _run(root)
    reference, _ = _run(root)
    edges = set(reference.oeg.edges)

    config = PipelineConfig(ga_params=small_params(), store=ArtifactStore(root))
    framework = Framework(parse_program(THREE_KERNEL_SRC), config)
    state = framework.run()
    assert state.oeg is not reference.oeg
    assert state.metadata is not reference.metadata
    state.oeg.add_edge("k2@1", "k1@0", dep="USER", array="")
    edited = framework.run(from_stage="search")
    for launch in edited.transform.launches:
        assert not {"k1@0", "k2@1"} <= set(launch.members)

    repeat, _ = _run(root)
    assert set(repeat.oeg.edges) == edges
    assert repeat.transform is reference.transform
    MEMORY_TIER.clear()
    disk, _ = _run(root)
    for name in ("reused", "reports"):
        assert getattr(repeat, name) == getattr(disk, name), name
    assert unparse(repeat.transform.program) == unparse(disk.transform.program)


def test_an_intervention_sees_copies(tmp_path):
    root = tmp_path / "store"
    _run(root)
    reference, _ = _run(root)
    config = PipelineConfig(ga_params=small_params(), store=ArtifactStore(root))
    seen = []
    framework = Framework(parse_program(THREE_KERNEL_SRC), config)
    framework.intervene("targets", lambda state: seen.append(state.targets))
    framework.run()
    assert seen and seen[0] is not reference.targets
    assert framework.state.built is not reference.built  # not derived


# ------------------------------------------------------------------ bound


def test_the_tier_evicts_least_recently_used_slots(tmp_path):
    tier = MemoryTier(capacity=2)
    path = tmp_path / "entry"
    path.write_text("x")
    deps = ((str(path), artifact_store._stamp(path.stat())),)
    for name in ("a", "b", "c"):
        tier.put(("root", "ns", name), deps, name)
    assert len(tier) == 2
    assert tier.get(("root", "ns", "a")) is None
    assert tier.get(("root", "ns", "c"))[1] == "c"
    path.write_text("changed")
    assert tier.get(("root", "ns", "c")) is None  # its file moved on


def test_the_tier_stays_bounded_under_concurrent_use(tmp_path):
    """Threads filling and reading one small tier: it never holds more
    than its capacity and never serves one slot's value for another."""
    import threading

    tier = MemoryTier(capacity=8)
    path = tmp_path / "entry"
    path.write_text("x")
    deps = ((str(path), artifact_store._stamp(path.stat())),)
    wrong = []

    def worker(offset):
        for i in range(400):
            slot = ("root", "ns", str((offset + i) % 24))
            tier.put(slot, deps, slot[2])
            entry = tier.get(slot)
            if entry is not None and entry[1] != slot[2]:
                wrong.append(slot)
            if len(tier) > 8:
                wrong.append("over capacity")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=worker, args=(k,)) for k in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not wrong and len(tier) <= 8


def test_the_bound_holds_through_the_store(tmp_path, monkeypatch):
    monkeypatch.setattr(artifact_store, "MEMORY_TIER", MemoryTier(capacity=1))
    store = ArtifactStore(tmp_path / "store")
    for key in ("a" * 64, "b" * 64):
        store.put("metadata", key, {"k": key})
        store.get_decoded("metadata", key, dict)
    assert len(artifact_store.MEMORY_TIER) == 1
    store.get_decoded("metadata", "a" * 64, dict)  # evicted: from disk
    store.get_decoded("metadata", "a" * 64, dict)  # now from memory
    assert store.stats.memory_hits == 1
    assert store.stats.hits == 4


# ----------------------------------------------------------------- search


def _search_outcome(search):
    """Everything a search returns except wall-clock readings, as JSON:
    with the pre-filter off, the result's and every generation row's
    ``surrogate_rank_correlation`` is NaN, which only compares equal as
    text."""
    record = asdict(search)
    record.pop("wall_time_s")
    for row in record["history"]:
        row.pop("elapsed_s")
    return json.dumps(record, sort_keys=True, default=repr)


def test_a_reseed_on_a_served_problem_searches_as_a_cold_one(tmp_path):
    root = tmp_path / "store"
    config = dict(ga_params=small_params(), store=True, store_root=str(root),
                  telemetry=False)
    transform(THREE_KERNEL_SRC, **config)
    transform(THREE_KERNEL_SRC, **config)
    repeat = transform(THREE_KERNEL_SRC, **config)
    # a first reseed leaves its memos on the served problem
    reseeded = dict(config, ga_params=small_params(seed=2))
    first = transform(THREE_KERNEL_SRC, until="search", **reseeded)
    assert first.state.built is repeat.state.built

    shutil.copytree(root, tmp_path / "copy")  # same disk, a cold tier
    again = dict(config, ga_params=small_params(seed=3))
    warm = transform(THREE_KERNEL_SRC, until="search", **again)
    assert warm.state.built is repeat.state.built
    cold = transform(
        THREE_KERNEL_SRC, until="search",
        **dict(again, store_root=str(tmp_path / "copy")),
    )
    assert cold.state.built is not repeat.state.built
    assert warm.reused == cold.reused
    assert _search_outcome(warm.state.search) == _search_outcome(
        cold.state.search
    )
