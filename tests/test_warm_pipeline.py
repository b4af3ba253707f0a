"""Warm-vs-cold pipeline behavior of the persistent store (repro.store)."""

import json

import pytest

from repro.api import TransformConfig, transform
from repro.pipeline.cli import main as cli_main
from repro.search import fast_params

from conftest import THREE_KERNEL_SRC


def small_params(seed=1):
    params = fast_params(seed=seed)
    params.population = 16
    params.generations = 15
    params.stall_generations = 6
    return params


@pytest.fixture(autouse=True)
def _isolated(monkeypatch):
    """Keep these tests hermetic: no ambient store."""
    monkeypatch.delenv("REPRO_STORE", raising=False)


def _run(tmp_path, seed=1, **overrides):
    config = TransformConfig(
        ga_params=small_params(seed=seed),
        store=True,
        store_root=str(tmp_path / "store"),
        telemetry=False,
        **overrides,
    )
    return transform(THREE_KERNEL_SRC, config)


# ---------------------------------------------------------------- warm/cold


def test_warm_run_is_bit_identical_and_reuses_every_stage(tmp_path):
    cold = _run(tmp_path)
    assert cold.reused == {}
    assert cold.verified is True

    warm = _run(tmp_path)
    assert warm.source == cold.source  # bit-identical output
    assert warm.verified is True
    assert warm.reused.get("metadata") == "profile"
    assert warm.reused.get("targets") == "filter"
    assert warm.reused.get("graphs") == "ddg+oeg"
    assert warm.reused.get("search") == "result"
    assert "verify_program" in warm.reused


def test_warm_start_with_different_seed(tmp_path):
    """A changed GA seed misses the exact key but warm-starts the search."""
    _run(tmp_path, seed=1)
    warm = _run(tmp_path, seed=2)
    assert warm.verified is True
    reuse = warm.reused.get("search", "")
    assert reuse.startswith("warm-start:"), warm.reused


def test_old_population_entry_with_fitness_list_loads_cleanly(tmp_path):
    """Entries written before the second fitness cache was deleted carry
    its dump beside the seeds; the dump is ignored, the seeds still load."""
    import json

    from repro.store.artifact_store import ArtifactStore
    from repro.store.stage_cache import NS_POPULATION

    _run(tmp_path, seed=1)
    store = ArtifactStore(tmp_path / "store")
    (path,) = (tmp_path / "store").rglob(f"{NS_POPULATION}/*/*.json")
    envelope = json.loads(path.read_text())
    payload = envelope["payload"]
    seeds = len(payload["population"])
    violations = dict(
        unfusable=0, non_convex=1, unrealizable=0, smem_over=0, relaxable=0
    )
    payload["fitness"] = [["ab" * 32, 12.5, violations], ["garbage"]]
    assert store.put(NS_POPULATION, envelope["key"], payload)

    warm = _run(tmp_path, seed=2)
    assert warm.verified is True
    assert warm.reused.get("search") == f"warm-start:{seeds} seeds"
    assert "cached evaluations" not in warm.report


def test_config_change_invalidates_only_downstream_stages(tmp_path):
    _run(tmp_path)
    # different exclusions -> targets/graphs/search recompute, but the
    # (program, device) metadata profile still hits
    warm = _run(tmp_path, exclude=("k2",))
    assert warm.reused.get("metadata") == "profile"
    assert "targets" not in warm.reused
    assert "graphs" not in warm.reused


def test_store_disabled_records_nothing(tmp_path):
    result = transform(
        THREE_KERNEL_SRC,
        TransformConfig(
            ga_params=small_params(), store=False, telemetry=False
        ),
    )
    assert result.reused == {}
    assert not (tmp_path / "store").exists()


# ------------------------------------------------------------- degradation


def test_poisoned_store_degrades_to_cold_run(tmp_path):
    cold = _run(tmp_path)
    store_dir = tmp_path / "store"
    poisoned = 0
    for path in store_dir.rglob("*.json"):
        path.write_text("{ corrupted beyond repair")
        poisoned += 1
    assert poisoned > 0

    warm = _run(tmp_path)
    # all reuse degraded away, output identical, no exception escaped
    assert warm.reused == {}
    assert warm.source == cold.source
    assert warm.verified is True


def test_store_fault_seam_degrades_to_cold_run(tmp_path):
    """Every stored envelope is well-formed JSON whose checksum no longer
    matches its payload: each read at the store seam is rejected and the
    warm run degrades to a cold one with the same output."""
    cold = _run(tmp_path)
    tampered = 0
    for path in (tmp_path / "store").rglob("*.json"):
        envelope = json.loads(path.read_text())
        envelope["sha256"] = "0" * len(envelope["sha256"])
        path.write_text(json.dumps(envelope))
        tampered += 1
    assert tampered > 0

    warm = _run(tmp_path)
    assert warm.reused == {}
    assert warm.source == cold.source
    assert warm.verified is True


# -------------------------------------------------------------------- CLI


def test_cli_store_flags(tmp_path, capsys):
    source = tmp_path / "prog.cu"
    source.write_text(THREE_KERNEL_SRC)
    store_root = tmp_path / "store"
    out1, out2 = tmp_path / "a.cu", tmp_path / "b.cu"
    wd1, wd2 = tmp_path / "wd1", tmp_path / "wd2"

    rc = cli_main(
        [str(source), "-o", str(out1), "--seed", "1",
         "--store", str(store_root), "--workdir", str(wd1)]
    )
    capsys.readouterr()
    assert rc == 0
    cold_manifest = json.loads((wd1 / "run.json").read_text())
    assert cold_manifest["store"]["enabled"] is True
    assert cold_manifest["reused_stages"] == {}

    rc = cli_main(
        [str(source), "-o", str(out2), "--seed", "1",
         "--store", str(store_root), "--workdir", str(wd2)]
    )
    capsys.readouterr()
    assert rc == 0
    assert out1.read_text() == out2.read_text()
    warm_manifest = json.loads((wd2 / "run.json").read_text())
    reused = warm_manifest["reused_stages"]
    assert reused.get("search") == "result"
    assert warm_manifest["store"]["stats"]["hits"] > 0


def test_cli_no_store_wins(tmp_path, capsys, monkeypatch):
    source = tmp_path / "prog.cu"
    source.write_text(THREE_KERNEL_SRC)
    monkeypatch.setenv("REPRO_STORE", str(tmp_path / "env-store"))
    rc = cli_main(
        [str(source), "--seed", "1", "--no-store", "--until", "targets",
         "--workdir", str(tmp_path / "wd")]
    )
    capsys.readouterr()
    assert rc == 0
    manifest = json.loads((tmp_path / "wd" / "run.json").read_text())
    assert manifest["store"]["enabled"] is False
    assert not (tmp_path / "env-store").exists()


def test_poisoned_store_cli_exit_zero(tmp_path, capsys):
    """Acceptance: corrupted store -> exit 0, identical output."""
    source = tmp_path / "prog.cu"
    source.write_text(THREE_KERNEL_SRC)
    store_root = tmp_path / "store"
    out1, out2 = tmp_path / "a.cu", tmp_path / "b.cu"
    rc = cli_main(
        [str(source), "-o", str(out1), "--seed", "1", "--store",
         str(store_root), "--no-telemetry"]
    )
    capsys.readouterr()
    assert rc == 0
    for path in store_root.rglob("*.json"):
        path.write_text("garbage")
    rc = cli_main(
        [str(source), "-o", str(out2), "--seed", "1", "--store",
         str(store_root), "--no-telemetry"]
    )
    capsys.readouterr()
    assert rc == 0
    assert out1.read_text() == out2.read_text()


# ------------------------------------------------ stored individuals' format


def test_full_partition_payload_loads_as_its_sparse_seed(tmp_path):
    """Stored individuals list every group, singletons included; one loads
    as a warm-start seed equal to (and hashing like) the individual, which
    keeps its fused groups only.  A payload that is not a whole partition
    of the problem is dropped."""
    import random

    from repro.analysis.filtering import identify_targets
    from repro.apps import build_app
    from repro.gpu.device import K20X
    from repro.gpu.profiler import gather_metadata
    from repro.search import GAParams, build_problem, random_grouping
    from repro.store import stage_cache
    from repro.store.artifact_store import ArtifactStore

    program = build_app("B-CALM", scale=0.5).program
    meta = gather_metadata(program, K20X)
    problem = build_problem(program, meta, identify_targets(meta, K20X), K20X).problem
    rng = random.Random(3)
    individual = next(
        ind
        for ind in (random_grouping(problem, rng) for _ in range(100))
        if ind.split and ind.groups
    )
    full = sorted(sorted(g) for g in individual.partition(problem))
    assert any(len(g) == 1 for g in full)
    payload = {"split": sorted(individual.split), "groups": full}
    short = {"split": payload["split"], "groups": full[1:]}

    store = ArtifactStore(tmp_path / "store")
    params = GAParams()
    _, warm_key = stage_cache._search_keys(problem, K20X, params)
    store.put(stage_cache.NS_POPULATION, warm_key, {"population": [payload, short]})
    seeds = stage_cache.load_warm_start(store, problem, K20X, params)
    assert seeds == [individual]
    assert hash(seeds[0]) == hash(individual)
    assert seeds[0].groups == individual.groups
    assert all(len(g) > 1 for g in seeds[0].groups)
    # and the writer keeps the full format
    assert stage_cache._grouping_to_payload(individual, problem) == payload
