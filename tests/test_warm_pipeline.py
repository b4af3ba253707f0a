"""Warm-vs-cold pipeline behavior of the persistent store (repro.store)."""

import json

import pytest

from repro.api import TransformConfig, transform
from repro.pipeline.cli import main as cli_main
from repro.search import fast_params
from repro.search.grouping import Grouping

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
    # and the writer writes the sparse format
    assert stage_cache._grouping_to_payload(individual) == {
        "split": sorted(individual.split),
        "fused": sorted(sorted(g) for g in individual.groups),
    }


def _bcalm_problem_and_individual(seed=3):
    """Half-scale B-CALM's problem and a random individual of it that
    splits a node and fuses groups."""
    import random

    from repro.analysis.filtering import identify_targets
    from repro.apps import build_app
    from repro.gpu.device import K20X
    from repro.gpu.profiler import gather_metadata
    from repro.search import build_problem, random_grouping

    program = build_app("B-CALM", scale=0.5).program
    meta = gather_metadata(program, K20X)
    problem = build_problem(program, meta, identify_targets(meta, K20X), K20X).problem
    rng = random.Random(seed)
    individual = next(
        ind
        for ind in (random_grouping(problem, rng) for _ in range(100))
        if ind.split and len(ind.groups) >= 2
    )
    return problem, individual


def test_sparse_payload_round_trips_to_an_equal_individual():
    from repro.store import stage_cache

    problem, individual = _bcalm_problem_and_individual()
    payload = stage_cache._grouping_to_payload(individual)
    assert set(payload) == {"split", "fused"}
    assert len(payload["fused"]) == len(individual.groups)
    loaded = stage_cache._grouping_from_payload(json.loads(json.dumps(payload)), problem)
    assert loaded == individual
    assert hash(loaded) == hash(individual)
    assert loaded.partition(problem) == individual.partition(problem)


def test_sparse_payload_that_is_no_individual_gives_no_seed(tmp_path):
    """Overlapping fused groups, a member outside the active set (a
    fragment of an unsplit node, or an unknown node) and a split node that
    is not fissionable each drop the entry; the valid one beside them
    still seeds."""
    from repro.gpu.device import K20X
    from repro.search import GAParams
    from repro.store import stage_cache
    from repro.store.artifact_store import ArtifactStore

    problem, individual = _bcalm_problem_and_individual()
    good = stage_cache._grouping_to_payload(individual)
    split, fused = good["split"], good["fused"]
    unsplit = sorted(set(problem.fragments_of) - individual.split)
    whole = [n for n in problem.whole_nodes() if n not in problem.fragments_of]
    bad = [
        # two fused groups share a member
        {"split": split, "fused": fused + [[fused[0][0], fused[1][0]]]},
        # a member that is not active: the whole form of a split node
        {"split": split, "fused": [[split[0], fused[0][0]]]},
        # a member that is no node of the problem
        {"split": split, "fused": [["no-such-node@0", fused[0][0]]]},
        # a split node that is not fissionable
        {"split": sorted(split + whole[:1]), "fused": fused},
    ]
    if unsplit:
        # a fragment of a node that is not split
        fragment = problem.fragments_of[unsplit[0]][0]
        bad.append({"split": split, "fused": [[fragment, fused[0][0]]]})
    for payload in bad:
        assert stage_cache._grouping_from_payload(payload, problem) is None, payload

    store = ArtifactStore(tmp_path / "store")
    params = GAParams()
    _, warm_key = stage_cache._search_keys(problem, K20X, params)
    store.put(stage_cache.NS_POPULATION, warm_key, {"population": bad + [good]})
    assert stage_cache.load_warm_start(store, problem, K20X, params) == [individual]


def test_population_entry_keeps_order_and_duplicates(tmp_path):
    """Generation 0 takes the seeds by position: a stored population loads
    as the same list, repeats included."""
    from repro.gpu.device import K20X
    from repro.search import GAParams, singleton_grouping
    from repro.search.gga import SearchResult
    from repro.store import stage_cache
    from repro.store.artifact_store import ArtifactStore

    problem, individual = _bcalm_problem_and_individual()
    other = _bcalm_problem_and_individual(seed=4)[1]
    identity = singleton_grouping(problem)
    population = [other, individual, other, identity, individual]
    result = SearchResult(
        best=individual, best_fitness=1.0, projected_time_s=1.0, history=[],
        generations_run=1, converged_at=0, avg_fissions_per_generation=0.0,
        evaluations=1, new_kernel_count=len(individual.partition(problem)),
    )
    store = ArtifactStore(tmp_path / "store")
    params = GAParams()
    stage_cache.save_search(store, problem, K20X, params, result, population)
    seeds = stage_cache.load_warm_start(store, problem, K20X, params)
    assert seeds == [individual] + population[:3] + [
        Grouping(identity.split, identity.groups)
    ] + population[4:]
