"""Stored gate verdicts (``repro.store.stage_cache``): failures beside passes.

A gate's verdict is a function of its key, so the store keeps every one
— a group's fail / inconclusive with its cause, a whole program's
mismatch or execution failure — and a warm run re-executes no gate.  A
cold run, a disk-served warm run and a warm run in a fresh process must
emit the same program with the same demotions.  Only ``auto`` reads or
writes verdicts: a forced executor runs every gate.
"""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api import transform
from repro.cudalite import parse_program, unparse
from repro.errors import PipelineError
from repro.fuzz.appgen import generate_app
from repro.pipeline import apply, stages
from repro.search.params import GAParams
from repro.store import stage_cache
from repro.store.artifact_store import MEMORY_TIER, ArtifactStore

from conftest import forced_transform

SRC = Path(__file__).resolve().parents[1] / "src"

#: fuzz seed -> a demotion cause the seed's group gate reaches
#: (ROADMAP item 5's recipe: GAParams(population=10, generations=6, seed=s))
DEMOTING = {10: "fused execution failed", 55: "output mismatch"}
#: a fuzz seed whose transformed program fails the whole-program gate
PROGRAM_MISMATCH = 123
#: fuzz seed -> demotions of a fresh ``auto`` run, whose racy fusions a
#: forced ``batched`` gate passes (its blocks run in lockstep)
BATCHED_PASSES = {65: 1, 111: 2, 171: 2}


@pytest.fixture(autouse=True)
def _isolated(monkeypatch):
    monkeypatch.delenv("REPRO_STORE", raising=False)
    MEMORY_TIER.clear()
    yield
    MEMORY_TIER.clear()


def _source(seed):
    return unparse(generate_app(seed).program)


def _config(seed, root, **overrides):
    return dict(
        seed=seed,
        ga_params=GAParams(population=10, generations=6, seed=seed),
        store=root is not None,
        store_root=None if root is None else str(root),
        telemetry=False,
        **overrides,
    )


def _outcome(result):
    """What a stored verdict must not change."""
    return {
        "source": result.source,
        "speedup": result.speedup,
        "verified": result.verified,
        "demotions": [
            [list(d.members), d.from_level, d.to_level, d.cause]
            for d in result.state.transform.demotions
        ],
    }


@pytest.fixture
def gate_calls(monkeypatch):
    """Counts of the group gate's and the whole-program gate's executions."""
    calls = {"verify_group": 0, "run_program": 0}

    def spy(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(apply, "verify_group", spy("verify_group", apply.verify_group))
    monkeypatch.setattr(stages, "run_program", spy("run_program", stages.run_program))
    return calls


def _reset(calls):
    for name in calls:
        calls[name] = 0


_FRESH_PROCESS = """
import json, sys
from repro import api
from repro.pipeline import apply
from repro.search.params import GAParams
calls = []
real = apply.verify_group
apply.verify_group = lambda *a, **k: calls.append(1) or real(*a, **k)
seed = int(sys.argv[2])
r = api.transform(open(sys.argv[1]).read(), seed=seed,
                  ga_params=GAParams(population=10, generations=6, seed=seed),
                  store=True, store_root=sys.argv[3], telemetry=False)
print(json.dumps({"outcome": {
    "source": r.source, "speedup": r.speedup, "verified": r.verified,
    "demotions": [[list(d.members), d.from_level, d.to_level, d.cause]
                  for d in r.state.transform.demotions]},
    "verify_group_calls": len(calls),
    "verdicts_reused": r.state.verification["verdicts_reused"]}))
"""


def _fresh_process(tmp_path, seed, root):
    path = tmp_path / "app.cu"
    path.write_text(_source(seed))
    done = subprocess.run(
        [sys.executable, "-c", _FRESH_PROCESS, str(path), str(seed),
         str(root)],
        capture_output=True, text=True, check=True,
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def _stored(root, namespace, field):
    """``field`` of every verdict stored in ``namespace`` under ``root``."""
    store = ArtifactStore(root)
    return sorted(
        store.get(namespace, path.stem)[field]
        for path in (Path(root) / "v1" / namespace).rglob("*.json")
    )


def _stored_group_statuses(root):
    return _stored(root, stage_cache.NS_VERIFIED_GROUPS, "status")


def _stored_verdicts(root):
    return [
        _stored(root, namespace, field)
        for namespace, field in (
            (stage_cache.NS_VERIFIED_GROUPS, "status"),
            (stage_cache.NS_VERIFIED_PROGRAMS, "outcome"),
        )
    ]


# ------------------------------------------------------------ group verdicts


@pytest.mark.parametrize("seed", sorted(DEMOTING))
def test_a_failed_group_verdict_is_served_cold_disk_and_fresh_process(
    tmp_path, gate_calls, seed
):
    """The warm runs demote the same groups with the same cause text and
    run no gate."""
    root = tmp_path / "store"
    source = _source(seed)
    cold = transform(source, **_config(seed, root))
    assert any(DEMOTING[seed] in d.cause for d in cold.state.transform.demotions)
    assert _outcome(cold) == _outcome(transform(source, **_config(seed, None)))
    assert gate_calls["verify_group"] > 0
    assert "fail" in _stored_group_statuses(root)

    _reset(gate_calls)
    MEMORY_TIER.clear()  # disk-served, as every service worker is
    disk = transform(source, **_config(seed, root))
    assert _outcome(disk) == _outcome(cold)
    assert gate_calls == {"verify_group": 0, "run_program": 0}
    reused = disk.state.verification["verdicts_reused"]
    assert reused["fail"] > 0 and reused["program"] == 1
    assert disk.reused["verify_groups"] == (
        f"{reused['pass'] + reused['fail'] + reused['inconclusive']} groups"
    )

    fresh = _fresh_process(tmp_path, seed, root)
    assert fresh["verify_group_calls"] == 0
    assert fresh["outcome"] == json.loads(json.dumps(_outcome(cold)))
    assert fresh["verdicts_reused"] == reused


@pytest.mark.parametrize("seed", sorted(DEMOTING))
@pytest.mark.parametrize("mode", ["loop", "batched"])
def test_a_forced_executor_reads_and_writes_no_verdict(
    tmp_path, gate_calls, seed, mode
):
    """Against an ``auto``-written store a forced run runs every gate,
    reaches the same demotions and leaves the store's verdicts as they
    were; on an empty store it writes none."""
    root = tmp_path / "store"
    source = _source(seed)
    cold = transform(source, **_config(seed, root))
    stored = _stored_verdicts(root)

    _reset(gate_calls)
    forced = forced_transform(source, mode, **_config(seed, root))
    assert _outcome(forced) == _outcome(cold)
    assert gate_calls["verify_group"] > 0 and gate_calls["run_program"] > 0
    assert set(forced.state.verification["verdicts_reused"].values()) == {0}
    assert "verify_groups" not in forced.reused
    assert _stored_verdicts(root) == stored

    empty = tmp_path / "empty"
    forced_transform(source, mode, **_config(seed, empty))
    assert _stored_verdicts(empty) == [[], []]


@pytest.mark.parametrize("seed", sorted(BATCHED_PASSES))
def test_a_forced_batched_pass_never_reaches_auto(tmp_path, seed):
    """Forced ``batched`` passes these racy fusions; an ``auto`` run after
    it against the same store, in process and disk-served, demotes them
    exactly as a fresh ``auto`` run does."""
    root = tmp_path / "store"
    source = _source(seed)
    fresh = transform(source, **_config(seed, None))
    assert len(fresh.state.transform.demotions) == BATCHED_PASSES[seed]
    assert all(
        "output mismatch" in d.cause for d in fresh.state.transform.demotions
    )
    batched = forced_transform(source, "batched", **_config(seed, root))
    assert batched.state.transform.demotions == []
    assert _outcome(transform(source, **_config(seed, root))) == _outcome(fresh)
    MEMORY_TIER.clear()
    assert _outcome(transform(source, **_config(seed, root))) == _outcome(fresh)


def _with_thread_invariant_oob(fuse_kernels):
    """``fuse_kernels`` whose kernels open with a thread-invariant read one
    past the end of their first array, in a kernel with shared memory: the
    per-block loop and the batched lattice both name the first block."""

    def fuse(name, constituents, block, array_shapes, **kwargs):
        fused = fuse_kernels(name, constituents, block, array_shapes, **kwargs)
        extent, *rest = array_shapes[fused.pointer_args[0]]
        read = f"{fused.kernel.params[0].name}[q]" + "[0]" * len(rest)
        text = unparse(fused.kernel).replace(
            "{",
            "{ __shared__ double spare[1];"
            f" for (int q = 0; q <= {extent}; q++) {{ double oob = {read}; }}",
            1,
        )
        return dataclasses.replace(fused, kernel=parse_program(text).kernels[0])

    return fuse


def test_every_executor_reaches_the_same_failure(tmp_path, gate_calls, monkeypatch):
    """Every executor reaches the same failure with the same cause text;
    a failure stored under ``auto`` serves a later ``auto`` run, while a
    ``loop`` run reaches it again."""
    monkeypatch.setattr(
        apply, "fuse_kernels", _with_thread_invariant_oob(apply.fuse_kernels)
    )
    root, seed = tmp_path / "store", 17
    source = _source(seed)
    fresh = {
        mode: _outcome(forced_transform(source, mode, **_config(seed, None)))
        for mode in ("auto", "loop")
    }
    assert fresh["auto"] == fresh["loop"]
    assert any(" at block (0, 0, 0)" in d[3] for d in fresh["auto"]["demotions"])

    cold = transform(source, **_config(seed, root))
    assert _outcome(cold) == fresh["auto"]

    def warm(mode):
        """(failures served, gates run) of a disk-served run under ``mode``."""
        _reset(gate_calls)
        MEMORY_TIER.clear()
        result = forced_transform(source, mode, **_config(seed, root))
        assert _outcome(result) == fresh[mode]
        return result.state.verification["verdicts_reused"]["fail"], dict(gate_calls)

    no_gates = {"verify_group": 0, "run_program": 0}
    assert warm("auto") == (1, no_gates)
    served, gates = warm("loop")
    assert served == 0 and gates["verify_group"] > 0


def test_a_demoting_repeat_is_served_by_the_memory_tier(tmp_path, gate_calls):
    """With its failures on disk a demoting program's materialization has
    no store miss, so an in-process repeat is a memory-tier hit."""
    root, seed = tmp_path / "store", 10
    source = _source(seed)
    transform(source, **_config(seed, root))
    disk = transform(source, **_config(seed, root))
    memory = transform(source, **_config(seed, root))
    assert memory.state.transform is disk.state.transform
    assert _outcome(memory) == _outcome(disk)


# --------------------------------------------------------- program verdicts


def test_a_stored_whole_program_mismatch_is_served(tmp_path, gate_calls):
    root, seed = tmp_path / "store", PROGRAM_MISMATCH
    source = _source(seed)
    cold = transform(source, **_config(seed, root))
    causes = [d.cause for d in cold.state.transform.demotions]
    assert stages.MISMATCH in causes and cold.verified is True
    assert cold.state.verification["program_runs"] == 4  # two paired runs

    _reset(gate_calls)
    MEMORY_TIER.clear()
    warm = transform(source, **_config(seed, root))
    # no paired run: the mismatch and the identity fallback's own verdict
    # both came from the store
    assert gate_calls == {"verify_group": 0, "run_program": 0}
    assert warm.state.verification["program_runs"] == 0
    assert warm.state.verification["verdicts_reused"]["program"] == 2
    assert warm.reused["verify_program"] == "verdict"
    assert _outcome(warm) == _outcome(cold)
    assert "; verification reused from store; fell back to identity program" in (
        warm.reports["codegen"]
    )

    _reset(gate_calls)
    MEMORY_TIER.clear()
    loop = forced_transform(source, "loop", **_config(seed, root))
    assert gate_calls["run_program"] > 0
    assert loop.state.verification["verdicts_reused"]["program"] == 0
    assert _outcome(loop) == _outcome(cold)


def test_a_stored_program_failure_raises_under_fail_hard(tmp_path):
    root, seed = tmp_path / "store", PROGRAM_MISMATCH
    source = _source(seed)
    transform(source, **_config(seed, root))
    MEMORY_TIER.clear()
    with pytest.raises(PipelineError, match="does not match the original"):
        transform(source, **_config(seed, root, fail_hard=True))
