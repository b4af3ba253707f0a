"""The degradation ladder and the verification gate.

Covers the reliability subsystem end to end: precedence waves, direct
``verify_group`` verdicts, and — per rung of the fusion ladder — a full
pipeline run over a committed real input (``tests/corpus/rung-*.json``)
asserting the group slides down for its real cause, the demotion lands in
the stage report, and the final program still verifies.  Nothing is
injected: each rung is reached by a program the pipeline really fails to
fuse.
"""

import dataclasses
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.api import transform
from repro.cudalite import parse_program
from repro.errors import AnalysisError
from repro.gpu.device import K20X
from repro.config import TransformConfig
from repro.observability.metrics import reset_registry
from repro.observability.tracing import get_tracer
from repro.pipeline import Framework
from repro.pipeline.cli import main as cli_main
from repro.pipeline.stages import STAGE_FUNCTIONS
from repro.reliability.degrade import LEVELS, DemotionRecord, fusion_waves
from repro.reliability.verify import (
    GroupVerdict,
    VerifyConfig,
    synthesize_inputs,
    verify_group,
)
from repro.search import GAParams, fast_params
from repro.search.grouping import Grouping

from conftest import THREE_KERNEL_SRC

CORPUS = Path(__file__).resolve().parent / "corpus"


def small_params(seed=1):
    params = fast_params(seed=seed)
    params.population = 16
    params.generations = 15
    params.stall_generations = 6
    return params


def run_three_kernel(force_full_fusion=True, **config_kwargs):
    """Run the full pipeline on the three-kernel program.

    With ``force_full_fusion`` the search result is overridden with the
    one complex group ``{k1, k2, k3}``.
    """
    config = TransformConfig(
        device=K20X, ga_params=small_params(), verify=True, **config_kwargs
    )
    framework = Framework(parse_program(THREE_KERNEL_SRC), config)
    if force_full_fusion:
        full = Grouping(
            split=frozenset(),
            groups=(frozenset({"k1@0", "k2@1", "k3@2"}),),
        )

        def force(state):
            state.search = dataclasses.replace(state.search, best=full)

        framework.intervene("search", force)
    state = framework.run()
    return framework, state


# --------------------------------------------------------- degradation ladder


def test_levels_ordered_strongest_first():
    assert LEVELS == ("complex", "simple", "none")


def test_demotion_record_describe():
    record = DemotionRecord(
        members=("k1@0", "k2@1"),
        from_level="complex",
        to_level="simple",
        cause="kernel K_00: output mismatch on array 'C'",
    )
    assert record.describe() == (
        "[k1@0,k2@1] complex->simple: kernel K_00: output mismatch on array 'C'"
    )


def test_fusion_waves_diamond():
    # 0 and 1 feed 2, 2 feeds 3: waves are {0,1}, {2}, {3}
    assert fusion_waves(4, [(0, 2), (1, 2), (2, 3)]) == [[0, 1], [2], [3]]


def test_fusion_waves_no_edges_single_wave():
    assert fusion_waves(3, []) == [[0, 1, 2]]


def test_fusion_waves_chain_is_all_singletons():
    assert fusion_waves(3, [(0, 1), (1, 2)]) == [[0], [1], [2]]


def test_fusion_waves_never_places_an_edge_inside_a_wave():
    edges = [(0, 3), (1, 3), (3, 4), (2, 4)]
    for wave in fusion_waves(5, edges):
        for producer, consumer in edges:
            assert not (producer in wave and consumer in wave)


# ------------------------------------------------------ verification gate


DOUBLE_SRC = """
__global__ void kd(double *C, const double *B, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) { C[i] = B[i] * 2.0; }
}
__global__ void kt(double *C, const double *B, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) { C[i] = B[i] * 3.0; }
}
__global__ void oob(double *C, const double *B, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) { C[i] = B[i + 1]; }
}
"""

SHAPES = {"B": (16,), "C": (16,)}
GRID = (1, 1, 1)
BLOCK = (16, 1, 1)


def _binding(kernel):
    return SimpleNamespace(
        kernel=kernel,
        array_args=("C", "B"),
        scalar_values=(16.0,),
        grid=GRID,
        block=BLOCK,
    )


def _fused(kernel, members=("kd@0",)):
    return SimpleNamespace(
        kernel=kernel,
        pointer_args=("C", "B"),
        scalar_values=(16.0,),
        grid=GRID,
        block=BLOCK,
        constituents=members,
    )


@pytest.fixture
def gate_kernels():
    program = parse_program(DOUBLE_SRC + "int main() { return 0; }")
    return {k.name: k for k in program.kernels}


def test_verify_group_pass(gate_kernels):
    verdict = verify_group(
        _fused(gate_kernels["kd"]), [_binding(gate_kernels["kd"])], SHAPES
    )
    assert isinstance(verdict, GroupVerdict)
    assert verdict.passed and not verdict.failed
    assert verdict.members == ("kd@0",)


def test_verify_group_catches_wrong_codegen(gate_kernels):
    # the "fused" kernel triples where the constituent doubles
    verdict = verify_group(
        _fused(gate_kernels["kt"]), [_binding(gate_kernels["kd"])], SHAPES
    )
    assert verdict.failed
    assert "output mismatch on array 'C'" in verdict.cause
    assert "cells differ" in verdict.cause


def test_verify_group_missing_shape_is_inconclusive(gate_kernels):
    verdict = verify_group(
        _fused(gate_kernels["kd"]),
        [_binding(gate_kernels["kd"])],
        {"C": (16,)},  # no shape for B
    )
    assert verdict.status == "inconclusive"
    assert "no shape known" in verdict.cause and "B" in verdict.cause


def test_verify_group_broken_baseline_is_inconclusive(gate_kernels):
    # the constituents themselves cannot run: no evidence against fusion
    verdict = verify_group(
        _fused(gate_kernels["oob"]), [_binding(gate_kernels["oob"])], SHAPES
    )
    assert verdict.status == "inconclusive"
    assert "baseline execution failed" in verdict.cause


def test_verify_group_disabled_gate_passes(gate_kernels):
    verdict = verify_group(
        _fused(gate_kernels["kt"]),
        [_binding(gate_kernels["kd"])],
        SHAPES,
        config=VerifyConfig(enabled=False),
    )
    assert verdict.passed
    assert verdict.cause == "gate disabled"


def test_a_disabled_group_gate_is_skipped_not_passed():
    """With ``verify_groups=False`` no gate runs: the group keeps its
    fusion and is recorded as skipped, so ``run.json`` tells the two
    apart (``verify_group`` itself still passes a disabled gate, above)."""
    reset_registry()
    tracer = get_tracer()
    tracer.clear()
    result = transform(
        THREE_KERNEL_SRC, verify_groups=False, verify=False, store=False,
        telemetry=True,
    )
    verdicts = result.state.transform.group_verdicts
    assert verdicts and all(v.status == "skipped" for v in verdicts)
    assert not any(v.passed or v.failed for v in verdicts)
    assert all(v.cause == "gate disabled" for v in verdicts)
    assert tracer.find("verify:group") == []
    counters = result.record["counters"]
    assert "verify_group_verdicts_total" not in counters
    assert counters["verify_group_skips_total"] == len(verdicts)
    assert result.record["verification"]["group_gate_s"] == 0.0
    assert any(launch.fused is not None for launch in result.state.transform.launches)


def test_verify_group_is_deterministic(gate_kernels):
    first = verify_group(
        _fused(gate_kernels["kt"]), [_binding(gate_kernels["kd"])], SHAPES
    )
    second = verify_group(
        _fused(gate_kernels["kt"]), [_binding(gate_kernels["kd"])], SHAPES
    )
    assert first == second


def test_verify_group_interpreter_fault_fails_candidate(gate_kernels):
    verdict = verify_group(
        _fused(gate_kernels["oob"]), [_binding(gate_kernels["kd"])], SHAPES
    )
    # only the fused launch reads out of bounds — the baseline stays clean,
    # so the verdict is a definite fail, not inconclusive
    assert verdict.failed
    assert verdict.cause.startswith("fused execution failed: ")
    assert "out of [0, 16)" in verdict.cause


def test_synthesize_inputs_independent_of_order():
    import numpy as np

    forward = synthesize_inputs(["B", "C"], SHAPES, {}, seed=0)
    backward = synthesize_inputs(["C", "B"], SHAPES, {}, seed=0)
    for name in ("B", "C"):
        assert np.array_equal(forward[name], backward[name])
    differently_seeded = synthesize_inputs(["B"], SHAPES, {}, seed=1)
    assert not np.array_equal(forward["B"], differently_seeded["B"])


# ------------------------------------------------- the ladder, real inputs

_OOB = "kernel K_00: fused execution failed: "

#: corpus entry -> its demotions, in order: (from, to, cause prefix)
RUNGS = {
    "rung-complex-simple": [
        ("complex", "simple", _OOB), ("simple", "none", _OOB)
    ],
    "rung-simple-none": [("simple", "none", _OOB)],
    "rung-complex-none": [
        ("complex", "none", "cross-segment producer/consumer on 'a02'")
    ],
    "rung-identity": [
        ("complex", "simple", "kernel K_00: output mismatch on array "),
        ("simple", "none", "whole-program verification mismatch"),
    ],
}


def run_rung(slug):
    """Transform the corpus entry ``slug`` with the recipe it was drawn
    with; returns the pipeline state."""
    entry = json.loads((CORPUS / f"{slug}.json").read_text())
    seed = entry["seed"]
    return transform(
        parse_program(entry["source"]),
        store=False,
        seed=seed,
        # the item-5 sweep recipe the entries were drawn with
        ga_params=GAParams(population=10, generations=6, seed=seed),
        telemetry=False,
    ).state


def assert_rung(state, slug):
    demotions = state.transform.demotions
    assert len(demotions) == len(RUNGS[slug])
    for d, (from_level, to_level, cause) in zip(demotions, RUNGS[slug]):
        assert (d.from_level, d.to_level) == (from_level, to_level)
        assert d.cause.startswith(cause), d.cause
    assert state.verified is True  # the degraded program is still correct
    # every demotion is listed in the codegen stage report
    report = state.reports["codegen"]
    assert "demotions:" in report
    for demotion in demotions:
        assert demotion.describe() in report


def test_no_faults_no_demotions():
    _, state = run_three_kernel()
    assert state.verified is True
    assert state.transform.demotions == []
    assert state.transform.degraded_groups == []
    assert all(v.passed for v in state.transform.group_verdicts)
    assert state.speedup > 1.0


def test_group_gate_demotes_a_real_misfusion_of_full_scale_fluam():
    """The per-group gate is not idle on the paper apps: at full scale
    the seed-20150615 search of Fluam proposes this group, whose complex
    fusion serves ``F003``'s read of the *old* ``v05`` from the tile
    ``F022`` fills with the *new* one (ROADMAP item 5).  Only the gate
    stands between that kernel and the emitted program, and it names the
    one group to demote."""
    from repro.api import transform
    from repro.apps import build_app
    from repro.pipeline.apply import materialize
    from repro.search.grouping import singleton_grouping

    state = transform(
        build_app("Fluam").program, ga_params=small_params(), store=False,
        until="search", telemetry=False,
    ).state
    problem = state.built.problem
    group = frozenset(
        {"F003@3", "F017@17", "F021@21", "F022@22", "F023@23", "F029@29"}
    )
    rest = tuple(
        g for g in singleton_grouping(problem).partition(problem) if not g & group
    )
    result = materialize(
        state.program, problem, state.built.bindings,
        Grouping(frozenset(), (group,) + rest),
        state.config.device_spec(), state.metadata.array_shapes,
        options=state.fusion,
    )
    (demotion,) = result.demotions
    assert set(demotion.members) == group
    assert (demotion.from_level, demotion.to_level) == ("complex", "simple")
    assert "output mismatch on array 'v19'" in demotion.cause
    # the per-wave simple fusions of the same members pass the same gate
    assert [v.status for v in result.group_verdicts] == ["pass", "pass"]
    assert {m for v in result.group_verdicts for m in v.members} == {
        node.split("@")[0] for node in group
    }


def test_codegen_fault_walks_the_whole_ladder():
    """The complex fusion runs out of bounds in its gate, and so does the
    simple fusion of one of its waves: that wave runs unfused."""
    state = run_rung("rung-complex-simple")
    assert_rung(state, "rung-complex-simple")
    complex_, wave = state.transform.demotions
    assert set(wave.members) < set(complex_.members)
    fused = [l.members for l in state.transform.launches if len(l.members) > 1]
    assert fused and not set(fused[0]) & set(wave.members)


def test_codegen_fault_on_first_attempt_degrades_to_waves():
    """After the complex attempt fails, the precedence waves are fused
    one by one, and a wave that passes its gate ships fused."""
    state = run_rung("rung-complex-simple")
    complex_ = state.transform.demotions[0]
    assert (complex_.from_level, complex_.to_level) == ("complex", "simple")
    assert any(len(l.members) > 1 for l in state.transform.launches)
    assert not state.transform.degraded_groups


def test_infeasible_complex_fusion_demotes_to_none():
    """A cross-segment producer/consumer with a halo cannot be fused
    complex, and the group falls straight to unfused launches."""
    state = run_rung("rung-complex-none")
    assert_rung(state, "rung-complex-none")
    (demotion,) = state.transform.demotions
    assert tuple(demotion.members) in state.transform.degraded_groups
    assert "fusion infeasible" in demotion.cause


def test_interpreter_fault_fails_gate_and_demotes():
    """A simple fusion whose fused kernel runs out of bounds fails its
    gate; nothing that failed the gate reaches the generated program."""
    state = run_rung("rung-simple-none")
    assert_rung(state, "rung-simple-none")
    (demotion,) = state.transform.demotions
    assert "out of [0, 16)" in demotion.cause
    assert state.transform.degraded_groups == [tuple(demotion.members)]
    assert all(len(l.members) == 1 for l in state.transform.launches)


def test_whole_program_mismatch_falls_back_to_identity():
    """Each group passes its gate at some rung, yet the fused program's
    output differs from the original's: the identity program ships."""
    state = run_rung("rung-identity")
    assert_rung(state, "rung-identity")
    assert "fell back to identity program" in state.reports["codegen"]
    assert all(len(l.members) == 1 for l in state.transform.launches)


def test_demotions_deterministic_across_runs():
    for slug in RUNGS:
        first, second = run_rung(slug), run_rung(slug)
        assert first.transform.demotions, slug  # the input stopped demoting
        assert first.transform.demotions == second.transform.demotions, slug


# ------------------------------------------------------------ CLI behaviour


def test_cli_reports_parse_error_in_one_line(tmp_path, capsys):
    bad = tmp_path / "bad.cu"
    bad.write_text("__global__ void k(double *A { }")
    rc = cli_main([str(bad)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("repro-transform: ")
    assert "Error" in err
    assert "Traceback" not in err


def test_cli_names_the_failing_stage(tmp_path, capsys, monkeypatch):
    def explode(state):
        raise AnalysisError("synthetic stage failure")

    monkeypatch.setitem(STAGE_FUNCTIONS, "graphs", explode)
    src = tmp_path / "prog.cu"
    src.write_text(THREE_KERNEL_SRC)
    rc = cli_main([str(src)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "repro-transform: AnalysisError [stage: graphs]:" in err
    assert "synthetic stage failure" in err


def test_cli_degrades_on_a_demoting_program(tmp_path, capsys):
    entry = json.loads((CORPUS / "rung-simple-none.json").read_text())
    src = tmp_path / "prog.cu"
    src.write_text(entry["source"])
    params = tmp_path / "ga.json"
    params.write_text(
        f"population = 10\ngenerations = 6\nseed = {entry['seed']}\n"
    )
    out = tmp_path / "out.cu"
    rc = cli_main([str(src), "-o", str(out), "--ga-params", str(params)])
    assert rc == 0  # graceful degradation, not an error
    captured = capsys.readouterr().out
    assert "demotions:" in captured
    assert "simple->none: kernel K_00: fused execution failed: " in captured
    assert out.exists()


def test_framework_tags_stage_on_escaping_errors(monkeypatch):
    def explode(state):
        raise AnalysisError("boom")

    monkeypatch.setitem(STAGE_FUNCTIONS, "metadata", explode)
    framework = Framework(
        parse_program(THREE_KERNEL_SRC),
        TransformConfig(device=K20X, ga_params=small_params()),
    )
    with pytest.raises(AnalysisError) as excinfo:
        framework.run()
    assert excinfo.value.stage == "metadata"
