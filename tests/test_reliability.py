"""Fault injection, the degradation ladder and the verification gate.

Covers the reliability subsystem end to end: seam-spec parsing, fault-plan
determinism, precedence waves, direct ``verify_group`` verdicts, and — per
injectable seam — a full pipeline run asserting the affected group degrades
gracefully, the demotion lands in the stage report, and the final program
still verifies.
"""

import dataclasses
from types import SimpleNamespace

import pytest

from repro.cudalite import parse_program
from repro.errors import (
    AnalysisError,
    FaultInjectionError,
    OutOfBoundsError,
    ParseError,
    TransformError,
)
from repro.gpu.device import K20X
from repro.pipeline import Framework, PipelineConfig
from repro.pipeline.cli import main as cli_main
from repro.pipeline.stages import STAGE_FUNCTIONS
from repro.reliability import faults
from repro.reliability.degrade import LEVELS, DemotionRecord, fusion_waves
from repro.reliability.verify import (
    GroupVerdict,
    VerifyConfig,
    synthesize_inputs,
    verify_group,
)
from repro.search import fast_params
from repro.search.grouping import Grouping

from conftest import THREE_KERNEL_SRC


@pytest.fixture(autouse=True)
def clean_fault_state():
    faults.clear_plan()
    yield
    faults.clear_plan()


def small_params(seed=1):
    params = fast_params(seed=seed)
    params.population = 16
    params.generations = 15
    params.stall_generations = 6
    return params


def run_three_kernel(force_full_fusion=True, **config_kwargs):
    """Run the full pipeline on the three-kernel program.

    With ``force_full_fusion`` the search result is overridden with the
    one complex group ``{k1, k2, k3}`` so codegen deterministically walks
    the full ladder (complex → waves → singletons) under injection.
    """
    config = PipelineConfig(
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


# --------------------------------------------------------- seam-spec parsing


def test_parse_seam_specs_defaults():
    specs = faults.parse_seam_specs("codegen")
    assert set(specs) == {"codegen"}
    assert specs["codegen"].probability == 1.0
    assert specs["codegen"].max_fires is None
    assert specs["codegen"].only_visit is None


def test_parse_seam_specs_modifiers():
    specs = faults.parse_seam_specs("parse:0.5, codegen:x2, analysis:@3")
    assert specs["parse"].probability == 0.5
    assert specs["codegen"].max_fires == 2
    assert specs["analysis"].only_visit == 3


def test_parse_seam_specs_combined_modifiers():
    specs = faults.parse_seam_specs("codegen:0.25:x2")
    assert specs["codegen"].probability == 0.25
    assert specs["codegen"].max_fires == 2


def test_parse_seam_specs_rejects_unknown_seam():
    with pytest.raises(FaultInjectionError, match="unknown fault seam"):
        faults.parse_seam_specs("warp_divergence")


@pytest.mark.parametrize("spec", ("parse:abc", "codegen:x", "parse:1.5"))
def test_parse_seam_specs_rejects_malformed_modifiers(spec):
    with pytest.raises(FaultInjectionError, match="malformed|unknown"):
        faults.parse_seam_specs(spec)


# ------------------------------------------------- canonical seam registry


def test_known_seams_is_the_canonical_registry():
    import repro.reliability as reliability

    assert reliability.KNOWN_SEAMS is faults.KNOWN_SEAMS
    assert len(faults.KNOWN_SEAMS) == len(set(faults.KNOWN_SEAMS))
    for seam in ("parse", "analysis", "codegen", "interpreter", "store"):
        assert seam in faults.KNOWN_SEAMS


def test_programmatic_plan_rejects_typo_seam():
    # a typo'd seam must fail loudly at install time, not silently never fire
    with pytest.raises(FaultInjectionError, match="unknown fault seam"):
        faults.FaultPlan(
            seams={"codegne": faults.parse_seam_specs("codegen")["codegen"]}
        )


def test_check_rejects_typo_seam_even_without_a_plan():
    with pytest.raises(FaultInjectionError, match="unknown fault seam"):
        faults.check("codegne")


def test_poison_cache_value_rejects_typo_seam():
    with pytest.raises(FaultInjectionError, match="unknown fault seam"):
        faults.poison_cache_value("fitness_cahce")


# ------------------------------------------------------ fault-plan mechanics


def test_plan_fires_at_most_max_fires():
    plan = faults.FaultPlan(seams=faults.parse_seam_specs("codegen:x1"))
    fired = [plan.should_fire("codegen") for _ in range(6)]
    assert fired == [True, False, False, False, False, False]
    assert plan.counts()["codegen"] == (6, 1)


def test_plan_fires_on_designated_visit_only():
    plan = faults.FaultPlan(seams=faults.parse_seam_specs("parse:@3"))
    fired = [plan.should_fire("parse") for _ in range(5)]
    assert fired == [False, False, True, False, False]


def test_plan_probability_is_deterministic():
    draws = []
    for _ in range(2):
        plan = faults.FaultPlan(
            seams=faults.parse_seam_specs("analysis:0.5"), seed=7
        )
        draws.append([plan.should_fire("analysis") for _ in range(32)])
    assert draws[0] == draws[1]
    # a fair-ish coin: both outcomes occur in 32 draws
    assert any(draws[0]) and not all(draws[0])


def test_unconfigured_seam_never_fires():
    plan = faults.FaultPlan(seams=faults.parse_seam_specs("codegen"))
    assert not plan.should_fire("parse")
    assert "parse" not in plan.counts()


def test_plan_from_env():
    assert faults.plan_from_env({}) is None
    plan = faults.plan_from_env(
        {
            faults.ENV_FAULT_SEAMS: "codegen:x1",
            faults.ENV_FAULT_SEED: "42",
        }
    )
    assert plan is not None
    assert plan.seed == 42
    assert "codegen" in plan.seams


def test_active_plan_lazily_reads_environment(monkeypatch):
    monkeypatch.setenv(faults.ENV_FAULT_SEAMS, "interpreter")
    faults.clear_plan()  # forget the cached env lookup
    plan = faults.active_plan()
    assert plan is not None and "interpreter" in plan.seams


def test_install_plan_overrides_environment(monkeypatch):
    monkeypatch.setenv(faults.ENV_FAULT_SEAMS, "interpreter")
    plan = faults.FaultPlan(seams=faults.parse_seam_specs("codegen"))
    faults.install_plan(plan)
    assert faults.active_plan() is plan


def test_check_is_a_noop_without_a_plan():
    faults.check("codegen", "no plan installed")


@pytest.mark.parametrize(
    "seam,exc_type",
    [
        ("parse", ParseError),
        ("analysis", AnalysisError),
        ("codegen", TransformError),
        ("interpreter", OutOfBoundsError),
    ],
)
def test_check_raises_canonical_error(seam, exc_type):
    faults.install_plan(faults.FaultPlan(seams=faults.parse_seam_specs(seam)))
    with pytest.raises(exc_type, match="injected"):
        faults.check(seam, "unit test")


def test_check_rejects_hook_only_seams():
    faults.install_plan(
        faults.FaultPlan(seams=faults.parse_seam_specs("store"))
    )
    with pytest.raises(FaultInjectionError, match="dedicated hook"):
        faults.check("store")


# --------------------------------------------------------- degradation ladder


def test_levels_ordered_strongest_first():
    assert LEVELS == ("complex", "simple", "none")


def test_demotion_record_describe():
    record = DemotionRecord(
        members=("k1@0", "k2@1"),
        from_level="complex",
        to_level="simple",
        cause="injected codegen fault",
    )
    assert record.describe() == (
        "[k1@0,k2@1] complex->simple: injected codegen fault"
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


def test_verify_group_is_deterministic(gate_kernels):
    first = verify_group(
        _fused(gate_kernels["kt"]), [_binding(gate_kernels["kd"])], SHAPES
    )
    second = verify_group(
        _fused(gate_kernels["kt"]), [_binding(gate_kernels["kd"])], SHAPES
    )
    assert first == second


def test_verify_group_interpreter_fault_fails_candidate(gate_kernels):
    faults.install_plan(
        faults.FaultPlan(seams=faults.parse_seam_specs("interpreter"))
    )
    verdict = verify_group(
        _fused(gate_kernels["kd"]), [_binding(gate_kernels["kd"])], SHAPES
    )
    # the fault fires in the fused launch only — the baseline stays clean,
    # so the verdict is a definite fail, not inconclusive
    assert verdict.failed
    assert "injected interpreter OOB fault" in verdict.cause


def test_synthesize_inputs_independent_of_order():
    import numpy as np

    forward = synthesize_inputs(["B", "C"], SHAPES, {}, seed=0)
    backward = synthesize_inputs(["C", "B"], SHAPES, {}, seed=0)
    for name in ("B", "C"):
        assert np.array_equal(forward[name], backward[name])
    differently_seeded = synthesize_inputs(["B"], SHAPES, {}, seed=1)
    assert not np.array_equal(forward["B"], differently_seeded["B"])


# ----------------------------------------- pipeline-level fault injection


def install(spec, **kwargs):
    faults.install_plan(
        faults.FaultPlan(seams=faults.parse_seam_specs(spec), **kwargs)
    )


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
        state.config.device, state.metadata.array_shapes,
        options=state.config.fusion_options(),
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
    install("codegen")  # every fusion attempt fails
    framework, state = run_three_kernel()
    assert state.verified is True  # degraded program still correct
    transitions = [(d.from_level, d.to_level) for d in state.transform.demotions]
    assert ("complex", "simple") in transitions
    assert ("simple", "none") in transitions
    assert all(
        "injected codegen fault" in d.cause for d in state.transform.demotions
    )
    assert state.transform.degraded_groups  # nothing could be fused
    # every demotion is listed in the codegen stage report
    report = state.reports["codegen"]
    assert "demotions:" in report
    for demotion in state.transform.demotions:
        assert demotion.describe() in report
    assert "degraded groups" in framework.report()


def test_codegen_fault_on_first_attempt_degrades_to_waves():
    install("codegen:@1")  # only the complex attempt fails
    _, state = run_three_kernel()
    assert state.verified is True
    assert [
        (d.from_level, d.to_level) for d in state.transform.demotions
    ] == [("complex", "simple")]
    # the precedence waves were simple-fused successfully
    assert state.transform.new_kernel_count >= 1
    assert any(len(l.members) > 1 for l in state.transform.launches)
    assert not state.transform.degraded_groups


def test_parse_fault_demotes_and_recovers():
    install("parse:@1")  # first constituent re-parse fails
    _, state = run_three_kernel()
    assert state.verified is True
    assert state.transform.demotions
    assert any(
        "injected parse fault" in d.cause for d in state.transform.demotions
    )


def test_interpreter_fault_fails_gate_and_demotes():
    install("interpreter")  # every fused candidate run dies in the gate
    _, state = run_three_kernel()
    assert state.verified is True
    transitions = [(d.from_level, d.to_level) for d in state.transform.demotions]
    assert ("complex", "simple") in transitions
    assert ("simple", "none") in transitions
    assert any(
        "injected interpreter OOB fault" in d.cause
        for d in state.transform.demotions
    )
    # nothing that failed the gate reached the generated program
    assert all(len(l.members) == 1 for l in state.transform.launches)


def test_analysis_fault_falls_back_to_conservative_node():
    install("analysis:@1")
    _, state = run_three_kernel(force_full_fusion=False)
    assert state.verified is True
    assert len(state.built.analysis_failures) == 1
    node, cause = next(iter(state.built.analysis_failures.items()))
    assert "injected analysis fault" in cause
    assert "analyzed conservatively" in state.reports["search"]
    assert node in state.reports["search"]
    # the conservative node is fusion-ineligible, never part of a group
    for launch in state.transform.launches:
        if len(launch.members) > 1:
            assert node not in launch.members


def test_demotions_deterministic_across_runs():
    install("codegen")
    _, first = run_three_kernel()
    faults.clear_plan()
    install("codegen")
    _, second = run_three_kernel()
    assert first.transform.demotions == second.transform.demotions


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


def test_cli_degrades_under_env_configured_faults(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(faults.ENV_FAULT_SEAMS, "codegen")
    faults.clear_plan()  # let the CLI run pick the plan up from the env
    src = tmp_path / "prog.cu"
    src.write_text(THREE_KERNEL_SRC)
    out = tmp_path / "out.cu"
    rc = cli_main([str(src), "-o", str(out), "--seed", "1"])
    assert rc == 0  # graceful degradation, not an error
    captured = capsys.readouterr().out
    assert "demotions:" in captured
    assert "injected codegen fault" in captured
    assert out.exists()


def test_framework_tags_stage_on_escaping_errors(monkeypatch):
    def explode(state):
        raise AnalysisError("boom")

    monkeypatch.setitem(STAGE_FUNCTIONS, "metadata", explode)
    framework = Framework(
        parse_program(THREE_KERNEL_SRC),
        PipelineConfig(device=K20X, ga_params=small_params()),
    )
    with pytest.raises(AnalysisError) as excinfo:
        framework.run()
    assert excinfo.value.stage == "metadata"
