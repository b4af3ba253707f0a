"""End-to-end pipeline / framework / CLI tests."""

import pytest

from repro.apps import build_app
from repro.config import TransformConfig
from repro.cudalite import parse_program
from repro.errors import PipelineError, SearchError
from repro.gpu.device import K20X
from repro.pipeline import Framework
from repro.pipeline.cli import main as cli_main
from repro.search import fast_params
from repro.transform.fusion import FusionOptions

from conftest import SEPARABLE_SRC, THREE_KERNEL_SRC


def small_params(seed=1):
    params = fast_params(seed=seed)
    params.population = 16
    params.generations = 15
    params.stall_generations = 6
    return params


@pytest.fixture
def framework(three_kernel_program):
    config = TransformConfig(device=K20X, ga_params=small_params(), verify=True)
    return Framework(three_kernel_program, config)


def test_full_run_verified(framework):
    state = framework.run()
    assert state.verified is True
    assert state.speedup > 1.0
    assert state.transform is not None
    assert state.transform.new_kernel_count >= 1


def test_stage_reports_populated(framework):
    framework.run()
    for stage in ("metadata", "targets", "graphs", "search", "codegen"):
        assert stage in framework.state.reports
    text = framework.report()
    assert "== codegen ==" in text
    assert "projected speedup" in text


def test_run_until(three_kernel_program):
    fw = Framework(
        three_kernel_program,
        TransformConfig(device=K20X, ga_params=small_params()),
    )
    state = fw.run(until="graphs")
    assert state.ddg is not None
    assert state.oeg is not None
    assert state.search is None


def test_run_from_requires_prerequisites(three_kernel_program):
    fw = Framework(
        three_kernel_program,
        TransformConfig(device=K20X, ga_params=small_params()),
    )
    with pytest.raises(PipelineError):
        fw.run(from_stage="search")


def test_run_resumes_from_stage(three_kernel_program):
    fw = Framework(
        three_kernel_program,
        TransformConfig(device=K20X, ga_params=small_params(), verify=False),
    )
    fw.run(until="graphs")
    state = fw.run(from_stage="search")
    assert state.transform is not None


def test_unknown_stage_rejected(framework):
    with pytest.raises(PipelineError):
        framework.run_stage("nonsense")


def test_intervention_called(three_kernel_program):
    seen = []

    def record(state):
        seen.append(sorted(state.targets.targets))

    fw = Framework(
        three_kernel_program,
        TransformConfig(device=K20X, ga_params=small_params(), verify=False),
    )
    fw.intervene("targets", record)
    fw.run(until="targets")
    assert seen == [["k1", "k2", "k3"]]


def test_intervention_can_amend_targets(three_kernel_program):
    """Programmer-guided transformation: manually exclude a kernel."""

    def exclude_k2(state):
        state.targets.decisions["k2"].eligible = False
        state.targets.decisions["k2"].reason = "excluded by hand"

    fw = Framework(
        three_kernel_program,
        TransformConfig(device=K20X, ga_params=small_params(), verify=True),
    )
    fw.intervene("targets", exclude_k2)
    state = fw.run()
    for launch in state.transform.launches:
        if len(launch.members) > 1:
            assert not any(m.startswith("k2@") for m in launch.members)


def test_workdir_artifacts(three_kernel_program, tmp_path):
    config = TransformConfig(
        device=K20X,
        ga_params=small_params(),
        verify=False,
        workdir=str(tmp_path),
    )
    Framework(three_kernel_program, config).run()
    assert (tmp_path / "metadata" / "performance.meta").exists()
    assert (tmp_path / "ddg.dot").exists()
    assert (tmp_path / "oeg.dot").exists()
    assert (tmp_path / "transformed.cu").exists()
    generated = (tmp_path / "transformed.cu").read_text()
    parse_program(generated)  # the output must be valid CudaLite


def test_framework_accepts_source_text():
    state = Framework(
        THREE_KERNEL_SRC,
        TransformConfig(device=K20X, ga_params=small_params(), verify=False),
    ).run()
    assert state.transform is not None


def test_fusion_run_argument_overrides_the_mode():
    """A guided run passes its one fix; without it, the mode decides."""
    fix = FusionOptions(merge_deep_loops=True)
    fw = Framework(THREE_KERNEL_SRC, TransformConfig(mode="guided"), fusion=fix)
    assert fw.state.fusion is fix
    assert Framework(THREE_KERNEL_SRC).state.fusion == FusionOptions()


# ------------------------------------------- every pipeline field is read


@pytest.fixture
def gate_configs(monkeypatch):
    """The :class:`VerifyConfig` of every per-group gate call of the run."""
    from repro.pipeline import apply

    configs = []
    real = apply.verify_group

    def spy(*args, **kwargs):
        configs.append(args[4])
        return real(*args, **kwargs)

    monkeypatch.setattr(apply, "verify_group", spy)
    return configs


def _failing_search(monkeypatch):
    from repro.pipeline import stages

    def fail(*args, **kwargs):
        raise SearchError("no search today")

    monkeypatch.setattr(stages, "run_search", fail)


#: (field, value, program, other fields, prepare, check) — each check
#: fails when ``field`` does not reach the stage that reads it
FIELD_CASES = {
    "exclude": (
        ("k2",), THREE_KERNEL_SRC, {"until": "targets"}, None,
        lambda state, _: sorted(state.targets.targets) == ["k1", "k3"],
    ),
    "filtering": (
        False, "Fluam", {"until": "targets"}, None,
        lambda state, _: set(state.targets.targets)
        == set(state.metadata.kernels()),
    ),
    "fission": (
        False, SEPARABLE_SRC, {"until": "search"}, None,
        lambda state, _: not any(
            info.fissionable for info in state.built.problem.infos.values()
        ),
    ),
    "tuning": (
        False, THREE_KERNEL_SRC, {"verify": False}, None,
        lambda state, _: state.transform.tuning == [],
    ),
    "verify": (
        False, THREE_KERNEL_SRC, {}, None,
        lambda state, _: state.verified is None,
    ),
    "verify_groups": (
        False, THREE_KERNEL_SRC, {"verify": False}, None,
        # no gate runs; the fused group is recorded as skipped
        lambda state, gates: gates == []
        and [v.status for v in state.transform.group_verdicts] == ["skipped"],
    ),
    "verify_seed": (
        7, THREE_KERNEL_SRC, {"verify": False}, None,
        lambda state, gates: [gate.seed for gate in gates] == [7],
    ),
    "fail_hard": (
        True, THREE_KERNEL_SRC, {"until": "search"}, _failing_search,
        None,  # the search's failure is raised, not degraded
    ),
    "mode": (
        "manual", THREE_KERNEL_SRC, {"until": "metadata"}, None,
        lambda state, _: state.fusion == FusionOptions.for_mode("manual")
        and state.fusion.merge_deep_loops
        and state.fusion.one_sided_guards,
    ),
    "until": (
        "graphs", THREE_KERNEL_SRC, {}, None,
        lambda state, _: "graphs" in state.reports and state.search is None,
    ),
}


@pytest.mark.parametrize("name", sorted(FIELD_CASES))
def test_pipeline_field_steers_the_run(name, gate_configs, monkeypatch):
    """No pipeline-facing ``TransformConfig`` field is silently dropped:
    ``Framework`` runs the config as it is, and each field changes the
    artifact of the stage that reads it."""
    value, program, others, prepare, check = FIELD_CASES[name]
    if program == "Fluam":
        program = build_app(program, scale=0.1).program
    config = TransformConfig(ga_params=small_params(), **others, **{name: value})
    if prepare is not None:
        prepare(monkeypatch)
    framework = Framework(program, config)
    if check is None:
        with pytest.raises(SearchError):
            framework.run()
        return
    assert check(framework.run(), gate_configs)


def test_speedup_requires_codegen(three_kernel_program):
    fw = Framework(
        three_kernel_program,
        TransformConfig(device=K20X, ga_params=small_params()),
    )
    with pytest.raises(PipelineError):
        _ = fw.state.speedup


# ------------------------------------------------------------------------ CLI


def test_cli_end_to_end(tmp_path, capsys):
    source_path = tmp_path / "app.cu"
    source_path.write_text(THREE_KERNEL_SRC)
    out_path = tmp_path / "out.cu"
    rc = cli_main(
        [
            str(source_path),
            "-o", str(out_path),
            "--device", "K20X",
            "--seed", "3",
            "--no-verify",
        ]
    )
    assert rc == 0
    generated = out_path.read_text()
    parse_program(generated)
    captured = capsys.readouterr()
    assert "projected speedup" in captured.out


def test_cli_until_stage(tmp_path, capsys):
    source_path = tmp_path / "app.cu"
    source_path.write_text(THREE_KERNEL_SRC)
    rc = cli_main([str(source_path), "--until", "targets", "--no-verify"])
    assert rc == 0
    captured = capsys.readouterr()
    assert "targets:" in captured.out


def test_cli_exclude(tmp_path, capsys):
    source_path = tmp_path / "app.cu"
    source_path.write_text(THREE_KERNEL_SRC)
    rc = cli_main(
        [str(source_path), "--until", "targets", "--exclude", "k1", "--no-verify"]
    )
    assert rc == 0
    assert "excluded manually" in capsys.readouterr().out
