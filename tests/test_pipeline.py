"""End-to-end pipeline / framework / CLI tests."""

import pytest

from repro.cudalite import parse_program
from repro.errors import PipelineError
from repro.gpu.device import K20X
from repro.pipeline import Framework, PipelineConfig, transform_program
from repro.pipeline.cli import main as cli_main
from repro.search import fast_params

from conftest import THREE_KERNEL_SRC


def small_params(seed=1):
    params = fast_params(seed=seed)
    params.population = 16
    params.generations = 15
    params.stall_generations = 6
    return params


@pytest.fixture
def framework(three_kernel_program):
    config = PipelineConfig(device=K20X, ga_params=small_params(), verify=True)
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
        PipelineConfig(device=K20X, ga_params=small_params()),
    )
    state = fw.run(until="graphs")
    assert state.ddg is not None
    assert state.oeg is not None
    assert state.search is None


def test_run_from_requires_prerequisites(three_kernel_program):
    fw = Framework(
        three_kernel_program,
        PipelineConfig(device=K20X, ga_params=small_params()),
    )
    with pytest.raises(PipelineError):
        fw.run(from_stage="search")


def test_run_resumes_from_stage(three_kernel_program):
    fw = Framework(
        three_kernel_program,
        PipelineConfig(device=K20X, ga_params=small_params(), verify=False),
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
        PipelineConfig(device=K20X, ga_params=small_params(), verify=False),
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
        PipelineConfig(device=K20X, ga_params=small_params(), verify=True),
    )
    fw.intervene("targets", exclude_k2)
    state = fw.run()
    for launch in state.transform.launches:
        if len(launch.members) > 1:
            assert not any(m.startswith("k2@") for m in launch.members)


def test_workdir_artifacts(three_kernel_program, tmp_path):
    config = PipelineConfig(
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


def test_transform_program_accepts_source_text():
    state = transform_program(
        THREE_KERNEL_SRC,
        PipelineConfig(device=K20X, ga_params=small_params(), verify=False),
    )
    assert state.transform is not None


def test_mode_affects_fusion_options():
    auto = PipelineConfig(mode="automated").fusion_options()
    manual = PipelineConfig(mode="manual").fusion_options()
    assert not auto.merge_deep_loops and not auto.one_sided_guards
    assert manual.merge_deep_loops and manual.one_sided_guards


def test_speedup_requires_codegen(three_kernel_program):
    fw = Framework(
        three_kernel_program,
        PipelineConfig(device=K20X, ga_params=small_params()),
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
