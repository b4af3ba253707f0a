"""Run every program once — gated on counts (no timing, no noise).

A cold ``transform()`` interprets two whole programs: the original and
one transformed run that both feeds the verification gate and, counted,
``model_validation.json``.  The reversed-block-order run happens only
when a launch of that run was order-sensitive
(``LaunchRecord.order_sensitive``).  Pinned here: the run counts on the
configuration ``benchmarks/e2e``'s ``cold-transform`` measures, the
telemetry bytes, and that every planted inter-block race still gets —
and fails — the reversed run, with the verdict the three unconditional
runs used to give.
"""

import json
from types import SimpleNamespace

import pytest

from repro.api import transform
from repro.apps import build_app
from repro.cudalite import parse_program, unparse
from repro.errors import PipelineError
from repro.gpu.interpreter import outputs_allclose, run_program
from repro.observability.model_validation import validate_model
from repro.pipeline import stages
from repro.pipeline.stages import PipelineConfig, PipelineState

from test_cold_path_counts import APP_SCALE, PINNED_GA_SEED
from test_fusion import run_fused
from test_interpreter_hazards import ALLOC, CASES, LAUNCH, _fused_chain, program

MODES = ("auto", "loop", "batched")


@pytest.fixture
def program_runs(monkeypatch):
    """Every whole-program interpretation the pipeline makes, as
    ``(kwargs, RunResult)`` — patched where ``benchmarks/e2e`` patches."""
    runs = []
    real = stages.run_program

    def counting(prog, **kwargs):
        result = real(prog, **kwargs)
        runs.append((kwargs, result))
        return result

    monkeypatch.setattr(stages, "run_program", counting)
    return runs


def _standalone_validation(result, path):
    """``model_validation.json`` from a counted run of its own."""
    counted = run_program(result.program, collect_counters=True)
    report = validate_model(
        counted.launches, result.state.transformed_projection.kernels
    )
    report.write_json(str(path))
    return path.read_bytes()


# ------------------------------------------------------- (i) + (ii) paper apps


@pytest.mark.parametrize("app", ["Fluam", "MITgcm"])
def test_cold_transform_interprets_two_programs(app, program_runs, tmp_path):
    source = unparse(build_app(app, scale=APP_SCALE).program)
    workdir = tmp_path / "run"
    loud = transform(
        source, store=False, seed=PINNED_GA_SEED, workdir=str(workdir)
    )
    loud_runs = list(program_runs)
    program_runs.clear()
    quiet = transform(source, store=False, seed=PINNED_GA_SEED, telemetry=False)
    assert loud.verified is True and quiet.verified is True
    assert loud.source == quiet.source

    # before + one after, counted only when someone reads the counters
    assert [kw.get("collect_counters", False) for kw, _ in loud_runs] == [
        False, True,
    ]
    assert [kw.get("collect_counters", False) for kw, _ in program_runs] == [
        False, False,
    ]
    assert all("block_order" not in kw for kw, _ in loud_runs + program_runs)
    # what telemetry costs end to end: no launch the quiet run does not make
    assert [len(r.launches) for _, r in loud_runs] == [
        len(r.launches) for _, r in program_runs
    ]

    block = json.loads((workdir / "run.json").read_text())["verification"]
    assert block == {
        "program_runs": 2,
        "reversed_run": False,
        "order_sensitive_launches": {},
        "counters_from": "verify",
    }
    assert loud.state.verification == block
    assert quiet.state.verification == {**block, "counters_from": None}
    # the gate's counted run is as good as a run made for the counters alone
    assert (workdir / "model_validation.json").read_bytes() == (
        _standalone_validation(loud, tmp_path / "standalone.json")
    )


def test_gate_free_paths_keep_the_standalone_counted_run(program_runs, tmp_path):
    source = unparse(build_app("MITgcm", scale=APP_SCALE).program)
    result = transform(
        source, store=False, seed=PINNED_GA_SEED, verify=False,
        workdir=str(tmp_path / "run"),
    )
    assert [kw for kw, _ in program_runs] == [
        {"block_exec": "auto", "collect_counters": True}
    ]
    assert result.state.verification["counters_from"] == "rerun"
    assert (tmp_path / "run" / "model_validation.json").read_bytes() == (
        _standalone_validation(result, tmp_path / "standalone.json")
    )


# ------------------------------------------------------- (iii) planted races


def _gate_state(original, transformed, mode):
    state = PipelineState(original, PipelineConfig(block_exec=mode))
    state.transform = SimpleNamespace(program=transformed)
    return state


def _three_run_verdict(original, transformed, mode):
    """Whole-program verification as it was: both orders, always."""
    before = run_program(original, block_exec=mode)
    return all(
        outputs_allclose(
            before, run_program(transformed, block_order=order, block_exec=mode)
        )
        for order in ("forward", "reverse")
    )


def _race_programs():
    """name -> (original, transformed): every cross-block fixture of
    tests/test_interpreter_hazards.py posing as its own transformation
    (forward equals forward, so only the reversed run can reject it),
    plus the fused ``+=``-producer chain against its unfused original."""
    pairs = {
        case: (parse_program(source), parse_program(source))
        for case, (source, _) in CASES.items()
    }
    parsed, fused = _fused_chain("+=")
    pairs["fused-compound-producer"] = (parsed, run_fused(parsed, [fused]))
    return pairs


RACES = _race_programs()

#: fixtures the reversed run must reject.  The forced-``batched`` lattice
#: runs in lockstep, so only a same-statement WAW (last block wins the
#: scatter) makes it follow the block order
HAZARD_FREE = ("same-thread", "shared-unwritten-cells")
BATCHED_ORDER_DEPENDENT = ("waw-one-statement", "waw-one-statement-scalar-index")


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("case", sorted(RACES))
def test_reduced_gate_gives_the_three_run_verdict(case, mode, program_runs):
    original, transformed = RACES[case]
    expected = _three_run_verdict(original, transformed, mode)
    state = _gate_state(original, transformed, mode)
    assert (stages._whole_program_failure(state) is None) is expected
    forward = program_runs[1][1]
    sensitive = [r.kernel for r in forward.launches if r.order_sensitive]
    reversed_runs = [
        kw for kw, _ in program_runs if kw.get("block_order") == "reverse"
    ]
    # the reversed run is made iff a launch could tell and forward passed
    forward_ok = outputs_allclose(program_runs[0][1], forward)
    assert len(reversed_runs) == int(bool(sensitive) and forward_ok)
    assert state.verification["reversed_run"] is bool(reversed_runs)
    assert state.verification["program_runs"] == len(program_runs)
    assert sum(state.verification["order_sensitive_launches"].values()) == len(
        sensitive
    )
    if mode == "batched":
        assert expected is (case not in BATCHED_ORDER_DEPENDENT)
    else:
        assert expected is (case in HAZARD_FREE)
    if case in CASES and not expected:
        assert forward_ok and reversed_runs  # only the reversed run can tell


@pytest.mark.parametrize("mode", MODES)
def test_order_dependent_program_fails_end_to_end(mode, tmp_path):
    """Passes forward, fails reversed: rejected at the parent commit by
    the unconditional reversed run, and still rejected now."""
    source = CASES["waw-one-statement"][0]
    with pytest.raises(PipelineError, match="does not match the original"):
        transform(
            source, store=False, seed=1, block_exec=mode,
            workdir=str(tmp_path),
        )
    run = json.loads((tmp_path / "run.json").read_text())
    assert run["exit_code"] != 0
    assert run["verification"]["reversed_run"] is True
    # fused attempt, then the identity fallback: before/after/reversed each
    assert run["verification"]["program_runs"] == 6
    assert run["verification"]["order_sensitive_launches"] == {"k": 2}
    assert run["verification"]["counters_from"] is None
    assert not (tmp_path / "model_validation.json").exists()


# ---------------------------------------------------- (iv) identity fallback


def test_identity_fallback_never_reports_the_rejected_programs_counters(
    monkeypatch, program_runs, tmp_path
):
    source = unparse(build_app("MITgcm", scale=APP_SCALE).program)
    real = stages.outputs_allclose
    verdicts = iter([False])  # reject the fused program once

    monkeypatch.setattr(
        stages, "outputs_allclose",
        lambda a, b, **kw: next(verdicts, None) is None and real(a, b, **kw),
    )
    workdir = tmp_path / "run"
    result = transform(
        source, store=False, seed=PINNED_GA_SEED, workdir=str(workdir)
    )
    assert result.verified is True
    assert "fell back to identity program" in result.state.reports["codegen"]
    assert result.state.verification == {
        "program_runs": 4,
        "reversed_run": False,
        "order_sensitive_launches": {},
        "counters_from": "verify",
    }
    rejected, identity = program_runs[1][1], program_runs[3][1]
    assert {r.kernel for r in rejected.launches} != {
        r.kernel for r in identity.launches
    }
    written = json.loads((workdir / "model_validation.json").read_text())
    assert [k["kernel"] for k in written["kernels"]] == [
        r.kernel for r in identity.launches
    ]
    assert (workdir / "model_validation.json").read_bytes() == (
        _standalone_validation(result, tmp_path / "standalone.json")
    )


def test_identity_fallback_writes_its_own_text(monkeypatch, tmp_path):
    """With a store the rejected program was unparsed for its verdict
    key; ``transformed.cu`` must be the fallback's text, not that one."""
    source = unparse(build_app("MITgcm", scale=APP_SCALE).program)
    real = stages.outputs_allclose
    verdicts = iter([False])  # reject the fused program once

    monkeypatch.setattr(
        stages, "outputs_allclose",
        lambda a, b, **kw: next(verdicts, None) is None and real(a, b, **kw),
    )
    workdir = tmp_path / "run"
    result = transform(
        source, store=True, store_root=str(tmp_path / "store"),
        seed=PINNED_GA_SEED, workdir=str(workdir),
    )
    assert "fell back to identity program" in result.state.reports["codegen"]
    assert not result.state.transform.fused_kernels
    assert (workdir / "transformed.cu").read_text() == result.source
    # the rejected program's verdict key was never recorded: a repeat
    # fuses, verifies for real this time and records that
    again = transform(
        source, store=True, store_root=str(tmp_path / "store"),
        seed=PINNED_GA_SEED,
    )
    assert again.state.transform.fused_kernels
    assert "verify_program" not in again.reused and again.verified is True


def test_counted_run_of_another_program_is_not_consumed(program_runs, tmp_path):
    """The hand-off is keyed on the identity of the program that ran."""
    source = unparse(build_app("MITgcm", scale=APP_SCALE).program)
    workdir = tmp_path / "run"
    result = transform(
        source, store=False, seed=PINNED_GA_SEED, workdir=str(workdir)
    )
    expected = (workdir / "model_validation.json").read_bytes()
    state = result.state
    stale = run_program(state.program, collect_counters=True)
    state._counted_run = (state.program, stale.launches)
    program_runs.clear()
    stages._model_validation(state)
    assert [kw.get("collect_counters") for kw, _ in program_runs] == [True]
    assert state.verification["counters_from"] == "rerun"
    assert (workdir / "model_validation.json").read_bytes() == expected


# ------------------------------------------------ (v) the launch's own verdict


def test_launch_records_say_whether_the_order_could_matter():
    one_block = program(
        "double *A, const double *B, int n",
        "t[tx] = B[i]; __syncthreads(); A[i] = t[7 - tx];",
        "k<<<dim3(1, 1, 1), dim3(8, 1, 1)>>>(A, B, n);",
        alloc=ALLOC.replace("n = 32", "n = 8"),
    )
    independent = CASES["same-thread"][0]
    racy = CASES["chain"][0]
    assert LAUNCH in independent and LAUNCH in racy  # four blocks each

    def sensitive(source, mode):
        (record,) = run_program(parse_program(source), block_exec=mode).launches
        return record.executor, record.order_sensitive

    # one block has one order, whatever ran it
    assert sensitive(one_block, "loop") == ("loop", False)
    assert sensitive(one_block, "batched") == ("batched", False)
    # the loop and the unwatched lattice follow block_order
    assert sensitive(independent, "loop") == ("loop", True)
    assert sensitive(independent, "batched") == ("batched", True)
    # a watched lattice that passed equals every order
    assert sensitive(independent, "auto") == ("batched", False)
    # a hazard replay lands on the loop
    assert sensitive(racy, "auto") == ("loop", True)
    # no shared memory: the vectorized lattice never consults the order
    pointwise = (
        "__global__ void p(double *A, int n) {"
        " int i = blockIdx.x * blockDim.x + threadIdx.x; A[i] = A[i] * 2.0; }\n"
        f"int main() {{ {ALLOC} p{LAUNCH}(A, n); return 0; }}"
    )
    for mode in MODES:
        assert sensitive(pointwise, mode)[1] is False


# ------------------------------------------------- the fuzz gate for the premise


def test_modes_oracle_rejects_an_order_dependent_launch_that_claims_otherwise(
    monkeypatch,
):
    """``order-insensitive-diverged`` is what a launch that follows the
    block order without saying so would look like to the fuzz campaign."""
    import repro.fuzz.oracles as oracles

    racy = parse_program(CASES["waw-one-statement"][0])
    assert oracles.run_oracles(racy, ("modes",)).ok

    def forgetful(prog, **kwargs):
        result = run_program(prog, **kwargs)
        for record in result.launches:
            record.order_sensitive = False
        return result

    monkeypatch.setattr(oracles, "run_program", forgetful)
    verdict = oracles.run_oracles(racy, ("modes",))
    assert verdict.signatures() == ("modes:order-insensitive-diverged:loop",)


def test_a_fused_kernel_out_of_bounds_demotes_without_the_group_gate():
    """Fuzz seed 10 fuses a kernel that runs out of bounds on the app's
    own data.  With the per-group gate off only the whole-program run
    sees it; under fail_soft that is the identity fallback, not an
    ``OutOfBoundsError`` escaping ``transform()``."""
    from repro.fuzz.appgen import generate_app
    from repro.fuzz.oracles import fuzz_config

    program = generate_app(10).program
    result = transform(program, fuzz_config(10, verify_groups=False))
    assert result.verified is True
    assert [d.cause for d in result.state.transform.demotions] == [
        stages.EXECUTION_FAILED
    ]
    assert "fell back to identity program" in result.reports["codegen"]
    with pytest.raises(PipelineError, match="failed to run"):
        transform(program, fuzz_config(10, verify_groups=False, fail_hard=True))
