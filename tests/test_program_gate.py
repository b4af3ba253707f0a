"""The whole-program gate's paired run.

``_whole_program_failure`` makes one ``run_program(transformed,
reference=original)`` call: both programs are interpreted together and a
launch they share executes once.  Pinned here:

* the paired run is bitwise two separate runs — both programs' arrays and
  the transformed program's launch records, counters included — under
  every ``block_exec`` mode, on the six paper apps and 60 fuzz apps;
* errors keep the outcome two separate runs gave: the original's failure
  (in a launch of its own or a shared one) raises what running it alone
  raises; the transformed program's failure is ``EXECUTION_FAILED`` and
  the original still runs to completion;
* a mis-fused program is still a ``MISMATCH``, named by
  ``first_divergence``, and its identity fallback verifies;
* a program whose output holds NaN transforms and verifies.
"""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from repro.api import transform
from repro.apps import APP_NAMES, build_app
from repro.cudalite import parse_program, unparse
from repro.errors import InterpreterError, OutOfBoundsError
from repro.fuzz.appgen import generate_app
from repro.fuzz.oracles import fuzz_config
from repro.gpu.interpreter import run_program
from repro.pipeline import stages
from repro.pipeline.stages import PipelineConfig, PipelineState
from repro.reliability.verify import verify_group

from test_integration import small_params
from test_reliability import SHAPES, _binding, _fused

MODES = ("auto", "batched", "loop")
FUZZ_SEEDS = range(60)


def _records(result):
    return [
        (r.kernel, r.grid, r.block, r.array_args, r.scalar_args, r.counters,
         r.executor, r.hazard_replay, r.order_sensitive)
        for r in result.launches
    ]


def assert_bitwise(got, want):
    assert list(got.arrays) == list(want.arrays)
    for name, array in want.arrays.items():
        assert got.arrays[name].dtype == array.dtype, name
        assert got.arrays[name].tobytes() == array.tobytes(), name
    assert _records(got) == _records(want)


def assert_paired_is_separate(original, transformed, mode):
    paired = run_program(
        transformed, block_exec=mode, collect_counters=True, reference=original
    )
    assert paired.error is None
    assert_bitwise(paired.reference, run_program(original, block_exec=mode))
    assert_bitwise(
        paired, run_program(transformed, block_exec=mode, collect_counters=True)
    )
    assert 0 <= paired.shared_launches <= min(
        len(paired.launches), len(paired.reference.launches)
    )
    return paired


# ----------------------------------------------------- paired == separate


@pytest.fixture(scope="module")
def paper_pairs():
    pairs = {}
    for name in APP_NAMES:
        program = build_app(name, scale=0.22).program
        result = transform(
            program, store=False, telemetry=False, verify=False,
            ga_params=small_params(),
        )
        pairs[name] = (program, result.program)
    return pairs


@pytest.fixture(scope="module")
def fuzz_pairs():
    pairs = []
    for seed in FUZZ_SEEDS:
        program = generate_app(seed).program
        pairs.append((program, transform(program, fuzz_config(seed)).program))
    return pairs


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("app", APP_NAMES)
def test_paired_run_is_two_separate_runs_on_the_paper_apps(app, mode, paper_pairs):
    original, transformed = paper_pairs[app]
    paired = assert_paired_is_separate(original, transformed, mode)
    assert paired.shared_launches > 0


@pytest.mark.parametrize("mode", MODES)
def test_paired_run_is_two_separate_runs_on_fuzz_apps(mode, fuzz_pairs):
    shared = 0
    for original, transformed in fuzz_pairs:
        shared += assert_paired_is_separate(original, transformed, mode).shared_launches
    assert shared > 0


def test_a_program_paired_with_itself_shares_every_launch():
    program = build_app("Fluam", scale=0.22).program
    paired = run_program(program, reference=program)
    assert paired.shared_launches == len(paired.launches) > 0
    assert paired.first_divergence is None
    assert all(
        paired.arrays[name] is array for name, array in paired.reference.arrays.items()
    )


# ------------------------------------------------------------------ errors

KERNELS = """
__global__ void ok(double *A, const double *B, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    A[i] = B[i] * 2.0 + A[i];
}
__global__ void bad(double *A, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    A[i + n] = 1.0;
}
__global__ void alias(double *A, const double *B, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    double *p = A;
    p[i] = B[i] + 1.0;
}
__global__ void addhalf(double *A, double s, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    A[i] = A[i] + s / 2;
}
"""
OK = "ok<<<dim3(4, 1, 1), dim3(8, 1, 1)>>>(A, B, n);"
OK_BACK = "ok<<<dim3(4, 1, 1), dim3(8, 1, 1)>>>(B, A, n);"
BAD = "bad<<<dim3(4, 1, 1), dim3(8, 1, 1)>>>(A, n);"
ALIAS = "alias<<<dim3(4, 1, 1), dim3(8, 1, 1)>>>(A, B, n);"


def program(*statements):
    return parse_program(
        KERNELS
        + "int main() { int n = 32; double *A = cudaMalloc1D(n);"
        " double *B = cudaMalloc1D(n); deviceRandom(B, 3); "
        + " ".join(statements)
        + " return 0; }"
    )


def test_a_store_through_a_local_alias_stays_in_its_program():
    """``alias`` stores to ``A`` through a local pointer: the program that
    launches it on its own must copy the shared ``A`` first."""
    one, other = program(OK, ALIAS, OK_BACK), program(OK, OK_BACK)
    for original, transformed in ((one, other), (other, one)):
        paired = run_program(transformed, reference=original)
        assert_bitwise(paired.reference, run_program(original))
        assert_bitwise(paired, run_program(transformed))
        assert paired.shared_launches == 1  # A differs after alias


def test_a_kernel_that_keeps_its_name_but_not_its_body_is_never_shared():
    original = program(OK, OK_BACK)
    transformed = parse_program(
        unparse(original).replace("B[i] * 2.0", "B[i] * 3.0")
    )
    assert original.kernel("ok") != transformed.kernel("ok")
    paired = run_program(transformed, reference=original)
    assert paired.shared_launches == 0
    assert_bitwise(paired.reference, run_program(original))
    assert_bitwise(paired, run_program(transformed))


def test_scalars_equal_in_value_but_not_in_type_are_never_shared():
    """The interpreter binds a scalar argument as passed: ``3 / 2`` is 1."""
    launch = "addhalf<<<dim3(4, 1, 1), dim3(8, 1, 1)>>>(A, {}, n);"
    original, transformed = program(launch.format("3")), program(launch.format("3.0"))
    paired = run_program(transformed, reference=original)
    assert paired.shared_launches == 0
    assert not np.array_equal(paired.arrays["A"], paired.reference.arrays["A"])
    assert_bitwise(paired.reference, run_program(original))
    assert_bitwise(paired, run_program(transformed))


def raised(call):
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value)


def _gate_state(original, transformed):
    state = PipelineState(original, PipelineConfig())
    state.transform = SimpleNamespace(program=transformed)
    return state


@pytest.mark.parametrize(
    "original, transformed",
    [
        # the original's own launch fails, after the candidate's hunk
        ((OK, BAD, OK_BACK), (OK, OK_BACK)),
        # a launch both programs make fails: executed once, for both
        ((OK, BAD), (OK, BAD)),
        # the candidate failed first; the original's failure still wins
        ((OK, OK_BACK, BAD), (BAD, OK)),
        # the original's host code fails after its launches
        ((OK, "n = undefined_name;"), (OK,)),
    ],
)
def test_the_originals_failure_raises_what_running_it_alone_raises(
    original, transformed
):
    original, transformed = program(*original), program(*transformed)
    alone = raised(lambda: run_program(original))
    assert raised(lambda: run_program(transformed, reference=original)) == alone
    assert raised(
        lambda: stages._whole_program_failure(_gate_state(original, transformed))
    ) == alone


@pytest.mark.parametrize(
    "transformed",
    [(BAD, OK, OK_BACK), (OK, BAD), (OK, OK_BACK, "n = undefined_name;")],
)
def test_the_candidates_failure_is_execution_failed(transformed):
    original, transformed = program(OK, OK_BACK), program(*transformed)
    paired = run_program(transformed, reference=original)
    alone = raised(lambda: run_program(transformed))
    assert (type(paired.error), str(paired.error)) == alone
    assert isinstance(paired.error, InterpreterError) and paired.arrays == {}
    # the original ran to completion, as it did when it ran first
    assert_bitwise(paired.reference, run_program(original))
    state = _gate_state(original, transformed)
    assert stages._whole_program_failure(state) == stages.EXECUTION_FAILED
    assert state.verification["program_runs"] == 2


def test_an_out_of_bounds_candidate_keeps_its_diagnostic():
    paired = run_program(program(BAD), reference=program(OK))
    assert isinstance(paired.error, OutOfBoundsError)
    assert paired.error.kernel == "bad" and paired.error.array == "A"


# ------------------------------------------------------------- mis-fusion

TWO_KERNELS = """
__global__ void root(const double *a, double *b, int nx, int ny) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    int j = blockIdx.y * blockDim.y + threadIdx.y;
    if (i < nx && j < ny) {
        b[i][j] = BODY;
    }
}

__global__ void scale(const double *b, double *c, int nx, int ny) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    int j = blockIdx.y * blockDim.y + threadIdx.y;
    if (i < nx && j < ny) {
        c[i][j] = 0.5 * b[i][j];
    }
}

int main() {
    int nx = 64;
    int ny = 64;
    double *a = cudaMalloc2D(nx, ny);
    double *b = cudaMalloc2D(nx, ny);
    double *c = cudaMalloc2D(nx, ny);
    deviceRandom(a, 7);
    root<<<dim3(8, 8, 1), dim3(8, 8, 1)>>>(a, b, nx, ny);
    scale<<<dim3(8, 8, 1), dim3(8, 8, 1)>>>(b, c, nx, ny);
    return 0;
}
"""


def test_a_misfused_program_is_a_mismatch_and_its_identity_fallback_verifies(
    monkeypatch,
):
    source = TWO_KERNELS.replace("BODY", "3.0 * a[i][j]")
    fused = transform(source, store=False, seed=1, telemetry=False)
    assert [k.kernel.name for k in fused.state.transform.fused_kernels] == ["K_00"]
    # the fused kernel halves where its second member should have doubled
    misfused = parse_program(unparse(fused.program).replace("0.5 *", "0.25 *"))
    assert misfused != fused.program

    state = _gate_state(parse_program(source), misfused)
    assert stages._whole_program_failure(state) == stages.MISMATCH
    assert state.verification["first_divergence"] == {
        "original": ["root", "scale"], "transformed": ["K_00"], "arrays": ["c"],
    }

    real = stages.materialize
    calls = []

    def misfusing(*args, **kwargs):
        result = real(*args, **kwargs)
        calls.append(result)
        return replace(result, program=misfused) if len(calls) == 1 else result

    monkeypatch.setattr(stages, "materialize", misfusing)
    result = transform(source, store=False, seed=1, telemetry=False)
    assert len(calls) == 2 and result.verified is True
    assert "fell back to identity program" in result.reports["codegen"]
    assert [d.cause for d in result.state.transform.demotions] == [stages.MISMATCH]
    assert result.state.verification["first_divergence"]["transformed"] == ["K_00"]


# -------------------------------------------------------------------- NaN

NAN_SOURCE = TWO_KERNELS.replace("BODY", "sqrt(a[i][j] - 2.0)")


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_a_program_whose_output_holds_nan_transforms_and_verifies():
    result = transform(NAN_SOURCE, store=False, seed=1, telemetry=False)
    assert result.verified is True
    assert result.state.transform.demotions == []
    assert [v.status for v in result.state.transform.group_verdicts] == ["pass"]
    assert np.isnan(run_program(result.program).arrays["c"]).all()


NAN_KERNELS = parse_program(
    """
__global__ void kn(double *C, const double *B, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) { C[i] = sqrt(B[i] - 0.5); }
}
__global__ void kw(double *C, const double *B, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) { C[i] = sqrt(B[i] - 0.5); }
    if (i == 3) { C[i] = 7.0; }
}
int main() { return 0; }
"""
)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_the_group_gate_counts_a_nan_cell_equal_to_a_nan_cell():
    kn, kw = (NAN_KERNELS.kernel(name) for name in ("kn", "kw"))
    assert verify_group(_fused(kn), [_binding(kn)], SHAPES).passed
    verdict = verify_group(_fused(kw), [_binding(kn)], SHAPES)
    assert verdict.failed
    # only the cell the candidate got wrong, never the NaN cells both hold
    assert "output mismatch on array 'C' (1 cells differ, max |diff|" in verdict.cause
