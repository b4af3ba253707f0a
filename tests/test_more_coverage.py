"""Additional coverage: 1-D / flat fusion, OEG amendments, errors, misc."""

import pytest

from repro.cudalite import ast_nodes as ast
from repro.cudalite import parse_program, unparse
from repro.cudalite.parser import parse_expr
from repro.errors import ReproError, SearchError
from repro.gpu.device import K20X
from repro.gpu.interpreter import outputs_equal, run_program
from repro.config import TransformConfig
from repro.pipeline import Framework
from repro.search import fast_params
from repro.transform import (
    NewLaunch,
    assemble_program,
    fuse_kernels,
    make_constituent,
)


def small_params(seed=5):
    params = fast_params(seed=seed)
    params.population = 14
    params.generations = 12
    return params


# ------------------------------------------------------------- 1-D fusion


ONE_D = """
__global__ void ka(double *A, const double *B, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i >= 2 && i < n - 2) {
        A[i] = 0.5 * (B[i + 2] + B[i - 2]);
    }
}
__global__ void kb(double *C, const double *B, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        C[i] = B[i] * 3.0;
    }
}
int main() {
    int n = 256;
    double *A = cudaMalloc1D(n);
    double *B = cudaMalloc1D(n);
    double *C = cudaMalloc1D(n);
    deviceRandom(B, 9);
    dim3 grid(4, 1, 1);
    dim3 block(64, 1, 1);
    ka<<<grid, block>>>(A, B, n);
    kb<<<grid, block>>>(C, B, n);
    return 0;
}
"""


def test_one_dimensional_fusion_with_tile():
    program = parse_program(ONE_D)
    def mk(name, arrays):
        return make_constituent(
            program.kernel(name), arrays, (ast.IntLit(256),), [256],
            (4, 1, 1), (64, 1, 1),
        )
    fused = fuse_kernels(
        "K", [mk("ka", ["A", "B"]), mk("kb", ["C", "B"])],
        (64, 1, 1), {"A": (256,), "B": (256,), "C": (256,)},
    )
    text = unparse(fused.kernel)
    assert "__shared__ double s_B[68];" in text  # 64 + 2*2 halo
    launches = [NewLaunch("K", fused.grid, fused.block,
                          tuple(parse_expr(a) for a in fused.pointer_args)
                          + fused.scalar_args)]
    new_program = assemble_program(program, [fused.kernel], launches)
    assert outputs_equal(run_program(program), run_program(new_program))
    assert outputs_equal(
        run_program(program), run_program(new_program, block_order="reverse")
    )


FLAT_2D = """
__global__ void ka(double *A, const double *B, int nx, int ny) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    int j = blockIdx.y * blockDim.y + threadIdx.y;
    if (i >= 1 && i < nx - 1 && j >= 1 && j < ny - 1) {
        A[i][j] = B[i + 1][j] + B[i - 1][j] + B[i][j + 1] + B[i][j - 1];
    }
}
__global__ void kb(double *C, const double *B, int nx, int ny) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    int j = blockIdx.y * blockDim.y + threadIdx.y;
    if (i < nx && j < ny) {
        C[i][j] = B[i][j] + 1.0;
    }
}
int main() {
    int nx = 32;
    int ny = 32;
    double *A = cudaMalloc2D(nx, ny);
    double *B = cudaMalloc2D(nx, ny);
    double *C = cudaMalloc2D(nx, ny);
    deviceRandom(B, 4);
    dim3 grid(4, 4, 1);
    dim3 block(8, 8, 1);
    ka<<<grid, block>>>(A, B, nx, ny);
    kb<<<grid, block>>>(C, B, nx, ny);
    return 0;
}
"""


def test_flat_2d_fusion_without_k_loop():
    """2-D kernels (no sequential loop) fuse with a pre-staged 2-D tile."""
    program = parse_program(FLAT_2D)

    def mk(name, arrays):
        return make_constituent(
            program.kernel(name), arrays,
            (ast.IntLit(32), ast.IntLit(32)), [32, 32],
            (4, 4, 1), (8, 8, 1),
        )

    fused = fuse_kernels(
        "K", [mk("ka", ["A", "B"]), mk("kb", ["C", "B"])],
        (8, 8, 1), {"A": (32, 32), "B": (32, 32), "C": (32, 32)},
    )
    assert "B" in fused.traits.staged
    launches = [NewLaunch("K", fused.grid, fused.block,
                          tuple(parse_expr(a) for a in fused.pointer_args)
                          + fused.scalar_args)]
    new_program = assemble_program(program, [fused.kernel], launches)
    assert outputs_equal(run_program(program), run_program(new_program))


# ------------------------------------------------------ OEG USER amendment


def test_user_oeg_edge_constrains_search(three_kernel_program):
    """An amended OEG (dep=USER edge) becomes a search constraint: an edge
    contradicting launch order marks the pair mutually unfusable (the
    generator keeps launch order inside a fused kernel)."""

    def forbid_k1_k2_fusion(state):
        state.oeg.add_edge("k2@1", "k1@0", dep="USER", array="")

    config = TransformConfig(
        device=K20X, ga_params=small_params(), verify=False
    )
    framework = Framework(three_kernel_program, config)
    framework.intervene("graphs", forbid_k1_k2_fusion)
    state = framework.run()
    for launch in state.transform.launches:
        members = set(launch.members)
        assert not {"k1@0", "k2@1"} <= members, "USER edge was ignored"


# ------------------------------------------------------------------ errors


def test_error_hierarchy():
    from repro import errors

    for cls in (
        errors.LexError,
        errors.ParseError,
        errors.SemanticError,
        errors.InterpreterError,
        errors.AnalysisError,
        errors.GraphError,
        errors.SearchError,
        errors.TransformError,
        errors.PipelineError,
    ):
        assert issubclass(cls, ReproError)
    assert issubclass(errors.OutOfBoundsError, errors.InterpreterError)


def test_unknown_objective_rejected():
    from repro.search.objective import get_objective

    with pytest.raises(SearchError):
        get_objective("no-such-objective")


# ------------------------------------------------------------- misc / model


def test_fused_rereads_charged_without_staging(three_kernel_program):
    """Kepler global loads bypass L1: fusing without tiles re-fetches the
    shared array once per constituent."""
    def mk(name, arrays):
        return make_constituent(
            three_kernel_program.kernel(name), arrays,
            tuple(ast.IntLit(v) for v in (32, 32, 8)), [32, 32, 8],
            (4, 4, 1), (8, 8, 1),
        )

    from repro.transform import FusionOptions

    unstaged = fuse_kernels(
        "K", [mk("k1", ["A", "B"]), mk("k2", ["C", "B"])],
        (8, 8, 1), {n: (32, 32, 8) for n in "ABCD"},
        options=FusionOptions(stage_shared=False),
    )
    staged = fuse_kernels(
        "K", [mk("k1", ["A", "B"]), mk("k2", ["C", "B"])],
        (8, 8, 1), {n: (32, 32, 8) for n in "ABCD"},
    )
    assert unstaged.traits.rereads.get("B", 1) == 2
    assert staged.traits.rereads.get("B", 1) == 1


def test_top_level_api_exports():
    import repro

    program = repro.parse_program(
        "__global__ void k(double *A) { }\n"
        "int main() { double *A = cudaMalloc1D(8);"
        " k<<<dim3(1, 1, 1), dim3(8, 1, 1)>>>(A); return 0; }"
    )
    assert "k" in repro.unparse(program)
    assert repro.query_device("K40").name == "K40"


def test_version():
    import repro

    assert repro.__version__ == "10.0.0"
