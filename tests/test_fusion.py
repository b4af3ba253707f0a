"""Fusion code-generation tests: simple/complex fusion, tiles, guards,
feasibility rejections, and semantic preservation (incl. hypothesis)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cudalite import ast_nodes as ast
from repro.cudalite import parse_program, unparse
from repro.cudalite.parser import parse_expr
from repro.errors import TransformError
from repro.gpu.interpreter import outputs_equal, run_program
from repro.transform import (
    FusionOptions,
    NewLaunch,
    assemble_program,
    copy_kernel,
    extract_model,
    fuse_kernels,
    make_constituent,
)

from conftest import THREE_KERNEL_SRC


def consts(program, specs):
    """Build constituents from (kernel, arrays, scalars, grid, block)."""
    result = []
    for name, arrays, scalars, grid, block in specs:
        exprs = tuple(
            ast.IntLit(int(v)) if isinstance(v, int) else ast.FloatLit(float(v))
            for v in scalars
        )
        result.append(
            make_constituent(
                program.kernel(name), arrays, exprs, list(scalars), grid, block
            )
        )
    return result


SHAPES3 = {name: (32, 32, 8) for name in "ABCD"}


@pytest.fixture
def simple_fused(three_kernel_program):
    c1, c2 = consts(
        three_kernel_program,
        [
            ("k1", ["A", "B"], (32, 32, 8), (4, 4, 1), (8, 8, 1)),
            ("k2", ["C", "B"], (32, 32, 8), (4, 4, 1), (8, 8, 1)),
        ],
    )
    return three_kernel_program, fuse_kernels(
        "K_00", [c1, c2], (8, 8, 1), SHAPES3
    )


def run_fused(program, fused_list, order=None):
    launches = []
    for fused in fused_list:
        args = tuple(parse_expr(a) for a in fused.pointer_args) + fused.scalar_args
        launches.append(NewLaunch(fused.kernel.name, fused.grid, fused.block, args))
    new_program = assemble_program(program, [f.kernel for f in fused_list], launches)
    return new_program


def test_simple_fusion_semantics(simple_fused):
    program, fused = simple_fused
    new_program = run_fused(program, [fused])
    # k3 disappeared from the transformed program, so compare A and C only
    before = run_program(program)
    after = run_program(new_program)
    assert np.allclose(before.arrays["A"], after.arrays["A"])
    assert np.allclose(before.arrays["C"], after.arrays["C"])


def test_simple_fusion_stages_shared_array(simple_fused):
    _, fused = simple_fused
    assert "B" in fused.traits.staged
    assert any(t.array == "B" for t in fused.tiles)
    text = unparse(fused.kernel)
    assert "__shared__ double s_B" in text
    assert "__syncthreads();" in text


def test_simple_fusion_not_complex(simple_fused):
    _, fused = simple_fused
    assert not fused.is_complex


def test_fused_kernel_parses_and_checks(simple_fused):
    from repro.cudalite import parse_program as reparse

    _, fused = simple_fused
    text = unparse(ast.Program((fused.kernel,)))
    reparsed = reparse(text)
    assert reparsed.kernels[0].name == "K_00"


def test_fusion_without_staging(three_kernel_program):
    c1, c2 = consts(
        three_kernel_program,
        [
            ("k1", ["A", "B"], (32, 32, 8), (4, 4, 1), (8, 8, 1)),
            ("k2", ["C", "B"], (32, 32, 8), (4, 4, 1), (8, 8, 1)),
        ],
    )
    fused = fuse_kernels(
        "K_00", [c1, c2], (8, 8, 1), SHAPES3,
        options=FusionOptions(stage_shared=False),
    )
    assert "__shared__" not in unparse(fused.kernel)
    new_program = run_fused(three_kernel_program, [fused])
    before = run_program(three_kernel_program)
    after = run_program(new_program)
    assert np.allclose(before.arrays["A"], after.arrays["A"])


def test_complex_fusion_temporal_blocking(chain_program):
    c1, c2 = consts(
        chain_program,
        [
            ("produce", ["T", "B"], (32, 32, 4, 0.5), (4, 4, 1), (8, 8, 1)),
            ("consume", ["A", "T"], (32, 32, 4), (4, 4, 1), (8, 8, 1)),
        ],
    )
    fused = fuse_kernels(
        "K_00", [c1, c2], (8, 8, 1), {n: (32, 32, 4) for n in "ABT"},
        precedence=[(0, 1, "T")],
    )
    assert fused.is_complex
    assert fused.traits.halo_compute_factor > 1.0
    new_program = run_fused(chain_program, [fused])
    assert outputs_equal(run_program(chain_program), run_program(new_program))
    # the race check: reversed block schedule must give identical results
    assert outputs_equal(
        run_program(chain_program), run_program(new_program, block_order="reverse")
    )


def test_complex_fusion_writeback(chain_program):
    c1, c2 = consts(
        chain_program,
        [
            ("produce", ["T", "B"], (32, 32, 4, 0.5), (4, 4, 1), (8, 8, 1)),
            ("consume", ["A", "T"], (32, 32, 4), (4, 4, 1), (8, 8, 1)),
        ],
    )
    fused = fuse_kernels(
        "K_00", [c1, c2], (8, 8, 1), {n: (32, 32, 4) for n in "ABT"},
        precedence=[(0, 1, "T")],
    )
    # T must still be written to global memory (it stays live)
    new_program = run_fused(chain_program, [fused])
    after = run_program(new_program)
    before = run_program(chain_program)
    assert np.allclose(before.arrays["T"], after.arrays["T"])


def test_war_with_halo_rejected(chain_program):
    """consume reads T with a halo; fusing a later writer of T is an
    inter-block hazard and must be refused."""
    c2, c1 = consts(
        chain_program,
        [
            ("consume", ["A", "T"], (32, 32, 4), (4, 4, 1), (8, 8, 1)),
            ("produce", ["T", "B"], (32, 32, 4, 0.5), (4, 4, 1), (8, 8, 1)),
        ],
    )
    with pytest.raises(TransformError, match="WAR"):
        fuse_kernels(
            "K_00", [c2, c1], (8, 8, 1), {n: (32, 32, 4) for n in "ABT"},
        )


def test_wave_depth_limit():
    source = """
__global__ void s1(double *P, const double *B, int nx, int ny) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    int j = blockIdx.y * blockDim.y + threadIdx.y;
    if (i < nx && j < ny) { P[i][j] = B[i][j] + 1.0; }
}
__global__ void s2(double *Q, const double *P, int nx, int ny) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    int j = blockIdx.y * blockDim.y + threadIdx.y;
    if (i >= 1 && i < nx - 1 && j >= 1 && j < ny - 1) {
        Q[i][j] = P[i + 1][j] + P[i - 1][j];
    }
}
__global__ void s3(double *R, const double *Q, int nx, int ny) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    int j = blockIdx.y * blockDim.y + threadIdx.y;
    if (i >= 1 && i < nx - 1 && j >= 1 && j < ny - 1) {
        R[i][j] = Q[i + 1][j] + Q[i][j - 1];
    }
}
int main() {
    int nx = 16; int ny = 16;
    double *P = cudaMalloc2D(nx, ny);
    double *Q = cudaMalloc2D(nx, ny);
    double *R = cudaMalloc2D(nx, ny);
    double *B = cudaMalloc2D(nx, ny);
    deviceRandom(B, 2);
    dim3 grid(2, 2, 1); dim3 block(8, 8, 1);
    s1<<<grid, block>>>(P, B, nx, ny);
    s2<<<grid, block>>>(Q, P, nx, ny);
    s3<<<grid, block>>>(R, Q, nx, ny);
    return 0;
}
"""
    program = parse_program(source)
    cs = consts(
        program,
        [
            ("s1", ["P", "B"], (16, 16), (2, 2, 1), (8, 8, 1)),
            ("s2", ["Q", "P"], (16, 16), (2, 2, 1), (8, 8, 1)),
            ("s3", ["R", "Q"], (16, 16), (2, 2, 1), (8, 8, 1)),
        ],
    )
    shapes = {n: (16, 16) for n in "PQRB"}
    # a 3-deep chain is unrealizable: either the wave depth exceeds the one
    # supported barrier level, or the mid producer's extended compute would
    # read an array another member writes
    with pytest.raises(TransformError, match="depth|writes"):
        fuse_kernels(
            "K", cs, (8, 8, 1), shapes,
            precedence=[(0, 1, "P"), (1, 2, "Q")],
        )
    # two-kernel chain is fine (depth 2)
    fused = fuse_kernels(
        "K", cs[:2], (8, 8, 1), shapes, precedence=[(0, 1, "P")],
    )
    new_program = run_fused(program, [fused])
    before = run_program(program)
    after = run_program(new_program)
    assert np.allclose(before.arrays["P"], after.arrays["P"])
    assert np.allclose(before.arrays["Q"], after.arrays["Q"])


def test_differing_loop_bounds_aligned(three_kernel_program):
    """k-loops of different lengths merge with guard conditionals (§5.5.2)."""
    src = THREE_KERNEL_SRC.replace(
        "__global__ void k2(double *C, const double *B, int nx, int ny, int nz) {\n"
        "    int i = blockIdx.x * blockDim.x + threadIdx.x;\n"
        "    int j = blockIdx.y * blockDim.y + threadIdx.y;\n"
        "    if (i < nx && j < ny) {\n"
        "        for (int k = 0; k < nz; k++) {",
        "__global__ void k2(double *C, const double *B, int nx, int ny, int nz) {\n"
        "    int i = blockIdx.x * blockDim.x + threadIdx.x;\n"
        "    int j = blockIdx.y * blockDim.y + threadIdx.y;\n"
        "    if (i < nx && j < ny) {\n"
        "        for (int k = 0; k < nz - 3; k++) {",
    )
    program = parse_program(src)
    c1, c2 = consts(
        program,
        [
            ("k1", ["A", "B"], (32, 32, 8), (4, 4, 1), (8, 8, 1)),
            ("k2", ["C", "B"], (32, 32, 8), (4, 4, 1), (8, 8, 1)),
        ],
    )
    fused = fuse_kernels("K_00", [c1, c2], (8, 8, 1), SHAPES3)
    text = unparse(fused.kernel)
    assert "k < 5" in text  # k2's shorter loop guarded
    new_program = run_fused(program, [fused])
    before = run_program(program)
    after = run_program(new_program)
    assert np.allclose(before.arrays["A"], after.arrays["A"])
    assert np.allclose(before.arrays["C"], after.arrays["C"])


def test_smaller_extent_gets_extent_guard(three_kernel_program):
    c1, c2 = consts(
        three_kernel_program,
        [
            ("k1", ["A", "B"], (32, 32, 8), (4, 4, 1), (8, 8, 1)),
            ("k2", ["C", "B"], (32, 32, 8), (2, 4, 1), (8, 8, 1)),  # half x
        ],
    )
    fused = fuse_kernels("K_00", [c1, c2], (8, 8, 1), SHAPES3)
    assert fused.grid[0] == 4  # max extent wins
    text = unparse(fused.kernel)
    assert "i < 16" in text  # k2 clamped to its own extent


def test_smem_limit_enforced(three_kernel_program):
    c1, c2 = consts(
        three_kernel_program,
        [
            ("k1", ["A", "B"], (32, 32, 8), (4, 4, 1), (8, 8, 1)),
            ("k2", ["C", "B"], (32, 32, 8), (4, 4, 1), (8, 8, 1)),
        ],
    )
    with pytest.raises(TransformError, match="shared memory"):
        fuse_kernels(
            "K_00", [c1, c2], (8, 8, 1), SHAPES3,
            options=FusionOptions(smem_limit=100),
        )


def test_divergence_traits_depend_on_strategy(three_kernel_program):
    c1, c2 = consts(
        three_kernel_program,
        [
            ("k1", ["A", "B"], (32, 32, 8), (4, 4, 1), (8, 8, 1)),
            ("k2", ["C", "B"], (32, 32, 8), (4, 4, 1), (8, 8, 1)),
        ],
    )
    auto = fuse_kernels("K", [c1, c2], (8, 8, 1), SHAPES3,
                        options=FusionOptions(one_sided_guards=False))
    manual = fuse_kernels("K", [c1, c2], (8, 8, 1), SHAPES3,
                          options=FusionOptions(one_sided_guards=True))
    assert auto.traits.divergence_factor > manual.traits.divergence_factor


def test_scalar_args_deduplicated(three_kernel_program):
    c1, c2 = consts(
        three_kernel_program,
        [
            ("k1", ["A", "B"], (32, 32, 8), (4, 4, 1), (8, 8, 1)),
            ("k2", ["C", "B"], (32, 32, 8), (4, 4, 1), (8, 8, 1)),
        ],
    )
    fused = fuse_kernels("K", [c1, c2], (8, 8, 1), SHAPES3)
    scalar_names = [p.name for p in fused.kernel.scalar_params()]
    # nx, ny, nz shared between constituents -> one parameter each
    assert scalar_names == ["nx", "ny", "nz"]


def test_copy_kernel_is_no_fusion_case(three_kernel_program):
    original = three_kernel_program.kernel("k1")
    copy = copy_kernel(original, "K_99")
    assert copy.body == original.body
    assert copy.name == "K_99"


def test_non_canonical_kernel_rejected():
    program = parse_program(
        "__global__ void odd(double *A, int n) {"
        " while (n > 0) { A[0] = 1.0; n = n - 1; } }\n"
        "int main() { int n = 4; double *A = cudaMalloc1D(8);"
        " odd<<<dim3(1, 1, 1), dim3(8, 1, 1)>>>(A, n); return 0; }"
    )
    assert extract_model(program.kernel("odd")) is None
    with pytest.raises(TransformError, match="not canonical"):
        make_constituent(
            program.kernel("odd"), ["A"], (ast.IntLit(4),), [4], (1, 1, 1), (8, 1, 1)
        )


@given(
    coeff=st.floats(min_value=-2.0, max_value=2.0).map(lambda v: round(v, 3)),
    radius=st.integers(min_value=0, max_value=2),
    block_x=st.sampled_from([8, 16]),
)
@settings(max_examples=25, deadline=None)
def test_fusion_semantics_property(coeff, radius, block_x):
    """Fusing two kernels sharing a stencil input preserves semantics for
    any coefficient, radius and block shape."""
    terms = " + ".join(
        f"B[i + {d}][j][k] + B[i - {d}][j][k]" for d in range(1, radius + 1)
    ) or "B[i][j][k]"
    source = f"""
__global__ void ka(double *A, const double *B, int nx, int ny, int nz) {{
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    int j = blockIdx.y * blockDim.y + threadIdx.y;
    if (i >= {radius} && i < nx - {radius} && j < ny) {{
        for (int k = 0; k < nz; k++) {{
            A[i][j][k] = {coeff} * ({terms});
        }}
    }}
}}
__global__ void kb(double *C, const double *B, int nx, int ny, int nz) {{
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    int j = blockIdx.y * blockDim.y + threadIdx.y;
    if (i < nx && j < ny) {{
        for (int k = 0; k < nz; k++) {{
            C[i][j][k] = B[i][j][k] + {coeff};
        }}
    }}
}}
int main() {{
    int nx = 32; int ny = 16; int nz = 4;
    double *A = cudaMalloc3D(nx, ny, nz);
    double *B = cudaMalloc3D(nx, ny, nz);
    double *C = cudaMalloc3D(nx, ny, nz);
    deviceRandom(B, 11);
    dim3 grid({32 // block_x}, 2, 1);
    dim3 block({block_x}, 8, 1);
    ka<<<grid, block>>>(A, B, nx, ny, nz);
    kb<<<grid, block>>>(C, B, nx, ny, nz);
    return 0;
}}
"""
    program = parse_program(source)
    grid = (32 // block_x, 2, 1)
    block = (block_x, 8, 1)
    cs = consts(
        program,
        [
            ("ka", ["A", "B"], (32, 16, 4), grid, block),
            ("kb", ["C", "B"], (32, 16, 4), grid, block),
        ],
    )
    fused = fuse_kernels(
        "K", cs, block, {n: (32, 16, 4) for n in "ABC"}
    )
    new_program = run_fused(program, [fused])
    before = run_program(program)
    after = run_program(new_program)
    assert np.allclose(before.arrays["A"], after.arrays["A"])
    assert np.allclose(before.arrays["C"], after.arrays["C"])
