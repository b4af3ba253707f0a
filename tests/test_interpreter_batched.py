"""Equivalence of the two per-block execution strategies.

The batched mode evaluates every statement across all blocks of the launch
grid as one extra numpy axis; the loop mode visits blocks one at a time.
For kernels where both apply they must agree *bit-exactly* — including on
deliberately broken kernels (insufficient halo), which must produce the
same wrong answer under both strategies.
"""

import numpy as np
import pytest

from repro.cudalite import parse_program
from repro.errors import InterpreterError, OutOfBoundsError
from repro.gpu.interpreter import run_program
from repro.pipeline.framework import transform_program


def run(source, **kw):
    return run_program(parse_program(source), **kw)


def wrap(kernel_src, body):
    return f"{kernel_src}\nint main() {{ {body} return 0; }}"


def assert_bit_equal(a, b):
    assert set(a.arrays) == set(b.arrays)
    for name in a.arrays:
        assert np.array_equal(a.arrays[name], b.arrays[name]), name


TILE_1D = wrap(
    "__global__ void k(const double *B, double *A, int n) {"
    " __shared__ double t[10];"
    " int tx = threadIdx.x;"
    " int i = blockIdx.x * blockDim.x + tx;"
    " t[tx + 1] = B[i];"
    " if (tx == 0 && i > 0) { t[0] = B[i - 1]; }"
    " if (tx == blockDim.x - 1 && i < n - 1) { t[9] = B[i + 1]; }"
    " __syncthreads();"
    " if (i > 0 && i < n - 1) {"
    "   A[i] = 0.25 * t[tx] + 0.5 * t[tx + 1] + 0.25 * t[tx + 2]; } }",
    "int n = 64; double *A = cudaMalloc1D(n); double *B = cudaMalloc1D(n);"
    " deviceRandom(B, 7);"
    " k<<<dim3(8, 1, 1), dim3(8, 1, 1)>>>(B, A, n);",
)

TILE_2D = wrap(
    "__global__ void k(const double *B, double *A, int nx, int ny) {"
    " __shared__ double t[8][8];"
    " int tx = threadIdx.x; int ty = threadIdx.y;"
    " int i = blockIdx.x * blockDim.x + tx;"
    " int j = blockIdx.y * blockDim.y + ty;"
    " t[tx][ty] = B[i][j];"
    " __syncthreads();"
    " if (tx >= 1 && tx < 7 && ty >= 1 && ty < 7) {"
    "   A[i][j] = t[tx - 1][ty] + t[tx + 1][ty] + t[tx][ty - 1]"
    "     + t[tx][ty + 1] - 4.0 * t[tx][ty]; } }",
    "int nx = 32; int ny = 32;"
    " double *A = cudaMalloc2D(nx, ny); double *B = cudaMalloc2D(nx, ny);"
    " deviceRandom(B, 11);"
    " k<<<dim3(4, 4, 1), dim3(8, 8, 1)>>>(B, A, nx, ny);",
)

# stages the tile without any halo cells, then reads one cell to the right:
# the last thread of every block reads a cell its block never wrote (kept at
# the 0.0 the tile was initialised with) — the classic insufficient-halo bug
BROKEN_HALO = wrap(
    "__global__ void k(const double *B, double *A, int n) {"
    " __shared__ double t[9];"
    " int tx = threadIdx.x;"
    " int i = blockIdx.x * blockDim.x + tx;"
    " t[tx] = B[i];"
    " __syncthreads();"
    " if (i < n - 1) { A[i] = t[tx] + t[tx + 1]; } }",
    "int n = 64; double *A = cudaMalloc1D(n); double *B = cudaMalloc1D(n);"
    " deviceRandom(B, 3);"
    " k<<<dim3(8, 1, 1), dim3(8, 1, 1)>>>(B, A, n);",
)


@pytest.mark.parametrize("source", [TILE_1D, TILE_2D], ids=["1d", "2d"])
@pytest.mark.parametrize("order", ["forward", "reverse"])
def test_tiled_stencils_bit_exact(source, order):
    loop = run(source, block_order=order, block_exec="loop")
    batched = run(source, block_order=order, block_exec="batched")
    assert_bit_equal(loop, batched)


def test_auto_picks_batched_result_for_clean_tile():
    auto = run(TILE_1D, block_exec="auto")
    loop = run(TILE_1D, block_exec="loop")
    assert_bit_equal(auto, loop)


def test_insufficient_halo_fails_identically():
    """A broken kernel must be *equally* wrong in both modes."""
    loop = run(BROKEN_HALO, block_exec="loop")
    batched = run(BROKEN_HALO, block_exec="batched")
    assert_bit_equal(loop, batched)
    # and it IS wrong: the seam cells see the unstaged 0.0 neighbour
    B, A = loop.arrays["B"], loop.arrays["A"]
    assert A[7] == B[7]  # t[8] was never staged: the B[8] term is missing
    assert A[6] == B[6] + B[7]  # interior cells are fine


def test_shared_scalar_store_per_block_semantics():
    """A thread-invariant store into a tile takes the value of the block's
    first *active* thread — per block, under both strategies."""
    source = wrap(
        "__global__ void k(const double *B, double *A, int n) {"
        " __shared__ double t[1];"
        " int tx = threadIdx.x;"
        " int i = blockIdx.x * blockDim.x + tx;"
        " if (tx >= 3) { t[0] = B[i]; }"
        " __syncthreads();"
        " A[i] = t[0]; }",
        "int n = 32; double *A = cudaMalloc1D(n); double *B = cudaMalloc1D(n);"
        " deviceRandom(B, 5);"
        " k<<<dim3(4, 1, 1), dim3(8, 1, 1)>>>(B, A, n);",
    )
    loop = run(source, block_exec="loop")
    batched = run(source, block_exec="batched")
    assert_bit_equal(loop, batched)
    # block b's tile holds B[8 b + 3] (first active thread is tx == 3)
    B, A = loop.arrays["B"], loop.arrays["A"]
    assert np.array_equal(A, np.repeat(B[3::8], 8))


@pytest.mark.parametrize("order", ["forward", "reverse"])
def test_global_scalar_store_last_block_wins(order):
    """A thread-invariant store to a *global* cell keeps the last visited
    active block's value, whichever strategy executes the launch."""
    source = wrap(
        "__global__ void k(double *A, int n) {"
        " __shared__ double t[1];"
        " double v = blockIdx.x * 10.0 + threadIdx.x;"
        " if (blockIdx.x != 2) { A[0] = v; } }",
        "int n = 8; double *A = cudaMalloc1D(n);"
        " k<<<dim3(4, 1, 1), dim3(4, 1, 1)>>>(A, n);",
    )
    loop = run(source, block_order=order, block_exec="loop")
    batched = run(source, block_order=order, block_exec="batched")
    assert_bit_equal(loop, batched)
    expected = 30.0 if order == "forward" else 0.0  # block 2 is masked out
    assert loop.arrays["A"][0] == expected


def test_uniform_loop_inside_tile_kernel():
    source = wrap(
        "__global__ void k(const double *B, double *A, int n, int reps) {"
        " __shared__ double t[8];"
        " int tx = threadIdx.x;"
        " int i = blockIdx.x * blockDim.x + tx;"
        " t[tx] = B[i];"
        " __syncthreads();"
        " double acc = 0.0;"
        " for (int r = 0; r < reps; r = r + 1) { acc = acc + t[tx] * (r + 1.0); }"
        " A[i] = acc; }",
        "int n = 32; int reps = 5;"
        " double *A = cudaMalloc1D(n); double *B = cudaMalloc1D(n);"
        " deviceRandom(B, 9);"
        " k<<<dim3(4, 1, 1), dim3(8, 1, 1)>>>(B, A, n, reps);",
    )
    assert_bit_equal(
        run(source, block_exec="loop"), run(source, block_exec="batched")
    )


# ------------------------------------------------------- auto-mode fallbacks


CROSS_BLOCK_CHAIN = wrap(
    "__global__ void k(double *A, int n) {"
    " __shared__ double t[8];"
    " int i = blockIdx.x * blockDim.x + threadIdx.x;"
    " if (i >= 1 && i < n - 1) { A[i] = A[i - 1] + 1.0; } }",
    "int n = 32; double *A = cudaMalloc1D(n); deviceFill(A, 1.0);"
    " k<<<dim3(4, 1, 1), dim3(8, 1, 1)>>>(A, n);",
)


def test_auto_falls_back_on_global_rw_conflict():
    """Kernels that read an array they also write depend on the block
    schedule; ``auto`` must keep them on the sequential loop so that
    ``block_order`` comparisons still expose the race."""
    for order in ("forward", "reverse"):
        auto = run(CROSS_BLOCK_CHAIN, block_order=order, block_exec="auto")
        loop = run(CROSS_BLOCK_CHAIN, block_order=order, block_exec="loop")
        assert_bit_equal(auto, loop)
    fwd = run(CROSS_BLOCK_CHAIN, block_order="forward", block_exec="auto")
    rev = run(CROSS_BLOCK_CHAIN, block_order="reverse", block_exec="auto")
    assert not np.array_equal(fwd.arrays["A"], rev.arrays["A"])


def test_auto_falls_back_on_block_dependent_loop_bound():
    source = wrap(
        "__global__ void k(double *A, int n) {"
        " __shared__ double t[1];"
        " int i = blockIdx.x * blockDim.x + threadIdx.x;"
        " double s = 0.0;"
        " for (int r = 0; r < blockIdx.x + 1; r = r + 1) { s = s + 1.0; }"
        " if (i < n) { A[i] = s; } }",
        "int n = 32; double *A = cudaMalloc1D(n);"
        " k<<<dim3(4, 1, 1), dim3(8, 1, 1)>>>(A, n);",
    )
    result = run(source, block_exec="auto")
    assert np.array_equal(
        result.arrays["A"], np.repeat([1.0, 2.0, 3.0, 4.0], 8)
    )
    # forcing the batched mode on this kernel is a user error and says so
    with pytest.raises(InterpreterError, match="thread-invariant"):
        run(source, block_exec="batched")


def test_detect_races_uses_loop_mode():
    # per-block race checks still fire with batched requested
    source = wrap(
        "__global__ void k(double *A, int n) {"
        " __shared__ double t[1];"
        " int i = blockIdx.x * blockDim.x + threadIdx.x;"
        " A[0] = i * 1.0; }",
        "int n = 8; double *A = cudaMalloc1D(n);"
        " k<<<dim3(1, 1, 1), dim3(8, 1, 1)>>>(A, n);",
    )
    with pytest.raises(InterpreterError, match="race"):
        run(source, detect_races=True, block_exec="batched")


def test_out_of_bounds_raises_in_both_modes():
    source = wrap(
        "__global__ void k(const double *B, double *A, int n) {"
        " __shared__ double t[8];"
        " int tx = threadIdx.x;"
        " int i = blockIdx.x * blockDim.x + tx;"
        " t[tx] = B[i];"
        " __syncthreads();"
        " A[i] = t[tx - 1]; }",  # tx == 0 underflows the tile
        "int n = 16; double *A = cudaMalloc1D(n); double *B = cudaMalloc1D(n);"
        " k<<<dim3(2, 1, 1), dim3(8, 1, 1)>>>(B, A, n);",
    )
    for mode in ("loop", "batched"):
        with pytest.raises(OutOfBoundsError, match="axis 0"):
            run(source, block_exec=mode)


def test_unknown_mode_rejected():
    with pytest.raises(InterpreterError, match="block_exec"):
        run(TILE_1D, block_exec="warp")


# ------------------------------------------------------ end-to-end / config


def test_pipeline_fused_program_bit_exact_across_modes(chain_program):
    """The pipeline's generated (temporal-blocked) kernels must agree
    between the strategies even when forced onto the batched path."""
    state = transform_program(chain_program)
    fused = state.transform.program
    for order in ("forward", "reverse"):
        loop = run_program(fused, block_order=order, block_exec="loop")
        batched = run_program(fused, block_order=order, block_exec="batched")
        assert_bit_equal(loop, batched)
