"""Interpreter tests: vectorized and per-block execution semantics."""

import numpy as np
import pytest

from repro.cudalite import parse_program
from repro.errors import InterpreterError, OutOfBoundsError
from repro.gpu.interpreter import (
    Dim3,
    RunResult,
    outputs_equal,
    run_program,
    trace_launches,
)


def run(source, **kw):
    return run_program(parse_program(source), **kw)


def wrap(kernel_src, body):
    return f"{kernel_src}\nint main() {{ {body} return 0; }}"


def test_diffuse_numerics(diffuse_program):
    result = run_program(diffuse_program)
    A, B = result.arrays["A"], result.arrays["B"]
    i, j, k = 5, 9, 3
    expected = 0.25 * (
        B[i + 1, j, k] + B[i - 1, j, k] + B[i, j + 1, k] + B[i, j - 1, k]
        - 4.0 * B[i, j, k]
    )
    assert np.isclose(A[i, j, k], expected)


def test_guard_keeps_boundary_untouched(diffuse_program):
    result = run_program(diffuse_program)
    A = result.arrays["A"]
    assert np.all(A[0, :, :] == 0.0)
    assert np.all(A[-1, :, :] == 0.0)
    assert np.all(A[:, 0, :] == 0.0)


def test_deviceRandom_is_seeded_deterministic(diffuse_program):
    r1 = run_program(diffuse_program)
    r2 = run_program(diffuse_program)
    assert np.array_equal(r1.arrays["B"], r2.arrays["B"])


def test_deviceFill():
    result = run(
        "int main() { int n = 16; double *A = cudaMalloc1D(n);"
        " deviceFill(A, 3.5); return 0; }"
    )
    assert np.all(result.arrays["A"] == 3.5)


def test_launch_record(diffuse_program):
    result = run_program(diffuse_program)
    assert len(result.launches) == 1
    record = result.launches[0]
    assert record.kernel == "diffuse"
    assert record.grid == Dim3(4, 4, 1)
    assert record.block == Dim3(8, 8, 1)
    assert record.array_args == ("A", "B")
    assert record.scalar_args == (32, 32, 8, 0.25)


def test_trace_launches_skips_execution(diffuse_program):
    result = trace_launches(diffuse_program)
    assert len(result.launches) == 1
    assert np.all(result.arrays["A"] == 0.0)  # kernel body never ran


def test_compound_assignment_on_array():
    result = run(wrap(
        "__global__ void k(double *A, int n) {"
        " int i = blockIdx.x * blockDim.x + threadIdx.x;"
        " if (i < n) { A[i] = 2.0; A[i] += 3.0; A[i] *= 2.0; } }",
        "int n = 64; double *A = cudaMalloc1D(n);"
        " k<<<dim3(1, 1, 1), dim3(64, 1, 1)>>>(A, n);",
    ))
    assert np.all(result.arrays["A"] == 10.0)


def test_c_integer_division_truncates():
    result = run(wrap(
        "__global__ void k(double *A, int n) {"
        " int i = blockIdx.x * blockDim.x + threadIdx.x;"
        " int h = i / 2; if (i < n) { A[i] = h * 1.0; } }",
        "int n = 8; double *A = cudaMalloc1D(n);"
        " k<<<dim3(1, 1, 1), dim3(8, 1, 1)>>>(A, n);",
    ))
    assert list(result.arrays["A"]) == [0, 0, 1, 1, 2, 2, 3, 3]


def test_modulo():
    result = run(wrap(
        "__global__ void k(double *A, int n) {"
        " int i = blockIdx.x * blockDim.x + threadIdx.x;"
        " if (i < n) { A[i] = i % 3; } }",
        "int n = 6; double *A = cudaMalloc1D(n);"
        " k<<<dim3(1, 1, 1), dim3(8, 1, 1)>>>(A, n);",
    ))
    assert list(result.arrays["A"]) == [0, 1, 2, 0, 1, 2]


def test_ternary_expression():
    result = run(wrap(
        "__global__ void k(double *A, int n) {"
        " int i = blockIdx.x * blockDim.x + threadIdx.x;"
        " if (i < n) { A[i] = i < 3 ? 1.0 : 2.0; } }",
        "int n = 6; double *A = cudaMalloc1D(n);"
        " k<<<dim3(1, 1, 1), dim3(8, 1, 1)>>>(A, n);",
    ))
    assert list(result.arrays["A"]) == [1, 1, 1, 2, 2, 2]


def test_math_intrinsics():
    result = run(wrap(
        "__global__ void k(double *A, int n) {"
        " int i = blockIdx.x * blockDim.x + threadIdx.x;"
        " if (i < n) { A[i] = sqrt(4.0) + max(1.0, 2.0) + fabs(-3.0); } }",
        "int n = 4; double *A = cudaMalloc1D(n);"
        " k<<<dim3(1, 1, 1), dim3(4, 1, 1)>>>(A, n);",
    ))
    assert np.allclose(result.arrays["A"], 7.0)


def test_else_branch_masked():
    result = run(wrap(
        "__global__ void k(double *A, int n) {"
        " int i = blockIdx.x * blockDim.x + threadIdx.x;"
        " if (i < 2) { A[i] = 1.0; } else { A[i] = 9.0; } }",
        "int n = 4; double *A = cudaMalloc1D(n);"
        " k<<<dim3(1, 1, 1), dim3(4, 1, 1)>>>(A, n);",
    ))
    assert list(result.arrays["A"]) == [1, 1, 9, 9]


def test_out_of_bounds_active_read_raises():
    with pytest.raises(OutOfBoundsError):
        run(wrap(
            "__global__ void k(double *A, int n) {"
            " int i = blockIdx.x * blockDim.x + threadIdx.x;"
            " if (i < n) { A[i] = A[i + 1]; } }",  # i == n-1 reads A[n]
            "int n = 8; double *A = cudaMalloc1D(n);"
            " k<<<dim3(1, 1, 1), dim3(8, 1, 1)>>>(A, n);",
        ))


def test_out_of_bounds_masked_read_is_safe():
    result = run(wrap(
        "__global__ void k(double *A, int n) {"
        " int i = blockIdx.x * blockDim.x + threadIdx.x;"
        " if (i < n - 1) { A[i] = A[i + 1] + 1.0; } }",
        "int n = 8; double *A = cudaMalloc1D(n);"
        " k<<<dim3(1, 1, 1), dim3(8, 1, 1)>>>(A, n);",
    ))
    assert result.arrays["A"][7] == 0.0


def test_sequential_loop_over_k(diffuse_program):
    result = run_program(diffuse_program)
    # every interior k plane was written
    A = result.arrays["A"]
    assert not np.all(A[1:-1, 1:-1, :] == 0.0)


def test_thread_dependent_loop_bound_rejected():
    with pytest.raises(InterpreterError, match="thread-invariant"):
        run(wrap(
            "__global__ void k(double *A, int n) {"
            " int i = blockIdx.x * blockDim.x + threadIdx.x;"
            " for (int m = 0; m < i; m++) { A[m] = 1.0; } }",
            "int n = 8; double *A = cudaMalloc1D(n);"
            " k<<<dim3(1, 1, 1), dim3(8, 1, 1)>>>(A, n);",
        ))


def test_shared_memory_tile_roundtrip():
    result = run(wrap(
        "__global__ void k(double *A, const double *B, int n) {"
        " __shared__ double t[8];"
        " int tx = threadIdx.x;"
        " int i = blockIdx.x * blockDim.x + tx;"
        " t[tx] = B[i];"
        " __syncthreads();"
        " A[i] = t[tx] * 2.0; }",
        "int n = 32; double *A = cudaMalloc1D(n); double *B = cudaMalloc1D(n);"
        " deviceRandom(B, 5);"
        " k<<<dim3(4, 1, 1), dim3(8, 1, 1)>>>(A, B, n);",
    ))
    assert np.allclose(result.arrays["A"], result.arrays["B"] * 2.0)


def test_shared_memory_is_block_scoped():
    """A tile holds only its own block's data: neighbour reads that fall
    outside the tile (no halo loaded) produce zeros, not other blocks'
    values."""
    result = run(wrap(
        "__global__ void k(double *A, const double *B, int n) {"
        " __shared__ double t[9];"
        " int tx = threadIdx.x;"
        " int i = blockIdx.x * blockDim.x + tx;"
        " t[tx] = B[i];"
        " __syncthreads();"
        " A[i] = t[tx + 1]; }",  # last thread of each block reads unset cell
        "int n = 16; double *A = cudaMalloc1D(n); double *B = cudaMalloc1D(n);"
        " deviceFill(B, 5.0);"
        " k<<<dim3(2, 1, 1), dim3(8, 1, 1)>>>(A, B, n);",
    ))
    A = result.arrays["A"]
    assert A[6] == 5.0
    assert A[7] == 0.0  # t[8] never loaded in block 0
    assert A[15] == 0.0


def test_block_order_reverse_same_result_for_race_free(diffuse_program):
    forward = run_program(diffuse_program)
    reverse = run_program(diffuse_program, block_order="reverse")
    assert outputs_equal(forward, reverse)


def test_block_order_exposes_interblock_race():
    """A kernel whose blocks read neighbours that other blocks overwrite
    gives different answers under different block schedules."""
    source = wrap(
        "__global__ void k(double *A, int n) {"
        " int i = blockIdx.x * blockDim.x + threadIdx.x;"
        " if (i >= 1 && i < n - 1) { A[i] = A[i - 1] + 1.0; } }",
        "int n = 32; double *A = cudaMalloc1D(n); deviceFill(A, 1.0);"
        " k<<<dim3(4, 1, 1), dim3(8, 1, 1)>>>(A, n);",
    )
    program = parse_program(source)
    # force per-block mode by adding __shared__? not needed: vectorized mode
    # is deterministic; this test documents the per-block path instead
    shared_source = source.replace(
        "int i = blockIdx.x",
        "__shared__ double t[8]; int i = blockIdx.x",
    )
    fwd = run_program(parse_program(shared_source))
    rev = run_program(parse_program(shared_source), block_order="reverse")
    assert not outputs_equal(fwd, rev)


def test_write_write_race_detection():
    with pytest.raises(InterpreterError, match="race"):
        run(wrap(
            "__global__ void k(double *A, int n) {"
            " int i = blockIdx.x * blockDim.x + threadIdx.x;"
            " if (i < n) { A[0] = i * 1.0; } }",
            "int n = 8; double *A = cudaMalloc1D(n);"
            " k<<<dim3(1, 1, 1), dim3(8, 1, 1)>>>(A, n);",
        ), detect_races=True)


def test_benign_same_value_writes_allowed():
    result = run(wrap(
        "__global__ void k(double *A, int n) {"
        " int i = blockIdx.x * blockDim.x + threadIdx.x;"
        " if (i < n) { A[0] = 7.0; } }",
        "int n = 8; double *A = cudaMalloc1D(n);"
        " k<<<dim3(1, 1, 1), dim3(8, 1, 1)>>>(A, n);",
    ), detect_races=True)
    assert result.arrays["A"][0] == 7.0


def test_host_for_loop():
    result = run(
        "__global__ void k(double *A, int n) {"
        " int i = blockIdx.x * blockDim.x + threadIdx.x;"
        " if (i < n) { A[i] += 1.0; } }\n"
        "int main() { int n = 8; double *A = cudaMalloc1D(n);"
        " for (int t = 0; t < 3; t++) {"
        " k<<<dim3(1, 1, 1), dim3(8, 1, 1)>>>(A, n); }"
        " return 0; }"
    )
    assert np.all(result.arrays["A"] == 3.0)
    assert len(result.launches) == 3


def test_2d_array_allocation():
    result = run(
        "__global__ void k(double *A, int nx, int ny) {"
        " int i = blockIdx.x * blockDim.x + threadIdx.x;"
        " int j = blockIdx.y * blockDim.y + threadIdx.y;"
        " if (i < nx && j < ny) { A[i][j] = i * 100.0 + j; } }\n"
        "int main() { int nx = 8; int ny = 4;"
        " double *A = cudaMalloc2D(nx, ny);"
        " k<<<dim3(1, 1, 1), dim3(8, 4, 1)>>>(A, nx, ny); return 0; }"
    )
    assert result.arrays["A"][3, 2] == 302.0


def test_outputs_equal_mismatched_sets():
    a = run("int main() { double *A = cudaMalloc1D(4); return 0; }")
    b = run("int main() { double *B = cudaMalloc1D(4); return 0; }")
    assert not outputs_equal(a, b)


def test_outputs_equal_compares_bits():
    def equal(x, y):
        return outputs_equal(RunResult({"A": np.array(x)}), RunResult({"A": np.array(y)}))

    quiet = np.float64(np.nan)
    payload = np.frombuffer(
        (np.float64(np.nan).view(np.uint64) | np.uint64(1)).tobytes(), np.float64
    )[0]
    assert equal([1.0, quiet], [1.0, quiet])
    assert not equal([quiet], [payload])  # NaN equals NaN only bit for bit
    assert not equal([0.0], [-0.0])
    assert not equal([0.1], [np.nextafter(0.1, 1.0)])
    assert not equal([1.0, 2.0], [[1.0, 2.0]])  # shape
    assert not equal(np.array([1, 2], np.int32), np.array([1, 2], np.int64))
    assert equal(np.array([1, 2], np.int32), np.array([1, 2], np.int32))


def test_return_stops_host():
    result = run(
        "__global__ void k(double *A, int n) { }\n"
        "int main() { int n = 4; double *A = cudaMalloc1D(n); return 0;"
        " k<<<dim3(1, 1, 1), dim3(4, 1, 1)>>>(A, n); }"
    )
    assert len(result.launches) == 0
