"""Array-access analysis tests."""

import pytest

from repro.analysis.accesses import (
    IRREGULAR,
    collect_accesses,
    find_global_index_vars,
    find_loops,
    linear_index_term,
    max_loop_depth,
    shared_arrays_between,
)
from repro.analysis.metadata import ProgramMetadata
from repro.cudalite import parse_program
from repro.cudalite.parser import parse_expr, parse_kernel
from repro.gpu.device import K20X
from repro.graphs import invocation_table


DIFFUSE = """
__global__ void diffuse(double *A, const double *B, int nx, int ny, int nz, double c) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    int j = blockIdx.y * blockDim.y + threadIdx.y;
    if (i >= 1 && i < nx - 1 && j >= 1 && j < ny - 1) {
        for (int k = 0; k < nz; k++) {
            A[i][j][k] = c * (B[i + 1][j][k] + B[i - 1][j][k] + B[i][j + 2][k]);
        }
    }
}
"""


def test_find_global_index_vars():
    kernel = parse_kernel(DIFFUSE)
    assert find_global_index_vars(kernel) == {"i": "x", "j": "y"}


def test_index_var_commuted_forms():
    kernel = parse_kernel(
        "__global__ void k(double *A) {"
        " int i = threadIdx.x + blockIdx.x * blockDim.x;"
        " int j = blockDim.y * blockIdx.y + threadIdx.y;"
        " A[i][j] = 1.0; }"
    )
    assert find_global_index_vars(kernel) == {"i": "x", "j": "y"}


def test_index_var_aliasing():
    kernel = parse_kernel(
        "__global__ void k(double *A) {"
        " int tx = blockIdx.x * blockDim.x + threadIdx.x;"
        " int i = tx;"
        " A[i] = 1.0; }"
    )
    vars_ = find_global_index_vars(kernel)
    assert vars_["tx"] == "x"
    assert vars_["i"] == "x"


def test_bare_threadidx_recognized():
    kernel = parse_kernel(
        "__global__ void k(double *A) { int t = threadIdx.x; A[t] = 1.0; }"
    )
    assert find_global_index_vars(kernel) == {"t": "x"}


def test_linear_index_term():
    assert linear_index_term(parse_expr("i")) == ("i", 0)
    assert linear_index_term(parse_expr("i + 3")) == ("i", 3)
    assert linear_index_term(parse_expr("i - 2")) == ("i", -2)
    assert linear_index_term(parse_expr("2 + i")) == ("i", 2)
    assert linear_index_term(parse_expr("5")) == (None, 5)
    assert linear_index_term(parse_expr("i * 2"))[0] == IRREGULAR


def test_read_write_sets():
    acc = collect_accesses(parse_kernel(DIFFUSE))
    assert acc.arrays_read == {"B"}
    assert acc.arrays_written == {"A"}


def test_read_offsets_and_radius():
    acc = collect_accesses(parse_kernel(DIFFUSE))
    info = acc.arrays["B"]
    offsets = info.read_offsets(("i", "j", "k"))
    assert (1, 0, 0) in offsets
    assert (-1, 0, 0) in offsets
    assert (0, 2, 0) in offsets
    assert info.halo_radius(("i", "j")) == 2


def test_statement_records():
    acc = collect_accesses(parse_kernel(DIFFUSE))
    # two index declarations + one assignment
    assert len(acc.statements) == 3
    assert all(s.flops == 0 for s in acc.statements[:2])
    stmt = acc.statements[-1]
    assert stmt.arrays_read == frozenset({"B"})
    assert stmt.arrays_written == frozenset({"A"})
    assert stmt.loop_context == ("k",)
    assert stmt.guard_depth == 1
    assert stmt.flops > 0


def test_compound_assignment_reads_target():
    kernel = parse_kernel(
        "__global__ void k(double *A, const double *B, int n) {"
        " int i = threadIdx.x;"
        " A[i] += B[i]; }"
    )
    acc = collect_accesses(kernel)
    assert "A" in acc.arrays_read
    assert "A" in acc.arrays_written


def test_scalar_dataflow_tracked():
    kernel = parse_kernel(
        "__global__ void k(double *A, const double *B, int n) {"
        " int i = threadIdx.x;"
        " double t = B[i] * 2.0;"
        " A[i] = t; }"
    )
    acc = collect_accesses(kernel)
    stmt = acc.statements[-1]
    assert "t" in stmt.scalars_read


def test_irregular_access_flagged():
    kernel = parse_kernel(
        "__global__ void k(double *A, const double *B, int n) {"
        " int i = threadIdx.x;"
        " A[i] = B[i * 2]; }"
    )
    acc = collect_accesses(kernel)
    assert acc.has_irregular
    assert acc.arrays["B"].irregular


def test_uses_shared_flag():
    kernel = parse_kernel(
        "__global__ void k(double *A) { __shared__ double t[8]; int i = threadIdx.x;"
        " t[i] = 1.0; A[i] = t[i]; }"
    )
    acc = collect_accesses(kernel)
    assert acc.uses_shared
    # shared tiles are not part of the global footprint
    assert "t" not in acc.arrays


def test_find_loops_depth():
    kernel = parse_kernel(
        "__global__ void k(double *A, int n) {"
        " for (int a = 0; a < n; a++) {"
        "   for (int b = 0; b < 4; b++) { A[a] += b * 1.0; }"
        " } }"
    )
    loops = find_loops(kernel)
    assert [(l.var, l.depth) for l in loops] == [("a", 0), ("b", 1)]
    assert max_loop_depth(kernel) == 2


def test_per_array_flops():
    acc = collect_accesses(parse_kernel(DIFFUSE))
    flops = acc.per_array_flops()
    assert flops["A"] == flops["B"] == acc.total_flops_per_point


def test_shared_arrays_between():
    k1 = parse_kernel(
        "__global__ void a(double *X, const double *S, int n) {"
        " int i = threadIdx.x; X[i] = S[i]; }"
    )
    k2 = parse_kernel(
        "__global__ void b(double *Y, const double *S, int n) {"
        " int i = threadIdx.x; Y[i] = S[i]; }"
    )
    assert shared_arrays_between(collect_accesses(k1), collect_accesses(k2)) == {"S"}


#: a pointer read in each construct the summary once skipped
WALK_COVERAGE = {
    "for-step": "for (int t = 0; t < n; t += S[0]) { A[i] = 1.0; }",
    "expression-statement": "fabs(S[i]); A[i] = 1.0;",
    "return-value": "A[i] = 1.0; return S[i];",
}


@pytest.mark.parametrize("body", WALK_COVERAGE.values(), ids=list(WALK_COVERAGE))
def test_every_pointer_read_reaches_the_summary_and_the_ddg(body):
    program = parse_program(
        "__global__ void k(double *A, const double *S, int n) {"
        f" int i = threadIdx.x; {body} }}"
    )
    assert "S" in collect_accesses(program.kernel("k")).arrays_read
    meta = ProgramMetadata(
        device=K20X,
        launch_order=[("k", ("hA", "hS"), (1, 1, 1), (32, 1, 1), (32,))],
    )
    (launch,) = invocation_table(program, meta)
    assert launch.reads == ("hS",)
    assert launch.writes == ("hA",)
