"""Per-element batchability: the watch set, abort-restore-replay, staging.

``auto`` runs every uniform-bounds shared-memory kernel on the batched
lattice while recording, per element of each global array the kernel
writes, which block touched it.  The contract under test: whatever the
kernel does, it is **bit-equal to the per-block loop under
both block orders**, an aborted batched pass leaves no trace in arrays or
counters, and the launch record says which executor ran and why.
"""

import numpy as np
import pytest

from repro.cudalite import ast_nodes as ast
from repro.cudalite import parse_program, unparse
from repro.cudalite.unparser import unparse_expr
from repro.errors import OutOfBoundsError
from repro.gpu import interpreter
from repro.gpu.interpreter import run_program
from repro.observability import counters_signature
from repro.transform import fuse_kernels

from conftest import CHAIN_SRC
from test_fusion import consts, run_fused

ORDERS = ("forward", "reverse")

#: four blocks of eight threads over 32 cells
LAUNCH = "<<<dim3(4, 1, 1), dim3(8, 1, 1)>>>"
PROLOGUE = (
    " __shared__ double t[8];"
    " int tx = threadIdx.x;"
    " int i = blockIdx.x * blockDim.x + tx;"
)
ALLOC = (
    "int n = 32;"
    " double *A = cudaMalloc1D(n); double *B = cudaMalloc1D(n);"
    " double *C = cudaMalloc1D(n); double *O = cudaMalloc1D(n);"
    " deviceRandom(A, 3); deviceRandom(B, 4);"
)


def program(params, body, launches, alloc=ALLOC):
    return (
        f"__global__ void k({params}) {{{PROLOGUE} {body} }}\n"
        f"int main() {{ {alloc} {launches} return 0; }}"
    )


#: name -> (source, hazard_replay per launch; None = stays on the lattice)
CASES = {
    # store in one statement, a neighbour's load in a later one
    "raw": (
        program(
            "double *A, const double *B, double *C, int n",
            "A[i] = B[i] * 2.0; __syncthreads();"
            " if (i >= 1) { C[i] = A[i - 1]; }",
            f"k{LAUNCH}(A, B, C, n);",
        ),
        ["A:RAW"],
    ),
    # tests/test_interpreter_batched.py::CROSS_BLOCK_CHAIN: every load of
    # the statement precedes its stores, so the store finds the reader
    "chain": (
        program(
            "double *A, int n",
            "if (i >= 1 && i < n - 1) { A[i] = A[i - 1] + 1.0; }",
            f"k{LAUNCH}(A, n);",
        ),
        ["A:WAR"],
    ),
    # halo read of a cell the neighbouring block stores later
    "war": (
        program(
            "double *A, int n",
            "t[tx] = 0.0; if (i < n - 1) { t[tx] = A[i + 1]; } __syncthreads();"
            " A[i] = t[tx] * 0.5;",
            f"k{LAUNCH}(A, n);",
        ),
        ["A:WAR"],
    ),
    # two blocks store one cell in different statements: the sequential
    # winner depends on the block order, the lockstep winner does not
    "waw-statements": (
        program(
            "const double *B, double *O, int n",
            "if (tx == 7 && i < n - 1) { O[i + 1] = 1.0; }"
            " O[i] = 2.0 + B[i];",
            f"k{LAUNCH}(B, O, n);",
        ),
        ["O:WAW"],
    ),
    "waw-one-statement": (
        program(
            "double *O, int n", "O[tx] = i * 1.0;", f"k{LAUNCH}(O, n);"
        ),
        ["O:WAW"],
    ),
    "waw-one-statement-scalar-index": (
        program(
            "double *O, int n",
            "if (tx == 0) { O[0] = i * 1.0; }",
            f"k{LAUNCH}(O, n);",
        ),
        ["O:WAW"],
    ),
    # a thread reads back what it wrote itself
    "same-thread": (
        program(
            "double *A, const double *B, double *C, int n",
            "A[i] = B[i] + 1.0; __syncthreads(); C[i] = A[i] * 2.0;"
            " A[i] += C[i];",
            f"k{LAUNCH}(A, B, C, n);",
        ),
        [None],
    ),
    # every block reads the two boundary cells nobody writes
    "shared-unwritten-cells": (
        program(
            "double *A, int n",
            "t[tx] = A[0] + A[n - 1]; __syncthreads();"
            " if (i >= 1 && i < n - 1) { A[i] = A[i] * 0.5 + t[tx] + A[i - 1 + 1]; }",
            f"k{LAUNCH}(A, n);",
        ),
        [None],
    ),
    # the conflict exists only when both parameters name one allocation
    "aliased": (
        program(
            "const double *B, double *A, int n",
            "if (i >= 1) { A[i] = B[i - 1] + 1.0; }",
            f"k{LAUNCH}(B, A, n); k{LAUNCH}(A, A, n);",
        ),
        [None, "A:WAR"],
    ),
    # a stale cross-block read steers a store into a write-only array
    # before the store that reveals the hazard: X (read-modify-write) and
    # O (write-only) must both come back from the snapshot
    "late-rollback": (
        program(
            "double *A, double *C, double *O, int n",
            "C[i] += 1.0;"
            " t[tx] = 0.0; if (i >= 1) { t[tx] = A[i - 1]; } __syncthreads();"
            " if (t[tx] > 0.5) { O[i] = 1.0; }"
            " A[i] = 0.0;",
            f"k{LAUNCH}(A, C, O, n);",
            alloc=ALLOC + " deviceFill(A, 1.0);",
        ),
        ["A:WAR"],
    ),
}


def _runs(source, order):
    parsed = parse_program(source)
    return {
        mode: run_program(
            parsed, block_order=order, block_exec=mode, collect_counters=True
        )
        for mode in ("loop", "auto")
    }


@pytest.fixture(autouse=True)
def _fresh_state():
    interpreter.reset_stats()


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_lattice_modes_equal_the_block_loop(case, order):
    source, hazards = CASES[case]
    runs = _runs(source, order)
    loop, run = runs["loop"], runs["auto"]
    for name, arr in loop.arrays.items():
        assert np.array_equal(arr, run.arrays[name]), name
    assert counters_signature(
        rec.counters for rec in run.launches
    ) == counters_signature(rec.counters for rec in loop.launches)
    assert [rec.hazard_replay for rec in run.launches] == hazards
    assert [rec.executor for rec in run.launches] == [
        "batched" if hazard is None else "loop" for hazard in hazards
    ]
    assert [rec.executor for rec in loop.launches] == ["loop"] * len(hazards)
    assert [rec.hazard_replay for rec in loop.launches] == [None] * len(hazards)


def test_order_dependent_cases_really_depend_on_the_order():
    """The replayed kernels are real races: the loop (and so ``auto``)
    must keep telling the two schedules apart."""
    for case in ("chain", "war", "waw-statements", "late-rollback"):
        source = CASES[case][0]
        fwd, rev = (
            run_program(parse_program(source), block_order=o, block_exec="auto")
            for o in ORDERS
        )
        assert any(
            not np.array_equal(fwd.arrays[n], rev.arrays[n]) for n in fwd.arrays
        ), case


#: the first block-1 thread indexes O with a cell block 0 overwrites: under
#: the forward loop it reads 0.0, on the lattice (and under the reverse
#: loop) the stale 99.0 — out of bounds before the revealing store runs
ERROR_BEFORE_HAZARD = program(
    "double *A, double *O, int n",
    "int j = (tx == 0 && i > 0) ? A[max(i - 1, 0)] : 0;"
    " O[j] = 1.0; A[i] = 0.0;",
    f"k{LAUNCH}(A, O, n);",
    alloc=ALLOC + " deviceFill(A, 99.0);",
)


@pytest.mark.parametrize("mode", ["auto"])
def test_error_on_the_lattice_is_replayed_not_trusted(mode):
    parsed = parse_program(ERROR_BEFORE_HAZARD)
    loop = run_program(parsed, block_exec="loop")
    run = run_program(parsed, block_exec=mode)
    for name, arr in loop.arrays.items():
        assert np.array_equal(arr, run.arrays[name]), name
    assert [rec.hazard_replay for rec in run.launches] == ["O:ERR"]
    assert [rec.executor for rec in run.launches] == ["loop"]
    for failing in ("loop", mode):
        with pytest.raises(OutOfBoundsError):
            run_program(parsed, block_order="reverse", block_exec=failing)


def test_replays_are_visible_in_stats_metrics_and_fallback_reasons():
    from repro.observability.metrics import get_registry

    def counter(name, **labels):
        key = (name, tuple(sorted((k, str(v)) for k, v in labels.items())))
        return get_registry().snapshot().counters.get(key, 0)

    loops = counter("gpu_launches_total", executor="loop")
    replays = counter("gpu_hazard_replays_total")
    funnel = counter("gpu_accesses_total", path="funnel")
    run_program(parse_program(CASES["aliased"][0]), block_exec="auto")
    stats = interpreter.stats().as_dict()
    # the first launch stays batched, the aliased one replays on the loop;
    # the accesses of its aborted batched pass count too
    accesses = stats.pop("accesses_by_path")
    assert accesses["funnel"] > 0
    assert counter("gpu_accesses_total", path="funnel") == funnel + accesses["funnel"]
    assert stats == {
        "launches_by_executor": {"batched": 1, "loop": 1},
        "loop_launches": {"k": 1},
        "hazard_replays": {"k": "A:WAR"},
    }
    assert counter("gpu_launches_total", executor="loop") == loops + 1
    assert counter("gpu_hazard_replays_total") == replays + 1
    interpreter.reset_stats()
    assert interpreter.stats().as_dict() == {
        "launches_by_executor": {}, "loop_launches": {}, "hazard_replays": {},
        "accesses_by_path": {"slice": 0, "funnel": 0},
    }


def test_kernel_text_is_analysed_once_per_kernel(monkeypatch):
    calls = []
    real = interpreter._analyse_kernel
    monkeypatch.setattr(
        interpreter, "_analyse_kernel", lambda k: calls.append(k.name) or real(k)
    )
    source, _ = CASES["aliased"]
    parsed = parse_program(source)
    for order in ORDERS:
        run_program(parsed, block_order=order, block_exec="auto")
    assert calls == ["k"]  # four launches of one KernelDef
    facts = interpreter._kernel_facts(parsed.kernel("k"))
    assert facts.uses_shared and facts.uniform_bounds
    assert (facts.reads, facts.writes) == ({"B"}, {"A"})


# ------------------------------------------------------------------ staging


def _fused_chain(produce_op):
    source = CHAIN_SRC.replace(
        "T[i][j][k] = c * B[i][j][k] + 1.0;",
        f"T[i][j][k] {produce_op} c * B[i][j][k] + 1.0;",
    )
    assert source != CHAIN_SRC or produce_op == "="
    # a producer guard that leaves a rim of T unassigned, as Fluam's does
    source = source.replace(
        "if (i < nx && j < ny) {", "if (i >= 1 && i < nx - 1 && j >= 1 && j < ny - 1) {", 1
    )
    parsed = parse_program(source)
    c1, c2 = consts(
        parsed,
        [
            ("produce", ["T", "B"], (32, 32, 4, 0.5), (4, 4, 1), (8, 8, 1)),
            ("consume", ["A", "T"], (32, 32, 4), (4, 4, 1), (8, 8, 1)),
        ],
    )
    fused = fuse_kernels(
        "K_00", [c1, c2], (8, 8, 1), {n: (32, 32, 4) for n in "ABT"},
        precedence=[(0, 1, "T")],
    )
    return parsed, fused


def _preload_guard(fused):
    """The bounds guard of the statement that pre-loads ``s_T``."""
    for node in fused.kernel.body.walk():
        if (
            isinstance(node, ast.If)
            and len(node.then.stmts) == 1
            and isinstance(node.then.stmts[0], ast.Assign)
            and unparse(node.then.stmts[0]).startswith("s_T[hx][hy] = T[")
        ):
            return unparse_expr(node.cond)
    raise AssertionError("no pre-load of s_T found")


def test_plain_producer_preloads_only_cells_it_will_not_assign():
    parsed, fused = _fused_chain("=")
    producer_guard = "gx_h >= 1 && gx_h < nx - 1 && gy_h >= 1 && gy_h < ny - 1"
    assert _preload_guard(fused).endswith(f"&& !({producer_guard})")
    new_program = run_fused(parsed, [fused])
    assert unparse(parse_program(unparse(new_program))) == unparse(new_program)
    before = run_program(parsed, block_exec="loop")
    for order in ORDERS:
        after = run_program(new_program, block_order=order, block_exec="auto")
        for name, arr in before.arrays.items():
            assert np.array_equal(arr, after.arrays[name]), (order, name)
        assert [rec.hazard_replay for rec in after.launches] == [None]
        assert after.launches[0].executor != "loop"


def test_compound_producer_keeps_the_full_preload_and_replays():
    """A ``+=`` producer reads what the staging loaded, so the pre-load
    stays whole — and stays a real race (a neighbour may already have
    written its update back), which the watch must keep sending to the
    loop, where the per-group gate's two block orders disagree."""
    parsed, fused = _fused_chain("+=")
    assert "!" not in _preload_guard(fused)
    new_program = run_fused(parsed, [fused])
    by_order = {}
    for order in ORDERS:
        loop = run_program(new_program, block_order=order, block_exec="loop")
        auto = run_program(new_program, block_order=order, block_exec="auto")
        for name, arr in loop.arrays.items():
            assert np.array_equal(arr, auto.arrays[name]), (order, name)
        assert [rec.executor for rec in auto.launches] == ["loop"]
        assert auto.launches[0].hazard_replay in ("T:RAW", "T:WAR")
        by_order[order] = auto
    assert not np.array_equal(
        by_order["forward"].arrays["A"], by_order["reverse"].arrays["A"]
    )
