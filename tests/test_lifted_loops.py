"""Lifted loops (DESIGN.md §7, "Lifted loops").

A ``for`` whose iterations carry no dependence runs once, its iterations
one more lattice axis.  That must be invisible.  Three references are
used, none of them the code under test:

* the **same lattice with every loop sequential** — the lift decision is
  switched off *here* (``_run_lifted`` patched to decline), so arrays,
  every counter field (``branch_divergence`` included) and every launch
  record must agree;
* the **per-block loop** (``block_exec="loop"``), which never lifts;
* the error text the sequential loop raises.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.api import transform
from repro.apps import build_app
from repro.cudalite import parse_program, unparse
from repro.errors import OutOfBoundsError
from repro.gpu import interpreter
from repro.gpu.interpreter import _KernelExec, run_program
from repro.observability import counters_signature

PAPER_APPS = ("MITgcm", "Fluam", "HOMME", "AWP-ODC-GPU", "B-CALM", "SCALE-LES")
CORPUS = sorted((Path(__file__).resolve().parent / "corpus").glob("*.json"))


def run_counting(program, block_exec="auto", **kwargs):
    """``(result, stats)`` of one run (``auto`` whatever the harness's
    ``--block-exec`` says: the modes are the subject here)."""
    interpreter.reset_stats()
    result = run_program(
        program, collect_counters=True, block_exec=block_exec, **kwargs
    )
    return result, interpreter.stats()


def sequential(monkeypatch, program):
    """The same run with every loop sequential, on the same lattices."""
    with monkeypatch.context() as patch:
        patch.setattr(_KernelExec, "_run_lifted", lambda *args, **kwargs: False)
        result, stats = run_counting(program)
    assert stats.statements_by_path["lifted"] == 0
    return result, stats


def assert_same_arrays(a, b):
    assert set(a.arrays) == set(b.arrays)
    for name, arr in a.arrays.items():
        assert arr.dtype == b.arrays[name].dtype, name
        assert arr.tobytes() == b.arrays[name].tobytes(), name


def assert_same_run(lifted, reference):
    """Same lattice, so *everything* observable must agree."""
    assert_same_arrays(lifted, reference)
    assert [dataclasses.asdict(r) for r in lifted.launches] == [
        dataclasses.asdict(r) for r in reference.launches
    ]


def statements(stats):
    return sum(stats.statements_by_path.values())


# ------------------------------------- (i) forced-sequential differential


@pytest.fixture(scope="module")
def paper_runs():
    """name -> (original, transformed, stats of the cold transform)."""
    runs = {}
    for name in PAPER_APPS:
        original = build_app(name, scale=0.5).program
        result = transform(
            unparse(original), seed=20150615, store=False, block_exec="auto"
        )
        assert result.verified
        runs[name] = (original, result.program, interpreter.stats())
    return runs


@pytest.mark.parametrize("name", PAPER_APPS)
def test_paper_apps_equal_their_sequential_loops(name, paper_runs, monkeypatch):
    original, transformed, _ = paper_runs[name]
    for program in (original, transformed):
        lifted, stats = run_counting(program)
        assert stats.statements_by_path["lifted"] > 0
        assert stats.lift_replays == {}
        reference, reference_stats = sequential(monkeypatch, program)
        assert_same_run(lifted, reference)
        # a lifted body stands in for exactly the statements it replaces
        assert statements(stats) == statements(reference_stats)


@pytest.mark.parametrize("path", CORPUS, ids=[p.stem for p in CORPUS])
def test_corpus_equals_its_sequential_loops(path, monkeypatch):
    program = parse_program(json.loads(path.read_text())["source"])
    lifted, stats = run_counting(program)
    reference, reference_stats = sequential(monkeypatch, program)
    assert_same_run(lifted, reference)
    assert statements(stats) == statements(reference_stats)


@pytest.mark.parametrize("name", PAPER_APPS)
def test_the_property_the_gain_depends_on(name, paper_runs):
    """Nine in ten statement executions of a cold transform sit in a
    lifted body, and no launch of a paper app replays."""
    by_path = paper_runs[name][2].statements_by_path
    assert by_path["lifted"] / (by_path["lifted"] + by_path["sequential"]) >= 0.9
    assert paper_runs[name][2].lift_replays == {}


@pytest.mark.parametrize("kwargs", [{"block_exec": "loop"}, {"detect_races": True}])
def test_the_oracle_and_the_race_detector_never_lift(kwargs, paper_runs):
    for program in paper_runs["Fluam"][:2]:
        _, stats = run_counting(program, **kwargs)
        assert stats.statements_by_path["lifted"] == 0
        assert stats.statements_by_path["sequential"] > 0


# ------------------------------------------------------------ (ii) edge table

ALLOC = (
    "int n = 32; int nz = 5;"
    " double *a = cudaMalloc2D(n, nz); double *b = cudaMalloc2D(n, nz);"
    " deviceRandom(a, 3); deviceRandom(b, 4);"
)
PARAMS = "double *a, double *b, int n, int nz"
GLOBAL_I = "int i = blockIdx.x * blockDim.x + threadIdx.x;"
TILE = "__shared__ double t[8]; int tx = threadIdx.x;"


def kernel(body, prologue=GLOBAL_I, args="a, b, n, nz"):
    return (
        f"__global__ void k({PARAMS}) {{ {prologue} {body} }}\n"
        f"int main() {{ {ALLOC} k<<<dim3(4, 1, 1), dim3(8, 1, 1)>>>({args});"
        " return 0; }"
    )


def tiled(body):
    return kernel(body, prologue=TILE + " " + GLOBAL_I)


#: name -> (source, what ``auto`` does with the loop of kernel ``k``:
#: ``lifted`` | ``sequential`` (not a candidate, or declined on entry) |
#: ``replayed`` (lifted, abandoned, the launch re-run sequentially))
EDGE_CASES = {
    "plain slice per iteration": (
        kernel("for (int k = 0; k < nz; k++) { b[i][k] = a[i][k] * 2.0; }"),
        "lifted",
    ),
    "k+1 read of a written array": (
        kernel("for (int k = 0; k < nz - 1; k++) { a[i][k] = a[i][k + 1] * 0.5; }"),
        "sequential",
    ),
    "k-1 read of a read-only array": (
        kernel("for (int k = 1; k < nz; k++) { b[i][k] = a[i][k - 1] + a[i][k]; }"),
        "lifted",
    ),
    "outer-declared scalar assigned inside": (
        kernel(
            "double s = 0.0;"
            " for (int k = 0; k < nz; k++) { s = s + a[i][k]; b[i][k] = s; }"
        ),
        "sequential",
    ),
    "return in the body": (
        kernel(
            "for (int k = 0; k < nz; k++) {"
            " if (k > 100) { return; } b[i][k] = a[i][k]; }"
        ),
        "sequential",
    ),
    "while in the body": (
        kernel(
            "for (int k = 0; k < nz; k++) { int m = 0;"
            " while (m < 2) { b[i][k] = b[i][k] + a[i][k]; m = m + 1; } }"
        ),
        "sequential",
    ),
    "inner bound reads k": (
        kernel(
            "for (int k = 0; k < nz; k++) {"
            " for (int m = 0; m < k; m++) { b[i][k] = b[i][k] + 1.0; } }"
        ),
        "sequential",
    ),
    "inner loop with invariant bounds": (
        kernel(
            "for (int k = 0; k < nz; k++) { double acc = 0.0;"
            " for (int m = 0; m < 3; m++) { acc = acc + a[i][k] * m; }"
            " b[i][k] = acc; }"
        ),
        "lifted",
    ),
    "aliased pointer arguments": (
        kernel(
            "for (int k = 0; k < nz - 1; k++) { a[i][k] = b[i][k + 1] + 1.0; }",
            args="a, a, n, nz",
        ),
        "sequential",
    ),
    "step 2": (
        kernel("for (int k = 0; k < nz; k += 2) { b[i][k] = a[i][k] + k; }"),
        "lifted",
    ),
    "<= bound": (
        kernel("for (int k = 1; k <= nz - 1; k++) { b[i][k] = a[i][k] - 1.0; }"),
        "lifted",
    ),
    "if (k < 3) in the body": (
        kernel(
            "for (int k = 0; k < nz; k++) {"
            " if (k < 3) { b[i][k] = a[i][k]; } else { b[i][k] = 0.5; } }"
        ),
        "lifted",
    ),
    "divergent branch in the body": (
        kernel(
            "for (int k = 0; k < nz; k++) {"
            " if (i % 3 == k % 2) { b[i][k] = a[i][k]; } }"
        ),
        "lifted",
    ),
    "body declaration shadows an outer name": (
        kernel(
            "double t = 1.0; for (int k = 0; k < nz; k++) {"
            " double t = a[i][k]; b[i][k] = t; } b[i][0] = t;"
        ),
        "sequential",
    ),
    "staged private tile": (
        tiled(
            "for (int k = 0; k < nz; k++) { t[tx] = a[i][k]; __syncthreads();"
            " if (tx >= 1) { b[i][k] = t[tx - 1] + t[tx]; } __syncthreads(); }"
        ),
        "lifted",
    ),
    "tile declared in the body": (
        kernel(
            "for (int k = 0; k < nz; k++) { __shared__ double u[8];"
            " u[tx] = a[i][k] * 3.0; __syncthreads(); b[i][k] = u[7 - tx]; }",
            prologue="int tx = threadIdx.x; " + GLOBAL_I,
        ),
        "lifted",
    ),
    # iteration k reads the cell iteration k - 1 staged: the write record
    # must catch it and the launch replay sequentially
    "unstaged private-tile read": (
        tiled(
            "for (int k = 0; k < nz; k++) {"
            " if (k > 0) { b[i][k] = t[tx] + a[i][k]; }"
            " t[tx] = a[i][k] * 0.5; __syncthreads(); }"
        ),
        "replayed",
    ),
    "one element, several lanes, per iteration": (
        kernel(
            "for (int k = 0; k < nz; k++) { if (i < 4) { b[0][k] = a[i][k]; } }"
        ),
        "replayed",
    ),
    "one element, one lane, per iteration": (
        kernel(
            "for (int k = 0; k < nz; k++) { if (i == 5) { b[0][k] = a[i][k]; } }"
        ),
        "lifted",
    ),
}


def loop_path(stats):
    if stats.lift_replays:
        assert stats.lift_replays == {"k": 1}
        return "replayed"
    return "lifted" if stats.statements_by_path["lifted"] else "sequential"


@pytest.mark.parametrize("case", sorted(EDGE_CASES))
def test_edge_case_equals_the_loop(case, monkeypatch):
    source, expected = EDGE_CASES[case]
    program = parse_program(source)
    shipped, stats = run_counting(program)
    assert loop_path(stats) == expected
    oracle, loop_stats = run_counting(program, block_exec="loop")
    assert loop_stats.statements_by_path["lifted"] == 0
    assert_same_arrays(oracle, shipped)
    sig = lambda run: counters_signature(rec.counters for rec in run.launches)
    assert sig(oracle) == sig(shipped)
    reference, reference_stats = sequential(monkeypatch, program)
    assert_same_run(shipped, reference)
    assert statements(stats) == statements(reference_stats)


def test_out_of_range_k_raises_the_sequential_error(monkeypatch):
    """An error in a lifted body replays the launch, so the error raised is
    the sequential loop's, text and attributes alike."""
    program = parse_program(
        kernel("for (int k = 0; k < nz + 1; k++) { b[i][k] = a[i][k] * 2.0; }")
    )
    with pytest.raises(OutOfBoundsError) as lifted:
        run_counting(program)
    assert interpreter.stats().lift_replays == {"k": 1}
    with monkeypatch.context() as patch:
        patch.setattr(_KernelExec, "_run_lifted", lambda *args, **kwargs: False)
        with pytest.raises(OutOfBoundsError) as plain:
            run_counting(program)
    assert str(lifted.value) == str(plain.value) == (
        "array 'a' axis 1: index 5 out of [0, 5) during kernel 'k'"
    )
    with pytest.raises(OutOfBoundsError):
        run_program(program, block_exec="loop")
