"""Affine accesses run as slices (DESIGN.md §7, "Affine accesses").

The slice path must be invisible: every array, every counter and every
launch record equal to the gather/scatter funnel's.  Three references
are used, none of them the code under test:

* the **funnel on the same lattice** — the slice decision is switched
  off *here* (``_slice_index`` patched to decline), so even
  ``branch_divergence`` and the launch records must agree;
* the **per-block loop**, which never slices (the repo's oracle);
* strings **recorded on the parent commit** for the error paths.
"""

import dataclasses
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import transform
from repro.apps import build_app
from repro.cudalite import parse_program, unparse
from repro.errors import OutOfBoundsError
from repro.fuzz import generate_app
from repro.gpu import interpreter
from repro.gpu.interpreter import _KernelExec, run_program
from repro.observability import counters_signature

PAPER_APPS = ("MITgcm", "Fluam", "HOMME", "AWP-ODC-GPU", "B-CALM", "SCALE-LES")
CORPUS = sorted((Path(__file__).resolve().parent / "corpus").glob("*.json"))


def run_counting(program, block_exec="auto", **kwargs):
    """``(result, accesses_by_path)`` of one run (``auto`` whatever the
    harness's ``--block-exec`` says: the modes are the subject here)."""
    interpreter.reset_stats()
    result = run_program(
        program, collect_counters=True, block_exec=block_exec, **kwargs
    )
    return result, interpreter.stats().accesses_by_path


def assert_same_run(a, b):
    assert set(a.arrays) == set(b.arrays)
    for name, arr in a.arrays.items():
        assert arr.dtype == b.arrays[name].dtype, name
        assert arr.tobytes() == b.arrays[name].tobytes(), name


def assert_same_lattice(shipped, funnel):
    """Same lattice, so *everything* observable must agree."""
    assert_same_run(shipped, funnel)
    assert len(shipped.launches) == len(funnel.launches)
    for a, b in zip(shipped.launches, funnel.launches):
        assert dataclasses.asdict(a.counters) == dataclasses.asdict(b.counters)
        assert (a.kernel, a.executor, a.hazard_replay, a.order_sensitive) == (
            b.kernel, b.executor, b.hazard_replay, b.order_sensitive,
        )


def forced_funnel(monkeypatch, program):
    with monkeypatch.context() as patch:
        patch.setattr(_KernelExec, "_slice_index", lambda *args, **kwargs: None)
        result, paths = run_counting(program)
    assert paths["slice"] == 0
    return result


# ------------------------------------------- (i) forced-funnel differential


@pytest.fixture(scope="module")
def paper_runs():
    """name -> (original, transformed, accesses_by_path of the cold op)."""
    runs = {}
    for name in PAPER_APPS:
        original = build_app(name, scale=0.5).program
        result = transform(
            unparse(original), seed=20150615, store=False
        )
        assert result.verified
        runs[name] = (
            original, result.program, interpreter.stats().accesses_by_path,
        )
    return runs


@pytest.mark.parametrize("name", PAPER_APPS)
def test_paper_apps_equal_the_funnel_on_the_same_lattice(
    name, paper_runs, monkeypatch
):
    original, transformed, _ = paper_runs[name]
    for program in (original, transformed):
        shipped, paths = run_counting(program)
        assert paths["slice"] > 0
        assert_same_lattice(shipped, forced_funnel(monkeypatch, program))


@pytest.mark.parametrize("path", CORPUS, ids=[p.stem for p in CORPUS])
def test_corpus_equals_the_funnel_on_the_same_lattice(path, monkeypatch):
    entry = json.loads(path.read_text())
    program = parse_program(entry["source"])
    if "raises" in entry:  # the funnel raises the same error
        with pytest.raises(OutOfBoundsError) as shipped:
            run_counting(program)
        with pytest.raises(OutOfBoundsError) as funnel:
            forced_funnel(monkeypatch, program)
        assert str(shipped.value) == str(funnel.value)
        return
    shipped, _ = run_counting(program)
    assert_same_lattice(shipped, forced_funnel(monkeypatch, program))


@pytest.mark.parametrize("name", PAPER_APPS)
def test_the_property_the_gain_depends_on(name, paper_runs, monkeypatch):
    """At least three quarters of a cold transform's accesses slice, and
    what is left is one class: global accesses on the batched lattice
    (classified here, from the funnel's own arguments)."""
    original, transformed, cold = paper_runs[name]
    assert cold["slice"] / (cold["slice"] + cold["funnel"]) >= 0.75
    funnelled = []

    def spy(method):
        real = getattr(_KernelExec, method)

        def wrapper(self, name, *args):
            funnelled.append((name in self.shared, self._block_axis is not None))
            return real(self, name, *args)

        monkeypatch.setattr(_KernelExec, method, wrapper)

    spy("_finish_load")
    spy("_finish_store")
    _, paths = run_counting(original)
    assert paths["funnel"] == 0 and not funnelled
    _, paths = run_counting(transformed)
    assert paths["funnel"] == len(funnelled) > 0
    assert set(funnelled) == {(False, True)}  # global array, batched lattice


@pytest.mark.parametrize("kwargs", [{"block_exec": "loop"}, {"detect_races": True}])
def test_the_oracle_and_the_race_detector_never_slice(kwargs, paper_runs):
    for program in paper_runs["MITgcm"][:2]:
        _, paths = run_counting(program, **kwargs)
        assert paths["slice"] == 0 and paths["funnel"] > 0


# ------------------------------------------------------------ (ii) edge table

ALLOC_1D = (
    "int n = 32;"
    " double *a = cudaMalloc1D(n); double *b = cudaMalloc1D(n);"
    " double *c = cudaMalloc1D(n); int *m = cudaMalloc1D(n);"
    " deviceRandom(a, 3); deviceRandom(b, 4); deviceRandom(c, 5);"
)
LAUNCH_1D = "<<<dim3(4, 1, 1), dim3(8, 1, 1)>>>(a, b, c, m, n);"
PARAMS_1D = "double *a, double *b, double *c, int *m, int n"
GLOBAL_I = "int i = blockIdx.x * blockDim.x + threadIdx.x;"

ALLOC_2D = (
    "int n = 16;"
    " double *a = cudaMalloc2D(n, n); double *b = cudaMalloc2D(n, n);"
    " double *r = cudaMalloc1D(n); int *p = cudaMalloc1D(n);"
    " deviceRandom(a, 3); deviceRandom(b, 4);"
)
LAUNCH_2D = "<<<dim3(2, 2, 1), dim3(8, 8, 1)>>>(a, b, r, p, n);"
PARAMS_2D = "double *a, double *b, double *r, int *p, int n"
GLOBAL_IJ = GLOBAL_I + " int j = blockIdx.y * blockDim.y + threadIdx.y;"


def one_d(body, prologue=GLOBAL_I):
    return (
        f"__global__ void k({PARAMS_1D}) {{ {prologue} {body} }}\n"
        f"int main() {{ {ALLOC_1D} k{LAUNCH_1D} return 0; }}"
    )


def two_d(body, launch=LAUNCH_2D, setup=""):
    return (
        f"__global__ void fill(int *p, int n) {{ {GLOBAL_I}"
        f" if (i < n) {{ p[i] = n - 1 - i; }} }}\n"
        f"__global__ void k({PARAMS_2D}) {{ {GLOBAL_IJ} {body} }}\n"
        f"int main() {{ {ALLOC_2D} fill<<<dim3(2, 1, 1), dim3(8, 1, 1)>>>(p, n);"
        f" {setup} k{launch} return 0; }}"
    )


TILED = (
    "__global__ void k(const double *a, double *b, int n) {"
    " __shared__ double t[10];"
    " int tx = threadIdx.x;"
    " int i = blockIdx.x * blockDim.x + tx;"
    " for (int l = 0; l < 2; l++) {"
    "   int hx = tx + l * 8;"
    "   if (hx < 10) { int g = blockIdx.x * blockDim.x + hx - 1;"
    "     t[hx] = 0.0; if (g >= 0 && g < n) { t[hx] = a[g]; } } }"
    " __syncthreads();"
    " b[i] = t[tx] + t[tx + 1] + t[tx + 2]; }\n"
    "int main() { int n = 32; double *a = cudaMalloc1D(n);"
    " double *b = cudaMalloc1D(n); deviceRandom(a, 7);"
    " k<<<dim3(4, 1, 1), dim3(8, 1, 1)>>>(a, b, n); return 0; }"
)

#: name -> (source, paths the kernel ``k`` must take under ``auto``)
EDGE_CASES = {
    "non-box mask": (one_d("if (i % 2 == 0) { a[i] = b[i] + 1.0; }"), "slice"),
    "empty mask": (
        one_d("if (i >= 0) { if (i > 1000) { a[i] = 1.0; } c[i] = b[i]; }"),
        "slice",
    ),
    "mask created inside a for": (
        one_d(
            "for (int k = 0; k < 6; k++) {"
            " if (i >= k && i < n - 2 * k) { a[i] = a[i] + b[i + k]; } }"
        ),
        "funnel+slice",  # b[i + k] is not var ± const
    ),
    "oob on inactive lanes only": (
        one_d("if (i < n - 1) { a[i] = b[i + 1]; }"), "slice",
    ),
    "reassigned index variable": (
        one_d("i = n - 1 - i; a[i] = b[i] * 2.0;"), "funnel",
    ),
    "masked reassignment": (
        one_d("if (i < 4) { i = i + 8; } a[i] = b[i] * 2.0;"), "funnel",
    ),
    "index variable shadowed by a for": (
        one_d("for (int i = 0; i < 2; i++) { c[i] = 1.0; } a[i] = b[i];"),
        "funnel",
    ),
    "declared inside an if": (
        one_d("if (i < n - 1) { int h = i + 1; a[h] = b[h] * 2.0; }"), "slice",
    ),
    "transposed": (two_d("a[j][i] = b[i][j];"), "funnel+slice"),
    "diagonal": (two_d("if (j == 0) { r[i] = a[i][i]; }"), "funnel+slice"),
    "indirect": (two_d("if (j == 0) { r[p[i]] = b[i][0]; }"), "funnel+slice"),
    "thread-invariant subscript": (
        two_d("for (int k = 0; k < 2; k++) { a[i][j] = a[i][j] + r[k] + b[i][k]; }",
              setup="deviceRandom(r, 9);"),
        "funnel+slice",  # r[k] alone is the funnel's scalar path
    ),
    "several lanes, one element": (two_d("r[i] = b[i][j];"), "funnel+slice"),
    "several lanes, one element, leading axis": (
        two_d("r[j] = b[i][j];"), "funnel+slice",
    ),
    "loads are copies": (
        one_d("double t = a[i]; a[i] = 0.0; b[i] = t;"), "slice",
    ),
    "overlapping load and store": (
        one_d("if (i < n - 1) { a[i] = a[i + 1]; }"), "slice",
    ),
    "compound assignment": (
        one_d("if (i >= 1) { a[i] += b[i - 1] * 0.5; a[i] *= 2.0; }"), "slice",
    ),
    "int array stored from a double": (
        one_d("m[i] = b[i] * 10.0 - 5.0; if (i % 3 == 0) { m[i] = a[i] * -7.9; }"),
        "slice",
    ),
    "gridDim extent 1 on an axis": (
        two_d("if (i < n) { a[i][j] = b[i][j] + 1.0; }",
              launch="<<<dim3(2, 1, 1), dim3(8, 1, 1)>>>(a, b, r, p, n);"),
        "funnel",  # j is a one-lane array, not an arange over an axis
    ),
    "bare threadIdx on a multi-block grid": (
        one_d("a[t] = b[i];", prologue=GLOBAL_I + " int t = threadIdx.x;"),
        "funnel+slice",
    ),
    "staged shared tile": (TILED, "funnel+slice"),
    # every block reads a[0..8) and block 0 stores it: the watch must see
    # the loads, or the cross-block RAW goes unreplayed
    "watched array under an affine subscript": (
        "__global__ void k(double *a, int n) { __shared__ double t[8];"
        " int tx = threadIdx.x; int i = blockIdx.x * blockDim.x + tx;"
        " t[tx] = a[tx]; __syncthreads(); a[i] = t[tx] + 1.0; }\n"
        "int main() { int n = 32; double *a = cudaMalloc1D(n);"
        " deviceRandom(a, 7); k<<<dim3(4, 1, 1), dim3(8, 1, 1)>>>(a, n);"
        " return 0; }",
        "funnel+slice",
    ),
}


@pytest.mark.parametrize("case", sorted(EDGE_CASES))
def test_edge_case_equals_the_loop(case, monkeypatch):
    source, expected = EDGE_CASES[case]
    program = parse_program(source)
    shipped, _ = run_counting(program)
    oracle, loop_paths = run_counting(program, block_exec="loop")
    assert loop_paths["slice"] == 0
    assert_same_run(oracle, shipped)
    sig = lambda run: counters_signature(rec.counters for rec in run.launches)
    assert sig(oracle) == sig(shipped)
    assert_same_lattice(shipped, forced_funnel(monkeypatch, program))
    # which path the kernel under test took (``fill`` always slices)
    kernel = next(k for k in program.kernels if k.name == "k")
    taken = set()
    real = _KernelExec._slice_index

    def spy(self, *args, **kwargs):
        plan = real(self, *args, **kwargs)
        if self.kernel is kernel:
            taken.add("funnel" if plan is None else "slice")
        return plan

    monkeypatch.setattr(_KernelExec, "_slice_index", spy)
    run_program(program, block_exec="auto")
    assert "+".join(sorted(taken)) == expected


def test_a_stale_hull_would_be_caught():
    """The hull belongs to the mask object: a mask rebuilt per iteration
    with a different box gets a different hull."""
    source, _ = EDGE_CASES["mask created inside a for"]
    program = parse_program(
        source.replace("b[i + k]", "b[i]")  # every access affine
    )
    shipped, paths = run_counting(program)
    assert paths["funnel"] == 0
    assert_same_run(run_program(program, block_exec="loop"), shipped)


#: (source, then str(exc), axis, index, block, thread) as raised by the
#: parent commit (9248075) under ``auto`` — the funnel's own diagnostics —
#: except that a thread-invariant subscript names its block, as the
#: per-block loop does
OOB_CASES = {
    "vectorized": (
        one_d("a[i + 1] = b[i];"),
        "array 'a' axis 0: active thread index 32 out of [0, 32) during "
        "kernel 'k' at block (3, 0, 0) thread (7, 0, 0)",
        0, 32, (3, 0, 0), (7, 0, 0),
    ),
    "vectorized, masked": (
        one_d("if (i >= 4) { a[i] = b[i - 5]; }"),
        "array 'b' axis 0: active thread index -1 out of [0, 32) during "
        "kernel 'k' at block (0, 0, 0) thread (4, 0, 0)",
        0, -1, (0, 0, 0), (4, 0, 0),
    ),
    "thread-invariant": (
        one_d("for (int k = 30; k < 40; k++) { a[i] = b[k]; }"),
        "array 'b' axis 0: index 32 out of [0, 32) during kernel 'k' "
        "at block (0, 0, 0)",
        0, 32, (0, 0, 0), None,
    ),
    "shared tile on the batched lattice": (
        TILED.replace("t[tx + 2]", "t[tx + 3]"),
        "array 't' axis 0: active thread index 10 out of [0, 10) during "
        "kernel 'k' at block (0, 0, 0) thread (7, 0, 0)",
        0, 10, (0, 0, 0), (7, 0, 0),
    ),
}


@pytest.mark.parametrize("case", sorted(OOB_CASES))
def test_out_of_bounds_is_the_funnels_own_error(case):
    source, message, axis, index, block, thread = OOB_CASES[case]
    with pytest.raises(OutOfBoundsError) as caught:
        run_program(parse_program(source), block_exec="auto")
    exc = caught.value
    assert str(exc) == message
    assert (exc.axis, exc.index, exc.block, exc.thread) == (
        axis, index, block, thread,
    )
    with pytest.raises(OutOfBoundsError):
        run_program(parse_program(source), block_exec="loop")


# ------------------------------------------------- (iii) generated programs


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_generated_apps_auto_equals_loop(seed):
    app = generate_app(seed)
    auto, paths = run_counting(app.program, block_exec="auto")
    loop, loop_paths = run_counting(app.program, block_exec="loop")
    assert loop_paths["slice"] == 0
    assert_same_run(loop, auto)
    assert counters_signature(r.counters for r in loop.launches) == (
        counters_signature(r.counters for r in auto.launches)
    )
    # not vacuous: every generated kernel indexes by its global thread id
    assert paths["slice"] > 0
