"""The compiled execution mode: lowering, caching, fallback, equivalence.

The contract under test (see ``repro.gpu.compiler`` / ``repro.gpu.lowering``):
a kernel lowered to numpy source and executed through the compiled path
must be **bit-identical** to tree-walking interpretation — same array
contents, same counter totals — and any kernel the lowerer cannot handle
must fall back, per kernel, to the interpreter without changing results.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cudalite import parse_program
from repro.errors import LoweringError
from repro.gpu import compiler
from repro.gpu.interpreter import run_program
from repro.gpu.lowering import LOWERING_VERSION, lower_kernel
from repro.observability import counters_signature

MODES = ("loop", "batched", "compiled", "auto")

#: shared-memory tiled stencil — compiled onto the batched lattice
TILED = """
__global__ void blur(const double* in, double* out, int nx, int ny) {
    __shared__ double t[8][8];
    int tx = threadIdx.x;
    int ty = threadIdx.y;
    int i = blockIdx.x * blockDim.x + tx;
    int j = blockIdx.y * blockDim.y + ty;
    t[tx][ty] = in[i][j];
    __syncthreads();
    if (tx >= 1 && tx < 7 && ty >= 1 && ty < 7) {
        out[i][j] = t[tx - 1][ty] + t[tx + 1][ty] + t[tx][ty - 1]
            + t[tx][ty + 1] - 4.0 * t[tx][ty];
    }
}

int main() {
    int nx = 32;
    int ny = 32;
    double* a = cudaMalloc2D(nx, ny);
    double* b = cudaMalloc2D(nx, ny);
    deviceRandom(a, 20150615);
    blur<<<dim3(4, 4, 1), dim3(8, 8, 1)>>>(a, b, nx, ny);
    return 0;
}
"""

#: no shared memory — compiled onto the whole-grid vectorized lattice
VECTOR = """
__global__ void saxpy(double* y, const double* x, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    double acc = 0.0;
    for (int k = 0; k < 3; k++) {
        acc = acc + x[i] * (k + 1);
    }
    y[i] = 2.0 * acc + y[i];
}

int main() {
    int n = 256;
    double* x = cudaMalloc1D(n);
    double* y = cudaMalloc1D(n);
    deviceRandom(x, 3);
    deviceRandom(y, 4);
    saxpy<<<dim3(4, 1, 1), dim3(64, 1, 1)>>>(y, x, n);
    return 0;
}
"""

#: ``w`` is assigned on only one branch path — the lowerer refuses
#: ("maybe"-defined read) and the compiled mode must fall back per kernel.
#: The thread-(0,0) disjunct guarantees every block has at least one
#: assigning thread, so the read is defined in every execution mode.
MAYBE = """
__global__ void gate(double* out, const double* in, int nx, int ny) {
    int tx = threadIdx.x;
    int ty = threadIdx.y;
    int i = blockIdx.x * blockDim.x + tx;
    int j = blockIdx.y * blockDim.y + ty;
    if (in[i][j] > 0.5 || tx + ty == 0) {
        w = in[i][j] * 2.0;
    }
    out[i][j] = w + 1.0;
}

int main() {
    int nx = 16;
    int ny = 16;
    double* a = cudaMalloc2D(nx, ny);
    double* b = cudaMalloc2D(nx, ny);
    deviceRandom(a, 7);
    gate<<<dim3(2, 2, 1), dim3(8, 8, 1)>>>(b, a, nx, ny);
    return 0;
}
"""

#: in-place global read+write with shared staging — every thread touches
#: only its own element, so the per-element watch admits it to the batched
#: lattice and the compiled mode runs it like any other tiled kernel
INPLACE = """
__global__ void relax(double* a, int nx, int ny) {
    __shared__ double t[8][8];
    int tx = threadIdx.x;
    int ty = threadIdx.y;
    int i = blockIdx.x * blockDim.x + tx;
    int j = blockIdx.y * blockDim.y + ty;
    t[tx][ty] = a[i][j];
    __syncthreads();
    a[i][j] = t[tx][ty] * 0.5 + 1.0;
}

int main() {
    int nx = 16;
    int ny = 16;
    double* a = cudaMalloc2D(nx, ny);
    deviceRandom(a, 11);
    relax<<<dim3(2, 2, 1), dim3(8, 8, 1)>>>(a, nx, ny);
    return 0;
}
"""


#: a loop bound that differs per block — the batched lattice cannot
#: scalarize it, so the compiled mode has no lattice for this kernel and
#: falls back to the block loop
BLOCK_VARIANT = """
__global__ void ramp(double* a, int n) {
    __shared__ double t[1];
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    double s = 0.0;
    for (int r = 0; r < blockIdx.x + 1; r++) {
        s = s + 1.0;
    }
    a[i] = s;
}

int main() {
    int n = 32;
    double* a = cudaMalloc1D(n);
    ramp<<<dim3(4, 1, 1), dim3(8, 1, 1)>>>(a, n);
    return 0;
}
"""


@pytest.fixture(autouse=True)
def _fresh_code_cache():
    compiler.reset_code_cache()
    yield
    compiler.reset_code_cache()


def _run_all_modes(source):
    program = parse_program(source)
    return {
        mode: run_program(program, block_exec=mode, collect_counters=True)
        for mode in MODES
    }


def _assert_equivalent(runs):
    """Arrays bitwise-equal everywhere; counters per the documented rule."""
    loop = runs["loop"]
    for mode in MODES[1:]:
        for name, arr in loop.arrays.items():
            assert np.array_equal(arr, runs[mode].arrays[name]), (mode, name)
    signatures = {
        mode: counters_signature(rec.counters for rec in runs[mode].launches)
        for mode in MODES
    }
    assert signatures["loop"] == signatures["batched"]
    assert signatures["loop"] == signatures["compiled"]
    assert signatures["loop"] == signatures["auto"]
    full = {
        mode: counters_signature(
            (rec.counters for rec in runs[mode].launches),
            include_divergence=True,
        )
        for mode in ("compiled", "auto")
    }
    assert full["compiled"] == full["auto"]


# ------------------------------------------------------------------ lowering


def test_lowered_source_shape():
    program = parse_program(TILED)
    source = lower_kernel(program.kernels[0])
    assert source.startswith("def _compiled_kernel(ex, _m0):")
    # every array access goes through the executor so validation and
    # counters are shared with the interpreter verbatim
    assert "ex.load_values(" in source
    assert "ex.store_values(" in source
    assert "ex.decl_shared(" in source


def test_lowering_rejects_maybe_defined_read():
    program = parse_program(MAYBE)
    with pytest.raises(LoweringError):
        lower_kernel(program.kernels[0])


def test_compile_kernel_source_executes():
    program = parse_program(VECTOR)
    kernel = program.kernels[0]
    source = lower_kernel(kernel)
    compiled = compiler.compile_kernel_source(source, kernel.name, "fp")
    assert compiled.kernel == "saxpy"
    assert callable(compiled.fn)


# ---------------------------------------------------------------- execution


@pytest.mark.parametrize("source", [TILED, VECTOR, MAYBE, INPLACE],
                         ids=["tiled", "vector", "maybe", "inplace"])
def test_all_modes_bit_identical(source):
    _assert_equivalent(_run_all_modes(source))


def test_vectorized_kernel_compiles():
    program = parse_program(VECTOR)
    run_program(program, block_exec="compiled")
    assert compiler.stats().lowered == 1


def test_memory_cache_serves_repeat_launches():
    program = parse_program(TILED)
    run_program(program, block_exec="compiled")
    run_program(program, block_exec="compiled")
    stats = compiler.stats()
    assert stats.lowered == 1
    assert stats.memory_hits >= 1


def test_lowering_fallback_is_negatively_cached():
    program = parse_program(MAYBE)
    run_program(program, block_exec="compiled")
    stats = compiler.stats()
    assert stats.lowered == 0
    assert stats.fallbacks == 1
    run_program(program, block_exec="compiled")
    assert compiler.stats().fallback_hits >= 1


def test_unbatchable_kernel_never_reaches_the_compiler():
    # shape fallback happens before lowering: no stats movement at all
    program = parse_program(BLOCK_VARIANT)
    run_program(program, block_exec="compiled")
    stats = compiler.stats()
    assert stats.lowered == 0
    assert stats.fallbacks == 0


def test_detect_races_bypasses_compilation():
    program = parse_program(TILED)
    run_program(program, block_exec="compiled", detect_races=True)
    stats = compiler.stats()
    assert stats.lowered == 0
    assert stats.fallbacks == 0


# --------------------------------------------------------- fallback reasons


def test_lowering_fallback_records_reason():
    run_program(parse_program(MAYBE), block_exec="compiled")
    reasons = compiler.stats().fallback_reasons
    assert set(reasons) == {"gate"}
    assert reasons["gate"].startswith("lowering")
    assert "w" in reasons["gate"]  # the offending name is in the detail


def test_unbatchable_shared_fallback_records_reason():
    run_program(parse_program(BLOCK_VARIANT), block_exec="compiled")
    assert compiler.stats().fallback_reasons == {
        "ramp": "unbatchable_shared"
    }


def test_own_element_read_write_kernel_compiles_without_fallback():
    result = run_program(parse_program(INPLACE), block_exec="compiled")
    assert compiler.stats().lowered == 1
    assert compiler.stats().fallback_reasons == {}
    assert [rec.executor for rec in result.launches] == ["compiled"]


def test_detect_races_fallback_records_reason():
    run_program(parse_program(TILED), block_exec="compiled", detect_races=True)
    reasons = compiler.stats().fallback_reasons
    assert set(reasons.values()) == {"detect_races"}


def test_fallback_reasons_in_stats_dict_and_metrics():
    from repro.observability.metrics import get_registry

    def fallback_count(reason):
        counters = get_registry().snapshot().counters
        return counters.get(
            ("compiled_fallbacks_total", (("reason", reason),)), 0
        )

    before = fallback_count("lowering")
    run_program(parse_program(MAYBE), block_exec="compiled")
    as_dict = compiler.stats().as_dict()
    assert "fallback_reasons" in as_dict
    assert set(as_dict["fallback_reasons"]) == {"gate"}
    assert fallback_count("lowering") == before + 1


def test_fallback_reason_first_wins_and_reset_clears():
    compiler.note_fallback("k", "lowering", "first detail")
    compiler.note_fallback("k", "detect_races")  # later reason is ignored
    assert compiler.stats().fallback_reasons["k"] == "lowering: first detail"
    compiler.reset_code_cache()
    assert compiler.stats().fallback_reasons == {}


def test_vectorized_kernels_record_no_fallback_reason():
    run_program(parse_program(VECTOR), block_exec="compiled")
    assert compiler.stats().fallback_reasons == {}


# -------------------------------------------------------------- persistence


def test_persistent_store_roundtrip(tmp_path, monkeypatch):
    from repro.store import open_store

    # the store reaches the compiler as an argument; an ambient one is inert
    monkeypatch.setenv("REPRO_STORE", str(tmp_path / "ambient"))
    program = parse_program(TILED)
    cold = run_program(
        program, block_exec="compiled", store=open_store(str(tmp_path / "given"))
    )
    assert compiler.stats().lowered == 1

    compiler.reset_code_cache()
    warm = run_program(
        program, block_exec="compiled", store=open_store(str(tmp_path / "given"))
    )
    stats = compiler.stats()
    assert stats.store_hits == 1
    assert stats.lowered == 0
    for name, arr in cold.arrays.items():
        assert np.array_equal(arr, warm.arrays[name])

    compiler.reset_code_cache()
    run_program(program, block_exec="compiled")  # no store: memory only
    assert compiler.stats().store_hits == 0
    assert compiler.stats().lowered == 1
    assert not (tmp_path / "ambient").exists()


def test_store_load_rejects_other_lowering_version(tmp_path):
    from repro.store import compiled_kernel_key, kernel_fingerprint, open_store
    from repro.store.stage_cache import load_compiled_kernel, save_compiled_kernel

    program = parse_program(TILED)
    kernel = program.kernels[0]
    fingerprint = kernel_fingerprint(kernel)
    key = compiled_kernel_key(fingerprint, LOWERING_VERSION)
    store = open_store(str(tmp_path))
    save_compiled_kernel(
        store, key, kernel.name, lower_kernel(kernel), LOWERING_VERSION
    )
    assert load_compiled_kernel(store, key, LOWERING_VERSION) is not None
    assert load_compiled_kernel(store, key, LOWERING_VERSION + 1) is None


# ------------------------------------------------------------ configuration


def test_cli_accepts_block_exec_flag():
    from repro.pipeline.cli import _build_config, build_arg_parser

    args = build_arg_parser().parse_args(["app.cu", "--block-exec", "compiled"])
    assert _build_config(args).block_exec == "compiled"


def test_transform_config_rejects_unknown_block_exec():
    from repro.api import TransformConfig
    from repro.errors import ConfigError

    TransformConfig(block_exec="compiled")  # accepted
    with pytest.raises(ConfigError):
        TransformConfig(block_exec="jit").validate()


# ------------------------------------------------------- property: 3 modes


@st.composite
def random_mixed_program(draw):
    """1-3 launches drawn from the four kernel archetypes above, with
    randomized coefficients, guards and seeds — covering the compiled
    mode's vectorized lattice, batched lattice and both fallback paths
    in one program."""
    rng_seed = draw(st.integers(min_value=1, max_value=10 ** 6))
    coeff = draw(st.floats(min_value=-2.0, max_value=2.0,
                           allow_nan=False, allow_infinity=False))
    lo = draw(st.integers(min_value=0, max_value=2))
    hi = draw(st.integers(min_value=5, max_value=7))
    kinds = draw(st.lists(st.sampled_from(("tile", "vec", "maybe", "inplace")),
                          min_size=1, max_size=3))
    kernels, launches = [], []
    for idx, kind in enumerate(kinds):
        name = f"k{idx}"
        if kind == "tile":
            kernels.append(f"""
__global__ void {name}(const double* in, double* out, int nx, int ny) {{
    __shared__ double t[8][8];
    int tx = threadIdx.x;
    int ty = threadIdx.y;
    int i = blockIdx.x * blockDim.x + tx;
    int j = blockIdx.y * blockDim.y + ty;
    t[tx][ty] = in[i][j];
    __syncthreads();
    if (tx >= {lo + 1} && tx < {hi} && ty >= {lo + 1} && ty < {hi}) {{
        out[i][j] = t[tx - 1][ty] + t[tx + 1][ty] + {coeff} * t[tx][ty];
    }}
}}""")
            launches.append(f"{name}<<<dim3(2, 2, 1), dim3(8, 8, 1)>>>(a, b, nx, ny);")
        elif kind == "vec":
            kernels.append(f"""
__global__ void {name}(double* out, const double* in, int nx, int ny) {{
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    int j = blockIdx.y * blockDim.y + threadIdx.y;
    double acc = 0.0;
    for (int k = {lo}; k < {hi}; k++) {{
        acc = acc + in[i][j] * k;
    }}
    out[i][j] = acc * {coeff} + max(in[i][j], 0.25);
}}""")
            launches.append(f"{name}<<<dim3(2, 2, 1), dim3(8, 8, 1)>>>(b, a, nx, ny);")
        elif kind == "maybe":
            kernels.append(f"""
__global__ void {name}(double* out, const double* in, int nx, int ny) {{
    int tx = threadIdx.x;
    int ty = threadIdx.y;
    int i = blockIdx.x * blockDim.x + tx;
    int j = blockIdx.y * blockDim.y + ty;
    if (in[i][j] > 0.5 || tx + ty == 0) {{
        w = in[i][j] * {coeff};
    }}
    out[i][j] = w + 1.0;
}}""")
            launches.append(f"{name}<<<dim3(2, 2, 1), dim3(8, 8, 1)>>>(b, a, nx, ny);")
        else:
            kernels.append(f"""
__global__ void {name}(double* a, int nx, int ny) {{
    __shared__ double t[8][8];
    int tx = threadIdx.x;
    int ty = threadIdx.y;
    int i = blockIdx.x * blockDim.x + tx;
    int j = blockIdx.y * blockDim.y + ty;
    t[tx][ty] = a[i][j];
    __syncthreads();
    a[i][j] = t[tx][ty] * 0.5 + {coeff};
}}""")
            launches.append(f"{name}<<<dim3(2, 2, 1), dim3(8, 8, 1)>>>(a, nx, ny);")
    body = "\n    ".join(launches)
    return f"""
{''.join(kernels)}
int main() {{
    int nx = 16;
    int ny = 16;
    double* a = cudaMalloc2D(nx, ny);
    double* b = cudaMalloc2D(nx, ny);
    deviceRandom(a, {rng_seed});
    deviceRandom(b, {rng_seed + 1});
    {body}
    return 0;
}}
"""


@given(random_mixed_program())
@settings(max_examples=25, deadline=None)
def test_three_mode_equivalence_property(source):
    """loop, batched, compiled and auto agree bitwise on arrays, on the
    mode-invariant counter totals, and (compiled vs auto) on the full
    counter set — including programs that force per-kernel fallback."""
    compiler.reset_code_cache()
    _assert_equivalent(_run_all_modes(source))
