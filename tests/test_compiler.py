"""Execution-mode equivalence and the ``block_exec`` setting.

The contract under test (see ``repro.gpu.interpreter``): the per-block
``loop``, the forced ``batched`` lattice and ``auto`` (vectorized, watched
batched, or the loop on a hazard) are **bit-identical** — same array
contents, same mode-invariant counter totals — on every kernel shape,
and ``block_exec`` accepts exactly those three values.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cudalite import parse_program
from repro.gpu.interpreter import run_program
from repro.observability import counters_signature

#: the loop first: the reference every other mode is compared with
MODES = ("loop", "batched", "auto")

#: shared-memory tiled stencil — the batched lattice
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

#: no shared memory — the whole-grid vectorized lattice
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

#: ``w`` is assigned on only one branch path (a "maybe"-defined read).
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
#: lattice like any other tiled kernel
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
    assert signatures["loop"] == signatures["auto"]


# ---------------------------------------------------------------- execution


@pytest.mark.parametrize("source", [TILED, VECTOR, MAYBE, INPLACE],
                         ids=["tiled", "vector", "maybe", "inplace"])
def test_all_modes_bit_identical(source):
    _assert_equivalent(_run_all_modes(source))


# ------------------------------------------------------------ configuration


def test_cli_accepts_block_exec_flag():
    from repro.pipeline.cli import _build_config, build_arg_parser

    args = build_arg_parser().parse_args(["app.cu", "--block-exec", "batched"])
    assert _build_config(args).block_exec == "batched"
    with pytest.raises(SystemExit):
        build_arg_parser().parse_args(["app.cu", "--block-exec", "compiled"])


def test_transform_config_rejects_unknown_block_exec():
    from repro.api import TransformConfig
    from repro.errors import ConfigError

    for mode in MODES:
        TransformConfig(block_exec=mode)  # accepted
    for mode in ("compiled", "jit"):
        with pytest.raises(ConfigError):
            TransformConfig(block_exec=mode)


# ------------------------------------------------------- property: 3 modes


@st.composite
def random_mixed_program(draw):
    """1-3 launches drawn from the four kernel archetypes above, with
    randomized coefficients, guards and seeds — covering the vectorized
    lattice, the batched lattice and the maybe-defined read in one
    program."""
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
    """loop, batched and auto agree bitwise on arrays and on the
    mode-invariant counter totals."""
    _assert_equivalent(_run_all_modes(source))
