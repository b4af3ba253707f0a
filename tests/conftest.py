"""Shared fixtures and program builders for the test suite."""

from __future__ import annotations

import os

import pytest
from hypothesis import settings

from repro.cudalite import parse_program
from repro.gpu.device import K20X, K40, TESTING
from repro.gpu.interpreter import BLOCK_EXEC_MODES

# Deterministic profile for CI: derandomized (fixed seed), a bounded
# number of examples, and no per-example deadline (shared runners are
# slow and flaky-deadline failures are noise). Select it by exporting
# HYPOTHESIS_PROFILE=ci; the default profile is unchanged for local runs.
settings.register_profile(
    "ci", derandomize=True, max_examples=40, deadline=None
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def pytest_addoption(parser):
    parser.addoption(
        "--block-exec",
        choices=BLOCK_EXEC_MODES,
        default=None,
        help=(
            "execution strategy for every interpreter call that names none "
            "(the CI mode differential; a test-harness seam, not a product "
            "option)"
        ),
    )


def pytest_configure(config):
    mode = config.getoption("--block-exec")
    if mode is not None:
        from repro.gpu import interpreter

        interpreter.DEFAULT_BLOCK_EXEC = mode


DIFFUSE_SRC = """
__global__ void diffuse(double *A, const double *B, int nx, int ny, int nz, double c) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    int j = blockIdx.y * blockDim.y + threadIdx.y;
    if (i >= 1 && i < nx - 1 && j >= 1 && j < ny - 1) {
        for (int k = 0; k < nz; k++) {
            A[i][j][k] = c * (B[i + 1][j][k] + B[i - 1][j][k] + B[i][j + 1][k] + B[i][j - 1][k] - 4.0 * B[i][j][k]);
        }
    }
}

int main() {
    int nx = 32;
    int ny = 32;
    int nz = 8;
    double *A = cudaMalloc3D(nx, ny, nz);
    double *B = cudaMalloc3D(nx, ny, nz);
    deviceRandom(B, 42);
    dim3 grid(4, 4, 1);
    dim3 block(8, 8, 1);
    diffuse<<<grid, block>>>(A, B, nx, ny, nz, 0.25);
    cudaDeviceSynchronize();
    return 0;
}
"""

CHAIN_SRC = """
__global__ void produce(double *T, const double *B, int nx, int ny, int nz, double c) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    int j = blockIdx.y * blockDim.y + threadIdx.y;
    if (i < nx && j < ny) {
        for (int k = 0; k < nz; k++) {
            T[i][j][k] = c * B[i][j][k] + 1.0;
        }
    }
}
__global__ void consume(double *A, const double *T, int nx, int ny, int nz) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    int j = blockIdx.y * blockDim.y + threadIdx.y;
    if (i >= 1 && i < nx - 1 && j >= 1 && j < ny - 1) {
        for (int k = 0; k < nz; k++) {
            A[i][j][k] = T[i + 1][j][k] + T[i - 1][j][k] + T[i][j + 1][k] + T[i][j - 1][k];
        }
    }
}
int main() {
    int nx = 32;
    int ny = 32;
    int nz = 4;
    double *A = cudaMalloc3D(nx, ny, nz);
    double *T = cudaMalloc3D(nx, ny, nz);
    double *B = cudaMalloc3D(nx, ny, nz);
    deviceRandom(B, 7);
    deviceRandom(T, 9);
    dim3 grid(4, 4, 1);
    dim3 block(8, 8, 1);
    produce<<<grid, block>>>(T, B, nx, ny, nz, 0.5);
    consume<<<grid, block>>>(A, T, nx, ny, nz);
    return 0;
}
"""

THREE_KERNEL_SRC = """
__global__ void k1(double *A, const double *B, int nx, int ny, int nz) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    int j = blockIdx.y * blockDim.y + threadIdx.y;
    if (i >= 1 && i < nx - 1 && j >= 1 && j < ny - 1) {
        for (int k = 0; k < nz; k++) {
            A[i][j][k] = 0.25 * (B[i + 1][j][k] + B[i - 1][j][k] + B[i][j + 1][k] + B[i][j - 1][k]);
        }
    }
}
__global__ void k2(double *C, const double *B, int nx, int ny, int nz) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    int j = blockIdx.y * blockDim.y + threadIdx.y;
    if (i < nx && j < ny) {
        for (int k = 0; k < nz; k++) {
            C[i][j][k] = B[i][j][k] * 2.0;
        }
    }
}
__global__ void k3(double *D, const double *A, const double *C, int nx, int ny, int nz) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    int j = blockIdx.y * blockDim.y + threadIdx.y;
    if (i < nx && j < ny) {
        for (int k = 0; k < nz; k++) {
            D[i][j][k] = A[i][j][k] + C[i][j][k];
        }
    }
}
int main() {
    int nx = 32;
    int ny = 32;
    int nz = 8;
    double *A = cudaMalloc3D(nx, ny, nz);
    double *B = cudaMalloc3D(nx, ny, nz);
    double *C = cudaMalloc3D(nx, ny, nz);
    double *D = cudaMalloc3D(nx, ny, nz);
    deviceRandom(B, 7);
    dim3 grid(4, 4, 1);
    dim3 block(8, 8, 1);
    k1<<<grid, block>>>(A, B, nx, ny, nz);
    k2<<<grid, block>>>(C, B, nx, ny, nz);
    k3<<<grid, block>>>(D, A, C, nx, ny, nz);
    return 0;
}
"""

SEPARABLE_SRC = """
__global__ void big(double *R, double *W, const double *S, const double *V, const double *T, const double *U, int n, double c) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i >= 1 && i < n - 1) {
        double a = c * 2.0;
        R[i] = S[i + 1] + a * S[i - 1];
        W[i] = V[i] * a + T[i];
        R[i] += U[i];
    }
}
int main() {
    int n = 128;
    double *R = cudaMalloc1D(n);
    double *W = cudaMalloc1D(n);
    double *S = cudaMalloc1D(n);
    double *V = cudaMalloc1D(n);
    double *T = cudaMalloc1D(n);
    double *U = cudaMalloc1D(n);
    deviceRandom(S, 1);
    deviceRandom(V, 2);
    deviceRandom(T, 3);
    deviceRandom(U, 4);
    dim3 grid(2, 1, 1);
    dim3 block(64, 1, 1);
    big<<<grid, block>>>(R, W, S, V, T, U, n, 0.5);
    return 0;
}
"""


@pytest.fixture
def diffuse_program():
    return parse_program(DIFFUSE_SRC)


@pytest.fixture
def chain_program():
    return parse_program(CHAIN_SRC)


@pytest.fixture
def three_kernel_program():
    return parse_program(THREE_KERNEL_SRC)


@pytest.fixture
def separable_program():
    return parse_program(SEPARABLE_SRC)


@pytest.fixture
def k20x():
    return K20X


@pytest.fixture
def k40():
    return K40


@pytest.fixture
def testing_device():
    return TESTING


# ------------------------------------------------------ forced executors


def forced_framework(app_or_source, block_exec, **fields):
    """A ``Framework`` over ``TransformConfig(**fields)`` with its
    interpreter strategy forced to ``block_exec``.

    ``block_exec`` is no product setting: it is the ``Framework`` run
    argument only checks and tests set.
    Returns ``(framework, resolved config)``; the interpreter's per-run
    stats are reset, as :func:`repro.api.transform` resets them.
    """
    from repro.api import TransformConfig
    from repro.apps import APP_NAMES, build_app
    from repro.gpu import interpreter
    from repro.pipeline import Framework
    from repro.store.artifact_store import open_store

    config = TransformConfig(**fields).resolved()
    store = open_store(config.store_root) if config.store else None
    if isinstance(app_or_source, str):
        app_or_source = (
            build_app(app_or_source).program
            if app_or_source in APP_NAMES
            else parse_program(app_or_source)
        )
    interpreter.reset_stats()
    framework = Framework(
        app_or_source,
        config,
        store=store,
        block_exec=block_exec,
        read_only=True,
    )
    return framework, config


def forced_transform(app_or_source, block_exec, **fields):
    """:func:`repro.api.transform` of ``TransformConfig(**fields)`` under a
    forced executor (see :func:`forced_framework`); writes no run record."""
    from repro.api import TransformResult
    from repro.observability import telemetry

    framework, config = forced_framework(app_or_source, block_exec, **fields)
    with telemetry(bool(config.telemetry)):
        state = framework.run()
    return TransformResult(
        state=state,
        config=config,
        report=framework.report(),
        stage_times=dict(framework.stage_times),
    )
