"""Quickstart: transform a three-kernel stencil mini-app end to end.

Parses a CudaLite program, runs the automated five-stage pipeline
(metadata -> targets -> graphs -> search -> codegen), verifies the
transformed program's output on the simulator, and prints the generated
CUDA plus the projected speedup.

Run:  python examples/quickstart.py
"""

from repro.cudalite import unparse
from repro.gpu.device import K20X
from repro.config import TransformConfig
from repro.pipeline import Framework
from repro.search import fast_params

SOURCE = """
__global__ void smooth(double *A, const double *B, int nx, int ny, int nz) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    int j = blockIdx.y * blockDim.y + threadIdx.y;
    if (i >= 1 && i < nx - 1 && j >= 1 && j < ny - 1) {
        for (int k = 0; k < nz; k++) {
            A[i][j][k] = 0.25 * (B[i + 1][j][k] + B[i - 1][j][k]
                                 + B[i][j + 1][k] + B[i][j - 1][k]);
        }
    }
}

__global__ void scale2(double *C, const double *B, int nx, int ny, int nz) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    int j = blockIdx.y * blockDim.y + threadIdx.y;
    if (i < nx && j < ny) {
        for (int k = 0; k < nz; k++) {
            C[i][j][k] = B[i][j][k] * 2.0;
        }
    }
}

__global__ void combine(double *D, const double *A, const double *C,
                        int nx, int ny, int nz) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    int j = blockIdx.y * blockDim.y + threadIdx.y;
    if (i < nx && j < ny) {
        for (int k = 0; k < nz; k++) {
            D[i][j][k] = A[i][j][k] + C[i][j][k];
        }
    }
}

int main() {
    int nx = 64;
    int ny = 64;
    int nz = 16;
    double *A = cudaMalloc3D(nx, ny, nz);
    double *B = cudaMalloc3D(nx, ny, nz);
    double *C = cudaMalloc3D(nx, ny, nz);
    double *D = cudaMalloc3D(nx, ny, nz);
    deviceRandom(B, 42);
    dim3 grid(8, 8, 1);
    dim3 block(8, 8, 1);
    smooth<<<grid, block>>>(A, B, nx, ny, nz);
    scale2<<<grid, block>>>(C, B, nx, ny, nz);
    combine<<<grid, block>>>(D, A, C, nx, ny, nz);
    cudaDeviceSynchronize();
    return 0;
}
"""


def main() -> None:
    config = TransformConfig(
        device=K20X,
        ga_params=fast_params(seed=7),
        verify=True,  # run original + transformed on the simulator, compare
    )
    framework = Framework(SOURCE, config)
    state = framework.run()

    print(framework.report())
    print()
    print("---- generated program " + "-" * 50)
    print(unparse(state.transform.program))
    print(f"projected speedup on {config.device.name}: {state.speedup:.3f}x")
    print(f"output verified bit-faithful: {state.verified}")


if __name__ == "__main__":
    main()
