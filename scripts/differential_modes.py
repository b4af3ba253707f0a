#!/usr/bin/env python
"""Differential-test the interpreter's execution modes end to end.

Runs a generated application (default: Fluam) plus a shared-memory tiled
stencil under every block execution strategy — ``loop``, ``batched``,
``compiled`` and ``auto`` — and checks the contract the ``compiled``
mode makes:

* every device array is **bitwise identical** across all modes
  (compared by SHA-256 of the raw buffer);
* the mode-invariant counter totals (loads/stores/bytes/syncthreads,
  see :data:`repro.observability.hwcounters.MODE_INVARIANT_FIELDS`)
  agree across all modes;
* the **full** counter totals — including the execution-shape-dependent
  ``branch_divergence`` — agree between ``compiled`` and ``auto``, the
  interpretation mode whose lattice it shares;
* ``auto`` ran array references as slices and ``loop`` ran none
  (``InterpreterStats.accesses_by_path``), so the comparison above is a
  slice-vs-funnel differential and stays one.

Exits non-zero on any mismatch; prints the compiler's cache counters so
CI logs show how many kernels actually compiled vs fell back.

Usage::

    PYTHONPATH=src python scripts/differential_modes.py [--app Fluam]
"""

from __future__ import annotations

import argparse
import hashlib
import sys

MODES = ("loop", "batched", "compiled", "auto")

#: a tiled stage-in/write-out stencil (batched-friendly shared memory),
#: an in-place kernel that reads and writes one array but only ever its
#: own element (the per-element watch keeps it on the batched lattice),
#: and one whose blocks pre-load a neighbour's cell before that
#: neighbour stores it — a dead value, so every mode still agrees
#: bitwise, but a cross-block hazard the watch must replay on the block
#: loop: the differential thereby also covers the compiled mode's
#: per-kernel fallback path
_STENCIL = """
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

__global__ void shift(double* a, int nx, int ny) {
    __shared__ double t[8][8];
    int tx = threadIdx.x;
    int ty = threadIdx.y;
    int i = blockIdx.x * blockDim.x + tx;
    int j = blockIdx.y * blockDim.y + ty;
    t[tx][ty] = 0.0;
    if (i >= 1) {
        t[tx][ty] = a[i - 1][j];
    }
    __syncthreads();
    t[tx][ty] = a[i][j] * 0.5 + 1.0;
    __syncthreads();
    a[i][j] = t[tx][ty];
}

int main() {
    int nx = 96;
    int ny = 96;
    double* a = cudaMalloc2D(nx, ny);
    double* b = cudaMalloc2D(nx, ny);
    deviceRandom(a, 20150615);
    blur<<<dim3(12, 12, 1), dim3(8, 8, 1)>>>(a, b, nx, ny);
    relax<<<dim3(12, 12, 1), dim3(8, 8, 1)>>>(b, nx, ny);
    shift<<<dim3(12, 12, 1), dim3(8, 8, 1)>>>(b, nx, ny);
    return 0;
}
"""


def array_hashes(result) -> dict:
    return {
        name: hashlib.sha256(arr.tobytes()).hexdigest()
        for name, arr in sorted(result.arrays.items())
    }


def run_modes(program) -> dict:
    from repro.gpu import interpreter
    from repro.gpu.interpreter import run_program
    from repro.observability import counters_signature

    runs = {}
    for mode in MODES:
        interpreter.reset_stats()
        result = run_program(program, block_exec=mode, collect_counters=True)
        counters = [rec.counters for rec in result.launches]
        runs[mode] = {
            "hashes": array_hashes(result),
            "invariant": counters_signature(counters),
            "full": counters_signature(counters, include_divergence=True),
            "sliced": interpreter.stats().accesses_by_path["slice"],
        }
    return runs


def diff_runs(label: str, runs: dict) -> list:
    problems = []
    reference = runs["loop"]
    for mode in MODES[1:]:
        if runs[mode]["hashes"] != reference["hashes"]:
            drifted = sorted(
                name
                for name in reference["hashes"]
                if runs[mode]["hashes"].get(name) != reference["hashes"][name]
            )
            problems.append(f"{label}: arrays differ loop vs {mode}: {drifted}")
        if runs[mode]["invariant"] != reference["invariant"]:
            problems.append(
                f"{label}: mode-invariant counters differ loop vs {mode}:\n"
                f"  loop:   {reference['invariant']}\n"
                f"  {mode}: {runs[mode]['invariant']}"
            )
    if runs["compiled"]["full"] != runs["auto"]["full"]:
        problems.append(
            f"{label}: full counters (incl. branch_divergence) differ "
            f"compiled vs auto:\n"
            f"  auto:     {runs['auto']['full']}\n"
            f"  compiled: {runs['compiled']['full']}"
        )
    if reference["sliced"] or not runs["auto"]["sliced"]:
        problems.append(
            f"{label}: not a slice-vs-funnel differential: loop sliced "
            f"{reference['sliced']} accesses, auto {runs['auto']['sliced']}"
        )
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--app", default="Fluam",
                        help="generated application to run (default: Fluam)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="application scale factor (default: 1.0)")
    parser.add_argument("--fuzz-seed", type=int, default=None, metavar="N",
                        help="also differential-test fuzz app N "
                             "(repro.fuzz.appgen.generate_app)")
    args = parser.parse_args(argv)

    from repro.apps import build_app
    from repro.cudalite import parse_program
    from repro.gpu import compiler

    compiler.reset_code_cache()
    problems = []
    programs = {
        "stencil+fallback": parse_program(_STENCIL),
        args.app: build_app(args.app, scale=args.scale).program,
    }
    if args.fuzz_seed is not None:
        from repro.fuzz import generate_app

        fuzz_app = generate_app(args.fuzz_seed)
        programs[fuzz_app.name] = fuzz_app.program
    for label, program in programs.items():
        runs = run_modes(program)
        problems.extend(diff_runs(label, runs))
        kernels = len(runs["loop"]["invariant"])
        print(f"{label}: {kernels} kernels x {len(MODES)} modes compared")

    stats = compiler.stats().as_dict()
    print(f"compiler cache: {stats}")
    if not stats["lowered"]:
        problems.append("no kernel was actually compiled — differential vacuous")
    if not str(stats["fallback_reasons"].get("shift", "")).startswith(
        "cross_block_hazard"
    ):
        problems.append("the hazard kernel was not replayed — fallback untested")

    for problem in problems:
        print(f"differential_modes: {problem}", file=sys.stderr)
    if problems:
        return 1
    print("all modes bitwise-identical (arrays) and counter-consistent")
    return 0


if __name__ == "__main__":
    sys.exit(main())
