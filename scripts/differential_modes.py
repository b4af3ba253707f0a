#!/usr/bin/env python
"""Differential-test the interpreter's execution modes end to end.

Runs a generated application (default: Fluam) plus a shared-memory tiled
stencil under every block execution strategy — ``loop``, ``batched`` and
``auto`` — and checks:

* every device array is **bitwise identical** across all modes
  (compared by SHA-256 of the raw buffer);
* the mode-invariant counter totals (loads/stores/bytes/syncthreads,
  see :data:`repro.observability.hwcounters.MODE_INVARIANT_FIELDS`)
  agree across all modes;
* ``auto`` ran array references as slices and ``loop`` ran none
  (``InterpreterStats.accesses_by_path``), so the comparison above is a
  slice-vs-funnel differential and stays one;
* ``auto`` lifted loops and ``loop`` lifted none
  (``InterpreterStats.statements_by_path``): a lifted-vs-sequential
  differential too;
* under every mode, the whole-program gate's paired run of the program
  and its transformation (``run_program(transformed, reference=program)``)
  equals the two separate runs: array hashes of both programs and the
  transformed program's counter signature.

With ``--verdicts`` it instead transforms the fuzz apps whose groups
demote (:data:`VERDICT_SEEDS`; the default configuration with
``ga_params=GAParams(population=10, generations=6, seed=s)``) under every
forced mode (``Framework``'s ``block_exec``), and once more seed 17 with a thread-invariant out-of-bounds read
injected into every fused kernel: every group verdict (status and cause)
and every ``DemotionRecord`` must be the same under all modes.  (Only
``auto`` runs read or write stored verdicts: forced ``batched`` passes
racy groups the other modes fail, which these seeds do not contain.)

Exits non-zero on any mismatch, and when ``auto`` did not replay the
stencil program's hazard kernel on the block loop, or did not abandon
its lifted pass of the lagged-tile kernel (either fallback path would
then be untested).

Usage::

    PYTHONPATH=src python scripts/differential_modes.py [--app Fluam ...|all]
    PYTHONPATH=src python scripts/differential_modes.py --verdicts
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import sys

MODES = ("loop", "batched", "auto")

#: fuzz seeds whose groups demote at the small GA budget; the first also
#: runs with the injected out-of-bounds read
VERDICT_SEEDS = (17, 10, 11, 12, 29, 55, 58)

#: a tiled stage-in/write-out stencil (batched-friendly shared memory),
#: an in-place kernel that reads and writes one array but only ever its
#: own element (the per-element watch keeps it on the batched lattice),
#: and one whose blocks pre-load a neighbour's cell before that
#: neighbour stores it — a dead value, so every mode still agrees
#: bitwise, but a cross-block hazard the watch must replay on the block
#: loop: the differential thereby also covers ``auto``'s fallback path.
#: ``lag`` reads in iteration ``k`` the tile cell iteration ``k - 1``
#: staged: its loop qualifies for lifting, the write record of the
#: privatised tile must catch the read and the launch re-run sequentially
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

__global__ void lag(const double* in, double* out, int nx, int ny) {
    __shared__ double t[8];
    int tx = threadIdx.x;
    int i = blockIdx.x * blockDim.x + tx;
    for (int k = 0; k < ny; k++) {
        if (k > 0) {
            out[i][k] = t[tx] + in[i][k];
        }
        t[tx] = in[i][k] * 0.5;
        __syncthreads();
    }
}

int main() {
    int nx = 96;
    int ny = 96;
    double* a = cudaMalloc2D(nx, ny);
    double* b = cudaMalloc2D(nx, ny);
    double* c = cudaMalloc2D(nx, ny);
    deviceRandom(a, 20150615);
    blur<<<dim3(12, 12, 1), dim3(8, 8, 1)>>>(a, b, nx, ny);
    relax<<<dim3(12, 12, 1), dim3(8, 8, 1)>>>(b, nx, ny);
    shift<<<dim3(12, 12, 1), dim3(8, 8, 1)>>>(b, nx, ny);
    lag<<<dim3(12, 1, 1), dim3(8, 1, 1)>>>(a, c, nx, ny);
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
        stats = interpreter.stats()
        runs[mode] = {
            "hashes": array_hashes(result),
            "invariant": counters_signature(rec.counters for rec in result.launches),
            "sliced": stats.accesses_by_path["slice"],
            "lifted": stats.statements_by_path["lifted"],
            "replayed": sorted(stats.hazard_replays),
            "lift_replayed": sorted(stats.lift_replays),
        }
    return runs


def diff_paired(label: str, program, runs: dict) -> list:
    """The paired run against the separate runs, under every mode."""
    from repro.gpu.interpreter import run_program
    from repro.observability import counters_signature
    from repro.config import TransformConfig
    from repro.pipeline import Framework
    from repro.search import fast_params
    from repro.transform import FusionOptions

    # untiled fusions: a fused tile on the per-block ``loop`` costs minutes
    # at these scales (tests/test_program_gate.py pairs tiled ones)
    config = TransformConfig(ga_params=fast_params(seed=1), verify=False)
    untiled = dataclasses.replace(FusionOptions(), stage_shared=False)
    transformed = Framework(program, config, fusion=untiled).run().transform.program
    problems = []
    shared = {}
    for mode in MODES:
        alone = run_program(transformed, block_exec=mode, collect_counters=True)
        paired = run_program(
            transformed, block_exec=mode, collect_counters=True, reference=program
        )
        shared[mode] = paired.shared_launches
        if array_hashes(paired.reference) != runs[mode]["hashes"]:
            problems.append(f"{label}: paired run's original arrays differ ({mode})")
        if array_hashes(paired) != array_hashes(alone):
            problems.append(f"{label}: paired run's transformed arrays differ ({mode})")
        if counters_signature(r.counters for r in paired.launches) != (
            counters_signature(r.counters for r in alone.launches)
        ):
            problems.append(f"{label}: paired run's counters differ ({mode})")
    print(f"{label}: paired vs separate under {len(MODES)} modes, "
          f"shared launches {shared}")
    return problems


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
    if reference["sliced"] or not runs["auto"]["sliced"]:
        problems.append(
            f"{label}: not a slice-vs-funnel differential: loop sliced "
            f"{reference['sliced']} accesses, auto {runs['auto']['sliced']}"
        )
    # the stencil program's one loop is the lagged tile, which replays
    expect_lifts = label != "stencil+fallback"
    if reference["lifted"] or (expect_lifts and not runs["auto"]["lifted"]):
        problems.append(
            f"{label}: not a lifted-vs-sequential differential: loop lifted "
            f"{reference['lifted']} statements, auto {runs['auto']['lifted']}"
        )
    return problems


@contextlib.contextmanager
def thread_invariant_oob():
    """Every fused kernel opens with a thread-invariant read one past the
    end of its first array, in a kernel with shared memory, so the group
    gate fails it with an out-of-bounds error that names a block."""
    from repro.cudalite import parse_program, unparse
    from repro.pipeline import apply

    real = apply.fuse_kernels

    def fuse(name, constituents, block, array_shapes, **kwargs):
        fused = real(name, constituents, block, array_shapes, **kwargs)
        extent, *rest = array_shapes[fused.pointer_args[0]]
        read = f"{fused.kernel.params[0].name}[q]" + "[0]" * len(rest)
        text = unparse(fused.kernel).replace(
            "{",
            "{ __shared__ double spare[1];"
            f" for (int q = 0; q <= {extent}; q++) {{ double oob = {read}; }}",
            1,
        )
        return dataclasses.replace(fused, kernel=parse_program(text).kernels[0])

    apply.fuse_kernels = fuse
    try:
        yield
    finally:
        apply.fuse_kernels = real


def diff_verdicts() -> list:
    """Every group gate verdict and demotion of each demoting seed's
    transform, per mode: a ``Framework`` over the default configuration
    with its ``block_exec`` run argument forced (no product setting)."""
    from repro.api import TransformConfig
    from repro.fuzz import generate_app
    from repro.pipeline import Framework, apply
    from repro.search.params import GAParams

    def forced(program, mode, ga_params):
        config = TransformConfig(ga_params=ga_params, store=False).resolved()
        return Framework(program, config, block_exec=mode).run()

    legs = [(seed, contextlib.nullcontext) for seed in VERDICT_SEEDS]
    legs.append((VERDICT_SEEDS[0], thread_invariant_oob))
    real = apply.verify_group
    problems = []
    for seed, injected in legs:
        label = f"fuzz seed {seed}" + (
            "" if injected is contextlib.nullcontext else " + thread-invariant oob"
        )
        program = generate_app(seed).program
        outcomes = {}
        for mode in MODES:
            verdicts = []
            apply.verify_group = lambda *a, **k: verdicts.append(real(*a, **k)) or verdicts[-1]
            try:
                with injected():
                    state = forced(
                        program, mode,
                        ga_params=GAParams(population=10, generations=6, seed=seed),
                    )
            finally:
                apply.verify_group = real
            outcomes[mode] = (verdicts, state.transform.demotions)
        verdicts, demotions = outcomes["loop"]
        for mode in MODES[1:]:
            if outcomes[mode][0] != verdicts:
                problems.append(f"{label}: group verdicts differ loop vs {mode}")
            if outcomes[mode][1] != demotions:
                problems.append(f"{label}: demotions differ loop vs {mode}")
        statuses = [v.status for v in verdicts]
        print(f"{label}: {len(verdicts)} group verdicts "
              f"({statuses.count('fail')} fail), {len(demotions)} demotions "
              f"x {len(MODES)} modes compared")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--app", nargs="+", default=["Fluam"],
                        help="generated applications to run, or 'all' for "
                             "the six paper apps (default: Fluam)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="application scale factor (default: 1.0)")
    parser.add_argument("--fuzz-seed", type=int, default=None, metavar="N",
                        help="also differential-test fuzz app N "
                             "(repro.fuzz.appgen.generate_app)")
    parser.add_argument("--verdicts", action="store_true",
                        help="instead compare gate verdicts and demotions "
                             "of the demoting fuzz apps across modes")
    args = parser.parse_args(argv)

    from repro.apps import APP_NAMES, build_app
    from repro.cudalite import parse_program

    if args.verdicts:
        return report(diff_verdicts(),
                      "group verdicts and demotions equal under every mode")
    problems = []
    apps = APP_NAMES if args.app == ["all"] else args.app
    programs = {"stencil+fallback": parse_program(_STENCIL)}
    for app in apps:
        programs[app] = build_app(app, scale=args.scale).program
    if args.fuzz_seed is not None:
        from repro.fuzz import generate_app

        fuzz_app = generate_app(args.fuzz_seed)
        programs[fuzz_app.name] = fuzz_app.program
    for label, program in programs.items():
        runs = run_modes(program)
        problems.extend(diff_runs(label, runs))
        kernels = len(runs["loop"]["invariant"])
        print(f"{label}: {kernels} kernels x {len(MODES)} modes compared, "
              f"auto replayed {runs['auto']['replayed']}, "
              f"lift replayed {runs['auto']['lift_replayed']}")
        problems.extend(diff_paired(label, program, runs))
        if label == "stencil+fallback":
            if runs["auto"]["replayed"] != ["shift"]:
                problems.append("the hazard kernel was not replayed — fallback untested")
            if runs["auto"]["lift_replayed"] != ["lag"]:
                problems.append("the lagged-tile kernel was not replayed — "
                                "the write record is untested")

    return report(problems, "all modes bitwise-identical (arrays) and "
                  "counter-consistent, paired runs equal to separate ones")


def report(problems: list, success: str) -> int:
    for problem in problems:
        print(f"differential_modes: {problem}", file=sys.stderr)
    if problems:
        return 1
    print(success)
    return 0


if __name__ == "__main__":
    sys.exit(main())
