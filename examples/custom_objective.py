"""Extending the framework: custom objective, GA parameter file, custom GPU.

The paper's framework is designed to be extended by its users: the
optimization objective is a black box returning a projected GFLOPS value,
the GA is configured through a parameter file the programmer can amend,
and the device metadata comes from a query step — all three extension
points are exercised here:

1. register a custom objective that penalizes kernel *count* on top of the
   projected performance (a launch-latency-sensitive variant);
2. write / edit / reload a GA parameter file;
3. register a custom (future-looking, bigger-shared-memory) device and
   transform against it.

Run:  python examples/custom_objective.py
"""

import tempfile
from dataclasses import replace
from pathlib import Path

from repro.apps import build_app
from repro.gpu.device import K20X, register_device
from repro.config import TransformConfig
from repro.pipeline import Framework
from repro.search import (
    GAParams,
    fast_params,
    projected_gflops,
    register_objective,
)


def launch_averse_objective(problem, individual, device):
    """Projected GFLOPS minus a cost per generated kernel (launch latency)."""
    base = projected_gflops(problem, individual, device)
    return base - 0.05 * len(individual.partition(problem))


def main() -> None:
    register_objective("launch_averse", launch_averse_objective)

    # --- GA parameter file round trip (the programmer's tuning surface) ----
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ga.params"
        params = fast_params(seed=23)
        params.write(path)
        text = path.read_text()
        text = text.replace("objective = 'projected_gflops'",
                            "objective = 'launch_averse'")
        path.write_text(text)
        params = GAParams.read(path)
    print(f"GA parameter file selects objective: {params.objective!r}")

    # --- a custom device: Kepler with doubled shared memory ----------------
    big_smem = replace(
        K20X,
        name="K20X-BIGSMEM",
        shared_mem_per_sm=96 * 1024,
        shared_mem_per_block=96 * 1024,
    )
    register_device(big_smem)

    app = build_app("B-CALM", scale=0.5)
    baseline_cfg = TransformConfig(device=K20X, ga_params=params, verify=False)
    big_cfg = TransformConfig(device=big_smem, ga_params=params, verify=False)

    on_k20x = Framework(app.program, baseline_cfg).run()
    on_big = Framework(app.program, big_cfg).run()

    print(f"\n{app.name} with the launch-averse objective:")
    print(f"  K20X (48 KB smem):        speedup {on_k20x.speedup:.3f}x, "
          f"{on_k20x.transform.new_kernel_count} new kernels")
    print(f"  K20X-BIGSMEM (96 KB):     speedup {on_big.speedup:.3f}x, "
          f"{on_big.transform.new_kernel_count} new kernels")
    print("\nA bigger shared memory relaxes the fusion constraint, which is "
          "the on-chip-capacity trend the paper's introduction points at.")


if __name__ == "__main__":
    main()
