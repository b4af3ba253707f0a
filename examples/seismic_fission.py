"""Kernel fission on the AWP-ODC-GPU earthquake-simulation stand-in.

The application's kernels are "almost fused" — large kernels updating many
independent components.  This example shows

1. Algorithm 2 in isolation: the array-dependency graph of a big kernel
   and its separable components;
2. the generated fission fragments (Figure 3's transformation);
3. why it matters: fusion-only vs fission+fusion end-to-end speedups.

Run:  python examples/seismic_fission.py
"""

from repro.analysis.deps import array_dependency_graph, separable_components
from repro.apps import build_app
from repro.cudalite import unparse
from repro.gpu.device import K20X
from repro.config import TransformConfig
from repro.pipeline import Framework
from repro.search import fast_params
from repro.transform import fission_kernel


def main() -> None:
    app = build_app("AWP-ODC-GPU", scale=0.5)
    stress = app.program.kernel("stress_update_a")

    # --- Algorithm 2: dependency graph and separable components ------------
    graph = array_dependency_graph(stress)
    print(f"array-dependency graph of {stress.name!r}: "
          f"{len(graph)} arrays, {sum(map(len, graph.values())) // 2} edges")
    components = separable_components(stress)
    print(f"separable components ({len(components)}):")
    for component in components:
        print("  ", sorted(component))

    # --- the fission fragments (Figure 3) ----------------------------------
    fragments = fission_kernel(stress)
    print(f"\nfissioned {stress.name!r} into {len(fragments)} kernels:")
    print(unparse(fragments[0].kernel))

    # --- why fission matters here ------------------------------------------
    params = fast_params(seed=17)
    base = dict(device=K20X, ga_params=params, verify=False)

    fusion_only = Framework(
        app.program, TransformConfig(fission=False, **base)
    ).run()
    with_fission = Framework(
        app.program, TransformConfig(fission=True, **base)
    ).run()

    print(f"fusion only:      {fusion_only.speedup:.3f}x "
          f"({len(fusion_only.transform.fused_kernels)} fused kernels)")
    print(f"fission + fusion: {with_fission.speedup:.3f}x "
          f"({len(with_fission.transform.fused_kernels)} fused kernels, "
          f"{with_fission.search.avg_fissions_per_generation:.2f} lazy "
          "fissions/generation)")
    print("\nThe velocity kernel reads the stress arrays with a halo the "
          "stress kernels overwrite,\nso whole kernels cannot fuse; only "
          "component fragments expose the shared velocity reads.")


if __name__ == "__main__":
    main()
