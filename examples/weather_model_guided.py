"""Programmer-guided transformation of the SCALE-LES weather-model stand-in.

Demonstrates the intervention workflow of §3.2:

1. run the pipeline stage by stage, inspecting each report;
2. dump the DDG/OEG as DOT files (the artifacts the programmer can amend);
3. intervene after the *targets* stage (hand-exclude a kernel) and enable
   the deep-loop codegen fix the paper's guided SCALE-LES run used;
4. compare automated vs guided speedups.

Run:  python examples/weather_model_guided.py
"""

import tempfile
from dataclasses import replace
from pathlib import Path

from repro.apps import build_app
from repro.gpu.device import K20X
from repro.config import TransformConfig
from repro.pipeline import Framework
from repro.search import fast_params
from repro.transform import FusionOptions


def run_automated(app, workdir: str):
    config = TransformConfig(
        device=K20X,
        ga_params=fast_params(seed=11),
        verify=False,
        workdir=workdir,
    )
    framework = Framework(app.program, config)

    # stage-by-stage execution with reports, exactly like the CLI's --until
    framework.run(until="metadata")
    print("[metadata]", framework.state.reports["metadata"])
    framework.run_stage("targets")
    targets = framework.state.targets
    print(f"[targets]  {len(targets.targets)} fusion targets, "
          f"{len(targets.excluded)} excluded")
    framework.run_stage("graphs")
    print("[graphs]  ", framework.state.reports["graphs"].splitlines()[0])
    framework.run_stage("search")
    print("[search]  ", framework.state.reports["search"])
    framework.run_stage("codegen")
    print("[codegen] ", framework.state.reports["codegen"])
    return framework.state


def run_guided(app):
    """The guided run: the programmer spotted that deep-nested-loop fusions
    were generated sub-optimally (the paper's K_07/K_15/K_16/K_23 story)
    and turns on inner-loop sharing; they also hand-exclude one kernel."""
    config = TransformConfig(
        device=K20X,
        mode="guided",
        ga_params=fast_params(seed=11),
        verify=False,
    )
    framework = Framework(
        app.program,
        config,
        fusion=replace(FusionOptions(), merge_deep_loops=True),
    )

    def exclude_one(state):
        # pretend the programmer knows K000 is not worth fusing
        decision = state.targets.decisions.get("K000")
        if decision is not None:
            decision.eligible = False
            decision.reason = "excluded by the programmer"

    framework.intervene("targets", exclude_one)
    return framework.run()


def main() -> None:
    app = build_app("SCALE-LES", scale=0.5)
    print(f"generated {app.name}: {len(app.program.kernels)} kernels, "
          f"domain {app.spec.domain}")

    with tempfile.TemporaryDirectory() as workdir:
        automated = run_automated(app, workdir)
        artifacts = sorted(p.name for p in Path(workdir).iterdir())
        print(f"\nstage artifacts written to {workdir}: {artifacts}")
        dot_head = (Path(workdir) / "oeg.dot").read_text().splitlines()[:5]
        print("OEG DOT head:", *dot_head, sep="\n  ")

    guided = run_guided(app)

    print()
    print(f"automated speedup: {automated.speedup:.3f}x")
    print(f"guided speedup:    {guided.speedup:.3f}x "
          "(deep-loop fix + manual exclusion)")


if __name__ == "__main__":
    main()
