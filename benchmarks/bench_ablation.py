"""Ablation bench — design choices called out in DESIGN.md.

Quantifies, on the SCALE-LES and AWP-ODC-GPU workloads, how much each
ingredient of the transformation contributes:

* shared-memory staging of locality arrays (vs fusing without tiles),
* the lazy-fission relaxation of the penalty function (Eq. 1's C_SM term),
* thread-block tuning,
* temporal blocking for complex fusions (disabling it degrades every
  producer→consumer group to separate launches).
"""

from dataclasses import replace

from repro.apps import build_app
from repro.config import TransformConfig
from repro.gpu.device import K20X
from repro.pipeline import Framework
from repro.search import PenaltyParams
from repro.transform import FusionOptions

from common import bench_params, fmt_row, print_header, run_pipeline

_ROWS = {}


def _run(app, *, fusion=None, penalties=None):
    generated = build_app(app)
    params = bench_params()
    if penalties is not None:
        params.penalties = penalties
    config = TransformConfig(device=K20X, ga_params=params, verify=False)
    return Framework(generated.program, config, fusion=fusion).run()


def test_ablation_staging(benchmark):
    def run():
        with_tiles = run_pipeline("SCALE-LES", K20X).speedup
        without = _run(
            "SCALE-LES", fusion=replace(FusionOptions(), stage_shared=False)
        ).speedup
        return with_tiles, without

    _ROWS["staging"] = benchmark.pedantic(run, rounds=1, iterations=1)


def test_ablation_lazy_fission_relaxation(benchmark):
    def run():
        relaxed = run_pipeline("AWP-ODC-GPU", K20X).speedup
        # C_SM relaxation off: boundary solutions penalized in full
        strict = _run(
            "AWP-ODC-GPU", penalties=PenaltyParams(c_sm_relax=0.0)
        ).speedup
        return relaxed, strict

    _ROWS["lazy-fission"] = benchmark.pedantic(run, rounds=1, iterations=1)


def test_ablation_temporal_blocking(benchmark):
    def run():
        on = run_pipeline("B-CALM", K20X).speedup
        off = _run(
            "B-CALM", fusion=replace(FusionOptions(), temporal_blocking=False)
        ).speedup
        return on, off

    _ROWS["temporal-blocking"] = benchmark.pedantic(run, rounds=1, iterations=1)


def test_ablation_block_tuning(benchmark):
    def run():
        on = run_pipeline("Fluam", K20X, tuning=True).speedup
        off = run_pipeline("Fluam", K20X, tuning=False).speedup
        return on, off

    _ROWS["block-tuning"] = benchmark.pedantic(run, rounds=1, iterations=1)


def test_ablation_print(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    print_header("Ablation: contribution of each transformation ingredient")
    widths = (22, 14, 14, 10)
    print(fmt_row(("Ingredient (app)", "Enabled", "Disabled", "Delta"), widths))
    labels = {
        "staging": "smem staging (SCALE)",
        "lazy-fission": "C_SM relax (AWP)",
        "temporal-blocking": "temporal blk (B-CALM)",
        "block-tuning": "block tuning (Fluam)",
    }
    for key, label in labels.items():
        if key not in _ROWS:
            continue
        on, off = _ROWS[key]
        print(fmt_row((label, f"{on:.3f}x", f"{off:.3f}x", f"{on - off:+.3f}"), widths))
    # directional assertions
    if "staging" in _ROWS:
        assert _ROWS["staging"][0] >= _ROWS["staging"][1] - 0.02
    if "block-tuning" in _ROWS:
        assert _ROWS["block-tuning"][0] >= _ROWS["block-tuning"][1] - 1e-9
