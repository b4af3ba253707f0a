"""Integration tests: full pipeline on the generated applications with
output verification — the paper's own correctness methodology."""

import pytest

from repro.apps import APP_NAMES, build_app
from repro.gpu.device import K20X, K40
from repro.config import TransformConfig
from repro.pipeline import Framework
from repro.search import fast_params


def small_params(seed=1):
    params = fast_params(seed=seed)
    params.population = 20
    params.generations = 20
    params.stall_generations = 8
    return params


@pytest.mark.parametrize("name", APP_NAMES)
def test_apps_transform_and_verify(name):
    """Every generated application survives the end-to-end transformation
    with bit-faithful output (both block schedules)."""
    app = build_app(name, scale=0.22)
    config = TransformConfig(device=K20X, ga_params=small_params(), verify=True)
    state = Framework(app.program, config).run()
    assert state.verified is True
    assert state.speedup >= 0.99  # never meaningfully slower


def test_awp_fission_beats_fusion_only():
    app = build_app("AWP-ODC-GPU", scale=0.5)
    base_cfg = dict(device=K20X, ga_params=small_params(), verify=False)
    no_fission = Framework(
        app.program, TransformConfig(fission=False, **base_cfg)
    ).run()
    with_fission = Framework(
        app.program, TransformConfig(fission=True, **base_cfg)
    ).run()
    assert with_fission.speedup > no_fission.speedup + 0.1


def test_manual_mode_at_least_as_fast_as_automated():
    app = build_app("SCALE-LES", scale=0.3)
    base = dict(device=K20X, ga_params=small_params(), verify=False)
    auto = Framework(app.program, TransformConfig(mode="automated", **base)).run()
    manual = Framework(app.program, TransformConfig(mode="manual", **base)).run()
    assert manual.speedup >= auto.speedup - 1e-9


def test_k40_projection_differs_from_k20x():
    app = build_app("HOMME", scale=0.4)
    p = small_params()
    a = Framework(
        app.program, TransformConfig(device=K20X, ga_params=p, verify=False)
    ).run()
    b = Framework(
        app.program, TransformConfig(device=K40, ga_params=p, verify=False)
    ).run()
    assert (
        a.baseline_projection.time_s != b.baseline_projection.time_s
    )


def test_degraded_groups_still_verify():
    """Even if the generator degrades a group, the output stays correct."""
    app = build_app("MITgcm", scale=0.3)
    config = TransformConfig(device=K20X, ga_params=small_params(3), verify=True)
    state = Framework(app.program, config).run()
    assert state.verified is True


def test_disable_filtering_slows_convergence():
    """Fig. 8's companion claim: without target filtering the search sees
    more nodes (and in the paper converges ~2.5x slower)."""
    app = build_app("Fluam", scale=0.4)
    params = small_params()
    filtered = Framework(
        app.program,
        TransformConfig(device=K20X, ga_params=params, verify=False),
    ).run()
    unfiltered = Framework(
        app.program,
        TransformConfig(
            device=K20X, ga_params=params, verify=False, filtering=False
        ),
    ).run()
    n_filtered = len(filtered.targets.targets)
    n_unfiltered = len(unfiltered.targets.targets)
    assert n_unfiltered > n_filtered
