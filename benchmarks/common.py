"""Shared harness for the per-table / per-figure benchmarks.

Every benchmark regenerates one table or figure of the paper's evaluation
(§6) by running the end-to-end pipeline over the six generated applications
and printing the same rows/series the paper reports.  Results are cached
per configuration so the figure benches that share runs do not recompute
them.

Absolute numbers come from the analytic device model, not a real K20X/K40 —
per DESIGN.md the reproduction targets the *shape* of the results (who
wins, by roughly which factor), which EXPERIMENTS.md records side by side
with the paper's numbers.
"""

from __future__ import annotations

import atexit
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, Optional, Tuple

from repro.apps import build_app
from repro.config import TransformConfig
from repro.gpu.device import DeviceSpec, K20X
from repro.observability.metrics import get_registry
from repro.observability.runtime import telemetry_enabled
from repro.pipeline import Framework, PipelineState
from repro.search import GAParams, fast_params
from repro.transform import FusionOptions

#: GA budget for benchmark runs (reduced from the paper's 500x100 C++ GGA;
#: early stopping keeps runs tractable in pure Python).
BENCH_POPULATION = 36
BENCH_GENERATIONS = 60
BENCH_STALL = 20
BENCH_SEED = 20150615  # HPDC'15


@dataclass(frozen=True)
class RunKey:
    app: str
    device: str
    mode: str
    fission: bool
    tuning: bool
    filtering: str  # 'auto' | 'manual' | 'off'


@dataclass
class RunOutcome:
    state: PipelineState
    wall_time_s: float

    @property
    def speedup(self) -> float:
        return self.state.speedup


_CACHE: Dict[RunKey, RunOutcome] = {}


def bench_params(seed: int = BENCH_SEED) -> GAParams:
    params = fast_params(seed=seed)
    params.population = BENCH_POPULATION
    params.generations = BENCH_GENERATIONS
    params.stall_generations = BENCH_STALL
    return params


def guided_fusion(app: str) -> Optional[FusionOptions]:
    """The targeted codegen interventions §6.2.2 reports per application."""
    if app == "SCALE-LES":
        # the identified inefficiency was deep-nested-loop fusion
        return replace(FusionOptions(), merge_deep_loops=True)
    if app == "HOMME":
        # the identified inefficiency was two-sided divergence guards;
        # fission already helps HOMME, keep it on
        return replace(FusionOptions(), one_sided_guards=True)
    return None


def run_pipeline(
    app: str,
    device: DeviceSpec = K20X,
    mode: str = "automated",
    fission: bool = True,
    tuning: bool = True,
    filtering: str = "auto",
    fusion: Optional[FusionOptions] = None,
) -> RunOutcome:
    """Run (or fetch from cache) one full transformation; ``fusion``
    replaces the codegen options ``mode`` implies."""
    key = RunKey(app, device.name, mode, fission, tuning, filtering)
    if fusion is None and key in _CACHE:
        return _CACHE[key]

    generated = build_app(app)
    exclude: Tuple[str, ...] = ()
    if filtering == "manual":
        exclude = generated.latency_kernels
    config = TransformConfig(
        device=device,
        mode=mode,
        ga_params=bench_params(),
        exclude=exclude,
        filtering=(filtering != "off"),
        fission=fission,
        tuning=tuning,
        verify=False,  # correctness is covered by the test suite
    )
    start = time.perf_counter()
    state = Framework(generated.program, config, fusion=fusion).run()
    outcome = RunOutcome(state=state, wall_time_s=time.perf_counter() - start)
    if fusion is None:
        _CACHE[key] = outcome
    return outcome


def guided_run(app: str, device: DeviceSpec = K20X) -> RunOutcome:
    """Programmer-guided transformation for the figure benches."""
    if app == "Fluam":
        # Fluam's guided fix is manual target filtering (§6.2.2)
        return run_pipeline(app, device, filtering="manual")
    return run_pipeline(app, device, fusion=guided_fusion(app))


#: where the end-of-run metrics dump lands (next to the bench results)
METRICS_OUT = Path(__file__).parent / "bench_metrics.json"

_metrics_hook_registered = False


def register_metrics_emission(path: Optional[Path] = None) -> None:
    """Emit the process's metrics registry as JSON when the bench exits.

    Registered once at import, so every ``bench_*.py`` run leaves its
    metrics (pipeline stage times, search counters, cache rates) next to
    its printed results without per-bench code.  A no-op when telemetry
    is disabled or nothing was recorded.
    """
    global _metrics_hook_registered
    if _metrics_hook_registered:
        return
    _metrics_hook_registered = True
    target = path or METRICS_OUT

    def _emit() -> None:
        if not telemetry_enabled():
            return
        registry = get_registry()
        dump = registry.to_json()
        if not any(dump.values()):
            return
        registry.write_json(str(target))

    atexit.register(_emit)


register_metrics_emission()


def print_header(title: str) -> None:
    print()
    print("=" * 78)
    print(title)
    print("=" * 78)


def fmt_row(cells, widths) -> str:
    return "  ".join(str(c).ljust(w) for c, w in zip(cells, widths))
