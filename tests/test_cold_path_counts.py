"""The cold-path cliff, gated on counts (no timing, no noise).

The fused kernels the pipeline emits for the paper apps — shared-memory
staging plus halo temporal blocking — used to be the interpreter's worst
case: MITgcm's two and Fluam's one fell to the per-block loop and were
most of a cold transform's wall time (ROADMAP item 2(a)).  This pins the
configuration ``benchmarks/e2e``'s ``cold-transform`` workload measures
(half-scale apps, its GA seed) and asserts, from launch records alone,
that no launch of the transformed programs pays the block loop any more —
while the grouping the search picks, and so the projected speedup, is
exactly what it was.
"""

import pytest

from repro.api import transform
from repro.apps import build_app
from repro.cudalite import unparse
from repro.gpu.interpreter import run_program

#: benchmarks/e2e/workloads.py: APP_SCALE, PINNED_GA_SEED
APP_SCALE = 0.5
PINNED_GA_SEED = 20150615

#: app -> (projected speedup, fused shared-memory launches per execution)
EXPECTED = {
    "MITgcm": (1.3359944968129156, 2),
    "Fluam": (1.232786236082874, 1),
}


@pytest.mark.parametrize("app", sorted(EXPECTED))
def test_transformed_paper_app_never_pays_the_block_loop(app):
    speedup, fused_launches = EXPECTED[app]
    source = unparse(build_app(app, scale=APP_SCALE).program)
    result = transform(source, store=False, seed=PINNED_GA_SEED)
    assert result.verified is True
    assert result.speedup == speedup
    for mode in ("auto", "compiled"):
        launches = run_program(result.program, block_exec=mode).launches
        assert [r.kernel for r in launches if r.executor == "loop"] == []
        assert [r.kernel for r in launches if r.hazard_replay is not None] == []
        if mode == "auto":
            # the kernels that used to fall off the fast path are still
            # there, on the batched lattice now
            batched = [r.kernel for r in launches if r.executor == "batched"]
            assert len(batched) == fused_launches
