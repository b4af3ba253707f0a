#!/usr/bin/env python
"""Where one cold ``transform()`` of a paper app goes, at any scale.

The bench's ``cold-transform`` runs MITgcm and Fluam at half scale; this
is the full-scale row perf PRs cannot add to it (ROADMAP items 1(c), 2).
Same GA seed as the bench, no store.  Prints the wall time, the stage
times, launches and ms/launch per executor, the share of array
references that ran as slices (``accesses_by_path``), the share of
statement executions lifted loop bodies stood in for
(``statements_by_path``) and the lift replays, what the two
verification gates cost (``program_gate_s``, ``group_gate_s``) and how
many launches the whole-program gate's paired run executed once for
both programs (``shared_launches``), the verdict and a digest of the
emitted source — then the top-N functions of a second cold
transform (a re-parsed text: fresh AST, cold per-kernel memos) under
cProfile.  cProfile inflates call-heavy Python and not native code: use
it to find candidates and the first block to measure them.

Usage::

    python3 scripts/profile_cold.py --app SCALE-LES --scale 1.0
        [--top 25] [--seed 20150615] [--sort tottime|cumtime]
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
import pstats
import sys
from pathlib import Path
from time import perf_counter

REPO = Path(__file__).resolve().parents[1]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--app", default="Fluam")
    parser.add_argument("--scale", type=float, default=0.5)
    parser.add_argument("--top", type=int, default=25,
                        help="functions to list (0 skips the profiled run)")
    parser.add_argument("--seed", type=int, default=20150615,
                        help="GA seed (default: the bench's pinned one)")
    parser.add_argument("--sort", choices=("tottime", "cumtime"), default="tottime")
    args = parser.parse_args()

    sys.path.insert(0, str(REPO / "src"))
    from repro.api import transform
    from repro.apps import build_app
    from repro.cudalite.unparser import unparse
    from repro.gpu import interpreter
    from repro.gpu.interpreter import _KernelExec

    source = unparse(build_app(args.app, scale=args.scale).program)

    # timed from outside, like the bench's patch points: executor -> (n, s)
    per_executor: dict = {}
    real_run = _KernelExec.run

    def timed_run(self) -> None:
        start = perf_counter()
        try:
            real_run(self)
        finally:
            launches, seconds = per_executor.get(self.executor, (0, 0.0))
            per_executor[self.executor] = (
                launches + 1, seconds + perf_counter() - start
            )

    _KernelExec.run = timed_run
    try:
        start = perf_counter()
        result = transform(source, seed=args.seed, store=False)
        wall = perf_counter() - start
    finally:
        _KernelExec.run = real_run
    stats = interpreter.stats().as_dict()

    emitted = result.source or ""
    print(f"# cold transform: {args.app} scale {args.scale}, GA seed {args.seed}, "
          f"{len(source)} source bytes")
    print(f"wall_s {wall:.3f}  verified {result.verified}  "
          f"demotions {len(result.state.transform.demotions)}  "
          f"emitted sha256 {hashlib.sha256(emitted.encode()).hexdigest()[:16]} "
          f"({len(emitted)} bytes)")
    for stage, seconds in result.stage_times.items():
        print(f"  stage {stage:<9} {seconds:8.3f} s")
    for executor, (launches, seconds) in sorted(per_executor.items()):
        print(f"  {executor:<10} {launches:5d} launches {seconds:8.3f} s "
              f"{1e3 * seconds / launches:8.2f} ms/launch")
    by_path = stats["accesses_by_path"]
    total = sum(by_path.values())
    print(f"  accesses_by_path {by_path}  slice share "
          f"{by_path['slice'] / total if total else 0.0:.3f}")
    by_path = stats["statements_by_path"]
    total = sum(by_path.values())
    print(f"  statements_by_path {by_path}  lifted share "
          f"{by_path['lifted'] / total if total else 0.0:.3f}  "
          f"lift_replays {stats['lift_replays']}")
    gates = result.state.verification
    print(f"  program_gate_s {gates['program_gate_s']:.3f}  "
          f"group_gate_s {gates['group_gate_s']:.3f}  "
          f"shared_launches {gates['shared_launches']} of "
          f"{gates['program_launches']}  "
          f"first_divergence {gates['first_divergence']}")
    if stats["loop_launches"] or stats["hazard_replays"]:
        print(f"  loop_launches {stats['loop_launches']}  "
              f"hazard_replays {stats['hazard_replays']}")

    if args.top > 0:
        profiler = cProfile.Profile()
        profiler.runcall(
            transform, source + "\n// profile_cold\n", seed=args.seed, store=False
        )
        print("\n# a second cold transform under cProfile")
        pstats.Stats(profiler).strip_dirs().sort_stats(args.sort).print_stats(args.top)
    return 0


if __name__ == "__main__":
    sys.exit(main())
