"""Independent output check for the end-to-end bench.

Never trusts the transformer's own verdict: for every distinct
(original source, emitted source) pair the bench saw, the emitted *text*
is re-parsed and executed, and every device array is compared **bitwise**
with the original program executed under ``block_exec="loop"`` — the
per-block tree-walking executor the repo keeps as its oracle.

Runs after measurement and outside ``wall_s``; its cost is reported as
``bench.check_s``.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from repro.cudalite.parser import parse_program
from repro.errors import ReproError
from repro.gpu.interpreter import RunResult, run_program


def _bitwise_diff(reference: RunResult, candidate: RunResult) -> Optional[str]:
    if set(reference.arrays) != set(candidate.arrays):
        missing = sorted(set(reference.arrays) ^ set(candidate.arrays))
        return f"device array sets differ: {missing}"
    for name in sorted(reference.arrays):
        ref, out = reference.arrays[name], candidate.arrays[name]
        if ref.shape != out.shape or ref.dtype != out.dtype:
            return f"array {name}: shape/dtype {out.shape}/{out.dtype} != {ref.shape}/{ref.dtype}"
        if ref.tobytes() != out.tobytes():
            return f"array {name}: contents differ bitwise"
    return None


def check_outputs(pairs: Iterable[Tuple[str, str]]) -> Dict[Tuple[str, str], str]:
    """Check ``(original_source, emitted_source)`` pairs; returns the
    failing pairs with the reason.

    Each distinct pair is checked once and the oracle run of an original
    program is shared by every output derived from it.  An emitted
    program that does not parse or run is a failure of that output, not
    of the bench.
    """
    failures: Dict[Tuple[str, str], str] = {}
    oracle: Dict[str, RunResult] = {}
    for pair in dict.fromkeys(pairs):
        original, emitted = pair
        if original not in oracle:
            oracle[original] = run_program(parse_program(original), block_exec="loop")
        try:
            candidate = run_program(parse_program(emitted))
        except ReproError as exc:
            failures[pair] = f"emitted program does not run: {exc}"
            continue
        diff = _bitwise_diff(oracle[original], candidate)
        if diff is not None:
            failures[pair] = diff
    return failures
