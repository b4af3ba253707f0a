"""The invariant battery run against every generated application.

Each oracle checks one documented contract of the pipeline; a violation
is an :class:`OracleFailure` with a *stable* ``kind`` signature so triage
buckets deterministically and the reducer can check "still the same
failure" cheaply.

``transform``
    Fail-soft contract: on a valid program, :func:`repro.api.transform`
    with ``fail_hard=False`` completes without raising — degradations
    must be absorbed, never escape.
``differential``
    The transformed program's whole-program output is bit-identical to
    the original's (the per-group verification gate is bitwise by
    default; fusion/fission/tuning must preserve every element).
``modes``
    The loop / batched / auto interpreter strategies agree
    bitwise on arrays and on the mode-invariant counter signature, under
    the forward and under the reversed block order; and a run none of
    whose launches is order-sensitive computes the same arrays in both
    orders (what lets whole-program verification skip its reversed run).
    ``loop`` must have run no array reference as slices and — on a
    generated app, whose every kernel indexes by its global thread id —
    ``auto`` some, which keeps that comparison a slice-vs-funnel
    differential.
``warm_store``
    Re-running the identical transform against a warm artifact store is
    bit-identical to the cold run (caching must never change results),
    and the warm leg — submitted as source *text*, through the front
    door's lexer, parser and loader — lands on the cold leg's store
    entries: the parsed text fingerprints like the program it was
    unparsed from.
``fault_seams``
    With each recoverable fault seam firing once, the transform still
    completes (graceful degradation end-to-end).
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..api import TransformConfig, TransformResult, transform
from ..cudalite import ast_nodes as ast
from ..cudalite.unparser import unparse
from ..gpu import interpreter
from ..gpu.interpreter import run_program
from ..observability import counters_signature
from ..reliability import faults
from ..search.params import GAParams

__all__ = [
    "CHEAP_ORACLES",
    "ORACLE_NAMES",
    "OracleFailure",
    "OracleVerdict",
    "fuzz_config",
    "run_oracles",
]

#: every oracle, in execution order
ORACLE_NAMES = ("transform", "differential", "modes", "warm_store", "fault_seams")

#: the fast subset used by the PR-level smoke campaign
CHEAP_ORACLES = ("transform", "differential", "modes")

#: seams whose firing the pipeline must absorb in a fail-soft transform
#: (island_migration needs islands > 1 and service_worker a serving
#: pool — tests/test_islands.py and tests/test_service.py cover those)
_RECOVERABLE_SEAMS = ("parse", "analysis", "codegen", "interpreter", "store")

#: the loop first: every other mode is compared against it
_EXEC_MODES = ("loop", "batched", "auto")

#: every mode is compared with the loop under the same block order: the
#: lattice modes may not hide (or invent) a schedule dependence
_BLOCK_ORDERS = ("forward", "reverse")


@dataclass(frozen=True)
class OracleFailure:
    """One contract violation.

    ``kind`` is the stable signature (identical re-runs produce an equal
    ``kind``); ``detail`` is free-form diagnostics; ``exc`` carries the
    original exception for triage when the violation was an escape.
    """

    oracle: str
    kind: str
    detail: str = ""
    exc: Optional[BaseException] = field(default=None, compare=False)

    def signature(self) -> str:
        return f"{self.oracle}:{self.kind}"


@dataclass
class OracleVerdict:
    """Outcome of one app's oracle battery."""

    app: str
    passed: Tuple[str, ...] = ()
    failures: Tuple[OracleFailure, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.failures

    def signatures(self) -> Tuple[str, ...]:
        return tuple(f.signature() for f in self.failures)


def fuzz_config(seed: int = 0, **overrides) -> TransformConfig:
    """A small, deterministic transform configuration for fuzzing.

    The paper-scale GA budget (100x500) is three orders of magnitude too
    slow for a seed campaign; a tiny budget exercises the same
    pipeline stages.  Telemetry and the store stay off unless an oracle
    turns them on explicitly.
    """
    params = GAParams(
        population=10,
        generations=6,
        stall_generations=3,
        seed=seed,
    )
    defaults = dict(
        ga_params=params,
        telemetry=False,
        store=False,
        verify_rtol=0.0,
    )
    defaults.update(overrides)
    return TransformConfig(**defaults)


def _program_of(app_or_program: object) -> ast.Program:
    if isinstance(app_or_program, ast.Program):
        return app_or_program
    program = getattr(app_or_program, "program", None)
    if isinstance(program, ast.Program):
        return program
    raise TypeError(
        f"expected a Program or GeneratedApp, got {type(app_or_program).__name__}"
    )


def _escape(oracle: str, exc: BaseException) -> OracleFailure:
    return OracleFailure(
        oracle=oracle,
        kind=f"uncaught:{type(exc).__name__}",
        detail=str(exc),
        exc=exc,
    )


def _array_diff(
    left: Dict[str, np.ndarray], right: Dict[str, np.ndarray]
) -> Optional[str]:
    if sorted(left) != sorted(right):
        return f"array sets differ: {sorted(left)} vs {sorted(right)}"
    for name in sorted(left):
        if not np.array_equal(left[name], right[name]):
            delta = np.max(np.abs(left[name] - right[name]))
            return f"array {name!r} differs (max abs delta {delta!r})"
    return None


# ------------------------------------------------------------------ oracles


def _check_transform(
    program: ast.Program, config: TransformConfig
) -> Tuple[Optional[TransformResult], Optional[OracleFailure]]:
    try:
        return transform(program, config), None
    except BaseException as exc:  # noqa: BLE001 - the contract under test
        return None, _escape("transform", exc)


def _check_differential(
    program: ast.Program, result: TransformResult
) -> Optional[OracleFailure]:
    transformed = result.program
    if transformed is None:
        return OracleFailure(
            "differential", "no-output-program", "transform produced no program"
        )
    try:
        base = run_program(program, block_exec="loop")
        out = run_program(transformed, block_exec="loop")
    except BaseException as exc:  # noqa: BLE001
        return _escape("differential", exc)
    detail = _array_diff(base.arrays, out.arrays)
    if detail is not None:
        return OracleFailure("differential", "array-mismatch", detail)
    return None


def _check_modes(
    program: ast.Program, expect_slices: bool
) -> Optional[OracleFailure]:
    by_order = {}
    sliced = {}
    for order in _BLOCK_ORDERS:
        try:
            runs = by_order[order] = {}
            for mode in _EXEC_MODES:
                interpreter.reset_stats()
                runs[mode] = run_program(
                    program,
                    block_order=order,
                    block_exec=mode,
                    collect_counters=True,
                )
                sliced[mode] = interpreter.stats().accesses_by_path["slice"]
        except BaseException as exc:  # noqa: BLE001
            return _escape("modes", exc)
        signatures = {
            mode: counters_signature(rec.counters for rec in runs[mode].launches)
            for mode in _EXEC_MODES
        }
        # the forward order keeps the signatures it always had
        suffix = "" if order == "forward" else f":{order}"
        for mode in _EXEC_MODES[1:]:
            detail = _array_diff(runs["loop"].arrays, runs[mode].arrays)
            if detail is not None:
                return OracleFailure(
                    "modes", f"array-mismatch:{mode}{suffix}", detail
                )
        for mode in _EXEC_MODES[1:]:
            if signatures[mode] != signatures["loop"]:
                return OracleFailure(
                    "modes",
                    f"counter-mismatch:{mode}{suffix}",
                    f"loop={signatures['loop']} {mode}={signatures[mode]}",
                )
    # the premise whole-program verification skips its reversed run on
    # (pipeline/stages.py): no order-sensitive launch, no order dependence
    for mode in _EXEC_MODES:
        forward = by_order["forward"][mode]
        if any(rec.order_sensitive for rec in forward.launches):
            continue
        detail = _array_diff(forward.arrays, by_order["reverse"][mode].arrays)
        if detail is not None:
            return OracleFailure(
                "modes", f"order-insensitive-diverged:{mode}", detail
            )
    # the premise that makes loop-vs-auto a slice-vs-funnel differential
    # (a hand-written or reduced program need not have a sliceable access)
    if sliced["loop"] or (expect_slices and not sliced["auto"]):
        return OracleFailure(
            "modes",
            "not-slice-vs-funnel",
            f"loop sliced {sliced['loop']} accesses, auto {sliced['auto']}",
        )
    return None


def _check_warm_store(
    program: ast.Program, config: TransformConfig
) -> Optional[OracleFailure]:
    from dataclasses import replace

    with tempfile.TemporaryDirectory(prefix="repro-fuzz-store-") as root:
        stored = replace(config, store=True, store_root=root)
        try:
            cold = transform(program, stored)
            warm = transform(unparse(program), stored)
        except BaseException as exc:  # noqa: BLE001
            return _escape("warm_store", exc)
    if cold.source != warm.source:
        return OracleFailure(
            "warm_store",
            "warm-divergence",
            "warm re-run produced a different transformed program",
        )
    # checked last so the signatures above stay what they were
    missed = sorted({"metadata", "targets", "graphs"} - set(warm.reused))
    if missed:
        return OracleFailure(
            "warm_store",
            "warm-front-door-miss",
            f"the re-parsed text did not reuse {', '.join(missed)}: its "
            "fingerprint differs from the built program's",
        )
    return None


def _check_fault_seams(
    program: ast.Program, config: TransformConfig
) -> Optional[OracleFailure]:
    for seam in _RECOVERABLE_SEAMS:
        plan = faults.FaultPlan(seams=faults.parse_seam_specs(f"{seam}:x1"))
        faults.install_plan(plan)
        try:
            transform(program, config)
        except BaseException as exc:  # noqa: BLE001
            return OracleFailure(
                oracle="fault_seams",
                kind=f"fault:{seam}:{type(exc).__name__}",
                detail=str(exc),
                exc=exc,
            )
        finally:
            faults.clear_plan()
    return None


# ------------------------------------------------------------------- driver


def run_oracles(
    app_or_program: object,
    oracles: Optional[Sequence[str]] = None,
    config: Optional[TransformConfig] = None,
) -> OracleVerdict:
    """Run the selected oracles and collect every violation.

    Oracles are independent: one failing does not stop the rest (except
    ``differential``, which needs the transform's output and inherits a
    ``transform`` failure as its own skip).
    """
    selected = tuple(oracles) if oracles is not None else CHEAP_ORACLES
    unknown = set(selected) - set(ORACLE_NAMES)
    if unknown:
        raise ValueError(f"unknown oracle(s): {sorted(unknown)}")
    program = _program_of(app_or_program)
    name = getattr(app_or_program, "name", "<program>")
    config = config or fuzz_config()
    passed: List[str] = []
    failures: List[OracleFailure] = []
    result: Optional[TransformResult] = None
    transform_failed = False
    if "transform" in selected or "differential" in selected:
        result, failure = _check_transform(program, config)
        transform_failed = failure is not None
        if "transform" in selected:
            if failure is None:
                passed.append("transform")
            else:
                failures.append(failure)
    checks: Dict[str, Callable[[], Optional[OracleFailure]]] = {
        "differential": lambda: (
            OracleFailure(
                "differential", "transform-failed", "no result to compare"
            )
            if transform_failed
            else _check_differential(program, result)
        ),
        "modes": lambda: _check_modes(
            program, expect_slices=not isinstance(app_or_program, ast.Program)
        ),
        "warm_store": lambda: _check_warm_store(program, config),
        "fault_seams": lambda: _check_fault_seams(program, config),
    }
    for oracle in selected:
        if oracle == "transform":
            continue
        failure = checks[oracle]()
        if failure is None:
            passed.append(oracle)
        else:
            failures.append(failure)
    return OracleVerdict(
        app=name, passed=tuple(passed), failures=tuple(failures)
    )
