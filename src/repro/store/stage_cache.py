"""Save/load adapters between pipeline artifacts and the artifact store.

One pair of functions per memoized artifact kind.  Every ``load_*``
returns ``None`` (a cold run) on any miss, deserialization failure or
semantic-validation failure — the pipeline treats the store as purely
advisory.  Every ``save_*`` is best-effort.

Namespaces
----------
``metadata``          — the three metadata files (text round-trip)
``targets``           — roofline/boundary filter decisions
``graphs``            — DDG + OEG (nodes/edges with attributes) + report
``search``            — the exact GGA outcome for one (problem, device,
                        params-incl-seed) triple
``population``        — warm-start payload: best + final population,
                        transferable across seeds
``verified_groups``   — every per-group verdict the gate reached (pass,
                        fail or inconclusive, with its cause), keyed on
                        group content only (survive unrelated program
                        edits)
``verified_programs`` — every whole-program verdict: verified, or the
                        failure cause (the identity fallback's too)
``program_counters``  — the per-launch interpreter counters of one
                        transformed program, under its verdict's key
``tuning``            — thread-block tuning decisions

Memory-only namespaces (:meth:`ArtifactStore.remember`, never on disk):

``built_problems``    — the search stage's :class:`BuiltProblem`
``materialized``      — codegen's materialized ``TransformResult``

The ``metadata``, ``targets``, ``graphs``, ``search``,
``verified_programs`` and ``program_counters`` loaders read through the
memory tier (:meth:`ArtifactStore.get_decoded`): what they return is
shared with later hits and must not be mutated.

A verdict is a function of its key, so failures are stored beside
passes and a warm run re-executes no gate; so is a program's counted
run, so a warm run that writes ``model_validation.json`` executes
nothing.  Only ``block_exec="auto"`` runs read or write verdicts or
counters (the callers decide): forced ``batched`` runs a launch's blocks
in lockstep, unwatched, and can pass a racy group the others fail, and a
forced run is a differential run.
"""

from __future__ import annotations

import logging
from dataclasses import asdict
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..analysis.filtering import FilterDecision, TargetReport
from ..analysis.metadata import (
    ProgramMetadata,
    _parse_device,
    _parse_ops,
    _parse_perf,
)
from ..gpu.device import DeviceSpec
from ..graphs.digraph import DiGraph
from ..observability.hwcounters import KernelCounters
from ..reliability.verify import GROUP_STATUSES, GroupVerdict
from ..search.gga import SearchResult
from ..search.grouping import FusionProblem, Grouping
from ..search.params import GAParams
from ..transform.blocksize import TuningDecision
from . import keys
from .artifact_store import ArtifactStore

logger = logging.getLogger(__name__)

NS_METADATA = "metadata"
NS_TARGETS = "targets"
NS_GRAPHS = "graphs"
NS_SEARCH = "search"
NS_POPULATION = "population"
NS_VERIFIED_GROUPS = "verified_groups"
NS_VERIFIED_PROGRAMS = "verified_programs"
NS_PROGRAM_COUNTERS = "program_counters"
NS_TUNING = "tuning"
NS_BUILT_PROBLEMS = "built_problems"
NS_MATERIALIZED = "materialized"

#: individuals persisted for warm starting (beyond the best)
MAX_SAVED_POPULATION = 64


# ------------------------------------------------------------------ metadata


def save_metadata(store: ArtifactStore, key: str, meta: ProgramMetadata) -> None:
    store.put(
        NS_METADATA,
        key,
        {
            "performance": meta._perf_text(),
            "operations": meta._ops_text(),
            "device": meta._device_text(),
        },
    )


def load_metadata(store: ArtifactStore, key: str) -> Optional[ProgramMetadata]:
    return store.get_decoded(NS_METADATA, key, _decode_metadata)


def _decode_metadata(payload: Dict[str, object]) -> Optional[ProgramMetadata]:
    try:
        device = _parse_device(payload["device"])
        meta = ProgramMetadata(device=device)
        _parse_perf(payload["performance"], meta)
        _parse_ops(payload["operations"], meta)
    except Exception as exc:
        logger.warning("store: metadata entry unusable (%s); recomputing", exc)
        return None
    if not meta.performance or not meta.launch_order:
        logger.warning("store: metadata entry empty; recomputing")
        return None
    return meta


# ------------------------------------------------------------------- targets


def save_targets(store: ArtifactStore, key: str, report: TargetReport) -> None:
    store.put(
        NS_TARGETS,
        key,
        {"decisions": [asdict(d) for d in report.decisions.values()]},
    )


def load_targets(store: ArtifactStore, key: str) -> Optional[TargetReport]:
    return store.get_decoded(NS_TARGETS, key, _decode_targets)


def _decode_targets(payload: Dict[str, object]) -> Optional[TargetReport]:
    try:
        decisions = {
            d["kernel"]: FilterDecision(
                kernel=d["kernel"],
                eligible=bool(d["eligible"]),
                reason=d["reason"],
                operational_intensity=float(d.get("operational_intensity", 0.0)),
                active_fraction=float(d.get("active_fraction", 1.0)),
            )
            for d in payload["decisions"]
        }
    except Exception as exc:
        logger.warning("store: targets entry unusable (%s); recomputing", exc)
        return None
    if not decisions:
        return None
    return TargetReport(decisions=decisions)


# -------------------------------------------------------------------- graphs


def _graph_to_payload(graph: DiGraph) -> Dict[str, object]:
    # in the graph's own order: a served graph writes the DOT text a
    # built one does
    return {
        "graph": dict(graph.graph),
        "nodes": [[node, dict(data)] for node, data in graph.nodes(data=True)],
        "edges": [[u, v, dict(data)] for u, v, data in graph.edges(data=True)],
    }


def _graph_from_payload(payload: Dict[str, object]) -> DiGraph:
    graph = DiGraph(**payload["graph"])
    for node, data in payload["nodes"]:
        graph.add_node(node, **data)
    for u, v, data in payload["edges"]:
        graph.add_edge(u, v, **data)
    return graph


def save_graphs(
    store: ArtifactStore,
    key: str,
    ddg: DiGraph,
    oeg: DiGraph,
    report: str,
) -> None:
    store.put(
        NS_GRAPHS,
        key,
        {
            "ddg": _graph_to_payload(ddg),
            "oeg": _graph_to_payload(oeg),
            "report": report,
        },
    )


def load_graphs(
    store: ArtifactStore, key: str
) -> Optional[Tuple[DiGraph, DiGraph, str]]:
    return store.get_decoded(NS_GRAPHS, key, _decode_graphs)


def _decode_graphs(
    payload: Dict[str, object]
) -> Optional[Tuple[DiGraph, DiGraph, str]]:
    try:
        ddg = _graph_from_payload(payload["ddg"])
        oeg = _graph_from_payload(payload["oeg"])
        report = str(payload["report"])
    except Exception as exc:
        logger.warning("store: graphs entry unusable (%s); recomputing", exc)
        return None
    if ddg.number_of_nodes() == 0 or oeg.number_of_nodes() == 0:
        return None
    return ddg, oeg, report


# -------------------------------------------------------------------- search


def _grouping_to_payload(grouping: Grouping) -> Dict[str, object]:
    """An individual as stored: its split set and its fused groups (the
    uncovered active nodes are its singletons)."""
    return {
        "split": sorted(grouping.split),
        "fused": [sorted(group) for group in grouping.groups],
    }


def _grouping_from_payload(
    payload: Dict[str, object], problem: FusionProblem
) -> Optional[Grouping]:
    """The stored individual, or ``None`` if it is not one of ``problem``.

    Entries written before individuals were stored sparse list every
    group (``"groups"``, singletons included); they load as the same
    individual if they are a whole partition of the problem.
    """
    try:
        sparse = "fused" in payload
        groups = [
            frozenset(group)
            for group in payload["fused" if sparse else "groups"]
        ]
        grouping = Grouping(split=frozenset(payload["split"]), groups=groups)
    except (KeyError, TypeError):
        return None
    if not grouping.covers(problem):
        return None
    if not sparse and sorted(map(sorted, groups)) != sorted(
        map(sorted, grouping.partition(problem))
    ):
        return None
    return grouping


def _search_keys(
    problem: FusionProblem, device: DeviceSpec, params: GAParams
) -> Tuple[str, str]:
    device_fp = keys.device_fingerprint(device)
    exact = keys.search_key(
        problem.fingerprint(), device_fp, keys.params_fingerprint(params)
    )
    warm = keys.population_key(
        problem.fingerprint(), device_fp, params.objective, repr(params.penalties)
    )
    return exact, warm


def search_result_key(
    problem: FusionProblem, device: DeviceSpec, params: GAParams
) -> str:
    """The exact-outcome key :func:`load_search_result` reads."""
    return _search_keys(problem, device, params)[0]


def save_search(
    store: ArtifactStore,
    problem: FusionProblem,
    device: DeviceSpec,
    params: GAParams,
    result: SearchResult,
    population: Optional[List[Grouping]] = None,
) -> None:
    """Persist the exact outcome plus the warm-start payload."""
    exact_key, warm_key = _search_keys(problem, device, params)
    store.put(
        NS_SEARCH,
        exact_key,
        {
            "best": _grouping_to_payload(result.best),
            "best_fitness": result.best_fitness,
            "projected_time_s": result.projected_time_s,
            "generations_run": result.generations_run,
            "converged_at": result.converged_at,
            "avg_fissions_per_generation": result.avg_fissions_per_generation,
            "evaluations": result.evaluations,
        },
    )
    pop_payload = [_grouping_to_payload(result.best)]
    for individual in population or []:
        if len(pop_payload) > MAX_SAVED_POPULATION:
            break
        pop_payload.append(_grouping_to_payload(individual))
    store.put(NS_POPULATION, warm_key, {"population": pop_payload})


def load_search_result(
    store: ArtifactStore,
    problem: FusionProblem,
    device: DeviceSpec,
    params: GAParams,
) -> Optional[SearchResult]:
    """Exact-match reuse: the stored best partition *is* this run's answer.

    The key covers the problem's fingerprint, so checking the stored
    grouping against ``problem`` is still a function of the entry alone.
    """
    exact_key, _ = _search_keys(problem, device, params)
    return store.get_decoded(
        NS_SEARCH, exact_key, lambda payload: _decode_search(payload, problem)
    )


def _decode_search(
    payload: Dict[str, object], problem: FusionProblem
) -> Optional[SearchResult]:
    try:
        best = _grouping_from_payload(payload["best"], problem)
        if best is None:
            logger.warning(
                "store: cached search result no longer fits the problem; "
                "recomputing"
            )
            return None
        return SearchResult(
            best=best,
            best_fitness=float(payload["best_fitness"]),
            projected_time_s=float(payload["projected_time_s"]),
            history=[],
            generations_run=int(payload["generations_run"]),
            converged_at=int(payload["converged_at"]),
            avg_fissions_per_generation=float(
                payload["avg_fissions_per_generation"]
            ),
            evaluations=int(payload["evaluations"]),
            new_kernel_count=len(best.partition(problem)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        logger.warning("store: search entry unusable (%s); recomputing", exc)
        return None


def load_warm_start(
    store: ArtifactStore,
    problem: FusionProblem,
    device: DeviceSpec,
    params: GAParams,
) -> List[Grouping]:
    """Warm-start payload: the seed individuals (empty on a miss).

    Entries written by earlier versions also carry a ``fitness`` list
    (the deleted second cache's dump); it is ignored.
    """
    _, warm_key = _search_keys(problem, device, params)
    payload = store.get(NS_POPULATION, warm_key)
    if payload is None:
        return []
    seeds: List[Grouping] = []
    try:
        for entry in payload.get("population", []):
            grouping = _grouping_from_payload(entry, problem)
            if grouping is not None:
                seeds.append(grouping)
    except (KeyError, TypeError):
        seeds = []
    return seeds


# ------------------------------------------------------- verification reuse

#: the stored outcome of a whole-program gate that verified
PROGRAM_PASS = "pass"


def record_group_verdict(
    store: ArtifactStore, key: str, verdict: GroupVerdict
) -> None:
    """Remember the verdict the group gate reached on ``key``'s group."""
    store.put(
        NS_VERIFIED_GROUPS,
        key,
        {
            "kernel": verdict.kernel,
            "members": list(verdict.members),
            "status": verdict.status,
            "cause": verdict.cause,
        },
    )


def load_group_verdict(store: ArtifactStore, key: str) -> Optional[GroupVerdict]:
    """The verdict stored for ``key``'s group, or ``None``."""
    payload = store.get(NS_VERIFIED_GROUPS, key)
    if payload is None:
        return None
    try:
        verdict = GroupVerdict(
            kernel=str(payload["kernel"]),
            members=tuple(str(m) for m in payload["members"]),
            status=str(payload["status"]),
            cause=str(payload.get("cause", "")),
        )
    except (KeyError, TypeError) as exc:
        logger.warning("store: group verdict unusable (%s); re-verifying", exc)
        return None
    if verdict.status not in GROUP_STATUSES:
        return None
    return verdict


def record_program_verdict(store: ArtifactStore, key: str, outcome: str) -> None:
    """Remember the whole-program gate's outcome on ``key``'s program:
    :data:`PROGRAM_PASS` or the failure cause."""
    store.put(NS_VERIFIED_PROGRAMS, key, {"outcome": outcome})


def load_program_verdict(store: ArtifactStore, key: str) -> Optional[str]:
    """The outcome stored for ``key``'s program, or ``None``."""
    return store.get_decoded(NS_VERIFIED_PROGRAMS, key, _decode_program_verdict)


def _decode_program_verdict(payload: Dict[str, object]) -> Optional[str]:
    outcome = payload.get("outcome")
    return outcome if isinstance(outcome, str) and outcome else None


class CountedLaunch(NamedTuple):
    """One stored launch, as :func:`~repro.observability.model_validation.validate_model`
    reads a :class:`~repro.gpu.interpreter.LaunchRecord`."""

    kernel: str
    counters: Optional[KernelCounters]


def record_program_counters(
    store: ArtifactStore, key: str, launches: Sequence[object]
) -> None:
    """Remember the counters a counted run of ``key``'s program gave, per
    launch (``None`` for a launch that counted nothing)."""
    store.put(
        NS_PROGRAM_COUNTERS,
        key,
        {
            "launches": [
                [r.kernel, None if r.counters is None else r.counters.as_dict()]
                for r in launches
            ]
        },
    )


def load_program_counters(
    store: ArtifactStore, key: str
) -> Optional[List[CountedLaunch]]:
    """The counted launches stored for ``key``'s program, or ``None``."""
    return store.get_decoded(NS_PROGRAM_COUNTERS, key, _decode_program_counters)


def _decode_program_counters(
    payload: Dict[str, object]
) -> Optional[List[CountedLaunch]]:
    try:
        return [
            CountedLaunch(
                str(kernel), None if counters is None else KernelCounters(**counters)
            )
            for kernel, counters in payload["launches"]
        ]
    except (KeyError, TypeError, ValueError) as exc:
        logger.warning("store: counters entry unusable (%s); recounting", exc)
        return None


# --------------------------------------------------------------- block tuning


def save_tuning(store: ArtifactStore, key: str, decision: TuningDecision) -> None:
    store.put(
        NS_TUNING,
        key,
        {
            "original_block": list(decision.original_block),
            "tuned_block": list(decision.tuned_block),
            "occupancy_before": decision.occupancy_before,
            "occupancy_after": decision.occupancy_after,
            "changed": decision.changed,
        },
    )


def load_tuning(
    store: ArtifactStore, key: str, kernel: str
) -> Optional[TuningDecision]:
    payload = store.get(NS_TUNING, key)
    if payload is None:
        return None
    try:
        return TuningDecision(
            kernel=kernel,
            original_block=tuple(payload["original_block"]),
            tuned_block=tuple(payload["tuned_block"]),
            occupancy_before=float(payload["occupancy_before"]),
            occupancy_after=float(payload["occupancy_after"]),
            changed=bool(payload["changed"]),
            reused=True,
        )
    except (KeyError, TypeError, ValueError):
        return None
