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
``verified_groups``   — per-group verification verdicts, keyed on group
                        content only (survive unrelated program edits)
``verified_programs`` — whole-program verification verdicts
``tuning``            — thread-block tuning decisions
``island_migration``  — per-island elite payloads published at every
                        migration epoch; later runs hydrate their
                        islands from these (seed-free key, like
                        ``population``)
"""

from __future__ import annotations

import logging
from dataclasses import asdict
from typing import Dict, List, Optional, Tuple

import networkx as nx

from ..analysis.filtering import FilterDecision, TargetReport
from ..analysis.metadata import (
    ProgramMetadata,
    _parse_device,
    _parse_ops,
    _parse_perf,
)
from ..gpu.device import DeviceSpec
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
NS_TUNING = "tuning"
NS_ISLAND_MIGRATION = "island_migration"

#: elites persisted per island per migration epoch
MAX_SAVED_ELITES = 16

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
    payload = store.get(NS_METADATA, key)
    if payload is None:
        return None
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
    payload = store.get(NS_TARGETS, key)
    if payload is None:
        return None
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


def _graph_to_payload(graph: nx.DiGraph) -> Dict[str, object]:
    return {
        "nodes": [[node, dict(data)] for node, data in sorted(graph.nodes(data=True))],
        "edges": [
            [u, v, dict(data)] for u, v, data in sorted(graph.edges(data=True))
        ],
    }


def _graph_from_payload(payload: Dict[str, object]) -> nx.DiGraph:
    graph = nx.DiGraph()
    for node, data in payload["nodes"]:
        graph.add_node(node, **data)
    for u, v, data in payload["edges"]:
        graph.add_edge(u, v, **data)
    return graph


def save_graphs(
    store: ArtifactStore,
    key: str,
    ddg: nx.DiGraph,
    oeg: nx.DiGraph,
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
) -> Optional[Tuple[nx.DiGraph, nx.DiGraph, str]]:
    payload = store.get(NS_GRAPHS, key)
    if payload is None:
        return None
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
    return {
        "split": sorted(grouping.split),
        "groups": sorted(sorted(group) for group in grouping.groups),
    }


def _grouping_from_payload(
    payload: Dict[str, object], problem: FusionProblem
) -> Optional[Grouping]:
    try:
        grouping = Grouping(
            split=frozenset(payload["split"]),
            groups=tuple(frozenset(group) for group in payload["groups"]),
        )
    except (KeyError, TypeError):
        return None
    known = set(problem.infos)
    if not set(grouping.split) <= known:
        return None
    if any(not group <= known for group in grouping.groups):
        return None
    if not grouping.covers(problem):
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
    """Exact-match reuse: the stored best partition *is* this run's answer."""
    exact_key, _ = _search_keys(problem, device, params)
    payload = store.get(NS_SEARCH, exact_key)
    if payload is None:
        return None
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


# --------------------------------------------------------- island migration


def _island_migration_key(
    problem: FusionProblem, device: DeviceSpec, params: GAParams, island: int
) -> str:
    return keys.island_migration_key(
        problem.fingerprint(),
        keys.device_fingerprint(device),
        params.objective,
        repr(params.penalties),
        island,
    )


def save_island_elites(
    store: ArtifactStore,
    problem: FusionProblem,
    device: DeviceSpec,
    params: GAParams,
    island: int,
    elites: List[Grouping],
) -> None:
    """Publish one island's current elites (overwrites the previous epoch)."""
    store.put(
        NS_ISLAND_MIGRATION,
        _island_migration_key(problem, device, params, island),
        {
            "island": int(island),
            "elites": [
                _grouping_to_payload(e) for e in elites[:MAX_SAVED_ELITES]
            ],
        },
    )


def load_island_elites(
    store: ArtifactStore,
    problem: FusionProblem,
    device: DeviceSpec,
    params: GAParams,
    island: int,
) -> List[Grouping]:
    """Elites a previous run published for this island slot.

    Corrupt or stale payloads degrade to an empty list — a cold island —
    with individual entries that no longer fit the problem dropped.
    """
    payload = store.get(
        NS_ISLAND_MIGRATION,
        _island_migration_key(problem, device, params, island),
    )
    if payload is None:
        return []
    elites: List[Grouping] = []
    try:
        for entry in payload.get("elites", []):
            grouping = _grouping_from_payload(entry, problem)
            if grouping is not None:
                elites.append(grouping)
    except (KeyError, TypeError, AttributeError):
        logger.warning(
            "store: island %d migration entry unusable; starting cold", island
        )
        return []
    return elites


# ------------------------------------------------------- verification reuse


def record_verified_group(store: ArtifactStore, key: str, verdict) -> None:
    """Remember that the group addressed by ``key`` verified clean."""
    store.put(
        NS_VERIFIED_GROUPS,
        key,
        {
            "kernel": verdict.kernel,
            "members": list(verdict.members),
            "status": verdict.status,
        },
    )


def group_previously_verified(store: ArtifactStore, key: str) -> bool:
    payload = store.get(NS_VERIFIED_GROUPS, key)
    return payload is not None and payload.get("status") == "pass"


def record_verified_program(store: ArtifactStore, key: str) -> None:
    store.put(NS_VERIFIED_PROGRAMS, key, {"verified": True})


def program_previously_verified(store: ArtifactStore, key: str) -> bool:
    payload = store.get(NS_VERIFIED_PROGRAMS, key)
    return payload is not None and payload.get("verified") is True


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
