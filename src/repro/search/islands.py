"""Island-model GGA with store-mediated elite migration.

Scales the search itself, now that per-evaluation cost is solved: ``K``
islands each evolve an independent subpopulation with its own RNG stream,
in lockstep *epochs* of ``migration_interval`` generations.  At every
epoch boundary each island publishes its top ``migration_size`` elites
and receives its ring neighbour's (island ``i`` imports from island
``i-1 mod K``), replacing the tail of its population.  When a persistent
artifact store is attached, elites are also written through to the
``island_migration`` namespace so a later run hydrates its islands from
where the previous one left off (the warm-start substrate, extended
per-island).

Determinism
-----------
Island evolution is a pure function of its seed: fitness is a pure
function of the individual's value, so the per-problem evaluator memo
the islands share makes results independent of thread scheduling (only
the per-island ``evaluations`` split depends on who fills an entry
first).  Island 0 keeps the base
seed, which is why ``islands=1`` is bit-identical to the classic
single-population :class:`~repro.search.gga.GGA` (the population is
split ``population // K`` ways, degenerating to the full population at
``K=1``).  Migration happens at synchronized epoch barriers, so the
exchanged payloads are schedule-independent too.

Failure containment
-------------------
A dropped or corrupt migration payload (fault seam ``island_migration``,
or a store entry that fails validation) never stops the search: the
receiving island continues solo and the event is recorded as a
``migration_note`` telemetry row — the search-layer analogue of the
codegen ladder's DemotionRecord.
"""

from __future__ import annotations

import logging
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from typing import Dict, List, Optional, Sequence

from ..gpu.device import DeviceSpec
from ..observability.metrics import get_registry
from ..observability.tracing import span
from ..reliability import faults
from .gga import GGA, SearchResult
from .grouping import FusionProblem, Grouping
from .params import GAParams

logger = logging.getLogger(__name__)

#: additive stride deriving island RNG streams from the base seed; island
#: 0 keeps the base seed so K=1 stays bit-identical to the classic GGA
ISLAND_SEED_STRIDE = 7919


def island_seed(base_seed: int, island: int) -> int:
    """The RNG seed of one island (island 0 == the base seed)."""
    return base_seed + ISLAND_SEED_STRIDE * island


def island_params(params: GAParams, island: int, islands: int) -> GAParams:
    """The per-island parameter set: split population, derived seed."""
    population = max(2, params.population // max(1, islands))
    return replace(
        params,
        population=population,
        seed=island_seed(params.seed, island),
        islands=1,
    )


class MigrationBus:
    """Ring-topology elite exchange between islands.

    Delivery is in-memory; when a store is attached every published
    payload is also written through to the ``island_migration``
    namespace (per-island key), which is what later runs hydrate from.
    """

    def __init__(
        self,
        problem: FusionProblem,
        device: DeviceSpec,
        params: GAParams,
        store=None,
    ) -> None:
        self.problem = problem
        self.device = device
        self.params = params
        self.store = store
        self.delivered = 0
        self.dropped = 0
        self.notes: List[Dict[str, object]] = []

    def _note(self, island: int, epoch: int, reason: str) -> None:
        self.notes.append(
            {
                "type": "migration_note",
                "island": island,
                "epoch": epoch,
                "event": "payload_dropped",
                "reason": reason,
            }
        )

    def publish(self, island: int, elites: Sequence[Grouping]) -> None:
        """Write one island's elites through to the store (best-effort)."""
        if self.store is None or not elites:
            return
        from ..store.stage_cache import save_island_elites

        try:
            save_island_elites(
                self.store, self.problem, self.device, self.params, island, elites
            )
        except Exception as exc:  # pragma: no cover - store is best-effort
            logger.warning("island %d: elite write-through failed: %s", island, exc)

    def deliver(
        self, target: GGA, source: int, epoch: int, elites: Sequence[Grouping]
    ) -> int:
        """Inject ``elites`` from ``source`` into ``target``'s population.

        The ``island_migration`` fault seam drops the payload here — the
        island continues solo, the drop is counted and noted.
        """
        if not elites:
            return 0
        if faults.poison_cache_value("island_migration"):
            self.dropped += len(elites)
            get_registry().inc("island_migrations_dropped_total", len(elites))
            self._note(
                target.island, epoch, "injected island_migration fault"
            )
            logger.warning(
                "island %d: migration payload from island %d dropped "
                "(fault injection); continuing solo",
                target.island,
                source,
            )
            return 0
        accepted = target.receive_migrants(elites)
        self.delivered += accepted
        get_registry().inc("island_migrations_total", accepted)
        return accepted

    def hydrate(self, island: int) -> List[Grouping]:
        """Elites a previous run left in the store for this island slot."""
        if self.store is None:
            return []
        from ..store.stage_cache import load_island_elites

        elites = load_island_elites(
            self.store, self.problem, self.device, self.params, island
        )
        if elites:
            get_registry().inc("island_hydrations_total", len(elites))
        return elites


class IslandGGA:
    """K concurrent GGA islands exchanging elites through a MigrationBus.

    Drives :class:`~repro.search.gga.GGA` through its steppable seam:
    every island advances ``migration_interval`` generations per epoch
    (concurrently, in threads — safe because fitness is pure and
    memoized by value), then elites migrate along the ring at the epoch
    barrier.  The merged :class:`SearchResult` carries every island's
    history (rows tagged with their island index) and the best feasible
    individual across islands.
    """

    def __init__(
        self,
        problem: FusionProblem,
        device: DeviceSpec,
        params: Optional[GAParams] = None,
        seed_population: Optional[Sequence[Grouping]] = None,
        store=None,
    ) -> None:
        self.problem = problem
        self.device = device
        self.params = params or GAParams()
        self.count = max(1, self.params.islands)
        self.bus = MigrationBus(problem, device, self.params, store=store)
        self.islands: List[GGA] = []
        shared_seeds = list(seed_population or [])
        for index in range(self.count):
            seeds = shared_seeds + self.bus.hydrate(index)
            gga = GGA(
                problem,
                device,
                island_params(self.params, index, self.count),
                seed_population=seeds or None,
            )
            gga.island = index
            self.islands.append(gga)

    def _epoch(self, epoch: int) -> None:
        """Advance every live island by one epoch, then migrate."""
        interval = max(1, self.params.migration_interval)

        def advance(gga: GGA) -> None:
            for _ in range(interval):
                if gga.done:
                    return
                gga.step()

        live = [g for g in self.islands if not g.done]
        with span("islands:epoch", epoch=epoch, live=len(live)):
            if len(live) > 1:
                with ThreadPoolExecutor(max_workers=len(live)) as pool:
                    list(pool.map(advance, live))
            else:
                for gga in live:
                    advance(gga)
            if self.count > 1 and any(not g.done for g in self.islands):
                payloads = [
                    g.top_individuals(max(1, self.params.migration_size))
                    for g in self.islands
                ]
                for index, elites in enumerate(payloads):
                    self.bus.publish(index, elites)
                for index, gga in enumerate(self.islands):
                    source = (index - 1) % self.count
                    self.bus.deliver(gga, source, epoch, payloads[source])
            get_registry().inc("island_epochs_total")

    def run(self) -> SearchResult:
        start = time.perf_counter()
        for gga in self.islands:
            gga.initialize()
        epoch = 0
        while any(not g.done for g in self.islands):
            self._epoch(epoch)
            epoch += 1
        results = [g.finalize() for g in self.islands]
        return self._merge(results, time.perf_counter() - start)

    def _merge(self, results: List[SearchResult], wall_s: float) -> SearchResult:
        best_index = max(
            range(len(results)), key=lambda i: results[i].best_fitness
        )
        primary = results[best_index]
        history = sorted(
            (row for result in results for row in result.history),
            key=lambda row: (row.island, row.generation),
        )
        # the merged warm-start payload leads with the winning island's
        # population, topped up with the other islands' best individuals
        final_population = list(primary.final_population)
        seen = set(final_population)
        for index, result in enumerate(results):
            if index == best_index:
                continue
            for individual in result.final_population[: self.params.migration_size]:
                if individual not in seen:
                    final_population.append(individual)
                    seen.add(individual)
        correlations = [
            r.surrogate_rank_correlation
            for r in results
            if r.surrogate_rank_correlation == r.surrogate_rank_correlation
        ]
        generations_run = max(r.generations_run for r in results)
        total_fissions = sum(s.fissions for s in history)
        return SearchResult(
            best=primary.best,
            best_fitness=primary.best_fitness,
            projected_time_s=primary.projected_time_s,
            history=history,
            generations_run=generations_run,
            converged_at=primary.converged_at,
            avg_fissions_per_generation=(
                total_fissions / generations_run if generations_run else 0.0
            ),
            evaluations=sum(r.evaluations for r in results),
            cache_hits=sum(r.cache_hits for r in results),
            fitness_lookups=sum(r.fitness_lookups for r in results),
            final_population=final_population,
            islands=self.count,
            migrations_received=self.bus.delivered,
            migrations_dropped=self.bus.dropped,
            surrogate_skipped=sum(r.surrogate_skipped for r in results),
            surrogate_rank_correlation=(
                sum(correlations) / len(correlations)
                if correlations
                else float("nan")
            ),
            wall_time_s=wall_s,
            migration_notes=list(self.bus.notes),
        )
