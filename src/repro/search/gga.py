"""The grouped genetic algorithm driver (§5.4).

Evolves partitions of the target kernel invocations under the penalized
objective, with lazy fission embedded as a repair operator that fires on
individuals stuck at the shared-memory boundary.  Tracks the statistics the
paper reports: fitness trajectory, average fissions per generation and the
generation of convergence (used for the filtering experiment, Fig. 8).
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..errors import SearchError
from ..gpu.device import DeviceSpec
from ..observability.metrics import get_registry
from ..observability.tracing import span
from .grouping import (
    FusionProblem,
    Grouping,
    Violations,
    singleton_grouping,
)
from .objective import (
    SurrogateVariant,
    compiled_fitness,
    get_objective,
    projected_time_s,
    spearman_rank_correlation,
    surrogate_scorer,
)
from .operators import (
    crossover,
    lazy_fission_repair,
    make_grouping,
    mutate,
    random_grouping,
)
from .params import GAParams


@dataclass
class GenerationStats:
    """Per-generation statistics.

    Beyond the paper's fitness trajectory, each row samples the
    penalty-pressure and evaluator counters that feed
    ``search_telemetry.jsonl``.  The ``cache_*`` / ``evaluations``
    counters are *cumulative* totals at the end of the generation
    (difference consecutive rows for per-generation deltas).
    """

    generation: int
    best_fitness: float
    best_feasible_fitness: float
    mean_fitness: float
    fissions: int
    feasible_count: int
    #: population fitness standard deviation (diversity signal)
    std_fitness: float = 0.0
    #: evaluations this generation whose Eq. 1 penalty term fired
    penalty_activations: int = 0
    cache_hits: int = 0
    cache_lookups: int = 0
    evaluations: int = 0
    #: offspring bred this generation (== admitted when the surrogate
    #: pre-filter is off)
    surrogate_candidates: int = 0
    #: offspring admitted to exact evaluation by the surrogate ranking
    surrogate_admitted: int = 0
    #: Spearman correlation between surrogate and exact offspring ranks
    #: (NaN when the pre-filter is off or the sample is degenerate)
    surrogate_rank_correlation: float = float("nan")
    #: wall-clock seconds since the search started, sampled at the end of
    #: the generation (time-to-target-fitness measurements difference this)
    elapsed_s: float = 0.0


@dataclass
class SearchResult:
    """Outcome of one GGA run."""

    best: Grouping
    best_fitness: float
    #: projected program time of the best individual (s)
    projected_time_s: float
    history: List[GenerationStats]
    generations_run: int
    #: generation at which the best-feasible fitness reached 99.9% of final
    converged_at: int
    #: average lazy fissions applied per generation
    avg_fissions_per_generation: float
    #: objective evaluations actually executed (fitness-memo misses)
    evaluations: int
    #: fitness lookups served from the evaluator's per-individual memo
    cache_hits: int = 0
    #: total fitness lookups this run (hits + misses)
    fitness_lookups: int = 0
    #: the last generation's population (cross-run warm-start payload);
    #: empty when the result was reconstructed from the artifact store
    final_population: List[Grouping] = field(default_factory=list)
    #: offspring the surrogate pre-filter kept away from exact evaluation
    surrogate_skipped: int = 0
    #: mean per-generation surrogate-vs-exact Spearman correlation
    #: (NaN when the pre-filter never ran)
    surrogate_rank_correlation: float = float("nan")
    #: wall-clock seconds the search spent (0 for store-reconstructed results)
    wall_time_s: float = 0.0

    @property
    def cache_hit_rate(self) -> float:
        return self.cache_hits / self.fitness_lookups if self.fitness_lookups else 0.0

    @property
    def fused_group_count(self) -> int:
        return len(self.best.fused_groups())

    @property
    def new_kernel_count(self) -> int:
        return len(self.best.groups)


class GGA:
    """Grouped genetic algorithm over a :class:`FusionProblem`.

    Fitness comes from the problem's memoizing
    :class:`~repro.search.objective.CompiledFitness`, resolved once here
    and called directly.  The evaluator lives on the problem, so repeated
    groupings cost one dict probe across generations and restarts on the
    same problem; ``lookups`` / ``evaluations`` count this instance's own
    requests and memo misses.
    """

    def __init__(
        self,
        problem: FusionProblem,
        device: DeviceSpec,
        params: Optional[GAParams] = None,
        seed_population: Optional[Sequence[Grouping]] = None,
    ) -> None:
        self.problem = problem
        self.device = device
        self.params = params or GAParams()
        #: individuals injected into generation 0 (cross-run warm start);
        #: individuals that no longer cover the problem are dropped
        self.seed_population: List[Grouping] = [
            g for g in (seed_population or []) if g.covers(problem)
        ]
        self.objective = get_objective(self.params.objective)
        self.rng = random.Random(self.params.seed)
        self.fitness = compiled_fitness(
            problem, device, self.objective, self.params.penalties
        )
        #: fitness requests this instance made
        self.lookups = 0
        #: objective evaluations this instance executed (memo misses)
        self.evaluations = 0

    # ------------------------------------------------------------------- eval

    @property
    def cache_hits(self) -> int:
        """Fitness requests answered from the memo."""
        return self.lookups - self.evaluations

    def evaluate(self, individual: Grouping) -> Tuple[float, Violations]:
        fitness, violations, hit = self.fitness.lookup(individual)
        self.lookups += 1
        if not hit:
            self.evaluations += 1
        return fitness, violations

    def evaluate_many(
        self, individuals: Sequence[Grouping]
    ) -> List[Tuple[float, Violations]]:
        """Evaluate a population; results in input order."""
        before = self.evaluations
        results = [self.evaluate(individual) for individual in individuals]
        misses = self.evaluations - before
        registry = get_registry()
        registry.inc("search_fitness_lookups_total", len(results))
        registry.inc("search_fitness_cache_hits_total", len(results) - misses)
        registry.inc("search_evaluations_total", misses)
        return results

    def _tournament(
        self, population: List[Grouping], fitnesses: List[float]
    ) -> Grouping:
        best_idx = None
        for _ in range(self.params.tournament_size):
            idx = self.rng.randrange(len(population))
            if best_idx is None or fitnesses[idx] > fitnesses[best_idx]:
                best_idx = idx
        assert best_idx is not None
        return population[best_idx]

    # -------------------------------------------------------------------- run

    def initialize(self) -> None:
        """Build generation 0 and reset the run-state trackers."""
        params = self.params
        if params.population < 2:
            raise SearchError("population must be at least 2")
        if not 0.0 < params.surrogate_topk <= 1.0:
            raise SearchError("surrogate_topk must be in (0, 1]")
        self._mutation_rates = (
            params.mutate_merge,
            params.mutate_split,
            params.mutate_move,
            params.mutate_fission,
        )
        # generation 0: the identity individual, then any warm-start seeds
        # (a previous run's best partition + final population), then
        # mutation-diversified copies of the seeds — or purely random
        # individuals on a cold start
        population: List[Grouping] = [singleton_grouping(self.problem)]
        for seed in self.seed_population:
            if len(population) >= params.population:
                break
            population.append(seed)
        screened = 0
        fill = params.population - len(population)
        if (
            fill > 0
            and params.surrogate_topk < 1.0
            and not self.seed_population
        ):
            # surrogate-screened cold start: oversample the random fill by
            # 1/topk and keep the model's pick, so the pre-filter shapes
            # generation 0 too (the plain path is untouched at topk=1)
            scorer = self._scorer()
            screened = math.ceil(fill / params.surrogate_topk)
            candidates = [
                random_grouping(self.problem, self.rng)
                for _ in range(screened)
            ]
            scores = [scorer.score(c) for c in candidates]
            order = sorted(range(screened), key=lambda i: (-scores[i], i))
            population.extend(candidates[i] for i in sorted(order[:fill]))
        while len(population) < params.population:
            if self.seed_population:
                base = self.seed_population[
                    len(population) % len(self.seed_population)
                ]
                population.append(
                    mutate(self.problem, base, self.rng, self._mutation_rates)
                )
            else:
                population.append(random_grouping(self.problem, self.rng))
        self.population = population
        self.history: List[GenerationStats] = []
        self.best: Optional[Grouping] = None
        self.best_fitness = float("-inf")
        self.best_feasible: Optional[Grouping] = None
        self.best_feasible_fitness = float("-inf")
        self._stall = 0
        self._generation = 0
        self._start_time = time.perf_counter()
        self._surrogate_candidates = screened
        self._surrogate_admitted = min(screened, fill)
        self._rank_correlations: List[float] = []

    @property
    def done(self) -> bool:
        """True once the generation budget or the stall limit is exhausted."""
        params = self.params
        if self._generation >= params.generations:
            return True
        return bool(
            params.stall_generations and self._stall >= params.stall_generations
        )

    def _scorer(self):
        """The surrogate scorer, created on first use (shares the
        compiled evaluator's per-group memos with exact evaluation)."""
        scorer = getattr(self, "_surrogate_scorer", None)
        if scorer is None:
            scorer = surrogate_scorer(
                self.problem, self.device, self.objective,
                self.params.penalties,
            )
            self._surrogate_scorer = scorer
        return scorer

    def _breed(self, fitnesses: List[float], count: int) -> List[Grouping]:
        """Breed ``count`` offspring (sequential: consumes the rng stream)."""
        params = self.params
        offspring: List[Grouping] = []
        while len(offspring) < count:
            parent_a = self._tournament(self.population, fitnesses)
            if self.rng.random() < params.crossover_rate:
                parent_b = self._tournament(self.population, fitnesses)
                child = crossover(self.problem, parent_a, parent_b, self.rng)
            else:
                child = parent_a
            child = mutate(self.problem, child, self.rng, self._mutation_rates)
            offspring.append(child)
        return offspring

    def step(self) -> None:
        """Advance the search by one generation."""
        params = self.params
        population = self.population
        generation = self._generation
        registry = get_registry()
        with span(f"gga:gen:{generation}") as gen_span:
            with span("eval", batch="population", size=len(population)):
                evaluated = self.evaluate_many(population)
            fitnesses = [f for f, _ in evaluated]
            improved = False
            feasible_count = 0
            penalty_activations = 0
            for ind, (fitness, violations) in zip(population, evaluated):
                if fitness > self.best_fitness:
                    self.best, self.best_fitness = ind, fitness
                if violations.feasible:
                    feasible_count += 1
                    if fitness > self.best_feasible_fitness:
                        self.best_feasible = ind
                        self.best_feasible_fitness = fitness
                        improved = True
                else:
                    penalty_activations += 1
            self._stall = 0 if improved else self._stall + 1

            fissions_this_gen = 0
            # next generation
            ranked = sorted(
                range(len(population)), key=lambda i: fitnesses[i], reverse=True
            )
            next_pop: List[Grouping] = [
                population[i] for i in ranked[: params.elitism]
            ]
            # breed the full offspring batch first (consumes the rng
            # stream), then evaluate it in one memoized sweep;
            # lazy fission repairs fire on the offspring stuck at the
            # shared-memory boundary.  With surrogate_topk < 1 the batch is
            # oversampled by 1/topk and ranked by the analytic-model-only
            # surrogate; only the top slice reaches exact evaluation.
            needed = params.population - len(next_pop)
            surrogate_corr = float("nan")
            if params.surrogate_topk < 1.0 and needed > 0:
                scorer = self._scorer()
                bred = self._breed(fitnesses, needed)
                if scorer.supports_variants:
                    # each bred child seeds a model-scored neighbourhood:
                    # single merge/split/move edits priced as deltas
                    # against the parent's per-group terms, materialized
                    # only on admission
                    extra_per = max(
                        0, math.ceil(1.0 / params.surrogate_topk) - 1
                    )
                    pool: List[object] = []
                    scores: List[float] = []
                    for child in bred:
                        parts = scorer.components(child)
                        pool.append(child)
                        scores.append(scorer.score_from(parts))
                        for variant in scorer.variants(
                            child, parts, self.rng, extra_per
                        ):
                            pool.append(variant)
                            scores.append(variant.score)
                else:
                    # custom objective: oversampled breeding
                    # ranked by the plain surrogate score
                    extra = max(
                        0,
                        math.ceil(needed / params.surrogate_topk) - needed,
                    )
                    pool = bred + self._breed(fitnesses, extra)
                    scores = [scorer.score(child) for child in pool]
                gen_candidates = len(pool)
                order = sorted(
                    range(gen_candidates), key=lambda i: (-scores[i], i)
                )
                admitted = sorted(order[:needed])
                offspring = [
                    entry.materialize()
                    if isinstance(entry, SurrogateVariant)
                    else entry
                    for entry in (pool[i] for i in admitted)
                ]
                admitted_scores = [scores[i] for i in admitted]
                registry.inc("surrogate_candidates_total", gen_candidates)
                registry.inc("surrogate_admitted_total", len(offspring))
            else:
                gen_candidates = needed
                offspring = self._breed(fitnesses, needed)
                admitted_scores = []
            self._surrogate_candidates += gen_candidates
            self._surrogate_admitted += len(offspring)
            with span("eval", batch="offspring", size=len(offspring)):
                child_results = self.evaluate_many(offspring)
            if admitted_scores:
                corr = spearman_rank_correlation(
                    admitted_scores, [f for f, _ in child_results]
                )
                if corr is not None:
                    surrogate_corr = corr
                    self._rank_correlations.append(corr)
            for child, (_, violations) in zip(offspring, child_results):
                if not violations.feasible:
                    penalty_activations += 1
                if violations.smem_over > 0:
                    child, fissions = lazy_fission_repair(
                        self.problem, child, self.rng
                    )
                    fissions_this_gen += fissions
                next_pop.append(child)

            mean_fitness = sum(fitnesses) / len(fitnesses)
            std_fitness = (
                sum((f - mean_fitness) ** 2 for f in fitnesses) / len(fitnesses)
            ) ** 0.5
            self.history.append(
                GenerationStats(
                    generation=generation,
                    best_fitness=self.best_fitness,
                    best_feasible_fitness=(
                        self.best_feasible_fitness
                        if self.best_feasible is not None
                        else float("nan")
                    ),
                    mean_fitness=mean_fitness,
                    fissions=fissions_this_gen,
                    feasible_count=feasible_count,
                    std_fitness=std_fitness,
                    penalty_activations=penalty_activations,
                    cache_hits=self.cache_hits,
                    cache_lookups=self.lookups,
                    evaluations=self.evaluations,
                    surrogate_candidates=gen_candidates,
                    surrogate_admitted=len(offspring),
                    surrogate_rank_correlation=surrogate_corr,
                    elapsed_s=time.perf_counter() - self._start_time,
                )
            )
            registry.inc("gga_generations_total")
            registry.inc("gga_penalty_activations_total", penalty_activations)
            registry.inc("gga_fissions_total", fissions_this_gen)
            registry.set_gauge("gga_best_fitness", self.best_fitness)
            gen_span.set(
                best=self.best_fitness,
                feasible=feasible_count,
                penalties=penalty_activations,
            )
        self.population = next_pop
        self._generation = generation + 1

    def finalize(self) -> SearchResult:
        """Package the run into a SearchResult."""
        best_feasible = self.best_feasible
        best_feasible_fitness = self.best_feasible_fitness
        if best_feasible is None:
            best_feasible = self._repair_to_feasible(
                self.best or self.population[0]
            )
            best_feasible_fitness, _ = self.evaluate(best_feasible)

        history = self.history
        generations_run = self._generation
        converged_at = generations_run - 1
        if history:
            final = best_feasible_fitness
            for stats in history:
                if (
                    stats.best_feasible_fitness == stats.best_feasible_fitness  # not NaN
                    and stats.best_feasible_fitness >= final * 0.999
                ):
                    converged_at = stats.generation
                    break
        total_fissions = sum(s.fissions for s in history)
        correlations = self._rank_correlations
        return SearchResult(
            best=best_feasible,
            best_fitness=best_feasible_fitness,
            projected_time_s=projected_time_s(
                self.problem, best_feasible, self.device
            ),
            history=history,
            generations_run=generations_run,
            converged_at=converged_at,
            avg_fissions_per_generation=(
                total_fissions / generations_run if generations_run else 0.0
            ),
            evaluations=self.evaluations,
            cache_hits=self.cache_hits,
            fitness_lookups=self.lookups,
            final_population=list(self.population),
            surrogate_skipped=(
                self._surrogate_candidates - self._surrogate_admitted
            ),
            surrogate_rank_correlation=(
                sum(correlations) / len(correlations)
                if correlations
                else float("nan")
            ),
            wall_time_s=time.perf_counter() - self._start_time,
        )

    def run(self) -> SearchResult:
        self.initialize()
        while not self.done:
            self.step()
        return self.finalize()

    def _repair_to_feasible(self, individual: Grouping) -> Grouping:
        """Break infeasible groups into singletons until feasible."""
        from .grouping import cyclic_group_indices

        current = individual
        for _ in range(len(current.groups) + 2):
            active = current.active_nodes(self.problem)
            _, reach = self.problem.node_oeg(active)
            cyclic = cyclic_group_indices(self.problem, current)
            groups = []
            changed = False
            for index, group in enumerate(current.groups):
                feasible = len(group) <= 1 or (
                    self.problem.group_fusable(group)
                    and self.problem.group_convex(group, reach)
                    and self.problem.group_realizable(group)
                    and self.problem.group_smem_bytes(group) <= self.problem.capacity
                    and index not in cyclic
                )
                if feasible:
                    groups.append(group)
                else:
                    groups.extend(frozenset({m}) for m in sorted(group))
                    changed = True
            current = make_grouping(set(current.split), groups)
            if not changed:
                return current
        return current


def run_search(
    problem: FusionProblem,
    device: DeviceSpec,
    params: Optional[GAParams] = None,
    seed_population: Optional[Sequence[Grouping]] = None,
) -> SearchResult:
    """Convenience wrapper: construct and run the GGA.

    ``seed_population`` warm-starts generation 0 (see :class:`GGA`).
    """
    return GGA(problem, device, params, seed_population=seed_population).run()
