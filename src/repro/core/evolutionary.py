"""Evolutionary segmentation search (Sec. V-D, the 6x6 scaling study).

For large MCMs the SEG space outgrows enumeration; the paper swaps the SEG
module for an evolutionary algorithm (population 10, 4 generations).  An
individual is the window's joint segmentation -- one cut-tuple per model --
and fitness is the best SCHED-engine score reachable with that
segmentation under a small placement budget.

Genetic operators: tournament selection, per-model uniform crossover, and
cut mutation (add / remove / move one cut).  Everything is seeded and
deterministic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.budget import SearchBudget
from repro.core.metrics import ScheduleEvaluator
from repro.core.packing import WindowAssignment
from repro.core.scoring import Objective
from repro.core.sched_engine import WindowCandidate, search_window
from repro.core.segmentation import Cuts, RankedSegmentation
from repro.errors import SearchError

Individual = dict[int, Cuts]
"""Model index -> cut tuple."""


@dataclass(frozen=True)
class GAConfig:
    """Evolutionary-search hyperparameters (paper defaults)."""

    population_size: int = 10
    generations: int = 4
    crossover_rate: float = 0.7
    mutation_rate: float = 0.5
    tournament: int = 2


def _random_cuts(rng: random.Random, start: int, stop: int,
                 max_segments: int) -> Cuts:
    """A random valid cut tuple for a [start, stop) range."""
    num_layers = stop - start
    max_cuts = min(max_segments, num_layers) - 1
    if max_cuts <= 0:
        return ()
    num_cuts = rng.randint(0, max_cuts)
    positions = list(range(start + 1, stop))
    return tuple(sorted(rng.sample(positions, min(num_cuts, len(positions)))))


def _mutate_cuts(rng: random.Random, cuts: Cuts, start: int, stop: int,
                 max_segments: int) -> Cuts:
    """Add, remove or move one cut (whichever is legal)."""
    positions = [p for p in range(start + 1, stop) if p not in cuts]
    moves = []
    if cuts:
        moves.append("remove")
        if positions:
            moves.append("move")
    if positions and len(cuts) + 1 < min(max_segments, stop - start):
        moves.append("add")
    if not moves:
        return cuts
    move = rng.choice(moves)
    new = list(cuts)
    if move == "remove":
        new.remove(rng.choice(new))
    elif move == "add":
        new.append(rng.choice(positions))
    else:
        new.remove(rng.choice(new))
        new.append(rng.choice(positions))
    return tuple(sorted(new))


class EvolutionarySegSearch:
    """GA over joint window segmentations, fitness via the SCHED engine."""

    def __init__(self, window: WindowAssignment, alloc: dict[int, int],
                 evaluator: ScheduleEvaluator, objective: Objective,
                 budget: SearchBudget, config: GAConfig | None = None,
                 seeds: dict[int, list[Cuts]] | None = None,
                 beam: int | None = None) -> None:
        self.window = window
        self.alloc = alloc
        self.evaluator = evaluator
        self.objective = objective
        self.budget = budget
        self.config = config or GAConfig()
        self.seeds = seeds or {}
        #: SCHED beam width for each fitness search (``None`` = the
        #: exhaustive kernel, see :func:`search_window`).
        self.beam = beam
        self.rng = random.Random(budget.seed + 104729 * window.index)
        evals = self.config.population_size * (self.config.generations + 1)
        self._fitness_budget = budget.fitness_slice(evals)
        self._cache: dict[tuple, WindowCandidate] = {}
        self.evaluated: list[WindowCandidate] = []

    # -- individuals -------------------------------------------------------

    def _range(self, model: int) -> tuple[int, int]:
        layer_range = self.window.range_for(model)
        assert layer_range is not None
        return layer_range

    def _random_individual(self) -> Individual:
        individual: Individual = {}
        for model in self.window.models:
            start, stop = self._range(model)
            individual[model] = _random_cuts(self.rng, start, stop,
                                             self.alloc[model])
        return individual

    def _initial_population(self) -> list[Individual]:
        population: list[Individual] = []
        # Seed with externally ranked segmentations (SEG proxy winners).
        seed_depth = max((len(v) for v in self.seeds.values()), default=0)
        for rank in range(seed_depth):
            individual: Individual = {}
            for model in self.window.models:
                options = self.seeds.get(model, [])
                individual[model] = options[min(rank, len(options) - 1)] \
                    if options else ()
            population.append(individual)
        while len(population) < self.config.population_size:
            population.append(self._random_individual())
        return population[:self.config.population_size]

    # -- genetic operators ---------------------------------------------------

    def _crossover(self, a: Individual, b: Individual) -> Individual:
        return {m: (a[m] if self.rng.random() < 0.5 else b[m])
                for m in self.window.models}

    def _mutate(self, individual: Individual) -> Individual:
        model = self.rng.choice(list(self.window.models))
        start, stop = self._range(model)
        mutated = dict(individual)
        mutated[model] = _mutate_cuts(self.rng, individual[model], start,
                                      stop, self.alloc[model])
        return mutated

    def _tournament(self, scored: list[tuple[float, Individual]]) -> Individual:
        picks = [scored[self.rng.randrange(len(scored))]
                 for _ in range(self.config.tournament)]
        return min(picks, key=lambda pair: pair[0])[1]

    # -- fitness ---------------------------------------------------------------

    def _fitness(self, individual: Individual) -> tuple[float, WindowCandidate | None]:
        key = tuple(sorted(individual.items()))
        if key in self._cache:
            cached = self._cache[key]
            self.evaluator.cache.record("fitness", hit=True)
            return cached.score, cached
        self.evaluator.cache.record("fitness", hit=False)
        ranked = {m: [RankedSegmentation(cuts=cuts, score=0.0)]
                  for m, cuts in individual.items()}
        try:
            candidate = search_window(self.window, ranked, self.evaluator,
                                      self.objective, self._fitness_budget,
                                      collect=self.evaluated,
                                      beam=self.beam)
        except SearchError:
            return float("inf"), None
        self._cache[key] = candidate
        return candidate.score, candidate

    # -- main loop ---------------------------------------------------------------

    def run(self) -> WindowCandidate:
        """Evolve and return the best window candidate found."""
        population = self._initial_population()
        best: WindowCandidate | None = None
        for _ in range(self.config.generations + 1):
            scored: list[tuple[float, Individual]] = []
            for individual in population:
                score, candidate = self._fitness(individual)
                scored.append((score, individual))
                if candidate is not None and (best is None
                                              or candidate.score < best.score):
                    best = candidate
            scored.sort(key=lambda pair: pair[0])
            # Elitism: keep the two best; breed the rest.
            next_population = [pair[1] for pair in scored[:2]]
            while len(next_population) < self.config.population_size:
                parent_a = self._tournament(scored)
                parent_b = self._tournament(scored)
                child = self._crossover(parent_a, parent_b) \
                    if self.rng.random() < self.config.crossover_rate \
                    else dict(parent_a)
                if self.rng.random() < self.config.mutation_rate:
                    child = self._mutate(child)
                next_population.append(child)
            population = next_population
        if best is None:
            raise SearchError(
                f"window {self.window.index}: evolutionary search found no "
                "feasible schedule")
        return best
