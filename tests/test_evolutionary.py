"""Unit tests for the evolutionary SEG search (Sec. V-D)."""

import random

import pytest

from repro.core.budget import SearchBudget
from repro.core.evolutionary import (
    EvolutionarySegSearch,
    GAConfig,
    _mutate_cuts,
    _random_cuts,
)
from repro.core.metrics import ScheduleEvaluator
from repro.core.packing import WindowAssignment
from repro.core.scoring import edp_objective


@pytest.fixture
def window():
    return WindowAssignment(index=0, ranges=((0, 0, 4), (1, 0, 3)))


@pytest.fixture
def search(window, tiny_scenario, het_mcm, database, small_budget):
    evaluator = ScheduleEvaluator(tiny_scenario, het_mcm, database)
    return EvolutionarySegSearch(
        window, {0: 2, 1: 2}, evaluator, edp_objective(), small_budget,
        config=GAConfig(population_size=4, generations=2))


class TestGeneOperators:
    def test_random_cuts_valid(self):
        rng = random.Random(0)
        for _ in range(50):
            cuts = _random_cuts(rng, 5, 15, max_segments=4)
            assert len(cuts) <= 3
            assert all(5 < c < 15 for c in cuts)
            assert list(cuts) == sorted(set(cuts))

    def test_random_cuts_single_layer(self):
        assert _random_cuts(random.Random(0), 3, 4, 4) == ()

    def test_mutation_stays_valid(self):
        rng = random.Random(1)
        cuts = (7,)
        for _ in range(50):
            cuts = _mutate_cuts(rng, cuts, 5, 10, max_segments=3)
            assert len(cuts) <= 2
            assert all(5 < c < 10 for c in cuts)
            assert list(cuts) == sorted(set(cuts))

    def test_mutation_no_legal_move_is_identity(self):
        # Single layer: no positions, no cuts -> unchanged.
        assert _mutate_cuts(random.Random(0), (), 0, 1, 1) == ()


class TestGA:
    def test_run_returns_feasible_candidate(self, search, tiny_scenario):
        best = search.run()
        assert best.score > 0
        best.window.chain_for(0)
        best.window.chain_for(1)

    def test_run_deterministic(self, window, tiny_scenario, het_mcm,
                               database, small_budget):
        def run_once():
            evaluator = ScheduleEvaluator(tiny_scenario, het_mcm, database)
            return EvolutionarySegSearch(
                window, {0: 2, 1: 2}, evaluator, edp_objective(),
                small_budget,
                config=GAConfig(population_size=4, generations=1)).run()
        assert run_once().score == pytest.approx(run_once().score)

    def test_evaluated_population_collected(self, search):
        search.run()
        assert len(search.evaluated) >= 1

    def test_seeds_enter_initial_population(self, window, tiny_scenario,
                                            het_mcm, database,
                                            small_budget):
        evaluator = ScheduleEvaluator(tiny_scenario, het_mcm, database)
        search = EvolutionarySegSearch(
            window, {0: 2, 1: 2}, evaluator, edp_objective(), small_budget,
            config=GAConfig(population_size=4, generations=0),
            seeds={0: [(2,)], 1: [()]})
        population = search._initial_population()
        assert population[0] == {0: (2,), 1: ()}

    def test_respects_alloc_bounds(self, search):
        best = search.run()
        for chain in best.window.chains:
            assert len(chain) <= 2

    def test_fitness_memo_reports_hits(self, search):
        search.run()
        stats = search.evaluator.cache.stats["fitness"]
        assert stats.lookups >= 4  # at least one full population scored
        assert stats.misses >= 1

    def test_fitness_budget_uses_slice_helper(self, search, small_budget):
        evals = 4 * (2 + 1)  # population_size * (generations + 1)
        assert search._fitness_budget == small_budget.fitness_slice(evals)


class TestSchedulerReproducibility:
    """Same SearchBudget.seed => identical search outcome."""

    def _budget(self, seed):
        return SearchBudget(top_k_segmentations=2,
                            max_segment_candidates=16,
                            max_root_combos=4, max_paths_per_model=4,
                            max_candidates_per_window=40, seed=seed)

    def _schedule(self, scenario, mcm, seed):
        from repro.core.scar import SCARScheduler
        return SCARScheduler(mcm, nsplits=1, budget=self._budget(seed),
                             seg_search="evolutionary").schedule(scenario)

    def test_same_seed_identical_runs(self, tiny_scenario, het_mcm):
        a = self._schedule(tiny_scenario, het_mcm, seed=3)
        b = self._schedule(tiny_scenario, het_mcm, seed=3)
        assert a.num_evaluated == b.num_evaluated
        assert a.schedule == b.schedule
        assert a.metrics == b.metrics

    def test_same_seed_identical_in_a_pool_worker(self, tiny_scenario):
        """The GA draws from its seed alone, so the search a service's
        process worker runs matches the in-process one."""
        from repro.api import ScheduleRequest, Session
        from repro.service import SchedulerService
        request = ScheduleRequest.for_scenario(
            tiny_scenario, policy="evolutionary", template="het_sides_3x3",
            nsplits=1, budget=self._budget(seed=3))
        in_process = Session().submit(request)
        with SchedulerService(workers=1,
                              job_backend="process") as service:
            pooled = service.submit(request).result(timeout=600)
        assert pooled.window_candidates == in_process.window_candidates
        assert pooled.same_payload(in_process)

    def test_different_seed_may_differ_but_is_valid(self, tiny_scenario,
                                                    het_mcm):
        result = self._schedule(tiny_scenario, het_mcm, seed=11)
        result.schedule.validate(tiny_scenario)
