"""Integration tests for the SCAR scheduler facade."""

import dataclasses
import itertools

import pytest

from repro.core.budget import SearchBudget
from repro.core.evalcache import EvalCache
from repro.core.evolutionary import GAConfig
from repro.core.metrics import ScheduleEvaluator
from repro.core.provisioner import exhaustive_allocations
from repro.core.scar import SCARScheduler
from repro.core.scoring import edp_objective, latency_objective
from repro.errors import SearchError


@pytest.fixture
def budget():
    return SearchBudget(top_k_segmentations=2, max_segment_candidates=16,
                        max_root_combos=4, max_paths_per_model=4,
                        max_candidates_per_window=48, seed=0)


class TestSchedulerBasics:
    def test_produces_valid_schedule(self, tiny_scenario, het_mcm, budget):
        result = SCARScheduler(het_mcm, nsplits=1,
                               budget=budget).schedule(tiny_scenario)
        result.schedule.validate(tiny_scenario)
        assert result.metrics.latency_s > 0
        assert result.num_evaluated > 0

    def test_invalid_modes_rejected(self, het_mcm):
        with pytest.raises(SearchError):
            SCARScheduler(het_mcm, packing="magic")
        with pytest.raises(SearchError):
            SCARScheduler(het_mcm, provisioning="magic")
        with pytest.raises(SearchError):
            SCARScheduler(het_mcm, seg_search="magic")

    @pytest.mark.parametrize("prov_limit", [0, -1])
    def test_prov_limit_below_one_rejected(self, tiny_scenario, het_mcm,
                                           prov_limit):
        """A limit that leaves a window no allocation to search fails at
        construction, not with an untyped error mid-search."""
        with pytest.raises(SearchError, match="prov_limit"):
            SCARScheduler(het_mcm, nsplits=1, provisioning="exhaustive",
                          prov_limit=prov_limit).schedule(tiny_scenario)

    @pytest.mark.parametrize("max_nodes", [0, -2])
    def test_max_nodes_per_model_below_one_rejected(self, het_mcm,
                                                    max_nodes):
        """A cap below one node fails at construction instead of being
        read as a cap of one."""
        with pytest.raises(SearchError, match="max_nodes_per_model"):
            SCARScheduler(het_mcm, max_nodes_per_model=max_nodes)

    def test_deterministic(self, tiny_scenario, het_mcm, budget):
        a = SCARScheduler(het_mcm, nsplits=1,
                          budget=budget).schedule(tiny_scenario)
        b = SCARScheduler(het_mcm, nsplits=1,
                          budget=budget).schedule(tiny_scenario)
        assert a.metrics.edp == pytest.approx(b.metrics.edp)
        assert a.schedule == b.schedule

    def test_perf_report_attached(self, tiny_scenario, het_mcm, budget):
        result = SCARScheduler(het_mcm, nsplits=1,
                               budget=budget).schedule(tiny_scenario)
        assert result.perf is not None
        assert result.perf.num_evaluated == result.num_evaluated
        assert result.perf.wall_s > 0
        compute = result.perf.cache_table("compute")
        assert compute.lookups > 0
        # The whole point of the cache: repeated sub-chains hit.
        assert compute.hit_rate > 0.5

    def test_nsplits_zero_single_window(self, tiny_scenario, het_mcm,
                                        budget):
        result = SCARScheduler(het_mcm, nsplits=0,
                               budget=budget).schedule(tiny_scenario)
        assert result.schedule.num_windows == 1

    def test_candidate_points_nonempty(self, tiny_scenario, het_mcm,
                                       budget):
        result = SCARScheduler(het_mcm, nsplits=1,
                               budget=budget).schedule(tiny_scenario)
        points = result.candidate_points()
        assert points
        assert all(lat > 0 and en > 0 for lat, en in points)

    def test_objective_latency_no_worse_than_edp_on_latency(
            self, tiny_scenario, het_mcm, budget):
        lat = SCARScheduler(het_mcm, nsplits=1, budget=budget,
                            objective=latency_objective()) \
            .schedule(tiny_scenario)
        edp = SCARScheduler(het_mcm, nsplits=1, budget=budget,
                            objective=edp_objective()) \
            .schedule(tiny_scenario)
        assert lat.metrics.latency_s <= edp.metrics.latency_s * 1.05


class TestSchedulerModes:
    def test_uniform_packing_mode(self, tiny_scenario, het_mcm, budget):
        result = SCARScheduler(het_mcm, nsplits=1, budget=budget,
                               packing="uniform").schedule(tiny_scenario)
        result.schedule.validate(tiny_scenario)

    def test_exhaustive_provisioning(self, tiny_scenario, het_mcm, budget):
        uniform = SCARScheduler(het_mcm, nsplits=0, budget=budget) \
            .schedule(tiny_scenario)
        exhaustive = SCARScheduler(het_mcm, nsplits=0, budget=budget,
                                   provisioning="exhaustive",
                                   prov_limit=12).schedule(tiny_scenario)
        exhaustive.schedule.validate(tiny_scenario)
        # Exhaustive explores a superset of allocations, so with the same
        # per-allocation budget it should not be significantly worse.
        assert exhaustive.metrics.edp <= uniform.metrics.edp * 1.5

    def test_heuristic2_cap(self, tiny_scenario, het_mcm, budget):
        result = SCARScheduler(het_mcm, nsplits=0, budget=budget,
                               max_nodes_per_model=1) \
            .schedule(tiny_scenario)
        for window in result.schedule.windows:
            for chain in window.chains:
                assert len(chain) == 1

    def test_evolutionary_seg_search(self, tiny_scenario, het_mcm, budget):
        from repro.core.evolutionary import GAConfig
        result = SCARScheduler(
            het_mcm, nsplits=0, budget=budget, seg_search="evolutionary",
            ga_config=GAConfig(population_size=4, generations=1)) \
            .schedule(tiny_scenario)
        result.schedule.validate(tiny_scenario)


class TestAllocationOrder:
    """Each window searches its PROV allocations in index order: its
    candidates are collected in that order, and a later allocation
    replaces the window's winner only on a strictly lower score."""

    def _run(self, monkeypatch, scenario, mcm, budget, score=None):
        """Run exhaustive provisioning, recording per window the
        ``(allocation, added candidates, returned candidate)`` of each
        search in order; ``score`` overrides the returned candidates'."""
        searched: list[list[tuple]] = []
        real = SCARScheduler._search_one_alloc

        def spy(self, scenario, window, alloc, expected_lat, evaluator,
                collected):
            start = len(collected)
            candidate = real(self, scenario, window, alloc, expected_lat,
                             evaluator, collected)
            if score is not None:
                candidate = dataclasses.replace(candidate, score=score)
            if not searched or searched[-1][0][0] is not window:
                searched.append([])
            searched[-1].append((window, dict(alloc),
                                 tuple(collected[start:]), candidate))
            return candidate

        monkeypatch.setattr(SCARScheduler, "_search_one_alloc", spy)
        result = SCARScheduler(mcm, nsplits=1, budget=budget,
                               provisioning="exhaustive",
                               prov_limit=12).schedule(scenario)
        assert len(searched) == result.schedule.num_windows
        for calls in searched:
            window = calls[0][0]
            assert [alloc for _, alloc, _, _ in calls] == list(
                exhaustive_allocations(window, mcm.num_chiplets,
                                       limit=12))
            assert len(calls) > 1
        return result, [[call[2:] for call in calls] for calls in searched]

    def test_candidates_collected_in_window_allocation_order(
            self, monkeypatch, tiny_scenario, het_mcm, budget):
        result, searched = self._run(monkeypatch, tiny_scenario, het_mcm,
                                     budget)
        assert result.window_candidates == tuple(
            tuple(itertools.chain.from_iterable(
                added for added, _ in calls))
            for calls in searched)
        assert result.num_evaluated == sum(
            len(added) for calls in searched for added, _ in calls)

    def test_winner_is_the_first_lowest_scoring_allocation(
            self, monkeypatch, tiny_scenario, het_mcm, budget):
        result, searched = self._run(monkeypatch, tiny_scenario, het_mcm,
                                     budget)
        for window, calls in zip(result.schedule.windows, searched):
            scores = [candidate.score for _, candidate in calls]
            assert window == calls[scores.index(min(scores))][1].window

    def test_tied_scores_keep_the_lower_allocation_index(
            self, monkeypatch, tiny_scenario, het_mcm, budget):
        result, searched = self._run(monkeypatch, tiny_scenario, het_mcm,
                                     budget, score=1.0)
        firsts = [calls[0][1].window for calls in searched]
        # Some later allocation found a different window, so keeping
        # the last tied one would change the schedule.
        assert any(candidate.window != first
                   for first, calls in zip(firsts, searched)
                   for _, candidate in calls[1:])
        assert result.schedule.windows == tuple(firsts)


class TestWinnerMetrics:
    """The schedule's metrics are assembled from its winners' own
    window metrics: they equal an uncached evaluation of the schedule,
    and each window's is the best its searches scored."""

    @pytest.mark.parametrize("eval_mode", ["scalar", "vector"])
    @pytest.mark.parametrize("options", [
        {},
        {"seg_search": "evolutionary",
         "ga_config": GAConfig(population_size=4, generations=2)},
        {"provisioning": "exhaustive", "prov_limit": 6},
    ], ids=["enumerative", "evolutionary", "exhaustive-prov"])
    def test_metrics_are_the_winners(self, tiny_scenario, het_mcm,
                                     budget, eval_mode, options):
        if eval_mode == "vector":
            pytest.importorskip("numpy")
        scheduler = SCARScheduler(het_mcm, nsplits=1, budget=budget,
                                  eval_mode=eval_mode, **options)
        result = scheduler.schedule(tiny_scenario)
        fresh = ScheduleEvaluator(tiny_scenario, het_mcm,
                                  cache=EvalCache(enabled=False))
        assert result.metrics == fresh.evaluate(result.schedule)
        for window, candidates in zip(result.metrics.windows,
                                      result.window_candidates):
            assert scheduler.objective.score_window(window) \
                == min(candidate.score for candidate in candidates)


class TestHeterogeneityExploitation:
    def test_het_beats_worst_homogeneous(self, tiny_scenario, budget):
        """SCAR on het hardware must beat the worse homogeneous option."""
        from repro.mcm import templates
        results = {}
        for name in ("simba_nvd_3x3", "simba_shi_3x3", "het_sides_3x3"):
            mcm = templates.build(name)
            results[name] = SCARScheduler(mcm, nsplits=1, budget=budget) \
                .schedule(tiny_scenario).metrics.edp
        worst_homog = max(results["simba_nvd_3x3"],
                          results["simba_shi_3x3"])
        assert results["het_sides_3x3"] < worst_homog

    def test_affine_placement_on_het(self, tiny_scenario, het_mcm, budget):
        """The GEMM model's layers should land on NVDLA chiplets."""
        result = SCARScheduler(het_mcm, nsplits=0,
                               budget=budget).schedule(tiny_scenario)
        nvd_nodes = set(het_mcm.nodes_with_dataflow("nvdla"))
        gemm_nodes = {seg.node for w in result.schedule.windows
                      for chain in w.chains for seg in chain
                      if seg.model == 1}
        assert gemm_nodes <= nvd_nodes
