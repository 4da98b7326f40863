"""Unit tests for the SCHED engine's per-window search."""

import dataclasses
from collections import Counter

import pytest

from repro.core import (
    QUICK_BUDGET,
    SCARScheduler,
    scar,
    sched_engine,
    sched_tree,
)
from repro.core.metrics import ScheduleEvaluator
from repro.core.packing import WindowAssignment
from repro.core.scoring import edp_objective, latency_objective
from repro.core.sched_engine import (
    build_window_schedule,
    node_affinity_ranks,
    search_window,
)
from repro.core.segmentation import RankedSegmentation
from repro.errors import SearchError
from repro.mcm import templates
from repro.workloads.layer import Layer
from repro.workloads.model import ModelInstance, Scenario
from repro.workloads.scenarios import scenario


@pytest.fixture
def window(tiny_scenario):
    return WindowAssignment(index=0, ranges=((0, 0, 4), (1, 0, 3)))


@pytest.fixture
def evaluator(tiny_scenario, het_mcm, database):
    return ScheduleEvaluator(tiny_scenario, het_mcm, database)


def _ranked(cuts_by_model):
    return {m: [RankedSegmentation(cuts=c, score=float(i))
                for i, c in enumerate(cuts)]
            for m, cuts in cuts_by_model.items()}


class TestBuildWindowSchedule:
    def test_build_places_segments_along_path(self, window):
        ws = build_window_schedule(window, {0: (2,), 1: ()},
                                   {0: (0, 3), 1: (2,)})
        chain0 = ws.chain_for(0)
        assert [s.node for s in chain0] == [0, 3]
        assert [(s.start, s.stop) for s in chain0] == [(0, 2), (2, 4)]
        assert ws.chain_for(1)[0].node == 2

    def test_path_shorter_than_segments_rejected(self, window):
        with pytest.raises(SearchError):
            build_window_schedule(window, {0: (1, 2), 1: ()},
                                  {0: (0, 3), 1: (2,)})

    def test_shared_memo_interns_chains(self, window):
        chains = {}
        a = build_window_schedule(window, {0: (2,), 1: ()},
                                  {0: (0, 3), 1: (2,)}, chains)
        b = build_window_schedule(window, {0: (2,), 1: ()},
                                  {0: (0, 3), 1: (5,)}, chains)
        assert a.chain_for(0) is b.chain_for(0)
        assert a.chain_for(1) != b.chain_for(1)
        assert len(chains) == 3

    def test_short_path_raises_again_on_a_shared_memo(self, window):
        """A rejected chain is not kept, so its key raises every time."""
        chains = {}
        for _ in range(2):
            with pytest.raises(SearchError, match="only 2 chiplets"):
                build_window_schedule(window, {0: (1, 2), 1: ()},
                                      {0: (0, 3), 1: (2,)}, chains)
        assert (0, (1, 2), (0, 3)) not in chains


class TestNodeAffinity:
    def test_gemm_model_ranks_nvdla_first(self, window, evaluator):
        ranks = node_affinity_ranks(window, evaluator, edp_objective())
        gemm_rank = ranks[1]  # model 1 is the GEMM model
        nvd_nodes = evaluator.mcm.nodes_with_dataflow("nvdla")
        shi_nodes = evaluator.mcm.nodes_with_dataflow("shidiannao")
        assert max(gemm_rank[n] for n in nvd_nodes) \
            < min(gemm_rank[n] for n in shi_nodes)

    def test_same_class_nodes_share_rank(self, window, evaluator):
        ranks = node_affinity_ranks(window, evaluator, edp_objective())
        assert ranks[0][0] == ranks[0][3] == ranks[0][6]


class TestSearchWindow:
    def test_finds_valid_candidate(self, window, evaluator, small_budget):
        ranked = _ranked({0: [(), (2,)], 1: [()]})
        best = search_window(window, ranked, evaluator, edp_objective(),
                             small_budget)
        assert best.score > 0
        assert best.window.total_layers == 7
        best.window.chain_for(0)
        best.window.chain_for(1)

    def test_collect_receives_population(self, window, evaluator,
                                         small_budget):
        collected = []
        search_window(window, _ranked({0: [()], 1: [()]}), evaluator,
                      edp_objective(), small_budget, collect=collected)
        assert len(collected) >= 1
        assert all(c.score >= 0 for c in collected)

    def test_best_is_minimum_of_population(self, window, evaluator,
                                           small_budget):
        collected = []
        best = search_window(window, _ranked({0: [(), (1,)], 1: [()]}),
                             evaluator, edp_objective(), small_budget,
                             collect=collected)
        assert best.score == pytest.approx(min(c.score for c in collected))

    def test_objective_changes_choice_metric(self, window, evaluator,
                                             small_budget):
        lat = search_window(window, _ranked({0: [(), (2,)], 1: [()]}),
                            evaluator, latency_objective(), small_budget)
        assert lat.score == pytest.approx(lat.metrics.latency_s)

    def test_infeasible_window_raises(self, tiny_scenario, het_2x2,
                                      database, small_budget):
        evaluator = ScheduleEvaluator(tiny_scenario, het_2x2, database)
        window = WindowAssignment(index=0, ranges=((0, 0, 4), (1, 0, 3)))
        # 3 + 2 segments > 4 chiplets: no placement exists.
        ranked = _ranked({0: [(1, 2)], 1: [(1,)]})
        with pytest.raises(SearchError):
            search_window(window, ranked, evaluator, edp_objective(),
                          small_budget)

    def test_deterministic(self, window, evaluator, small_budget):
        ranked = _ranked({0: [(), (2,)], 1: [(), (1,)]})
        a = search_window(window, ranked, evaluator, edp_objective(),
                          small_budget)
        b = search_window(window, ranked, evaluator, edp_objective(),
                          small_budget)
        assert a.score == b.score
        assert a.window == b.window


class TestShortPathMidSearch:
    """A path too short for its cuts ends the search where the
    candidate-by-candidate loop ended it: the candidates built before
    it are evaluated, collected and cached, then SearchError."""

    @pytest.mark.parametrize("kind", ["scalar", "vector"])
    def test_first_candidates_are_collected_then_raises(
            self, kind, window, tiny_scenario, het_mcm, database,
            small_budget, monkeypatch):
        from repro.core.evalcache import EvalCache

        if kind == "vector":
            pytest.importorskip("numpy")
            from repro.engine import TensorEvaluator as evaluator_class
        else:
            evaluator_class = ScheduleEvaluator
        good = [{0: (0, 3), 1: (2,)}, {0: (1, 4), 1: (6,)},
                {0: (0, 3), 1: (2,)}, {0: (3, 6), 1: (0,)}]
        short = {0: (5,), 1: (8,)}  # model 0 has 2 segments

        def fake_placements(*args, **kwargs):
            yield from good
            yield short
            yield {0: (4, 7), 1: (1,)}  # never reached

        monkeypatch.setattr(sched_engine, "placements", fake_placements)
        evaluator = evaluator_class(tiny_scenario, het_mcm, database,
                                    cache=EvalCache())
        collected = []
        with pytest.raises(SearchError, match="only 1 chiplets"):
            search_window(window, _ranked({0: [(2,)], 1: [()]}), evaluator,
                          edp_objective(), small_budget, collect=collected)
        windows = [build_window_schedule(window, {0: (2,), 1: ()}, p)
                   for p in good]
        assert [c.window for c in collected] == windows
        reference = ScheduleEvaluator(tiny_scenario, het_mcm, database,
                                      cache=EvalCache())
        assert [c.metrics for c in collected] \
            == [reference.evaluate_window(w) for w in windows]
        # The third candidate repeats the first: its two chains hit the
        # chain memo.
        stats = evaluator.cache.snapshot()["chain"]
        assert (stats.hits, stats.misses) == (2, 6)
        assert evaluator.cache.size("chain") == 6
        assert evaluator.stats == reference.stats


class TestSearchMemos:
    """What a search builds, by count: each batched layer once per
    model, and per window search each chain and each scheduling-tree
    DFS once."""

    def test_fast_vector_search_builds_each_value_once(self, monkeypatch):
        pytest.importorskip("numpy")
        table3 = scenario(4)
        # Fresh models: the zoo's cached ones may already hold batched
        # layers from earlier tests.
        workload = Scenario(table3.name, tuple(
            ModelInstance(dataclasses.replace(inst.model), inst.batch)
            for inst in table3), table3.use_case)
        batched = Counter()
        with_batch = Layer.with_batch

        def counting_with_batch(layer, batch):
            batched[(layer, batch)] += 1
            return with_batch(layer, batch)

        searches = []

        def spy_search(*args, **kwargs):
            searches.append({"wanted": set(), "asked": 0, "built": 0,
                             "dfs": Counter()})
            return search_window(*args, **kwargs)

        def spy_build(window, cuts_by_model, placement, chains=None):
            searches[-1]["wanted"].update(
                (model, cuts_by_model[model], placement[model])
                for model in window.models)
            searches[-1]["asked"] += len(window.models)
            return build_window_schedule(window, cuts_by_model, placement,
                                         chains)

        segments_from_cuts = sched_engine.segments_from_cuts

        def spy_segments(start, stop, cuts):
            searches[-1]["built"] += 1
            return segments_from_cuts(start, stop, cuts)

        simple_paths = sched_tree.simple_paths

        def spy_paths(mcm, start, length, blocked, limit, node_rank=None):
            # Each model's affinity rank is its own dict, so its id
            # stands in for the model.
            searches[-1]["dfs"][(id(node_rank), start, length,
                                 blocked)] += 1
            return simple_paths(mcm, start, length, blocked, limit,
                                node_rank)

        monkeypatch.setattr(Layer, "with_batch", counting_with_batch)
        monkeypatch.setattr(scar, "search_window", spy_search)
        monkeypatch.setattr(sched_engine, "build_window_schedule",
                            spy_build)
        monkeypatch.setattr(sched_engine, "segments_from_cuts",
                            spy_segments)
        monkeypatch.setattr(sched_tree, "simple_paths", spy_paths)
        mcm = templates.build("het_sides_3x3", workload.use_case)
        result = SCARScheduler(mcm, nsplits=2, budget=QUICK_BUDGET,
                               eval_mode="vector").schedule(workload)

        assert result.num_evaluated > len(searches) > 0
        assert batched and max(batched.values()) == 1
        for search in searches:
            assert 0 < search["built"] <= len(search["wanted"])
            assert max(search["dfs"].values()) == 1
        # The chain memo had repeats to absorb.
        assert sum(s["built"] for s in searches) \
            < sum(s["asked"] for s in searches)
