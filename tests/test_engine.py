"""Unit tests for the unified search-engine layer (:mod:`repro.engine`).

Covers the engine pieces the schedulers share: the evaluator's chain
memo (delta evaluation), the window search's beam knob and the
provisioning/candidate plumbing -- plus the LRU bound on
:class:`EvalCache` and the request/session threading of the knobs.
"""

from __future__ import annotations

import random

import pytest

from repro.api import CandidateColumns, ScheduleRequest, Session
from repro.core import QUICK_BUDGET, SCARScheduler, evalcache
from repro.core.evalcache import EvalCache
from repro.core.metrics import ScheduleEvaluator, chain_delta_key
from repro.core.packing import WindowAssignment
from repro.core.provisioner import uniform_allocation
from repro.core.schedule import Segment, WindowSchedule
from repro.core.scoring import edp_objective
from repro.core.sched_engine import search_window
from repro.core.segmentation import RankedSegmentation
from repro.engine import (
    assemble_candidate_points,
    window_allocations,
    window_shares,
)
from repro.engine.candidates import window_columns
from repro.errors import ConfigError, SearchError
from repro.mcm import templates
from repro.workloads import scenario


@pytest.fixture
def window():
    return WindowAssignment(index=0, ranges=((0, 0, 4), (1, 0, 3)))


def _ranked(cuts_by_model):
    return {m: [RankedSegmentation(cuts=c, score=float(i))
                for i, c in enumerate(cuts)]
            for m, cuts in cuts_by_model.items()}


def _window_schedule(cuts0, nodes0, node1):
    """Two-chain window: model 0 split at ``cuts0``, model 1 unsplit."""
    bounds = [0, *cuts0, 4]
    chain0 = tuple(
        Segment(model=0, start=bounds[i], stop=bounds[i + 1],
                node=nodes0[i])
        for i in range(len(bounds) - 1))
    return WindowSchedule(index=0, chains=(
        chain0, (Segment(model=1, start=0, stop=3, node=node1),)))


class TestChainMemo:
    def test_matches_uncached_evaluator_bit_for_bit(self, tiny_scenario,
                                                    het_mcm, database):
        uncached = ScheduleEvaluator(tiny_scenario, het_mcm, database,
                                     cache=EvalCache(enabled=False))
        memoized = ScheduleEvaluator(tiny_scenario, het_mcm, database)
        for cuts, nodes in (((), (0,)),
                            ((2,), (0, 3)), ((1,), (3, 6)),
                            ((1, 2), (0, 3, 6))):
            ws = _window_schedule(cuts, nodes, 2)
            assert memoized.evaluate_window(ws) \
                == uncached.evaluate_window(ws)
        # Model 1's chain never moved: the memo served it.
        assert memoized.cache.stats["chain"].hits > 0

    def test_unchanged_chain_is_not_recosted(self, tiny_scenario,
                                             het_mcm, database):
        """Moving model 0's cut must not re-cost model 1's chain."""
        evaluator = ScheduleEvaluator(tiny_scenario, het_mcm, database)
        evaluator.evaluate_window(_window_schedule((2,), (0, 3), 2))
        first = evaluator.stats.num_segments_recosted
        assert first == evaluator.stats.num_segments == 3
        # Same placement, different cut for model 0: chain 0 re-costs,
        # chain 1 (identical structure, no congestion change on its
        # links) is served from the chain memo.
        evaluator.evaluate_window(_window_schedule((1,), (0, 3), 2))
        assert evaluator.stats.num_segments == 6
        assert evaluator.stats.num_segments_recosted == first + 2
        assert evaluator.cache.stats["chain"].hits == 1

    def test_window_memo_hits_do_not_count_segments(self, tiny_scenario,
                                                    het_mcm, database):
        evaluator = ScheduleEvaluator(tiny_scenario, het_mcm, database)
        ws = _window_schedule((2,), (0, 3), 2)
        evaluator.evaluate_window(ws)
        seen = evaluator.stats.num_segments
        evaluator.evaluate_window(ws)  # whole-window memo hit
        assert evaluator.stats.num_segments == seen

    def test_disabled_cache_recosts_everything(self, tiny_scenario,
                                               het_mcm, database):
        evaluator = ScheduleEvaluator(tiny_scenario, het_mcm, database,
                                      cache=EvalCache(enabled=False))
        evaluator.evaluate_window(_window_schedule((2,), (0, 3), 2))
        evaluator.evaluate_window(_window_schedule((1,), (0, 3), 2))
        assert evaluator.stats.num_segments_recosted \
            == evaluator.stats.num_segments == 6
        assert evaluator.cache.stats["chain"].hits == 0


class TestChainDeltaKey:
    def test_distinguishes_placement_and_cuts(self):
        congestion: dict[tuple, float] = {}
        a = chain_delta_key((Segment(0, 0, 2, node=0),), congestion)
        b = chain_delta_key((Segment(0, 0, 2, node=1),), congestion)
        c = chain_delta_key((Segment(0, 0, 3, node=0),), congestion)
        assert len({a, b, c}) == 3
        assert a == chain_delta_key((Segment(0, 0, 2, node=0),), {})

    def test_reads_only_own_congestion(self):
        chain = (Segment(0, 0, 2, node=0), Segment(0, 2, 4, node=1))
        base = chain_delta_key(chain, {})
        # A factor on an unrelated link must not change the key ...
        assert base == chain_delta_key(chain, {(2, 5): 3.0})
        # ... while factors on the chain's own links must.
        assert base != chain_delta_key(chain, {(0, 1): 2.0})
        assert base != chain_delta_key(chain, {(None, 0): 2.0})
        assert base != chain_delta_key(chain, {(1, None): 2.0})


class TestWindowSearch:
    def test_default_is_exhaustive_and_bit_identical(
            self, window, tiny_scenario, het_mcm, database, small_budget):
        """A beam as wide as the 4 segmentation combos prunes nothing:
        bit-identical to the default exhaustive search."""
        evaluator = ScheduleEvaluator(tiny_scenario, het_mcm, database)
        ranked = _ranked({0: [(), (2,)], 1: [(), (1,)]})
        collected_a: list = []
        collected_b: list = []
        a = search_window(window, ranked, evaluator, edp_objective(),
                          small_budget, collect=collected_a, beam=4)
        b = search_window(window, ranked, evaluator, edp_objective(),
                          small_budget, collect=collected_b)
        assert a == b
        assert collected_a == collected_b

    def test_beam_prunes_segmentation_combos(
            self, window, tiny_scenario, het_mcm, database, small_budget):
        evaluator = ScheduleEvaluator(tiny_scenario, het_mcm, database)
        ranked = _ranked({0: [(), (2,)], 1: [(), (1,)]})
        collected: list = []
        best = search_window(window, ranked, evaluator, edp_objective(),
                             small_budget, collect=collected, beam=1)
        assert best.score == min(c.score for c in collected)
        # Only the best proxy-scored combo survives: every evaluated
        # candidate uses the rank-0 cuts of both models (no cuts).
        for candidate in collected:
            assert all(len(chain) == 1
                       for chain in candidate.window.chains)

    def test_beam_validation(self):
        with pytest.raises(SearchError):
            search_window(None, {}, None, None, None, beam=0)
        with pytest.raises(SearchError):
            search_window(None, {}, None, None, None, beam=-1)


class TestProvisioningPlumbing:
    def test_uniform_mode_matches_core_rule(self, window):
        shares = {0: 2.0, 1: 1.0}
        allocations = window_allocations(window, shares, mode="uniform",
                                         num_chiplets=9)
        assert allocations == [uniform_allocation(window, shares, 9)]

    def test_exhaustive_mode_enumerates_with_limit(self, window):
        allocations = window_allocations(window, {}, mode="exhaustive",
                                         num_chiplets=4, limit=3)
        assert len(allocations) == 3
        assert all(sum(a.values()) <= 4 for a in allocations)

    def test_unknown_mode_rejected(self, window):
        with pytest.raises(SearchError, match="provisioning"):
            window_allocations(window, {}, mode="magic", num_chiplets=9)

    def test_shares_strip_latency_bound(self, window, tiny_scenario):
        from dataclasses import replace

        expected = [[1.0] * 4, [1.0] * 3]
        bounded = replace(edp_objective(), latency_bound_s=1e-9)
        shares = window_shares(bounded, window, expected, expected)
        # Without the strip, every share would be inf.
        assert all(s != float("inf") for s in shares.values())


class _Metrics:
    def __init__(self, lat, en):
        self.latency_s, self.energy_j = lat, en


class _Full:
    """Stand-in for a WindowCandidate: metrics nested under .metrics."""

    def __init__(self, score, lat, en):
        self.score, self.metrics = score, _Metrics(lat, en)


def _per_point_reference(population):
    """Pareto points as built per candidate object: a stable sort of
    each window by score, then sums over windows, rank by rank."""
    ranked = [sorted(window, key=lambda c: c.score)
              for window in population]
    depth = min(len(window) for window in ranked)
    return [(sum(window[rank].metrics.latency_s for window in ranked),
             sum(window[rank].metrics.energy_j for window in ranked))
            for rank in range(depth)]


class TestCandidatePoints:
    def test_fallback_when_no_population(self):
        assert assemble_candidate_points((), fallback=(1.0, 2.0)) \
            == [(1.0, 2.0)]

    def test_wire_and_core_flavours_agree(self):
        """Full WindowCandidates (SCARResult) and wire-side columns
        (ScheduleResult) reach the helper as the same columns."""
        full = [[_Full(2.0, 4.0, 5.0), _Full(1.0, 2.0, 3.0)]]
        flat = [CandidateColumns([2.0, 1.0], [4.0, 2.0], [5.0, 3.0])]
        assert assemble_candidate_points(
            [window_columns(window) for window in full],
            fallback=(0.0, 0.0)) \
            == assemble_candidate_points(
                [window.columns for window in flat], fallback=(0.0, 0.0)) \
            == [(2.0, 3.0), (4.0, 5.0)]

    @pytest.mark.parametrize("seed", range(20))
    def test_columns_match_the_per_point_reference(self, seed):
        """Seeded populations with tied scores and uneven window sizes:
        ranking and summing on columns gives the same floats, bit for
        bit, as sorting full candidates by score and summing per rank."""
        rng = random.Random(seed)
        population = [
            [_Full(float(rng.randint(0, 3)), rng.uniform(1e-4, 1.0),
                   rng.uniform(1e-3, 10.0))
             for _ in range(rng.randint(1, 40))]
            for _ in range(rng.randint(1, 6))]
        assert assemble_candidate_points(
            [window_columns(window) for window in population],
            fallback=(0.0, 0.0)) == _per_point_reference(population)


#: What the memos serve on one quick run: ``SCARScheduler(nsplits=2,
#: budget=QUICK_BUDGET)`` on scenario 4 and ``het_sides_3x3``.  Per
#: ``seg_search`` mode: (num_evaluated, num_segments,
#: num_segments_recosted), the (hits, misses) of the tables both kernels
#: share, then the tables only one kernel reads.  The vector kernel
#: scores compute rows from its own tables, so it has no ``compute``
#: table.  A change that moves any of them changes what the search
#: asks for or what a memo serves, and has to update them on purpose.
_PINNED_COUNTS = {
    "enumerative": {
        "counts": (270, 2286, 1088),
        "both": {"chain": (431, 223), "window": (3, 270),
                 "affinity": (0, 3)},
        "scalar": {"compute": (39882, 578), "static": (1006, 82)},
        "vector": {"static": (169, 82)},
    },
    "evolutionary": {
        "counts": (284, 2000, 1198),
        "both": {"chain": (341, 271), "window": (3, 284),
                 "affinity": (68, 3), "fitness": (79, 71)},
        "scalar": {"compute": (42214, 1866), "static": (927, 271)},
        "vector": {"static": (168, 271)},
    },
}


class TestMemoCounts:
    @pytest.mark.parametrize("kernel", ["scalar", "vector"])
    @pytest.mark.parametrize("seg_search", sorted(_PINNED_COUNTS))
    def test_counters_are_pinned(self, seg_search, kernel):
        if kernel == "vector":
            pytest.importorskip("numpy")
        sc = scenario(4)
        mcm = templates.build("het_sides_3x3", sc.use_case)
        perf = SCARScheduler(mcm, nsplits=2, budget=QUICK_BUDGET,
                             seg_search=seg_search,
                             eval_mode=kernel).schedule(sc).perf
        pinned = _PINNED_COUNTS[seg_search]
        assert (perf.num_evaluated, perf.num_segments,
                perf.num_segments_recosted) == pinned["counts"]
        assert {table: (stats.hits, stats.misses)
                for table, stats in perf.cache.items()} \
            == {**pinned["both"], **pinned[kernel]}
        assert not any(stats.evictions for stats in perf.cache.values())


class TestEvalCacheLRU:
    """The per-table cap, shrunk for the test (``MAX_ENTRIES`` is a
    module constant)."""

    def test_eviction_at_cap(self, monkeypatch):
        monkeypatch.setattr(evalcache, "MAX_ENTRIES", 2)
        cache = EvalCache()
        for key in ("a", "b", "c"):
            cache.lookup("t", key, lambda: key)
        assert cache.size("t") == 2
        assert cache.stats["t"].evictions == 1
        # "a" was evicted: looking it up again recomputes (a miss) ...
        calls = []
        cache.lookup("t", "a", lambda: calls.append(1))
        assert calls
        # ... which in turn evicts "b" (LRU order).
        assert cache.stats["t"].evictions == 2
        cache.lookup("t", "c", lambda: pytest.fail("c was evicted"))

    def test_lru_touch_on_hit(self, monkeypatch):
        monkeypatch.setattr(evalcache, "MAX_ENTRIES", 2)
        cache = EvalCache()
        cache.lookup("t", "a", lambda: 1)
        cache.lookup("t", "b", lambda: 2)
        cache.lookup("t", "a", lambda: 1)  # touch: "b" is now oldest
        cache.lookup("t", "c", lambda: 3)
        cache.lookup("t", "a", lambda: pytest.fail("a was evicted"))
        assert cache.stats["t"].evictions == 1

    def test_snapshot_carries_evictions(self, monkeypatch):
        monkeypatch.setattr(evalcache, "MAX_ENTRIES", 1)
        cache = EvalCache()
        cache.lookup("t", "a", lambda: 1)
        cache.lookup("t", "b", lambda: 2)
        snap = cache.snapshot()
        assert snap["t"].evictions == 1
        snap["t"].evictions = 99
        assert cache.stats["t"].evictions == 1  # it is a copy


class TestRequestThreading:
    def test_backend_and_beam_round_trip(self):
        """beam round-trips; a legacy backend key is dropped."""
        request = ScheduleRequest(scenario_id=4, beam=3)
        rebuilt = ScheduleRequest.from_dict(
            {**request.to_dict(), "backend": "process"})
        assert rebuilt == request and rebuilt.beam == 3
        assert "backend" not in rebuilt.to_dict()

    def test_legacy_documents_without_engine_fields_parse(self):
        data = ScheduleRequest(scenario_id=4).to_dict()
        del data["beam"]
        assert ScheduleRequest.from_dict(data).beam is None

    def test_validation(self):
        with pytest.raises(ConfigError, match="beam"):
            ScheduleRequest(scenario_id=4, beam=0)
        with pytest.raises(ConfigError, match="eval_mode"):
            Session(eval_mode="quantum")

    def test_cache_key_separates_beam(self):
        base = ScheduleRequest(scenario_id=4)
        assert base.cache_key() \
            != base.replace(beam=2).cache_key()
