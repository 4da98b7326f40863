"""Unit tests for the segment-cost cache and perf instrumentation."""

from __future__ import annotations

import pytest

from repro.core.evalcache import EvalCache, segment_place_key
from repro.core.metrics import ScheduleEvaluator
from repro.core.schedule import Segment
from repro.perf import (
    CacheStats,
    PerfReport,
    aggregate_reports,
    merge_stats,
)


class TestEvalCache:
    def test_miss_then_hit(self):
        cache = EvalCache()
        calls = []
        assert cache.lookup("t", "k", lambda: calls.append(1) or 42) == 42
        assert cache.lookup("t", "k", lambda: calls.append(1) or 42) == 42
        assert len(calls) == 1
        assert cache.stats["t"].hits == 1
        assert cache.stats["t"].misses == 1
        assert cache.stats["t"].hit_rate == 0.5
        assert cache.size("t") == 1

    def test_disabled_recomputes_every_time(self):
        cache = EvalCache(enabled=False)
        calls = []
        for _ in range(3):
            cache.lookup("t", "k", lambda: calls.append(1) or 42)
        assert len(calls) == 3
        assert cache.stats["t"].hits == 0
        assert cache.stats["t"].misses == 3
        assert cache.size("t") == 0

    def test_record_external_memo(self):
        cache = EvalCache()
        cache.record("fitness", hit=True)
        cache.record("fitness", hit=False)
        assert cache.stats["fitness"].lookups == 2

    def test_snapshot_is_a_copy(self):
        cache = EvalCache()
        cache.lookup("t", "k", lambda: 1)
        snap = cache.snapshot()
        cache.lookup("t", "k", lambda: 1)
        assert snap["t"].lookups == 1
        assert cache.stats["t"].lookups == 2


class TestStats:
    def test_merge_stats_sums_tables(self):
        merged = merge_stats({"a": CacheStats(1, 2)},
                             {"a": CacheStats(3, 4),
                              "b": CacheStats(5, 6)})
        assert merged["a"].hits == 4 and merged["a"].misses == 6
        assert merged["b"].hits == 5 and merged["b"].misses == 6

    def test_empty_hit_rate_is_zero(self):
        assert CacheStats().hit_rate == 0.0
        assert PerfReport().overall_hit_rate == 0.0
        assert PerfReport().evals_per_s == 0.0

    def test_report_render_and_dict(self):
        report = PerfReport(wall_s=2.0, num_evaluated=100, num_windows=2,
                            cache={"compute": CacheStats(75, 25)})
        assert report.evals_per_s == pytest.approx(50.0)
        assert "compute" in report.render()
        payload = report.to_dict()
        assert payload["cache"]["compute"]["hit_rate"] \
            == pytest.approx(0.75)

    def test_segment_counters_render_aggregate_and_serialize(self):
        report = PerfReport(num_segments=100, num_segments_recosted=60)
        assert report.segment_reuse_rate == pytest.approx(0.4)
        assert "re-costed" in report.render()
        assert report.to_dict()["num_segments_recosted"] == 60
        total = aggregate_reports([report, report])
        assert total.num_segments == 200
        assert total.num_segments_recosted == 120
        assert PerfReport().segment_reuse_rate == 0.0
        # Reports without segment counters render without the line.
        assert "re-costed" not in PerfReport().render()


class TestKeys:
    def test_same_class_nodes_share_compute_entries(self, tiny_scenario,
                                                    nvd_mcm):
        """On a homogeneous MCM, equidistant-from-IO nodes share entries."""
        evaluator = ScheduleEvaluator(tiny_scenario, nvd_mcm)
        # Nodes 0 and 6 are both corner nodes (io_hops == 0, same class).
        assert nvd_mcm.io_hops(0) == nvd_mcm.io_hops(6)
        first = evaluator._segment_compute(Segment(0, 0, 2, node=0), 1)
        again = evaluator._segment_compute(Segment(0, 0, 2, node=6), 1)
        assert first == again
        stats = evaluator.cache.stats["compute"]
        assert stats.hits == 1 and stats.misses == 1

    def test_place_key_separates_batches_and_ranges(self, tiny_scenario,
                                                    nvd_mcm):
        evaluator = ScheduleEvaluator(tiny_scenario, nvd_mcm)
        evaluator._segment_compute(Segment(0, 0, 2, node=0), 1)
        evaluator._segment_compute(Segment(0, 0, 2, node=0), 2)
        evaluator._segment_compute(Segment(0, 0, 3, node=0), 1)
        assert evaluator.cache.stats["compute"].misses == 3

    def test_segment_place_key_node_independent(self, nvd_mcm):
        chiplet = nvd_mcm.chiplet(0)
        a = segment_place_key(Segment(0, 0, 2, node=0), chiplet, 0)
        b = segment_place_key(Segment(0, 0, 2, node=6), chiplet, 0)
        assert a == b
