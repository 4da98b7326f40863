"""The benchmark's own checks.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q

The repository's pytest run (``testpaths = tests benchmarks``) does not
collect these; they need ``src`` on the path only for the last class.
"""

from __future__ import annotations

import dataclasses
import json
import os

import pytest

import ops
import run
import worker

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
SEEDS = range(200)


class TestPercentile:
    def test_nearest_rank(self):
        samples = list(range(1, 101))
        assert ops.percentile(samples, 50) == 50
        assert ops.percentile(samples, 90) == 90
        assert ops.percentile(reversed(samples), 90) == 90

    def test_refuses_fewer_than_ten_beyond(self):
        assert ops.percentile(range(99), 90) is None   # 9 beyond rank 90
        assert ops.percentile(range(100), 90) == 89    # 10 beyond
        assert ops.percentile(range(999), 99) is None
        assert ops.percentile(range(1000), 99) == 989
        assert ops.percentile([], 50) is None
        assert ops.percentile(range(19), 50) is None   # 9 beyond rank 10
        assert ops.percentile(range(20), 50) == 9


def _dump(value) -> bytes:
    return json.dumps(value, sort_keys=True).encode("utf-8")


class TestSeededInputs:
    @pytest.mark.parametrize("generate", [ops.search_ops, ops.serve_ops,
                                          ops.replay_trace])
    def test_same_seed_same_bytes_other_seed_differs(self, generate):
        assert _dump(generate(3)) == _dump(generate(3))
        assert _dump(generate(3)) != _dump(generate(4))

    def test_search_ops_are_distinct_and_balanced(self):
        for seed in SEEDS:
            op_list = ops.search_ops(seed)
            keys = [ops.search_key(op) for op in op_list]
            assert len(keys) == len(set(keys)) == 3 * ops.SEARCH_PAIRS
            pairs = {(op["scenario_id"], op["template"]) for op in op_list}
            per_scenario = [sum(1 for s, _ in pairs if s == scenario)
                            for scenario in ops.SCENARIOS]
            assert sorted(set(per_scenario)) == [3, 4]

    def test_serve_ops_are_a_fixed_zipf_multiset(self):
        counts = ops.serve_counts()
        assert sum(counts) == ops.SERVE_OPS
        assert sorted(counts, reverse=True)[0] > 5 * min(counts)
        for seed in range(5):
            assert sorted(ops.serve_ops(seed)) == sorted(ops.serve_ops(0))

    def test_trace_visits_every_active_set(self):
        every = {ops.set_key(s) for s in ops.ACTIVE_SETS}
        assert len(every) == 41
        for seed in SEEDS:
            events = ops.replay_trace(seed)["events"]
            assert len(events) == ops.REPLAY_EVENTS
            assert [e["tick"] for e in events] == list(range(len(events)))
            active: set[str] = set()
            visited = set()
            for event in events:
                if event["kind"] == "arrive":
                    active.add(event["tenant"])
                else:
                    active.remove(event["tenant"])
                assert 1 <= len(active) <= ops.MAX_ACTIVE
                visited.add(ops.set_key(active))
            assert visited == every


class TestExpectedFile:
    def test_covers_every_op_any_seed_generates(self):
        expected = worker.load_expected()
        assert expected["kernel"] == "scalar"
        grid = {ops.search_key(spec) for spec in ops.SEARCH_GRID}
        assert len(grid) == 180
        assert grid == set(expected["search"])
        assert {ops.search_key(spec) for spec in ops.SERVE_POOL} <= grid
        for seed in SEEDS:
            assert {ops.search_key(op) for op in ops.search_ops(seed)} \
                <= grid
        assert set(expected["replay"]) == \
            {ops.set_key(s) for s in ops.ACTIVE_SETS}


class TestBenchmarkJson:
    def test_metric_lists_match_the_command(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"),
                  encoding="utf-8") as source:
            spec = json.load(source)
        assert [w["name"] for w in spec["workloads"]] == \
            list(run.WORKLOADS)
        assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
            run.END_TO_END
        assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
            run.PER_LAYER


class TestOutputCheck:
    """Needs the program (``PYTHONPATH=src``); one cheap scalar replay."""

    @pytest.fixture(scope="class")
    def replayed(self):
        pytest.importorskip("repro")
        trace = {"name": ops.TRACE_NAME, "use_case": "arvr",
                 "events": [{"tick": 0, "kind": "arrive",
                             "tenant": "hand_sp#a", "model": "hand_sp",
                             "batch": 1, "deadline_s": 0.01}]}
        out = worker.run_replay({"trace": trace}, None,
                                worker.load_expected())
        from repro.sim import TenantEvent, Trace, replay
        result = replay(Trace(name=trace["name"], use_case="arvr",
                              events=(TenantEvent(**trace["events"][0]),)))
        return out, result[0].result

    def test_unchanged_program_matches(self, replayed):
        out, result = replayed
        assert out["failures"] == []
        digest = worker.load_expected()["replay"]["hand_sp#a"]
        assert worker.matches(result, digest)

    def test_corrupted_result_counts_as_failed(self, replayed):
        _, result = replayed
        digest = worker.load_expected()["replay"]["hand_sp#a"]
        assert not worker.matches(
            dataclasses.replace(result,
                                num_evaluated=result.num_evaluated + 1),
            digest)
        metrics = dataclasses.replace(
            result.metrics, latency_s=result.metrics.latency_s * 1.5)
        assert not worker.matches(
            dataclasses.replace(result, metrics=metrics), digest)

    def test_mismatch_is_a_failed_op(self, replayed):
        trace = {"name": ops.TRACE_NAME, "use_case": "arvr",
                 "events": [{"tick": 0, "kind": "arrive",
                             "tenant": "hand_sp#a", "model": "hand_sp",
                             "batch": 1, "deadline_s": 0.01}]}
        wrong = {"replay": {"hand_sp#a": "0" * 64}}
        out = worker.run_replay({"trace": trace}, None, wrong)
        assert out["attempted"] == 1
        assert len(out["failures"]) == 1
