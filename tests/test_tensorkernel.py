"""The vectorized cost kernel (``eval_mode="vector"``).

The contract under test: the numpy tensor kernel is an *accelerator*,
never a different cost model.  Every schedule, metric, candidate
population and perf counter it produces must be bit-identical to the
scalar Sec. III-E reference, across scenarios, templates (mesh and
triangular), seg-search modes and randomly generated tenant mixes; and
``eval_mode`` stays an execution setting of the session and scheduler
(validation, CLI flags, missing-numpy failure) that never reaches the
request or its wire form.
"""

from __future__ import annotations

import pytest

np = pytest.importorskip("numpy")

from repro.api import ScheduleRequest, ScheduleResult, Session
from repro.core import QUICK_BUDGET, SCARScheduler, objective_by_name
from repro.core.evalcache import EvalCache, Pending
from repro.core.metrics import ScheduleEvaluator
from repro.engine import EVAL_MODES, TensorEvaluator, have_numpy
from repro.engine.tensorkernel import require_numpy
from repro.errors import ConfigError
from repro.mcm import templates
from repro.sweep import SweepSpec
from repro.workloads import scenario
from repro.workloads.generator import random_mix


def _results(request: ScheduleRequest):
    """(scalar, vector) results for one request via session defaults.

    Both sessions see the *same* request (the kernel is a session
    setting), so ``ScheduleResult.same_payload`` -- which compares the
    request too -- is exactly the parity contract.
    """
    scalar = Session(eval_mode="scalar").submit(request)
    vector = Session(eval_mode="vector").submit(request)
    return scalar, vector


def _quick_request(workload, **kwargs) -> ScheduleRequest:
    kwargs.setdefault("nsplits", 2)
    kwargs.setdefault("budget", QUICK_BUDGET)
    return ScheduleRequest.for_scenario(workload, **kwargs)


class TestBitIdentity:
    """vector == scalar, bit for bit, through the full public stack."""

    @pytest.mark.parametrize("scenario_id", [1, 2])
    def test_table3_scenarios(self, scenario_id):
        scalar, vector = _results(_quick_request(scenario_id))
        assert vector.same_payload(scalar)

    def test_evolutionary_search(self):
        scalar, vector = _results(
            _quick_request(1, seg_search="evolutionary"))
        assert vector.same_payload(scalar)

    def test_triangular_template(self):
        scalar, vector = _results(_quick_request(1, template="het_t"))
        assert vector.same_payload(scalar)

    @pytest.mark.parametrize("seed", [7, 19, 23])
    def test_random_tenant_mixes(self, seed):
        """Seeded random workloads: batches, models and tenant counts
        vary, so divisor grids and table shapes do too."""
        workload = random_mix(seed, tenants=2 + seed % 2,
                              use_case="datacenter")
        scalar, vector = _results(_quick_request(workload))
        assert vector.same_payload(scalar)

    def test_perf_accounting_parity(self):
        """The chain memo's segment counters ride through PerfReport
        unchanged: the tensor kernel plugs in below the accounting."""
        scalar, vector = _results(_quick_request(1))
        assert vector.perf.num_evaluated == scalar.perf.num_evaluated
        assert vector.perf.num_segments == scalar.perf.num_segments
        assert (vector.perf.num_segments_recosted
                == scalar.perf.num_segments_recosted)
        assert vector.perf.num_segments_recosted > 0

    def test_cache_off_parity(self):
        """With every memo off, each chain recomputes through the
        tensor kernel; results still match the scalar reference."""
        sc = scenario(1)
        mcm = templates.build("het_sides_3x3", sc.use_case)

        def run(eval_mode):
            return SCARScheduler(
                mcm, objective=objective_by_name("edp"), nsplits=2,
                budget=QUICK_BUDGET, cache=EvalCache(enabled=False),
                eval_mode=eval_mode).schedule(sc)

        scalar, vector = run("scalar"), run("vector")
        assert vector.metrics == scalar.metrics
        assert vector.schedule == scalar.schedule
        assert vector.num_evaluated == scalar.num_evaluated
        assert (vector.perf.num_segments_recosted
                == vector.perf.num_segments > 0)


class TestEvaluatorUnit:
    """TensorEvaluator as a drop-in ScheduleEvaluator."""

    def test_is_schedule_evaluator(self):
        sc = scenario(1)
        mcm = templates.build("het_sides_3x3", sc.use_case)
        evaluator = TensorEvaluator(sc, mcm, cache=EvalCache())
        assert isinstance(evaluator, ScheduleEvaluator)

    def test_schedule_evaluate_matches_scalar(self):
        sc = scenario(1)
        mcm = templates.build("het_sides_3x3", sc.use_case)
        result = SCARScheduler(mcm, nsplits=2, budget=QUICK_BUDGET,
                               eval_mode="scalar").schedule(sc)
        vector = TensorEvaluator(sc, mcm, cache=EvalCache())
        scalar = ScheduleEvaluator(sc, mcm, cache=EvalCache())
        assert (vector.evaluate(result.schedule)
                == scalar.evaluate(result.schedule))


@pytest.fixture(scope="module")
def search_windows():
    """(scenario, mcm, windows): one real search's window-0 candidates,
    then three of them again, so the batch holds duplicates."""
    sc = scenario(1)
    mcm = templates.build("het_sides_3x3", sc.use_case)
    result = SCARScheduler(mcm, nsplits=2, budget=QUICK_BUDGET,
                           eval_mode="scalar").schedule(sc)
    windows = [c.window for c in result.window_candidates[0]]
    return sc, mcm, windows + [windows[0], windows[5], windows[-1]]


def _tables(cache: EvalCache) -> dict:
    """Every table's entries, in insertion order."""
    return {name: list(table.items())
            for name, table in cache._tables.items()}


def _unfinished(cache: EvalCache) -> list:
    return [key for table in cache._tables.values()
            for key, value in table.items() if isinstance(value, Pending)]


class TestEvaluateWindowsBatch:
    """The batch contract: evaluate_windows(ws) is evaluate_window on
    each window in turn -- values, cache counters, table order and
    segment statistics -- and leaves no unfinished entry behind."""

    @pytest.mark.parametrize("enabled", [True, False],
                             ids=["default", "cache-off"])
    def test_batch_equals_one_by_one(self, enabled, search_windows):
        sc, mcm, windows = search_windows
        batch = TensorEvaluator(sc, mcm, cache=EvalCache(enabled=enabled))
        single = TensorEvaluator(sc, mcm, cache=EvalCache(enabled=enabled))
        scalar = ScheduleEvaluator(sc, mcm,
                                   cache=EvalCache(enabled=enabled))
        batched = batch.evaluate_windows(windows)
        assert batched == [single.evaluate_window(w) for w in windows]
        assert batched == scalar.evaluate_windows(windows)
        assert batch.cache.snapshot() == single.cache.snapshot()
        assert batch.stats == single.stats
        assert _tables(batch.cache) == _tables(single.cache)
        assert _unfinished(batch.cache) == []
        stats = batch.cache.snapshot()
        if enabled:
            # Chains recur across one search's candidates with equal
            # delta keys: later ones hit an entry the batch deferred.
            assert stats["chain"].hits > 0
            # The three duplicate windows ask for their chains again,
            # and the chain memo serves every one of them.
            unique = TensorEvaluator(sc, mcm, cache=EvalCache())
            unique.evaluate_windows(windows[:-3])
            before = unique.cache.snapshot()["chain"]
            repeats = sum(len(window.chains) for window in windows[-3:])
            assert (stats["chain"].hits, stats["chain"].misses) \
                == (before.hits + repeats, before.misses)
            for first, again in ((0, -3), (5, -2), (-4, -1)):
                assert batched[again] == batched[first]
                assert all(
                    part is served for part, served in zip(
                        batched[again].per_model,
                        batched[first].per_model))

    def test_later_batches_hit_settled_entries(self, search_windows):
        sc, mcm, windows = search_windows
        evaluator = TensorEvaluator(sc, mcm, cache=EvalCache())
        first = evaluator.evaluate_windows(windows[:20])
        again = evaluator.evaluate_windows(windows[10:30])
        assert again[:10] == first[10:]
        assert again == ScheduleEvaluator(
            sc, mcm, cache=EvalCache()).evaluate_windows(windows[10:30])

    def test_empty_batch(self, search_windows):
        sc, mcm, _ = search_windows
        evaluator = TensorEvaluator(sc, mcm, cache=EvalCache())
        assert evaluator.evaluate_windows([]) == []

    @pytest.mark.parametrize("failing, fail_on", [
        ("_window_congestion", 3),  # while walking the windows
        ("_score_chains", 1),       # after the walk, while scoring
    ])
    def test_exception_mid_batch_leaves_no_unfinished_entry(
            self, failing, fail_on, monkeypatch, search_windows):
        sc, mcm, windows = search_windows
        evaluator = TensorEvaluator(sc, mcm, cache=EvalCache())
        evaluator.evaluate_windows(windows[:5])
        real = getattr(evaluator, failing)
        calls = []

        def boom(*args):
            calls.append(args)
            if len(calls) == fail_on:
                raise RuntimeError("injected")
            return real(*args)

        monkeypatch.setattr(evaluator, failing, boom)
        with pytest.raises(RuntimeError, match="injected"):
            evaluator.evaluate_windows(windows[5:40])
        assert _unfinished(evaluator.cache) == []
        monkeypatch.undo()
        assert evaluator.evaluate_windows(windows) == ScheduleEvaluator(
            sc, mcm, cache=EvalCache()).evaluate_windows(windows)


class TestValidationAndPlumbing:
    """eval_mode is validated once and stays out of the request."""

    def test_eval_modes_constant(self):
        assert EVAL_MODES == ("scalar", "vector")
        assert have_numpy()
        require_numpy()  # no-op when numpy is importable

    def test_scheduler_rejects_unknown_mode(self):
        mcm = templates.build("het_sides_3x3", "datacenter")
        with pytest.raises(ConfigError, match="eval_mode"):
            SCARScheduler(mcm, eval_mode="fast")

    def test_session_rejects_unknown_mode(self):
        with pytest.raises(ConfigError, match="eval_mode"):
            Session(eval_mode="tensor")

    def test_make_evaluator_picks_kernel(self):
        sc = scenario(1)
        mcm = templates.build("het_sides_3x3", sc.use_case)
        scalar = SCARScheduler(mcm).make_evaluator(sc)
        vector = SCARScheduler(mcm,
                               eval_mode="vector").make_evaluator(sc)
        assert type(scalar) is ScheduleEvaluator
        assert type(vector) is TensorEvaluator

    def test_wire_round_trip(self):
        """A vector-kernel result round-trips; its echoed request
        carries no kernel."""
        result = Session(eval_mode="vector").submit(_quick_request(1))
        document = result.to_dict()
        assert "eval_mode" not in document["request"]
        assert ScheduleResult.from_dict(document).same_payload(result)

    def test_legacy_document_means_unset(self):
        """A v1 request's eval_mode key means nothing: every value
        parses to the same request and cache key."""
        data = ScheduleRequest(scenario_id=1).to_dict()
        parsed = {ScheduleRequest.from_dict({**data, "eval_mode": mode})
                  .cache_key() for mode in (None, "scalar", "vector")}
        assert parsed == {ScheduleRequest(scenario_id=1).cache_key()}

    def test_sweep_legacy_document_means_scalar_default(self):
        """A v1 sweep spec's eval_modes axis is dropped: it re-searched
        identical problems."""
        spec = SweepSpec(scenarios=(1,))
        data = {**spec.to_dict(), "eval_modes": ["scalar", "vector"]}
        assert SweepSpec.from_dict(data) == spec
        assert spec.size == 1

    def test_determinism_lint_covers_the_kernel(self):
        from repro.analysis.determinism import _in_scope

        assert _in_scope("repro.engine.tensorkernel")


class TestMissingNumpy:
    """Without numpy: vector fails fast and clear, scalar never cares."""

    @pytest.fixture
    def no_numpy(self, monkeypatch):
        import repro.engine.tensorkernel as tk

        monkeypatch.setattr(tk, "_np", None)

    def test_have_and_require(self, no_numpy):
        assert not have_numpy()
        with pytest.raises(ConfigError,
                           match="requires numpy.*eval_mode='scalar'"):
            require_numpy()

    def test_scheduler_fails_at_construction(self, no_numpy):
        mcm = templates.build("het_sides_3x3", "datacenter")
        with pytest.raises(ConfigError, match="numpy"):
            SCARScheduler(mcm, eval_mode="vector")

    def test_session_fails_at_construction(self, no_numpy):
        with pytest.raises(ConfigError, match="numpy"):
            Session(eval_mode="vector")

    def test_v1_vector_request_runs_on_a_scalar_host(self, no_numpy):
        """A v1 document that pinned eval_mode="vector" is served by a
        numpy-less host: the kernel is the session's choice."""
        data = {**_quick_request(1).to_dict(), "eval_mode": "vector"}
        result = Session().submit(ScheduleRequest.from_dict(data))
        assert result.num_evaluated > 0

    def test_scalar_path_still_runs(self, no_numpy):
        result = Session().submit(_quick_request(1))
        assert result.num_evaluated > 0
