"""Session facade, scheduler registry and legacy-parity tests.

The parity class re-implements the pre-``repro.api`` experiment
dispatch (direct scheduler construction) and checks that
``Session.submit`` reproduces it bit-for-bit for every core strategy --
the acceptance gate of the API redesign.
"""

from __future__ import annotations

import dataclasses
import gc
import weakref

import pytest

import repro.dataflow.database as database_module
from repro.api import (
    PolicyOutcome,
    ScheduleRequest,
    ScheduleResult,
    SchedulerRegistry,
    Session,
)
from repro.api.policies import scar_policy
from repro.core.baselines import NNBatonScheduler, StandaloneScheduler
from repro.core.budget import QUICK_BUDGET
from repro.core.evalcache import EvalCache
from repro.core.metrics import ScheduleEvaluator
from repro.core.scar import SCARScheduler
from repro.core.scoring import objective_by_name
from repro.dataflow.database import LayerCostDatabase
from repro.engine import TensorEvaluator, have_numpy
from repro.errors import ConfigError
from repro.experiments.runner import (
    CORE_STRATEGIES,
    STRATEGIES,
    ExperimentConfig,
    strategy_request,
)
from repro.mcm import templates
from repro.perf import aggregate_reports
from repro.workloads.scenarios import scenario


def _legacy_run(sc, strategy, objective, config, databases):
    """The pre-redesign experiment dispatch, verbatim."""
    template, policy = STRATEGIES[strategy]
    mcm = templates.build(template, sc.use_case)
    if mcm.clock_hz not in databases:
        databases[mcm.clock_hz] = LayerCostDatabase(clock_hz=mcm.clock_hz)
    database = databases[mcm.clock_hz]
    if policy == "standalone":
        outcome = StandaloneScheduler(mcm, database).schedule(sc)
        return outcome.metrics, outcome.schedule
    if policy == "nn_baton":
        outcome = NNBatonScheduler(mcm, database=database).schedule(sc)
        return outcome.metrics, outcome.schedule
    seg_search = "evolutionary" if template.endswith("6x6") \
        else "enumerative"
    scheduler = SCARScheduler(
        mcm, objective=objective_by_name(objective),
        nsplits=config.nsplits, budget=config.budget, database=database,
        seg_search=seg_search)
    result = scheduler.schedule(sc)
    return result.metrics, result.schedule


class TestLegacyParity:
    """Session.submit == the pre-redesign scheduler path, bit for bit."""

    def test_core_strategies_bit_identical(self, tiny_scenario):
        config = ExperimentConfig.fast()
        session = Session()
        databases: dict[float, LayerCostDatabase] = {}
        for strategy in CORE_STRATEGIES:
            legacy_metrics, legacy_schedule = _legacy_run(
                tiny_scenario, strategy, "edp", config, databases)
            result = session.submit(strategy_request(
                tiny_scenario, strategy, "edp", config))
            assert result.metrics == legacy_metrics, strategy
            assert result.schedule == legacy_schedule, strategy

    def test_fig8_workload_parity(self):
        """Scenario 3 (the quick Fig. 8 workload) on the quick budget."""
        config = ExperimentConfig.fast()
        session = Session()
        databases: dict[float, LayerCostDatabase] = {}
        for strategy in ("stand_nvd", "het_sides"):
            legacy_metrics, legacy_schedule = _legacy_run(
                scenario(3), strategy, "edp", config, databases)
            result = session.submit(strategy_request(
                3, strategy, "edp", config))
            assert result.metrics == legacy_metrics, strategy
            assert result.schedule == legacy_schedule, strategy

    def test_inline_spec_matches_table3_reference(self):
        """A request built from the Scenario object == the id form."""
        config = ExperimentConfig.fast()
        session = Session()
        by_id = session.submit(strategy_request(1, "het_sides", "edp",
                                                config))
        by_spec = session.submit(strategy_request(scenario(1), "het_sides",
                                                  "edp", config))
        assert by_spec.metrics == by_id.metrics
        assert by_spec.schedule == by_id.schedule


class TestRegistry:
    def test_builtins_registered(self):
        from repro.api import DEFAULT_REGISTRY

        assert set(("standalone", "nn_baton", "scar", "evolutionary")) \
            <= set(DEFAULT_REGISTRY.names())

    def test_strategies_resolve_to_registered_policies(self):
        from repro.api import DEFAULT_REGISTRY

        assert {policy for _, policy in STRATEGIES.values()} \
            <= set(DEFAULT_REGISTRY.names())

    def test_unknown_policy_rejected(self, tiny_scenario):
        request = ScheduleRequest.for_scenario(tiny_scenario,
                                               policy="magic")
        with pytest.raises(ConfigError, match="unknown policy"):
            Session().submit(request)

    def test_duplicate_registration_rejected(self):
        registry = SchedulerRegistry()
        registry.register("p", lambda ctx: None)
        with pytest.raises(ConfigError, match="already registered"):
            registry.register("p", lambda ctx: None)

    def test_bad_name_rejected(self):
        registry = SchedulerRegistry()
        with pytest.raises(ConfigError):
            registry.register("")

    def test_custom_policy_plugin(self, tiny_scenario):
        """A fresh registry drives a session without touching built-ins."""
        registry = SchedulerRegistry()

        @registry.register("reversed_standalone")
        def _policy(ctx):
            outcome = StandaloneScheduler(ctx.mcm, ctx.database) \
                .schedule(ctx.scenario)
            return PolicyOutcome(schedule=outcome.schedule,
                                 metrics=outcome.metrics)

        assert "reversed_standalone" in registry
        session = Session(registry)
        result = session.submit(ScheduleRequest.for_scenario(
            tiny_scenario, template="simba_nvd_3x3",
            policy="reversed_standalone"))
        assert result.metrics.latency_s > 0
        with pytest.raises(ConfigError):
            session.submit(ScheduleRequest.for_scenario(tiny_scenario,
                                                        policy="scar"))


class TestSessionMemo:
    @pytest.fixture
    def request_(self, tiny_scenario, small_budget):
        return ScheduleRequest.for_scenario(
            tiny_scenario, template="het_sides_3x3", policy="scar",
            budget=small_budget, nsplits=1)

    def test_memoized_resubmit_returns_same_object(self, request_):
        session = Session()
        assert session.submit(request_) is session.submit(request_)

    def test_memoize_false_bypasses_the_memo(self, request_):
        """max_memo=0 switches the memo off: resubmits recompute."""
        session = Session(max_memo=0)
        first = session.submit(request_)
        second = session.submit(request_)
        assert first is not second
        assert first.metrics == second.metrics

    def test_eval_cache_off_is_bit_identical(self, request_,
                                             tiny_scenario):
        cached = Session().submit(request_)
        mcm = templates.build(request_.template, tiny_scenario.use_case)
        uncached = SCARScheduler(
            mcm, objective=request_.build_objective(),
            nsplits=request_.nsplits, budget=request_.budget,
            cache=EvalCache(enabled=False)).schedule(tiny_scenario)
        assert cached.metrics == uncached.metrics
        assert cached.schedule == uncached.schedule
        # the disabled cache recorded misses only
        assert uncached.perf.overall_hit_rate == 0.0
        assert cached.perf.overall_hit_rate > 0.0

    def test_memo_does_not_pin_the_search_population(self, request_):
        """A memoized result keeps its wire payload, not the SCARResult
        (and its whole candidate population) the search built."""
        populations = []
        registry = SchedulerRegistry()

        @registry.register("scar")
        def _scar(ctx):
            outcome = scar_policy(ctx)
            populations.append(weakref.ref(outcome.scar_result))
            return outcome

        session = Session(registry)
        result = session.submit(request_)
        gc.collect()
        assert populations[0]() is None
        assert session.cached(request_) is result
        assert "raw" not in {f.name
                             for f in dataclasses.fields(ScheduleResult)}

    def test_perf_reports_accumulate(self, request_):
        session = Session()
        results = [session.submit(request_),
                   session.submit(request_.replace(objective="latency"))]
        session.submit(request_)  # a memo hit adds nothing
        summary = session.perf_summary()
        total = aggregate_reports([r.perf for r in results])
        assert summary == dataclasses.replace(total,
                                              wall_s=summary.wall_s)
        assert summary.wall_s == pytest.approx(total.wall_s)


class TestSharedDatabase:
    """The database a caller passes is the one every search fills."""

    def test_callers_empty_database_is_kept(self, tiny_scenario):
        mcm = templates.build("het_sides_3x3", tiny_scenario.use_case)
        database = LayerCostDatabase(clock_hz=mcm.clock_hz)
        assert len(database) == 0  # empty, and so falsy
        holders = [SCARScheduler(mcm, database=database),
                   ScheduleEvaluator(tiny_scenario, mcm, database),
                   StandaloneScheduler(mcm, database),
                   NNBatonScheduler(mcm, database=database)]
        if have_numpy():
            holders.append(TensorEvaluator(tiny_scenario, mcm, database))
        for holder in holders:
            assert holder.database is database

    def test_later_requests_reuse_the_session_database(self, monkeypatch):
        calls = []
        compute = database_module.compute_layer_cost

        def counting(*args, **kwargs):
            calls.append(args[0])
            return compute(*args, **kwargs)

        monkeypatch.setattr(database_module, "compute_layer_cost",
                            counting)
        session = Session()
        request = ScheduleRequest(scenario_id=4, template="het_sides_3x3",
                                  budget=QUICK_BUDGET)
        session.submit(request)
        assert calls
        calls.clear()
        session.submit(request.replace(objective="latency"))
        assert calls == []
        (database,) = session._databases.values()
        assert len(database) > 0


class TestMemoLRU:
    """Session(max_memo=N): bounded result memo with LRU eviction."""

    @pytest.fixture
    def requests(self, tiny_scenario, small_budget):
        base = ScheduleRequest.for_scenario(
            tiny_scenario, template="simba_nvd_3x3", policy="standalone",
            budget=small_budget, nsplits=1)
        return [base, base.replace(template="het_sides_3x3"),
                base.replace(policy="nn_baton")]

    def test_default_is_unbounded(self, requests):
        session = Session()
        assert session.max_memo is None
        for request in requests:
            session.submit(request)
        assert len(session._memo) == len(requests)

    def test_eviction_recomputes_bit_identically(self, requests):
        session = Session(max_memo=1)
        first = session.submit(requests[0])
        session.submit(requests[1])  # evicts requests[0]
        assert len(session._memo) == 1
        again = session.submit(requests[0])
        assert again is not first  # recomputed...
        assert again.metrics == first.metrics  # ...bit-identically
        assert again.schedule == first.schedule

    def test_hit_refreshes_recency(self, requests):
        session = Session(max_memo=2)
        first = session.submit(requests[0])
        second = session.submit(requests[1])
        session.submit(requests[0])  # touch: 0 becomes most recent
        session.submit(requests[2])  # evicts 1, not 0
        assert session.submit(requests[0]) is first
        assert session.submit(requests[1]) is not second

    def test_zero_disables_the_memo(self, requests):
        session = Session(max_memo=0)
        first = session.submit(requests[0])
        assert session.submit(requests[0]) is not first
        assert len(session._memo) == 0

    def test_negative_rejected(self):
        with pytest.raises(ConfigError, match="max_memo"):
            Session(max_memo=-1)
