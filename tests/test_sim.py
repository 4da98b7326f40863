"""Tests for the simulation layer: traces, replay, metrics."""

import dataclasses
import json
import sys

import pytest

from repro.api.request import ScheduleRequest
from repro.api.session import Session
from repro.core.budget import SearchBudget
from repro.errors import ConfigError
from repro.sim import (
    EVENT_KINDS,
    MAX_TENANTS,
    MODES,
    TenantEvent,
    Trace,
    TraceSpec,
    build_report,
    generate_trace,
    replay,
    replay_parity,
    strip_nonidentity,
)
from repro.workloads.model import MAX_BATCH
from repro.workloads.scenarios import use_case_batches, use_case_models


def arrive(tick, tenant, model, batch, deadline_s=None):
    return TenantEvent(tick=tick, kind="arrive", tenant=tenant,
                       model=model, batch=batch, deadline_s=deadline_s)


def depart(tick, tenant):
    return TenantEvent(tick=tick, kind="depart", tenant=tenant)


class TestTenantEvent:
    def test_kinds_ordered_departs_first(self):
        assert EVENT_KINDS == ("depart", "arrive")
        assert depart(3, "a").sort_key() < arrive(3, "a", "eyecod", 1) \
            .sort_key()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="unknown event kind"):
            TenantEvent(tick=0, kind="pause", tenant="a")

    @pytest.mark.parametrize("tick", [-1, 1.5, True])
    def test_bad_tick_rejected(self, tick):
        with pytest.raises(ConfigError, match="tick"):
            TenantEvent(tick=tick, kind="depart", tenant="a")

    def test_empty_tenant_rejected(self):
        with pytest.raises(ConfigError, match="tenant"):
            depart(0, "")

    def test_arrive_needs_workload(self):
        with pytest.raises(ConfigError, match="needs model and batch"):
            TenantEvent(tick=0, kind="arrive", tenant="a")

    def test_arrive_rejects_bad_batch_and_deadline(self):
        with pytest.raises(ConfigError, match="batch"):
            arrive(0, "a", "eyecod", 0)
        with pytest.raises(ConfigError, match="deadline_s"):
            arrive(0, "a", "eyecod", 1, deadline_s=0.0)

    @pytest.mark.parametrize("field, value", [
        ("model", 5), ("model", "x"), ("model", ["eyecod"]),
        ("batch", 2.5), ("batch", True), ("batch", "1"),
        ("batch", MAX_BATCH + 1), ("batch", 10**400),
        ("deadline_s", float("nan")), ("deadline_s", float("inf")),
        ("deadline_s", 10**400), ("deadline_s", True),
        ("deadline_s", -1), ("deadline_s", "0.1"),
    ], ids=["model-int", "model-unknown", "model-list", "batch-float",
            "batch-bool", "batch-str", "batch-over-cap",
            "batch-401-digits", "deadline-nan", "deadline-inf",
            "deadline-401-digits", "deadline-bool", "deadline-negative",
            "deadline-str"])
    def test_arrive_rejects_malformed_workload(self, field, value):
        """Each of these used to parse and then fail at the first
        replayed event, overflow in build_report, or print NaN or
        Infinity into the sim_report."""
        workload = {"model": "eyecod", "batch": 1, "deadline_s": 0.1,
                    field: value}
        with pytest.raises(ConfigError, match=field):
            TenantEvent(tick=0, kind="arrive", tenant="a", **workload)

    def test_arrive_bounds_are_inclusive_and_unconverted(self):
        largest = int(sys.float_info.max)
        event = arrive(0, "a", "eyecod", MAX_BATCH, deadline_s=largest)
        assert event.batch == MAX_BATCH
        assert event.deadline_s == largest
        assert isinstance(event.deadline_s, int)
        assert TenantEvent.from_dict(event.to_dict()) == event

    def test_depart_rejects_workload_fields(self):
        with pytest.raises(ConfigError, match="must not carry"):
            TenantEvent(tick=0, kind="depart", tenant="a", batch=2)

    def test_round_trip(self):
        event = arrive(4, "eyecod#a", "eyecod", 8, deadline_s=0.25)
        assert TenantEvent.from_dict(event.to_dict()) == event
        bare = depart(5, "eyecod#a")
        assert TenantEvent.from_dict(bare.to_dict()) == bare
        assert "model" not in bare.to_dict()


class TestTrace:
    def test_round_trip(self):
        trace = Trace(name="t", use_case="arvr", events=(
            arrive(0, "a", "eyecod", 1, 0.1), depart(1, "a")))
        assert Trace.from_json(trace.to_json()) == trace

    def test_empty_name_rejected(self):
        with pytest.raises(ConfigError, match="name"):
            Trace(name="", events=())

    @pytest.mark.parametrize("fields, message", [
        (dict(name=5), "name"), (dict(name=float("nan")), "name"),
        (dict(use_case="x"), "use_case"), (dict(use_case=None), "use_case"),
    ])
    def test_validation(self, fields, message):
        with pytest.raises(ConfigError, match=message):
            Trace(**{"name": "t", "events": (), **fields})

    def test_out_of_order_rejected(self):
        with pytest.raises(ConfigError, match="canonical order"):
            Trace(name="t", events=(
                arrive(1, "a", "eyecod", 1), depart(0, "a")))

    def test_same_tick_arrive_before_depart_rejected(self):
        with pytest.raises(ConfigError, match="canonical order"):
            Trace(name="t", events=(
                arrive(0, "a", "eyecod", 1),
                arrive(1, "b", "eyecod", 1), depart(1, "a")))

    def test_arrive_while_active_rejected(self):
        with pytest.raises(ConfigError, match="already.*active"):
            Trace(name="t", events=(
                arrive(0, "a", "eyecod", 1), arrive(1, "a", "eyecod", 1)))

    def test_depart_inactive_rejected(self):
        with pytest.raises(ConfigError, match="without being.*active"):
            Trace(name="t", events=(depart(0, "a"),))

    def test_rearrival_same_workload_allowed(self):
        trace = Trace(name="t", events=(
            arrive(0, "a", "eyecod", 2, 0.1), depart(1, "a"),
            arrive(2, "a", "eyecod", 2, 0.1), depart(3, "a")))
        assert trace.tenants() == ("a",)
        assert trace.deadlines() == {"a": 0.1}

    def test_rearrival_changed_workload_rejected(self):
        with pytest.raises(ConfigError, match="different workload"):
            Trace(name="t", events=(
                arrive(0, "a", "eyecod", 2), depart(1, "a"),
                arrive(2, "a", "eyecod", 4)))

    def test_bad_kind_rejected(self):
        data = Trace(name="t", events=()).to_dict()
        data["kind"] = "schedule"
        with pytest.raises(ConfigError, match="expected kind"):
            Trace.from_dict(data)


class TestTraceSpec:
    def test_round_trip(self):
        spec = TraceSpec(family="uunifast", seed=9, tenants=3, horizon=8,
                         use_case="arvr", batches=(1, 2), models=("eyecod",),
                         utilization=0.75, deadline_range=(0.01, 0.2),
                         name="mine")
        assert TraceSpec.from_json(spec.to_json()) == spec

    def test_minimal_document_uses_defaults(self):
        spec = TraceSpec.from_dict(
            {"kind": "trace_spec", "version": 1, "family": "arrivals"})
        # absent deadline_range reads as best-effort (None is meaningful
        # on the wire, so there is no "unset" to default from).
        assert spec == TraceSpec(family="arrivals", deadline_range=None)

    def test_default_trace_name(self):
        assert TraceSpec(family="arrivals", seed=7, tenants=3) \
            .trace_name() == "sim:arrivals:datacenter:s7x3"
        assert TraceSpec(family="arrivals", name="x").trace_name() == "x"

    @pytest.mark.parametrize("kwargs,message", [
        (dict(family="poisson"), "unknown trace family"),
        (dict(family="arrivals", tenants=0), "tenants"),
        (dict(family="arrivals", horizon=1), "horizon"),
        (dict(family="arrivals", utilization=0.0), "utilization"),
        (dict(family="arrivals", utilization=1.5), "utilization"),
        (dict(family="arrivals", batches=()), "batches"),
        (dict(family="arrivals", batches=(0,)), "batches"),
        (dict(family="arrivals", deadline_range=(0.0, 1.0)),
         "deadline_range"),
        (dict(family="arrivals", deadline_range=(2.0, 1.0)),
         "deadline_range"),
        (dict(family="arrivals", tenants=2.5), "tenants"),
        (dict(family="arrivals", tenants=True), "tenants"),
        (dict(family="arrivals", tenants=MAX_TENANTS + 1), "tenants"),
        (dict(family="arrivals", horizon=2.5), "horizon"),
        (dict(family="arrivals", utilization=True), "utilization"),
        (dict(family="arrivals", models=()), "models"),
        (dict(family="arrivals", models="eyecod"), "models"),
        (dict(family="arrivals", models=("eyecod", 1)), "models"),
        (dict(family="arrivals", batches=(2.5,)), "batches"),
        (dict(family="arrivals", batches=(True,)), "batches"),
        (dict(family="arrivals", deadline_range=(0.05,)),
         "deadline_range"),
        (dict(family="arrivals", deadline_range=(0.05, 0.1, 0.2)),
         "deadline_range"),
        (dict(family="arrivals", deadline_range="ab"), "deadline_range"),
        (dict(family="arrivals", deadline_range=(True, 2)),
         "deadline_range"),
        (dict(family="arrivals", deadline_range=(0.05, 10**400)),
         "deadline_range"),
        (dict(family="arrivals", deadline_range=(0.05, float("inf"))),
         "deadline_range"),
        (dict(family="arrivals", deadline_range=(float("nan"), 1.0)),
         "deadline_range"),
        (dict(family="arrivals", name=5), "name"),
        (dict(family="arrivals", batches=(MAX_BATCH + 1,)), "batches"),
        (dict(family="arrivals", use_case="x"), "use_case"),
        (dict(family="arrivals", use_case="x", models=("eyecod",),
              batches=(1,)), "use_case"),
        (dict(family="arrivals", seed="7"), "seed"),
        (dict(family="arrivals", seed=True), "seed"),
        (dict(family="arrivals", seed=1.5), "seed"),
    ])
    def test_validation(self, kwargs, message):
        with pytest.raises(ConfigError, match=message):
            TraceSpec(**kwargs)

    def test_integer_deadline_bounds_read_as_seconds(self):
        spec = TraceSpec(family="arrivals", deadline_range=[1, 2])
        assert spec.deadline_range == (1.0, 2.0)
        assert TraceSpec.from_json(spec.to_json()) == spec


class TestGenerateTrace:
    SPEC = TraceSpec(family="arrivals", seed=1, tenants=2, horizon=6,
                     use_case="arvr", deadline_range=(0.1, 0.1))

    def test_golden_snapshot(self):
        trace = generate_trace(self.SPEC)
        assert trace.name == "sim:arrivals:arvr:s1x2"
        assert [e.to_dict() for e in trace.events] == [
            {"tick": 0, "kind": "arrive", "tenant": "planercnn#t1",
             "model": "planercnn", "batch": 15, "deadline_s": 0.1},
            {"tick": 2, "kind": "depart", "tenant": "planercnn#t1"},
            {"tick": 2, "kind": "arrive", "tenant": "d2go#t0",
             "model": "d2go", "batch": 15, "deadline_s": 0.1},
            {"tick": 5, "kind": "depart", "tenant": "d2go#t0"},
        ]

    def test_byte_identical_regeneration(self):
        assert generate_trace(self.SPEC).to_json() \
            == generate_trace(self.SPEC).to_json()

    def test_seed_changes_trace(self):
        other = dataclasses.replace(self.SPEC, seed=2)
        assert generate_trace(other).events \
            != generate_trace(self.SPEC).events

    def test_growing_tenants_keeps_earlier_streams(self):
        spec5 = TraceSpec(family="arrivals", seed=3, tenants=5)
        spec3 = dataclasses.replace(spec5, tenants=3)
        small = {e for e in generate_trace(spec3).events}
        large = {e for e in generate_trace(spec5).events}
        assert small <= large

    def test_pools_respected(self):
        spec = TraceSpec(family="arrivals", seed=0, tenants=6,
                         models=("eyecod", "hand_sp"), batches=(2, 4))
        arrivals = [e for e in generate_trace(spec).events
                    if e.kind == "arrive"]
        assert {e.model for e in arrivals} <= {"eyecod", "hand_sp"}
        assert {e.batch for e in arrivals} <= {2, 4}

    def test_default_pools_are_the_use_case_tables(self):
        arrivals = [e for e in generate_trace(
            TraceSpec(family="arrivals", seed=0, tenants=8,
                      use_case="arvr")).events if e.kind == "arrive"]
        assert {e.model for e in arrivals} <= set(use_case_models("arvr"))
        assert {e.batch for e in arrivals} <= set(use_case_batches("arvr"))

    def test_unknown_model_pool_rejected(self):
        """When the spec is built, so generate_trace never sees it."""
        with pytest.raises(ConfigError, match="models"):
            TraceSpec(family="arrivals", models=("edsr",))

    def test_uunifast_batches_from_pool(self):
        spec = TraceSpec(family="uunifast", seed=2, tenants=4,
                         batches=(1, 2, 4, 8))
        arrivals = [e for e in generate_trace(spec).events
                    if e.kind == "arrive"]
        assert len(arrivals) == 4
        assert {e.batch for e in arrivals} <= {1, 2, 4, 8}

    def test_best_effort_family(self):
        trace = generate_trace(TraceSpec(family="arrivals", seed=0,
                                         tenants=3, deadline_range=None))
        assert all(e.deadline_s is None for e in trace.events)

    def test_every_tenant_has_one_lifecycle(self):
        trace = generate_trace(TraceSpec(family="uunifast", seed=5,
                                         tenants=4))
        kinds = {}
        for event in trace.events:
            kinds.setdefault(event.tenant, []).append(event.kind)
        assert all(k == ["arrive", "depart"] for k in kinds.values())


#: Tiny replay workload: three small AR/VR models, one recurring set
#: ({A, B} comes back when C departs -> a warm-session memo hit), an
#: absurd SLA that must miss, a generous one that must hold, one
#: best-effort tenant, and a trailing empty set.
TINY_TRACE = Trace(name="sim:test:tiny", use_case="arvr", events=tuple(
    sorted([
        arrive(0, "eyecod#a", "eyecod", 1, deadline_s=1e-9),
        arrive(1, "hand_sp#b", "hand_sp", 1, deadline_s=10.0),
        arrive(2, "emformer#c", "emformer", 1),
        depart(3, "emformer#c"),
        depart(4, "hand_sp#b"),
        depart(5, "eyecod#a"),
    ], key=TenantEvent.sort_key)))


#: Module-level (not the conftest fixture) so the module-scoped
#: replay fixture can use it.
TINY_BUDGET = SearchBudget(
    top_k_segmentations=2, max_segment_candidates=16, max_root_combos=4,
    max_paths_per_model=4, max_candidates_per_window=40, seed=1)


@pytest.fixture(scope="module")
def tiny_replay():
    warm, cold, parity = replay_parity(
        TINY_TRACE, template="het_sides_3x3", nsplits=2,
        budget=TINY_BUDGET)
    return warm, cold, parity


class TestReplay:
    def test_unknown_mode_rejected(self):
        assert MODES == ("warm", "cold")
        with pytest.raises(ConfigError, match="unknown replay mode"):
            replay(TINY_TRACE, mode="tepid")

    def test_one_outcome_per_event(self, tiny_replay):
        warm, cold, _ = tiny_replay
        assert len(warm) == len(cold) == len(TINY_TRACE.events)
        assert [o.event for o in warm] == list(TINY_TRACE.events)

    def test_warm_cold_parity(self, tiny_replay):
        _, _, parity = tiny_replay
        assert parity == [True] * len(TINY_TRACE.events)

    def test_empty_set_is_not_scheduled(self, tiny_replay):
        warm, _, _ = tiny_replay
        last = warm[-1]
        assert last.result is None and last.tenants == ()
        assert last.placements() == {}

    def test_tenants_in_sorted_scenario_order(self, tiny_replay):
        warm, _, _ = tiny_replay
        assert warm[2].tenants == \
            ("emformer#c", "eyecod#a", "hand_sp#b")
        assert warm[2].deadlines == (None, 1e-9, 10.0)

    def test_recurring_set_hits_the_warm_memo(self, tiny_replay):
        warm, cold, _ = tiny_replay
        # after emformer#c departs, {eyecod#a, hand_sp#b} recurs.
        assert warm[3].memo_hit and warm[3].num_segments_recosted == 0
        assert not any(o.memo_hit for o in cold)

    def test_warm_never_recosts_more(self, tiny_replay):
        warm, cold, _ = tiny_replay
        assert sum(o.num_segments_recosted for o in warm) \
            < sum(o.num_segments_recosted for o in cold)

    def test_placements_cover_active_tenants(self, tiny_replay):
        warm, _, _ = tiny_replay
        placements = warm[2].placements()
        assert sorted(placements) == list(warm[2].tenants)
        for signature in placements.values():
            assert signature  # every tenant got segments somewhere
            for window, start, stop, node in signature:
                assert 0 <= start <= stop and isinstance(node, int)

    def test_client_mode_matches_local(self, tiny_replay):
        class _LocalClient:
            """ServiceClient stand-in: submit -> job -> result."""

            def __init__(self):
                self.session = Session()

            def submit(self, request):
                result = self.session.submit(request)

                class _Job:
                    @staticmethod
                    def result():
                        return result
                return _Job()

        outcomes = replay(TINY_TRACE, template="het_sides_3x3",
                          nsplits=2, budget=TINY_BUDGET,
                          client=_LocalClient())
        warm, _, _ = tiny_replay
        for remote, local in zip(outcomes, warm):
            assert (remote.result is None) == (local.result is None)
            if remote.result is not None:
                assert remote.result.same_payload(local.result)
                assert remote.num_segments > 0
            assert not remote.memo_hit


class TestBuildReport:
    @pytest.fixture(scope="class")
    def report(self, tiny_replay):
        warm, _, _ = tiny_replay
        return build_report(TINY_TRACE, "warm", warm)

    def test_counts(self, report, tiny_replay):
        warm, _, _ = tiny_replay
        assert report.trace == TINY_TRACE.name
        assert report.mode == "warm"
        assert report.num_events == len(TINY_TRACE.events)
        assert report.num_scheduled == \
            sum(1 for o in warm if o.result is not None)
        assert report.memo_hits == sum(1 for o in warm if o.memo_hit)
        assert report.total_segments >= report.total_segments_recosted

    def test_sla_verdicts(self, report):
        by_tenant = {t.tenant: t for t in report.tenants}
        assert sorted(by_tenant) == \
            ["emformer#c", "eyecod#a", "hand_sp#b"]
        doomed = by_tenant["eyecod#a"]
        assert doomed.missed and doomed.min_slack_s < 0
        safe = by_tenant["hand_sp#b"]
        assert not safe.missed and safe.min_slack_s > 0
        effort = by_tenant["emformer#c"]
        assert not effort.missed and effort.min_slack_s is None
        assert report.deadline_miss_rate == pytest.approx(0.5)

    def test_worst_latency_is_the_max(self, report, tiny_replay):
        warm, _, _ = tiny_replay
        latencies = [
            o.result.metrics.model_latency(o.tenants.index("eyecod#a"))
            for o in warm
            if o.result is not None and "eyecod#a" in o.tenants]
        by_tenant = {t.tenant: t for t in report.tenants}
        assert by_tenant["eyecod#a"].worst_latency_s == max(latencies)
        assert by_tenant["eyecod#a"].events_active == len(latencies)

    def test_churn_is_a_fraction(self, report):
        assert 0.0 <= report.mean_churn <= 1.0

    def test_wall_time_accumulates(self, report):
        assert report.total_wall_s > 0
        assert report.mean_wall_s == pytest.approx(
            report.total_wall_s / report.num_scheduled)

    def test_render_mentions_the_verdicts(self, report):
        text = report.render()
        assert "MISS" in text and "best-effort" in text
        assert TINY_TRACE.name in text

    def test_strip_nonidentity_zeroes_wall_time_only(self, report):
        data = report.to_dict()
        cleaned = strip_nonidentity(data)
        assert cleaned["total_wall_s"] == 0.0
        assert cleaned["mean_wall_s"] == 0.0
        untouched = {k: v for k, v in data.items()
                     if k not in ("total_wall_s", "mean_wall_s")}
        assert untouched == {k: v for k, v in cleaned.items()
                             if k not in ("total_wall_s", "mean_wall_s")}
        assert data["total_wall_s"] > 0  # input not mutated

    def test_warm_and_cold_reports_agree_outside_perf(self, tiny_replay):
        warm, cold, _ = tiny_replay
        warm_doc = strip_nonidentity(
            build_report(TINY_TRACE, "x", warm).to_dict())
        cold_doc = strip_nonidentity(
            build_report(TINY_TRACE, "x", cold).to_dict())
        for key in ("deadline_miss_rate", "tenants", "mean_churn",
                    "num_scheduled"):
            assert warm_doc[key] == cold_doc[key]


class TestWarmSession:
    def request(self, **kwargs):
        scenario = generate_trace(
            TraceSpec(family="arrivals", seed=1, tenants=2, horizon=6,
                      use_case="arvr"))
        from repro.sim.replay import _ActiveSet
        active = _ActiveSet(scenario)
        for event in scenario.events:
            if event.kind == "arrive":
                active.apply(event)
        return ScheduleRequest.for_scenario(
            active.scenario(), template="het_sides_3x3", nsplits=2,
            budget=TINY_BUDGET, **kwargs)

    def test_rerun_recomputes_bit_identically_from_cold(self):
        """Every run builds its own evaluator caches: a max_memo=0
        rerun on one session searches again from cold, with the same
        result and the same cache and segment counters."""
        request = self.request()
        session = Session(max_memo=0)
        first = session.submit(request)
        second = session.submit(request)
        assert first is not second  # max_memo=0: both really ran
        assert first.same_payload(second)
        assert first.perf.num_segments_recosted > 0
        assert second.perf.cache == first.perf.cache
        assert (second.perf.num_segments,
                second.perf.num_segments_recosted) \
            == (first.perf.num_segments, first.perf.num_segments_recosted)

    def test_cold_session_matches_warm_payload(self):
        request = self.request()
        warm = Session(warm_caches=True).submit(request)
        cold = Session().submit(request)
        assert warm.same_payload(cold)

    def test_warm_caches_keyword_changes_nothing(self):
        """warm_caches is accepted and ignored: such a session submits,
        memoizes and counts exactly like a plain one."""
        request = self.request()
        plain, warm = Session(), Session(warm_caches=True)
        assert vars(warm).keys() == vars(plain).keys()
        for session in (plain, warm):
            assert session.cached(request) is None
            assert session.submit(request) is session.submit(request)
        ran_plain, ran_warm = plain.cached(request), warm.cached(request)
        assert ran_warm.same_payload(ran_plain)
        assert dataclasses.replace(ran_warm.perf, wall_s=0.0) \
            == dataclasses.replace(ran_plain.perf, wall_s=0.0)


class TestPerfTotals:
    """Sessions and the process keep running perf totals, not logs."""

    @staticmethod
    def report(i):
        from repro.perf import CacheStats, PerfReport
        return PerfReport(wall_s=0.001, num_evaluated=i, num_windows=1,
                          num_segments=2 * i, num_segments_recosted=i,
                          cache={"chain": CacheStats(hits=i, misses=1)})

    @staticmethod
    def counters(report):
        """Everything but the float wall time."""
        return dataclasses.replace(report, wall_s=0.0)

    def test_session_total_is_exact_past_the_old_cap(self):
        # More runs than a 4096-entry log held; none may go uncounted.
        session = Session()
        for i in range(5000):
            session._log_perf(self.report(i))
        total = session.perf_summary()
        assert total.num_evaluated == total.num_segments_recosted \
            == sum(range(5000))
        assert total.num_segments == 2 * sum(range(5000))
        assert total.num_windows == 5000
        assert total.cache_table("chain").hits == sum(range(5000))
        assert total.cache_table("chain").misses == 5000
        assert total.wall_s == pytest.approx(5.0)

    def test_diff_counts_the_reports_logged_between(self):
        from repro.perf import PerfReport, aggregate_reports, diff_reports
        session = Session()
        for i in range(3):
            session._log_perf(self.report(i))
        before = session.perf_summary()
        held = before.to_dict()
        between = [self.report(i) for i in range(10, 14)]
        for report in between:
            session._log_perf(report)
        diff = diff_reports(session.perf_summary(), before)
        assert self.counters(diff) == \
            self.counters(aggregate_reports(between))
        assert diff.wall_s == pytest.approx(0.004)
        assert before.to_dict() == held  # a snapshot is a value
        assert diff_reports(before, before) == PerfReport()

    def test_process_total_diffs_around_log_report(self):
        from repro.perf import (
            aggregate_reports,
            diff_reports,
            log_report,
            process_total,
        )
        before = process_total()
        held = before.to_dict()
        between = [self.report(i) for i in range(1, 6)]
        for report in between:
            log_report(report)
        diff = diff_reports(process_total(), before)
        assert self.counters(diff) == \
            self.counters(aggregate_reports(between))
        assert diff.wall_s == pytest.approx(0.005)
        assert before.to_dict() == held

    def test_concurrent_logging_loses_no_run(self):
        """Service worker threads log concurrently; each total is a
        read-modify-write that its lock must keep whole."""
        import sys
        import threading

        from repro.perf import diff_reports, log_report, process_total
        session = Session()
        before = process_total()
        workers, per_worker = 8, 200

        def work():
            for _ in range(per_worker):
                log_report(self.report(1))
                session._log_perf(self.report(1))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work)
                       for _ in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        runs = workers * per_worker
        assert session.perf_summary().num_windows == runs
        assert diff_reports(process_total(), before).num_windows == runs


class TestSimDeterminismContract:
    def test_trace_json_is_stable_under_reload(self):
        spec = TraceSpec(family="uunifast", seed=4, tenants=3,
                         use_case="arvr")
        text = generate_trace(spec).to_json()
        assert json.dumps(json.loads(text), indent=2, sort_keys=True) \
            == text
