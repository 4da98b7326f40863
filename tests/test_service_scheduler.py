"""SchedulerService: parity with Session.submit, lifecycle, perf stats."""

from __future__ import annotations

import os
import signal
import threading
import time

import pytest

from repro.api import ScheduleRequest, Session
from repro.errors import (
    ConfigError,
    JobNotFoundError,
    ReproError,
    SearchError,
    ServiceError,
    ServiceOverloadedError,
)
from repro.perf import TimingSummary
from repro.service import (
    CANCELLED,
    DONE,
    FAILED,
    JOB_STATES,
    RUNNING,
    SchedulerService,
)
from service_helpers import (
    POLICIES,
    assert_equivalent,
    failing_registry,
    gated_registry,
    killing_registry,
    replicated_request,
    request_for,
)


class TestParity:
    @pytest.mark.parametrize("workers", [1, 3])
    def test_every_policy_matches_session_submit(self, tiny_scenario,
                                                 small_budget, workers):
        requests = [request_for(tiny_scenario, small_budget, policy)
                    for policy in POLICIES]
        reference = [Session().submit(r) for r in requests]
        with SchedulerService(workers=workers) as service:
            handles = service.submit_many(requests)
            results = [h.result(timeout=600) for h in handles]
        for got, want in zip(results, reference):
            assert_equivalent(got, want)

    def test_replicated_tenants_match_session_submit(self, small_budget):
        """The multi-tenant (model#k) shape holds the same contract."""
        requests = [replicated_request(small_budget, policy)
                    for policy in POLICIES]
        reference = [Session().submit(r) for r in requests]
        with SchedulerService(workers=3) as service:
            handles = service.submit_many(requests)
            results = [h.result(timeout=600) for h in handles]
        for got, want in zip(results, reference):
            assert_equivalent(got, want)

    def test_parity_survives_lru_eviction(self, tiny_scenario,
                                          small_budget):
        """A job re-run after its memo entry was evicted is bit-equal."""
        a = request_for(tiny_scenario, small_budget, "standalone")
        b = request_for(tiny_scenario, small_budget, "nn_baton")
        with SchedulerService(Session(max_memo=1),
                              workers=1) as service:
            first = service.submit(a).result(timeout=300)
            service.submit(b).result(timeout=300)  # evicts a
            again = service.submit(a).result(timeout=300)
        assert first is not again  # recomputed, not served from memo
        assert_equivalent(first, again)

    def test_jobs_share_the_session_memo(self, tiny_scenario,
                                         small_budget):
        request = request_for(tiny_scenario, small_budget, "standalone")
        with SchedulerService(workers=1) as service:
            first = service.submit(request).result(timeout=300)
            second = service.submit(request).result(timeout=300)
        assert second is first  # same memo entry as Session.submit


class TestLifecycle:
    @pytest.fixture
    def gated_service(self, tiny_scenario, small_budget):
        """A 1-worker service over the shared event-gated policy, making
        queue occupancy deterministic for cancellation tests."""
        registry, started, release, order = gated_registry()
        service = SchedulerService(Session(registry), workers=1)
        gated = ScheduleRequest.for_scenario(
            tiny_scenario, template="het_sides_3x3", policy="gated",
            budget=small_budget, nsplits=1)
        yield service, gated, started, release, order
        release.set()
        service.close()

    def test_cancel_queued_job(self, gated_service):
        service, gated, started, release, order = gated_service
        running = service.submit(gated)
        assert started.wait(timeout=60)
        queued = service.submit(gated.replace(prov_limit=63))
        record = queued.cancel()
        assert record.state == CANCELLED
        assert record.queue_s is not None and record.run_s is None
        with pytest.raises(ServiceError, match="cancelled"):
            queued.result(timeout=60)
        release.set()
        assert running.result(timeout=300).metrics.latency_s > 0

    def test_cancel_running_job_is_cooperative(self, gated_service):
        service, gated, started, release, order = gated_service
        handle = service.submit(gated)
        assert started.wait(timeout=60)
        record = handle.cancel()
        assert record.state == RUNNING  # flag only; still running
        release.set()
        final = handle.wait(timeout=300)
        assert final.state == CANCELLED
        assert final.run_s is not None
        with pytest.raises(ServiceError, match="cancelled"):
            handle.result()

    def test_cancel_is_idempotent_on_terminal_jobs(self, gated_service):
        service, gated, started, release, order = gated_service
        handle = service.submit(gated)
        release.set()
        handle.wait(timeout=300)
        assert handle.cancel().state == DONE  # no-op, record unchanged

    def test_priority_orders_the_backlog(self, gated_service):
        service, gated, started, release, order = gated_service
        service.submit(gated.replace(prov_limit=10))  # occupies worker
        assert started.wait(timeout=60)
        service.submit(gated.replace(prov_limit=30), priority=5)
        service.submit(gated.replace(prov_limit=20), priority=1)
        last = service.submit(gated.replace(prov_limit=40), priority=9)
        release.set()
        last.wait(timeout=300)
        assert order == [10, 20, 30, 40]  # backlog ran by priority

    def test_failed_job_carries_error_document(self, tiny_scenario,
                                               small_budget):
        bad = request_for(tiny_scenario, small_budget, "failing")
        with SchedulerService(Session(failing_registry()),
                              workers=1) as service:
            handle = service.submit(bad)
            record = handle.wait(timeout=300)
            assert record.state == FAILED
            assert record.error is not None
            assert record.error.code == "search_error"
            with pytest.raises(SearchError, match="failing test policy"):
                handle.result()

    def test_unregistered_policy_rejected_at_submit(self, tiny_scenario,
                                                    small_budget):
        """Known only to another registry: refused before queueing, so
        no job record is ever created for it."""
        good = request_for(tiny_scenario, small_budget, "standalone")
        bad = request_for(tiny_scenario, small_budget, "failing")
        with SchedulerService(workers=1) as service:
            with pytest.raises(ConfigError, match="unknown policy"):
                service.submit(bad)
            with pytest.raises(ConfigError, match="unknown policy"):
                service.submit_many([good, bad])
            assert service.jobs() == []

    def test_submit_after_close_rejected(self, tiny_scenario,
                                         small_budget):
        service = SchedulerService(workers=1)
        service.close()
        with pytest.raises(ServiceError, match="closed"):
            service.submit(request_for(tiny_scenario, small_budget,
                                       "standalone"))

    def test_batch_after_close_queues_nothing(self, tiny_scenario,
                                              small_budget):
        """Batches are all-or-nothing against shutdown."""
        service = SchedulerService(workers=1)
        service.close()
        with pytest.raises(ServiceError, match="closed"):
            service.submit_many([
                request_for(tiny_scenario, small_budget, "standalone"),
                request_for(tiny_scenario, small_budget, "nn_baton"),
            ])
        assert service.jobs() == []

    def test_close_drains_queued_jobs(self, tiny_scenario, small_budget):
        service = SchedulerService(workers=1)
        handles = service.submit_many([
            request_for(tiny_scenario, small_budget, "standalone"),
            request_for(tiny_scenario, small_budget, "nn_baton"),
        ])
        service.close()  # drains, then joins
        assert all(h.record().state == DONE for h in handles)

    def test_unknown_job_id_rejected(self):
        with SchedulerService(workers=1) as service:
            with pytest.raises(JobNotFoundError, match="unknown job id"):
                service.job("job-999999")

    def test_retain_evicts_oldest_terminal_jobs(self, tiny_scenario,
                                                small_budget):
        requests = [
            request_for(tiny_scenario, small_budget, "standalone"),
            request_for(tiny_scenario, small_budget, "nn_baton"),
            request_for(tiny_scenario, small_budget, "standalone",
                        template="simba_nvd_3x3"),
        ]
        with SchedulerService(workers=1, retain=1) as service:
            handles = [service.submit(r) for r in requests]
            # One worker runs FIFO: when the last job is terminal, the
            # earlier ones were, too (and were evicted past the cap).
            handles[-1].wait(timeout=300)
            # Only the newest terminal job survives.
            assert [r.job_id for r in service.jobs()] == \
                [handles[-1].job_id]
            assert handles[-1].result().metrics.latency_s > 0
            with pytest.raises(JobNotFoundError):
                service.job(handles[0].job_id)  # by-id access is gone
            # the open handle still knows its final state
            assert handles[0].record().state == DONE

    def test_retain_never_evicts_live_jobs(self, gated_service):
        service, gated, started, release, order = gated_service
        service.retain = 1  # tighten the cap on the fixture's service
        running = service.submit(gated)
        assert started.wait(timeout=60)
        cancelled = service.submit(gated.replace(prov_limit=63))
        cancelled.cancel()  # one terminal job: exactly at the cap
        # the RUNNING job is untouchable regardless of the cap
        assert running.job_id in {r.job_id for r in service.jobs()}
        release.set()
        # on completion the DONE job is newest; the cancelled one goes
        assert running.result(timeout=300).metrics.latency_s > 0
        with pytest.raises(JobNotFoundError):
            service.job(cancelled.job_id)  # by-id access is gone
        assert cancelled.record().state == CANCELLED  # handle fallback

    def test_bad_retain_rejected(self):
        with pytest.raises(ConfigError, match="retain"):
            SchedulerService(workers=1, retain=0)

    def test_eviction_prefers_retrieved_results(self, tiny_scenario,
                                                small_budget):
        """An already-fetched result is sacrificed before an unfetched
        one, even when the unfetched job is older."""
        a = request_for(tiny_scenario, small_budget, "standalone")
        b = request_for(tiny_scenario, small_budget, "nn_baton")
        c = request_for(tiny_scenario, small_budget, "standalone",
                        template="simba_nvd_3x3")
        with SchedulerService(workers=1, retain=2) as service:
            ha = service.submit(a)
            ha.wait(timeout=300)  # a terminal, NOT retrieved by id
            hb = service.submit(b)
            hb.wait(timeout=300)
            service.snapshot(hb.job_id)  # b retrieved
            service.submit(c).result(timeout=300)  # over cap: evict b
            remaining = {r.job_id for r in service.jobs()}
            assert ha.job_id in remaining  # unretrieved a survived
            assert hb.job_id not in remaining
            _, result = service.snapshot(ha.job_id)
            assert result.metrics.latency_s > 0

    def test_handle_result_survives_eviction(self, tiny_scenario,
                                             small_budget):
        """An open handle never loses its result to the retain cap."""
        a = request_for(tiny_scenario, small_budget, "standalone")
        b = request_for(tiny_scenario, small_budget, "nn_baton")
        with SchedulerService(workers=1, retain=1) as service:
            first = service.submit(a)
            second = service.submit(b)
            second.wait(timeout=300)  # finishing b evicts a's record
            with pytest.raises(JobNotFoundError):
                service.snapshot(first.job_id)  # by-id: window semantics
            # ...but the handle kept its slot
            assert first.result(timeout=300).metrics.latency_s > 0
            assert first.record().state == DONE

    def test_close_cancel_pending_skips_the_backlog(self, gated_service):
        """Prompt shutdown (the `scar serve` Ctrl-C path): queued jobs
        cancel instead of draining; the running one still finishes."""
        service, gated, started, release, order = gated_service
        running = service.submit(gated)
        assert started.wait(timeout=60)
        backlog = [service.submit(gated.replace(prov_limit=63 - i))
                   for i in range(3)]
        # Close while the worker is still gated: the backlog cancels
        # before it could ever be popped, with no race on release.
        closer = threading.Thread(
            target=lambda: service.close(cancel_pending=True))
        closer.start()
        for handle in backlog:
            assert handle.wait(timeout=60).state == CANCELLED
        release.set()
        closer.join(timeout=60)
        assert not closer.is_alive()
        assert running.record().state == DONE
        assert order == [64]  # the backlog never ran

    def test_wait_timeout_raises(self, gated_service):
        service, gated, started, release, order = gated_service
        handle = service.submit(gated)
        with pytest.raises(ServiceError, match="still"):
            handle.wait(timeout=0.05)
        release.set()

    def test_bad_workers_rejected(self):
        with pytest.raises(ConfigError, match="workers"):
            SchedulerService(workers=0)


class TestLifecycleBugfixes:
    @pytest.fixture
    def gated_service(self, tiny_scenario, small_budget):
        registry, started, release, order = gated_registry()
        service = SchedulerService(Session(registry), workers=1)
        gated = ScheduleRequest.for_scenario(
            tiny_scenario, template="het_sides_3x3", policy="gated",
            budget=small_budget, nsplits=1)
        yield service, gated, started, release, order
        release.set()
        service.close()

    def test_concurrent_close_waits_for_drain(self, gated_service):
        """Every close(wait=True) caller blocks until the workers are
        joined -- the second closer must not return early just because
        the closed flag was already up."""
        service, gated, started, release, order = gated_service
        handle = service.submit(gated)
        assert started.wait(timeout=60)
        closers = [threading.Thread(target=service.close)
                   for _ in range(2)]
        for thread in closers:
            thread.start()
        # The worker is still gated, so neither closer may have
        # returned yet -- the old code let the second one through.
        time.sleep(0.3)
        assert all(thread.is_alive() for thread in closers)
        release.set()
        for thread in closers:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in closers)
        assert not any(worker.is_alive()
                       for worker in service._threads)
        assert handle.record().state == DONE


class TestConcurrentSlots:
    def test_racing_submits_cancels_and_snapshots_keep_the_tally(
            self, tiny_scenario, small_budget, monkeypatch):
        """More worker and caller threads than cores, with a tiny switch
        interval and a policy that returns at once: no thread dies,
        every job's slot ends terminal, the per-state counters still
        match the retained records, and a handle whose job was evicted
        still reads its own outcome."""
        import sys

        from repro.api import PolicyOutcome, SchedulerRegistry
        from repro.core.baselines import StandaloneScheduler

        canned: list = []
        registry = SchedulerRegistry()

        @registry.register("instant")
        def _instant(ctx):
            if not canned:
                outcome = StandaloneScheduler(ctx.mcm, ctx.database) \
                    .schedule(ctx.scenario)
                canned.append(PolicyOutcome(schedule=outcome.schedule,
                                            metrics=outcome.metrics))
            return canned[0]

        callers, per_caller, retain = 8, 200, 5
        handles: list = []
        base = request_for(tiny_scenario, small_budget, "instant")

        def work(caller: int) -> None:
            for i in range(per_caller):
                handle = service.submit(
                    base.replace(prov_limit=1 + caller * per_caller + i))
                handles.append(handle)
                try:
                    if i % 3 == 0:
                        handle.cancel()
                    service.snapshot(handle.job_id)
                except JobNotFoundError:
                    pass  # already finished and evicted

        crashes: list = []
        monkeypatch.setattr(threading, "excepthook", crashes.append)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            service = SchedulerService(Session(registry), workers=8,
                                       retain=retain)
            threads = [threading.Thread(target=work, args=(caller,))
                       for caller in range(callers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            service.close()
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert crashes == []
        assert len(handles) == callers * per_caller
        records = service.jobs()
        counts = service.state_counts()
        assert counts["total"] == len(records) == retain
        for state in JOB_STATES:
            assert counts[state] == sum(
                record.state == state for record in records)
        for handle in handles:
            record = handle.wait(timeout=0)
            if record.state == DONE:
                assert handle.result().metrics.latency_s > 0
            else:
                assert record.state == CANCELLED


class TestSharedDatabase:
    def test_thread_workers_share_one_capped_database(
            self, tiny_scenario, small_budget, monkeypatch):
        """More thread workers than cores search on one session, so they
        race on its per-clock database, capped at 8 entries so that it
        resets mid-run: every job still matches a serial submit, and
        no miss ever finds the table past its cap."""
        import sys

        import repro.dataflow.database as database_module

        monkeypatch.setattr(database_module, "_MAX_ENTRIES", 8)
        session = Session()
        sizes: list[int] = []
        compute = database_module.compute_layer_cost

        def sizing(*args, **kwargs):
            # All four templates share one clock, so one database.
            sizes.append(max(map(len, session._databases.values())))
            return compute(*args, **kwargs)

        monkeypatch.setattr(database_module, "compute_layer_cost", sizing)
        requests = [request_for(tiny_scenario, small_budget, policy,
                                template=template, objective=objective)
                    for template in ("het_sides_3x3", "het_cb_3x3",
                                     "simba_nvd_3x3", "simba_shi_3x3")
                    for objective in ("edp", "latency")
                    for policy in ("scar", "evolutionary")]
        assert len({r.cache_key() for r in requests}) == 16
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with SchedulerService(session, workers=8,
                                  job_backend="thread") as service:
                handles = service.submit_many(requests)
                records = [h.wait(timeout=300) for h in handles]
        finally:
            sys.setswitchinterval(interval)
        assert [r.state for r in records] == [DONE] * len(requests)
        (database,) = session._databases.values()
        assert len(sizes) > 8 and max(sizes) <= 8
        assert len(database) <= 8
        serial = Session()
        for request, handle in zip(requests, handles):
            assert handle.result().same_payload(serial.submit(request))


class TestProcessJobBackend:
    def test_process_workers_match_session_submit(self, tiny_scenario,
                                                  small_budget):
        requests = [request_for(tiny_scenario, small_budget, policy)
                    for policy in ("standalone", "scar")]
        reference = [Session().submit(r) for r in requests]
        with SchedulerService(workers=2,
                              job_backend="process") as service:
            handles = service.submit_many(requests)
            results = [h.result(timeout=600) for h in handles]
            assert service.perf_summary()["job_backend"] == "process"
        for got, want in zip(results, reference):
            assert_equivalent(got, want)

    def test_pooled_results_adopt_the_session_memo(self, tiny_scenario,
                                                   small_budget):
        """A pooled job's result lands in the session memo exactly like
        Session.submit's would: the duplicate is the same object."""
        request = request_for(tiny_scenario, small_budget, "standalone")
        with SchedulerService(workers=1,
                              job_backend="process") as service:
            first = service.submit(request).result(timeout=300)
            second = service.submit(request).result(timeout=300)
        assert second is first

    def test_pooled_perf_reports_reach_the_session(self, tiny_scenario,
                                                   small_budget):
        request = request_for(tiny_scenario, small_budget, "scar")
        with SchedulerService(workers=1,
                              job_backend="process") as service:
            service.submit(request).result(timeout=600)
            summary = service.perf_summary()
        assert summary["session"]["num_evaluated"] > 0

    def test_bad_job_backend_rejected(self):
        with pytest.raises(ConfigError, match="job_backend"):
            SchedulerService(job_backend="fibers")


class TestBrokenPool:
    """A killed pool worker breaks its pool; the service rebuilds it."""

    def test_worker_killed_mid_job_is_retried_on_a_new_pool(
            self, tmp_path, tiny_scenario, small_budget):
        marker = tmp_path / "killed"
        service = SchedulerService(Session(killing_registry(str(marker))),
                                   workers=1, job_backend="process")
        try:
            quick = request_for(tiny_scenario, small_budget, "standalone")
            assert service.submit(quick).result(timeout=300)
            first_pool = service._pool
            killed = service.submit(
                request_for(tiny_scenario, small_budget, "killing"))
            result = killed.result(timeout=300)
            assert marker.exists()  # the first run really died
            assert killed.record().state == DONE
            assert result.metrics.latency_s > 0
            assert service._pool is not first_pool
            after = service.submit(
                request_for(tiny_scenario, small_budget, "scar"))
            assert_equivalent(after.result(timeout=600), Session().submit(
                request_for(tiny_scenario, small_budget, "scar")))
        finally:
            service.close()
        with pytest.raises(RuntimeError, match="shutdown"):
            service._pool.submit(os.getpid)  # close() shut the new pool

    def test_job_that_always_kills_fails_and_the_next_job_runs(
            self, tiny_scenario, small_budget):
        service = SchedulerService(Session(killing_registry()), workers=1,
                                   job_backend="process")
        try:
            pool = service._pool
            killer = service.submit(
                request_for(tiny_scenario, small_budget, "killing"))
            with pytest.raises(ReproError, match="BrokenProcessPool"):
                killer.result(timeout=300)
            record = killer.record()
            assert record.state == FAILED
            assert record.error.code == "internal_error"
            # The retry broke the second pool too; a third serves on.
            assert service._pool is not pool
            quick = request_for(tiny_scenario, small_budget, "standalone")
            assert_equivalent(service.submit(quick).result(timeout=300),
                              Session().submit(quick))
        finally:
            service.close()

    def test_concurrent_jobs_rebuild_a_broken_pool_once(
            self, tiny_scenario, small_budget):
        """Two worker threads that both see the dead pool replace it
        once, and both jobs finish on the replacement."""
        service = SchedulerService(workers=2, job_backend="process")
        try:
            pool = service._pool
            broken = []
            real_replace = service._replace_pool

            def replace(old):
                broken.append(old)
                return real_replace(old)

            service._replace_pool = replace
            os.kill(pool.submit(os.getpid).result(timeout=60),
                    signal.SIGKILL)
            handles = service.submit_many([
                request_for(tiny_scenario, small_budget, policy)
                for policy in ("standalone", "nn_baton")])
            for handle in handles:
                assert handle.result(timeout=300).metrics.latency_s > 0
            assert broken and set(map(id, broken)) == {id(pool)}
            assert service._pool is not pool
        finally:
            service.close()


class TestAdmissionControl:
    @pytest.fixture
    def gated_service(self, tiny_scenario, small_budget):
        registry, started, release, order = gated_registry()
        service = SchedulerService(Session(registry), workers=1,
                                   max_pending=1)
        gated = ScheduleRequest.for_scenario(
            tiny_scenario, template="het_sides_3x3", policy="gated",
            budget=small_budget, nsplits=1)
        yield service, gated, started, release
        release.set()
        service.close()

    def test_queue_full_rejects_submit(self, gated_service):
        service, gated, started, release = gated_service
        running = service.submit(gated)
        assert started.wait(timeout=60)  # RUNNING does not count
        queued = service.submit(gated.replace(prov_limit=63))
        with pytest.raises(ServiceOverloadedError, match="max_pending"):
            service.submit(gated.replace(prov_limit=62))
        # The backlog drains; admission reopens.
        release.set()
        assert running.result(timeout=300) is not None
        assert queued.result(timeout=300) is not None
        accepted = service.submit(gated.replace(prov_limit=61))
        assert accepted.result(timeout=300) is not None

    def test_batch_admission_is_all_or_nothing(self, gated_service):
        service, gated, started, release = gated_service
        service.submit(gated)
        assert started.wait(timeout=60)
        before = service.state_counts()["total"]
        batch = [gated.replace(prov_limit=63 - i) for i in range(2)]
        with pytest.raises(ServiceOverloadedError, match="batch of 2"):
            service.submit_many(batch)
        assert service.state_counts()["total"] == before  # nothing queued

    def test_bad_max_pending_rejected(self):
        with pytest.raises(ConfigError, match="max_pending"):
            SchedulerService(max_pending=0)


class TestSharedStore:
    def test_store_served_result_matches_fresh_search(self, tmp_path,
                                                      tiny_scenario,
                                                      small_budget):
        from repro.sweep import ResultStore

        request = request_for(tiny_scenario, small_budget, "scar")
        reference = Session().submit(request)
        path = tmp_path / "cache.jsonl"
        with SchedulerService(Session(),
                              store=ResultStore(path)) as replica_a:
            computed = replica_a.submit(request).result(timeout=600)
            stats_a = replica_a.perf_summary()["store"]
        assert stats_a["misses"] == 1 and stats_a["hits"] == 0
        assert_equivalent(computed, reference)
        # A second replica (fresh session, fresh store object, same
        # path) serves the schedule from the store, without a search.
        with SchedulerService(Session(),
                              store=ResultStore(path)) as replica_b:
            served = replica_b.submit(request).result(timeout=60)
            summary = replica_b.perf_summary()
        assert summary["store"]["hits"] == 1
        assert summary["store"]["hit_rate"] == 1.0
        assert_equivalent(served, reference)
        # The other replica's engine counters were not adopted into
        # this replica's perf log along with its result.
        assert summary["session"]["num_evaluated"] == 0

    def test_refresh_on_miss_sees_late_appends(self, tmp_path,
                                               tiny_scenario,
                                               small_budget):
        """A store object opened before another replica recorded still
        serves the hit: the miss path refreshes from the shared file."""
        from repro.sweep import ResultStore

        request = request_for(tiny_scenario, small_budget, "standalone")
        path = tmp_path / "cache.jsonl"
        mine = ResultStore(path)  # opened first: snapshot is empty
        ResultStore(path).record(Session().submit(request),
                                 key=request.cache_key())
        with SchedulerService(Session(), store=mine) as service:
            service.submit(request).result(timeout=300)
            assert service.perf_summary()["store"]["hits"] == 1

    def test_scalar_entry_serves_a_v1_vector_request(self, tmp_path,
                                                     tiny_scenario,
                                                     small_budget):
        """A result a scalar replica recorded is a store hit for a
        vector replica, even for a v1 document that pinned
        eval_mode="vector": the kernel is not part of the identity."""
        pytest.importorskip("numpy")
        from repro.sweep import ResultStore

        request = request_for(tiny_scenario, small_budget, "scar")
        path = tmp_path / "cache.jsonl"
        with SchedulerService(Session(eval_mode="scalar"),
                              store=ResultStore(path)) as scalar:
            stored = scalar.submit(request).result(timeout=600)
        legacy = ScheduleRequest.from_dict(
            {**request.to_dict(), "eval_mode": "vector", "jobs": 2})
        with SchedulerService(Session(eval_mode="vector"),
                              store=ResultStore(path)) as vector:
            served = vector.submit(legacy).result(timeout=60)
            summary = vector.perf_summary()
        assert summary["store"]["hits"] == 1
        assert summary["store"]["misses"] == 0
        assert summary["session"]["num_evaluated"] == 0  # no search
        assert served.same_payload(stored)


class TestPerfSummary:
    def test_counts_states_and_aggregates_timings(self, tiny_scenario,
                                                  small_budget):
        good = request_for(tiny_scenario, small_budget, "scar")
        bad = request_for(tiny_scenario, small_budget, "failing")
        with SchedulerService(Session(failing_registry()),
                              workers=2) as service:
            for handle in service.submit_many([good, bad]):
                handle.wait(timeout=600)
            summary = service.perf_summary()
        assert summary["jobs"]["total"] == 2
        assert summary["jobs"][DONE] == 1
        assert summary["jobs"][FAILED] == 1
        assert summary["queue"]["count"] == 2
        assert summary["run"]["count"] == 2
        assert summary["run"]["total_s"] > 0
        # the SCAR run's perf report landed in the wrapped session
        assert summary["session"]["num_evaluated"] > 0


class TestTimingSummary:
    def test_accumulates(self):
        summary = TimingSummary.from_samples([1.0, 3.0, 2.0])
        assert summary.count == 3
        assert summary.total_s == 6.0
        assert summary.mean_s == 2.0
        assert summary.max_s == 3.0

    def test_empty(self):
        summary = TimingSummary()
        assert summary.mean_s == 0.0
        assert summary.to_dict() == {"count": 0, "total_s": 0.0,
                                     "mean_s": 0.0, "max_s": 0.0}
