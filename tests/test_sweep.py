"""Tests for the sweep orchestration layer (repro.sweep)."""

import json

import pytest

from repro.api import (
    DEFAULT_REGISTRY,
    PolicyOutcome,
    ScheduleRequest,
    SchedulerRegistry,
    Session,
    scenario_spec,
)
from repro.core.baselines import StandaloneScheduler
from repro.core.budget import SearchBudget
from repro.errors import ConfigError
from repro.sweep import (
    ResultStore,
    SweepSpec,
    run_requests,
    run_sweep,
    sweep_report,
    sweep_status,
)
from service_helpers import failing_registry


def counting_registry():
    """Every built-in policy plus 'counting', 'crashing' and
    'interrupting'.

    Returns ``(registry, runs)``: 'counting' appends each request it
    runs to ``runs`` and returns the standalone baseline's schedule;
    'crashing' raises a ``TypeError``, as a bug deep in a policy
    would; 'interrupting' raises ``KeyboardInterrupt``, as Ctrl-C
    during a search would.
    """
    runs: list[ScheduleRequest] = []
    registry = SchedulerRegistry()
    for name in DEFAULT_REGISTRY.names():
        registry.register(name, DEFAULT_REGISTRY.get(name))

    @registry.register("counting")
    def _counting(ctx):
        runs.append(ctx.request)
        outcome = StandaloneScheduler(ctx.mcm, ctx.database) \
            .schedule(ctx.scenario)
        return PolicyOutcome(schedule=outcome.schedule,
                             metrics=outcome.metrics)

    @registry.register("crashing")
    def _crashing(ctx):
        raise TypeError("unsupported operand")

    @registry.register("interrupting")
    def _interrupting(ctx):
        raise KeyboardInterrupt

    return registry, runs


class InterruptingStore(ResultStore):
    """A store that is interrupted (Ctrl-C) just after each append."""

    def record(self, result, *, key=None):
        super().record(result, key=key)
        raise KeyboardInterrupt


@pytest.fixture
def tiny_spec(tiny_scenario, small_budget) -> SweepSpec:
    """A 1x2x... grid over the tiny fixture workload (4 cells)."""
    return SweepSpec(scenarios=(scenario_spec(tiny_scenario),),
                     templates=("het_sides_3x3",),
                     policies=("scar", "standalone"),
                     nsplits=(1, 2),
                     budget=small_budget)


class TestSweepSpec:
    def test_grid_expansion_order_and_size(self, tiny_spec):
        requests = tiny_spec.requests()
        assert len(requests) == tiny_spec.size == 4
        assert [(r.policy, r.nsplits) for r in requests] == [
            ("scar", 1), ("scar", 2), ("standalone", 1),
            ("standalone", 2)]
        assert all(isinstance(r, ScheduleRequest) for r in requests)

    def test_wire_round_trip(self, tiny_spec):
        rebuilt = SweepSpec.from_json(tiny_spec.to_json())
        assert rebuilt == tiny_spec
        assert [r.cache_key() for r in rebuilt.requests()] \
            == [r.cache_key() for r in tiny_spec.requests()]

    def test_v1_execution_keys_are_ignored(self, tiny_spec):
        """A v1 spec carrying the old execution axes parses to the spec
        without them; every cell keeps its cache key."""
        legacy = {**tiny_spec.to_dict(), "backends": ["process", None],
                  "eval_modes": ["scalar", "vector"], "jobs": 4,
                  "use_eval_cache": False}
        parsed = SweepSpec.from_dict(legacy)
        assert parsed == tiny_spec and parsed.size == 4
        assert [r.cache_key() for r in parsed.requests()] \
            == [r.cache_key() for r in tiny_spec.requests()]

    def test_table3_ids_and_inline_specs_mix(self, tiny_scenario):
        spec = SweepSpec(scenarios=(1, scenario_spec(tiny_scenario)))
        requests = spec.requests()
        assert requests[0].scenario_id == 1
        assert requests[1].scenario_spec is not None

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigError, match="empty"):
            SweepSpec(scenarios=())

    def test_scalar_axis_rejected(self, tiny_scenario):
        with pytest.raises(ConfigError):
            SweepSpec(scenarios=1)

    def test_bad_scenario_entry_rejected(self):
        with pytest.raises(ConfigError):
            SweepSpec(scenarios=("sc1",))

    @pytest.mark.parametrize("axes", [{"scenarios": (11,)},
                                      {"scenarios": (1,),
                                       "templates": ("nope",)}],
                             ids=["scenario", "template"])
    def test_unknown_axis_value_rejected_when_cells_are_built(self, axes):
        with pytest.raises(ConfigError, match="must be"):
            SweepSpec(**axes).requests()

    def test_bad_envelope_rejected(self):
        with pytest.raises(ConfigError):
            SweepSpec.from_dict({"kind": "something_else", "version": 1})


class TestResultStore:
    def test_round_trip(self, tmp_path, tiny_spec):
        store = ResultStore(tmp_path / "s.jsonl")
        outcome = run_sweep(tiny_spec, store=store)
        key = tiny_spec.requests()[0].cache_key()
        reloaded = ResultStore(tmp_path / "s.jsonl")
        assert len(reloaded) == 4
        assert reloaded.get(key).same_payload(outcome.results[key])

    def test_missing_file_is_empty(self, tmp_path):
        store = ResultStore(tmp_path / "missing.jsonl")
        assert len(store) == 0 and store.get("nope") is None

    def test_torn_final_line_is_tolerated(self, tmp_path, tiny_spec):
        """An unterminated tail is pending -- either a writer died
        mid-append (torn) or another replica is mid-append right now --
        so it is neither loaded nor counted corrupt until a newline
        lands."""
        path = tmp_path / "s.jsonl"
        store = ResultStore(path)
        run_sweep(tiny_spec, store=store)
        with path.open("a") as handle:
            handle.write('{"kind": "sweep_cell", "key": "x", "resu')
        reloaded = ResultStore(path)
        assert len(reloaded) == 4
        assert reloaded.corrupt_lines == 0
        # Once terminated, the line is consumed -- and it is garbage.
        with path.open("a") as handle:
            handle.write("\n")
        assert reloaded.refresh() == 0
        assert len(reloaded) == 4
        assert reloaded.corrupt_lines == 1

    def test_append_after_a_torn_line_stays_whole(self, tmp_path,
                                                  tiny_spec):
        """A run killed mid-append leaves half a line; the resumed run
        recomputes that cell, and its append starts on a fresh line
        instead of continuing the torn one."""
        path = tmp_path / "s.jsonl"
        run_sweep(tiny_spec, store=ResultStore(path))
        data = path.read_bytes()
        last = data.rindex(b"\n", 0, len(data) - 1) + 1
        path.write_bytes(data[:(last + len(data)) // 2])
        resumed = run_sweep(tiny_spec, store=ResultStore(path))
        assert resumed.computed == 1 and resumed.skipped == 3
        store = ResultStore(path)
        again = run_sweep(tiny_spec, store=store)
        assert again.computed == 0 and again.skipped == 4
        assert store.corrupt_lines == 1  # the torn half, now terminated

    def test_refresh_sees_other_replicas_appends(self, tmp_path,
                                                 tiny_spec):
        """Two store objects on one path: records by one become visible
        to the other after refresh() (the cross-replica cache path)."""
        path = tmp_path / "s.jsonl"
        mine = ResultStore(path)
        theirs = ResultStore(path)
        outcome = run_sweep(tiny_spec, store=mine)
        key = tiny_spec.requests()[0].cache_key()
        assert key not in theirs  # opened before the campaign ran
        assert theirs.refresh() == 4
        assert len(theirs) == 4
        assert theirs.get(key).same_payload(outcome.results[key])
        assert theirs.refresh() == 0  # nothing new: offset caught up

    def test_record_adopts_concurrent_append_without_duplicating(
            self, tmp_path, tiny_spec):
        """record() refreshes first, so a cell another replica finished
        in the meantime is adopted instead of appended twice."""
        path = tmp_path / "s.jsonl"
        mine = ResultStore(path)
        theirs = ResultStore(path)
        outcome = run_sweep(tiny_spec, store=theirs)
        result = next(iter(outcome.results.values()))
        before = path.read_text()
        mine.record(result)
        assert path.read_text() == before
        assert len(mine) == 4

    @pytest.mark.parametrize("breakage", ["future-version",
                                          "negative-segment-start"])
    def test_unparsable_stored_result_is_recomputed(self, tmp_path,
                                                    tiny_spec, breakage):
        """A cell whose stored payload no longer parses (wire-version
        bump, mangled mid-file) is recomputed and re-recorded, not a
        campaign abort.  That includes a schedule that decodes but
        fails the Schedule checks, which used to escape as a
        SchedulingError and abort the sweep."""
        path = tmp_path / "s.jsonl"
        run_sweep(tiny_spec, store=ResultStore(path))
        key = tiny_spec.requests()[0].cache_key()
        lines = path.read_text().splitlines()
        doc = json.loads(lines[0])
        assert doc["key"] == key
        if breakage == "future-version":
            doc["result"]["version"] = 999
        else:
            windows = doc["result"]["schedule"]["windows"]
            windows[0]["chains"][0][0]["start"] = -1
        path.write_text("\n".join([json.dumps(doc)] + lines[1:]) + "\n")
        store = ResultStore(path)
        outcome = run_sweep(tiny_spec, store=store)
        assert outcome.computed == 1 and outcome.skipped == 3
        assert store.corrupt_lines == 1
        # The recomputed cell was re-recorded; a fresh rerun skips all.
        again = run_sweep(tiny_spec, store=ResultStore(path))
        assert again.computed == 0 and again.skipped == 4

    def test_legacy_perf_jobs_key_is_served(self, tmp_path, tiny_spec):
        """Results stored while the window search had a worker pool
        carry ``perf.jobs``; they are served, not counted corrupt."""
        path = tmp_path / "s.jsonl"
        run_sweep(tiny_spec, store=ResultStore(path))
        docs = [json.loads(line) for line in path.read_text().splitlines()]
        legacy = next(doc for doc in docs
                      if doc["result"].get("perf") is not None)
        assert "jobs" not in legacy["result"]["perf"]
        legacy["result"]["perf"]["jobs"] = 1
        path.write_text("".join(json.dumps(doc) + "\n" for doc in docs))
        store = ResultStore(path)
        served = store.get(legacy["key"])
        assert served is not None and served.perf is not None
        assert store.corrupt_lines == 0
        again = run_sweep(tiny_spec, store=store)
        assert again.computed == 0 and again.skipped == 4
        assert store.corrupt_lines == 0

    def test_record_is_idempotent(self, tmp_path, tiny_spec):
        path = tmp_path / "s.jsonl"
        store = ResultStore(path)
        outcome = run_sweep(tiny_spec, store=store)
        result = next(iter(outcome.results.values()))
        before = path.read_text()
        store.record(result)
        assert path.read_text() == before


class TestRunSweep:
    def test_first_run_computes_everything(self, tmp_path, tiny_spec):
        outcome = run_sweep(tiny_spec,
                            store=ResultStore(tmp_path / "s.jsonl"))
        assert outcome.computed == 4
        assert outcome.skipped == 0 and outcome.failed == 0
        assert all(result is not None
                   for result in outcome.ordered_results())

    def test_resume_skips_everything_bit_identically(self, tmp_path,
                                                     tiny_spec):
        path = tmp_path / "s.jsonl"
        first = run_sweep(tiny_spec, store=ResultStore(path))
        second = run_sweep(tiny_spec, store=ResultStore(path))
        assert second.computed == 0 and second.skipped == 4
        # Segment-eval counters stay flat: nothing was recomputed.
        assert second.perf.num_segments == 0
        for a, b in zip(first.ordered_results(),
                        second.ordered_results()):
            assert a.same_payload(b)

    def test_partial_store_resumes_only_missing_cells(self, tmp_path,
                                                      tiny_spec):
        path = tmp_path / "s.jsonl"
        requests = tiny_spec.requests()
        run_requests(requests[:2], store=ResultStore(path))
        outcome = run_sweep(tiny_spec, store=ResultStore(path))
        assert outcome.skipped == 2 and outcome.computed == 2

    def test_no_store_recomputes(self, tiny_spec):
        outcome = run_sweep(tiny_spec)
        assert outcome.computed == 4 and outcome.skipped == 0

    def test_duplicate_cells_compute_once(self, tiny_scenario,
                                          small_budget):
        spec = scenario_spec(tiny_scenario)
        request = ScheduleRequest(scenario_spec=spec, nsplits=1,
                                  budget=small_budget)
        outcome = run_requests([request, request])
        assert outcome.computed == 2  # both grid cells resolved...
        assert len(outcome.results) == 1  # ...by one unique run

    def test_failed_cell_is_collected_not_raised(self, tiny_scenario,
                                                 small_budget):
        good = ScheduleRequest(scenario_spec=scenario_spec(tiny_scenario),
                               nsplits=1, budget=small_budget)
        bad = good.replace(policy="failing")
        outcome = run_requests([good, bad],
                               session=Session(failing_registry()))
        assert outcome.failed == 1
        assert outcome.result_for(good) is not None
        assert outcome.result_for(bad) is None
        error = outcome.failures[bad.cache_key()]
        assert error.code == "search_error"

    def test_unregistered_policy_rejects_the_run(self, tiny_scenario,
                                                 small_budget):
        """Not a failed cell: the session cannot run the policy at all,
        so the sweep is refused before any cell is queued."""
        good = ScheduleRequest(scenario_spec=scenario_spec(tiny_scenario),
                               nsplits=1, budget=small_budget)
        session = Session()
        with pytest.raises(ConfigError, match="unknown policy"):
            run_requests([good, good.replace(policy="failing")],
                         session=session)
        assert session.cached(good) is None

    def test_failed_cell_not_stored_and_retried(self, tmp_path,
                                                tiny_scenario,
                                                small_budget):
        store = ResultStore(tmp_path / "s.jsonl")
        bad = ScheduleRequest(scenario_spec=scenario_spec(tiny_scenario),
                              nsplits=1, budget=small_budget,
                              policy="failing")
        run_requests([bad], store=store, session=Session(failing_registry()))
        assert len(store) == 0
        retry = run_requests([bad], store=ResultStore(tmp_path / "s.jsonl"),
                             session=Session(failing_registry()))
        assert retry.skipped == 0 and retry.failed == 1

    def test_shared_session_memoizes_across_sweeps(self, tiny_spec):
        session = Session()
        first = run_sweep(tiny_spec, session=session)
        assert first.perf.num_segments > 0
        again = run_sweep(tiny_spec, session=session)
        # The session memo serves every cell, and outcome.perf covers
        # this run only -- so its counters are flat even though the
        # shared session's lifetime log is not.
        assert again.perf.num_segments == 0
        assert session.perf_summary().num_segments \
            == first.perf.num_segments

    def test_crashing_cell_is_an_internal_error(self, tiny_scenario,
                                                small_budget):
        """A policy bug is collected with the code the CLI and the HTTP
        service report for the same crash, and the campaign goes on."""
        registry, _ = counting_registry()
        good = ScheduleRequest(scenario_spec=scenario_spec(tiny_scenario),
                               nsplits=1, budget=small_budget)
        bad = good.replace(policy="crashing")
        outcome = run_requests([bad, good], session=Session(registry))
        assert outcome.failed == 1 and outcome.computed == 1
        error = outcome.failures[bad.cache_key()]
        assert error.code == "internal_error"
        assert error.message == "TypeError: unsupported operand"

    def test_cell_another_process_stored_meanwhile_is_skipped(
            self, tmp_path, tiny_scenario, small_budget):
        """While cell 1 runs, a second ResultStore on the same file
        records cell 2, as a concurrent ``scar sweep`` would.  The
        sweep re-reads its store before cell 2 and takes it from there:
        one search, not two."""
        registry, runs = counting_registry()
        path = tmp_path / "s.jsonl"
        base = ScheduleRequest(scenario_spec=scenario_spec(tiny_scenario),
                               budget=small_budget, policy="recording")
        first, second = base.replace(nsplits=1), base.replace(nsplits=2)
        counting = registry.get("counting")

        @registry.register("recording")
        def _recording(ctx):
            if ctx.request == first:
                ResultStore(path).record(elsewhere)
            return counting(ctx)

        elsewhere = Session(registry).submit(second)
        runs.clear()
        store = ResultStore(path)
        outcome = run_requests([first, second], store=store,
                               session=Session(registry))
        assert outcome.computed == 1 and outcome.skipped == 1
        assert runs == [first]
        assert outcome.result_for(second).same_payload(elsewhere)
        assert len(path.read_text().splitlines()) == 2

    def test_store_is_refreshed_before_a_cell(self, tmp_path, tiny_spec):
        """A store object opened before another process appended a cell
        still serves that cell: the runner re-reads the file first."""
        path = tmp_path / "s.jsonl"
        store = ResultStore(path)
        request = tiny_spec.requests()[0]
        elsewhere = Session().submit(request)
        ResultStore(path).record(elsewhere)
        outcome = run_requests([request], store=store)
        assert outcome.computed == 0 and outcome.skipped == 1
        assert outcome.result_for(request).same_payload(elsewhere)

    def test_cells_run_in_grid_order(self, tiny_scenario, small_budget):
        registry, runs = counting_registry()
        base = ScheduleRequest(scenario_spec=scenario_spec(tiny_scenario),
                               budget=small_budget, policy="counting")
        requests = [base.replace(nsplits=n) for n in (3, 1, 2, 1)]
        run_requests(requests, session=Session(registry))
        assert [request.nsplits for request in runs] == [3, 1, 2]

    def test_interrupt_stops_the_campaign(self, tmp_path, tiny_scenario,
                                          small_budget):
        """Ctrl-C after the first cell is stored runs no further cell,
        and a rerun resumes after it."""
        registry, runs = counting_registry()
        base = ScheduleRequest(scenario_spec=scenario_spec(tiny_scenario),
                               budget=small_budget, policy="counting")
        requests = [base.replace(nsplits=n) for n in (1, 2, 3, 4)]
        path = tmp_path / "s.jsonl"
        with pytest.raises(KeyboardInterrupt):
            run_requests(requests, store=InterruptingStore(path),
                         session=Session(registry))
        assert len(runs) == 1
        resumed = run_requests(requests, store=ResultStore(path),
                               session=Session(registry))
        assert resumed.skipped == 1 and resumed.computed == 3
        assert len(runs) == 4

    def test_interrupt_inside_a_cell_is_not_a_failed_cell(
            self, tiny_scenario, small_budget):
        registry, runs = counting_registry()
        good = ScheduleRequest(scenario_spec=scenario_spec(tiny_scenario),
                               nsplits=1, budget=small_budget,
                               policy="counting")
        with pytest.raises(KeyboardInterrupt):
            run_requests([good.replace(policy="interrupting"), good],
                         session=Session(registry))
        assert runs == []


class TestSweepReport:
    def test_render_mentions_cells_and_best(self, tiny_spec):
        outcome = run_sweep(tiny_spec)
        text = sweep_report(outcome).render()
        assert "4 computed" in text
        assert "best EDP per scenario" in text
        assert "scar" in text and "standalone" in text

    def test_document_shape(self, tmp_path, tiny_spec):
        path = tmp_path / "s.jsonl"
        run_sweep(tiny_spec, store=ResultStore(path))
        outcome = run_sweep(tiny_spec, store=ResultStore(path))
        doc = sweep_report(outcome).to_document()
        assert doc["kind"] == "sweep_report"
        assert doc["cells"] == 4 and doc["computed"] == 0
        assert doc["skipped"] == 4 and doc["num_segments"] == 0
        assert json.loads(json.dumps(doc)) == doc  # JSON-serializable

    def test_failure_rows_carry_error(self, tiny_scenario, small_budget):
        bad = ScheduleRequest(scenario_spec=scenario_spec(tiny_scenario),
                              nsplits=1, budget=small_budget,
                              policy="failing")
        outcome = run_requests([bad], session=Session(failing_registry()))
        doc = sweep_report(outcome).to_document()
        assert doc["rows"][0]["error"]["code"] == "search_error"
        assert "search_error" in sweep_report(outcome).render()


class TestSweepStatus:
    def test_no_store_means_all_pending(self, tiny_spec):
        status = sweep_status(tiny_spec, None)
        assert status.total == tiny_spec.size == 4
        assert status.finished == ()
        assert len(status.pending) == 4
        assert not status.complete and status.extra == 0

    def test_partial_store_partitions_the_grid(self, tmp_path,
                                               tiny_spec):
        path = tmp_path / "s.jsonl"
        requests = tiny_spec.requests()
        run_requests(requests[:3], store=ResultStore(path))
        status = sweep_status(tiny_spec, ResultStore(path))
        assert [r.cache_key() for r in status.finished] \
            == [r.cache_key() for r in requests[:3]]
        assert [r.cache_key() for r in status.pending] \
            == [r.cache_key() for r in requests[3:]]
        assert not status.complete

    def test_complete_campaign(self, tmp_path, tiny_spec):
        path = tmp_path / "s.jsonl"
        run_sweep(tiny_spec, store=ResultStore(path))
        status = sweep_status(tiny_spec, ResultStore(path))
        assert status.complete and len(status.finished) == 4
        assert "campaign complete" in status.render()

    def test_extra_entries_counted_not_claimed(self, tmp_path,
                                               tiny_spec, tiny_scenario,
                                               small_budget):
        path = tmp_path / "s.jsonl"
        stranger = ScheduleRequest(
            scenario_spec=scenario_spec(tiny_scenario), nsplits=3,
            budget=small_budget)
        assert stranger.cache_key() not in \
            {r.cache_key() for r in tiny_spec.requests()}
        run_requests([stranger], store=ResultStore(path))
        status = sweep_status(tiny_spec, ResultStore(path))
        assert status.extra == 1
        assert len(status.pending) == 4
        assert "unrelated store entries" in status.render()

    def test_sees_another_writers_progress(self, tmp_path, tiny_spec):
        path = tmp_path / "s.jsonl"
        store = ResultStore(path)  # opened before the other writer runs
        run_requests(tiny_spec.requests()[:1], store=ResultStore(path))
        status = sweep_status(tiny_spec, store)
        assert len(status.finished) == 1  # refresh() picked it up

    def test_document_shape(self, tmp_path, tiny_spec):
        path = tmp_path / "s.jsonl"
        run_requests(tiny_spec.requests()[:2], store=ResultStore(path))
        doc = sweep_status(tiny_spec, ResultStore(path)).to_document()
        assert doc["kind"] == "sweep_status"
        assert doc["cells"] == 4 and doc["finished"] == 2
        assert doc["pending"] == 2 and not doc["complete"]
        assert [row["key"] for row in doc["pending_rows"]] \
            == [r.cache_key() for r in tiny_spec.requests()[2:]]
        assert json.loads(json.dumps(doc)) == doc

    def test_render_lists_pending_cells(self, tiny_spec):
        text = sweep_status(tiny_spec, None).render()
        assert "0/4 cells finished" in text
        assert text.count("pending:") == 4
        assert "standalone" in text
