"""JSON wire-format round-trip tests for the repro.api value types.

Property-style: seeded-random :class:`ScheduleRequest` instances must
survive ``from_dict(to_dict(x)) == x`` exactly (same for the JSON string
form), and malformed documents must fail loudly with ``ConfigError``.
"""

from __future__ import annotations

import copy
import dataclasses
import gc
import json
import pickle
import random
import sys
from pathlib import Path

import pytest

from repro.api import (
    CandidateColumns,
    CandidatePoint,
    ScheduleRequest,
    ScheduleResult,
    Session,
    metrics_from_dict,
    metrics_to_dict,
    perf_from_dict,
    perf_to_dict,
    scenario_spec,
)
from repro.core.budget import QUICK_BUDGET, SearchBudget
from repro.errors import ConfigError, ReproError
from repro.perf import CacheStats, PerfReport


def _random_request(rng: random.Random) -> ScheduleRequest:
    """One random-but-valid request (all fields exercised over a run)."""
    return ScheduleRequest(
        scenario_id=rng.randint(1, 10),
        template=rng.choice(("het_sides_3x3", "simba_nvd_3x3",
                             "het_cross_6x6")),
        policy=rng.choice(("standalone", "nn_baton", "scar",
                           "evolutionary")),
        objective=rng.choice(("latency", "energy", "edp")),
        latency_bound_s=rng.choice((None, rng.uniform(1e-4, 1.0))),
        nsplits=rng.randint(0, 5),
        budget=SearchBudget(
            top_k_segmentations=rng.randint(1, 4),
            max_segment_candidates=rng.randint(1, 128),
            max_root_combos=rng.randint(1, 24),
            max_paths_per_model=rng.randint(1, 12),
            max_candidates_per_window=rng.randint(1, 400),
            seed=rng.randint(0, 99),
        ),
        packing=rng.choice(("greedy", "uniform")),
        provisioning=rng.choice(("uniform", "exhaustive")),
        prov_limit=rng.randint(1, 64),
        max_nodes_per_model=rng.choice((None, rng.randint(1, 9))),
        seg_search=rng.choice(("enumerative", "evolutionary")),
        beam=rng.choice((None, rng.randint(1, 8))),
    )

#: The execution settings v1 documents carried inside the request.
_LEGACY_EXECUTION_KEYS = {"jobs": 4, "backend": "process",
                          "eval_mode": "vector", "use_eval_cache": False,
                          "memoize": False}


class TestRequestRoundTrip:
    def test_default_request(self):
        request = ScheduleRequest(scenario_id=4)
        assert ScheduleRequest.from_dict(request.to_dict()) == request

    @pytest.mark.parametrize("seed", range(20))
    def test_random_requests(self, seed):
        request = _random_request(random.Random(seed))
        assert ScheduleRequest.from_dict(request.to_dict()) == request
        assert ScheduleRequest.from_json(request.to_json()) == request

    def test_round_trip_through_json_text(self):
        """The wire form survives an actual serialize/parse cycle."""
        request = _random_request(random.Random(1234))
        text = json.dumps(request.to_dict())
        assert ScheduleRequest.from_dict(json.loads(text)) == request

    def test_inline_spec_round_trip(self, tiny_scenario):
        request = ScheduleRequest.for_scenario(
            tiny_scenario, template="het_sides_3x3", budget=QUICK_BUDGET)
        clone = ScheduleRequest.from_json(request.to_json())
        assert clone == request
        rebuilt = clone.resolve_scenario()
        assert rebuilt == tiny_scenario

    def test_table3_spec_stays_compact(self):
        """Zoo-resolvable models are referenced by name, not inlined."""
        from repro.workloads.scenarios import scenario

        spec = scenario_spec(scenario(1))
        assert all("layers" not in entry for entry in spec["models"])
        request = ScheduleRequest(scenario_spec=spec)
        assert request.resolve_scenario() == scenario(1)

    def test_custom_model_spec_inlines_layers(self, tiny_scenario):
        spec = scenario_spec(tiny_scenario)
        assert all("layers" in entry for entry in spec["models"])

    def test_cache_key_is_canonical_and_covers_flags(self):
        request = ScheduleRequest(scenario_id=4)
        assert request.cache_key() == \
            ScheduleRequest.from_dict(request.to_dict()).cache_key()
        assert request.cache_key() != \
            request.replace(beam=2).cache_key()
        assert request.cache_key() != \
            request.replace(packing="uniform").cache_key()
        assert request.cache_key() != \
            request.replace(latency_bound_s=0.5).cache_key()

    def test_request_names_the_problem_only(self):
        """14 problem fields; the wire form adds only kind/version."""
        request = ScheduleRequest(scenario_id=4)
        assert len(dataclasses.fields(ScheduleRequest)) == 14
        assert len(request.to_dict()) == 16
        assert not set(_LEGACY_EXECUTION_KEYS) & set(request.to_dict())

    @pytest.mark.parametrize("seed", range(3))
    def test_v1_execution_keys_are_ignored(self, seed):
        """A v1 document pinning all five execution keys parses to the
        request without them, under the same cache key."""
        request = _random_request(random.Random(seed))
        legacy = {**request.to_dict(), **_LEGACY_EXECUTION_KEYS}
        parsed = ScheduleRequest.from_dict(legacy)
        assert parsed == request
        assert parsed.cache_key() == request.cache_key()

    def test_replace(self):
        request = ScheduleRequest(scenario_id=4)
        assert request.replace(objective="latency").objective == "latency"

    def test_requests_are_hashable(self, tiny_scenario):
        """Inline-spec requests (dict field) still hash as value objects."""
        by_id = ScheduleRequest(scenario_id=4)
        by_spec = ScheduleRequest.for_scenario(tiny_scenario)
        assert len({by_id, ScheduleRequest(scenario_id=4), by_spec,
                    ScheduleRequest.for_scenario(tiny_scenario)}) == 2
        assert hash(by_spec) == hash(
            ScheduleRequest.from_dict(by_spec.to_dict()))


class TestRequestValidation:
    def test_scenario_ref_is_exclusive(self):
        with pytest.raises(ConfigError):
            ScheduleRequest()
        with pytest.raises(ConfigError):
            ScheduleRequest(scenario_id=1,
                            scenario_spec={"name": "x", "models": []})

    @pytest.mark.parametrize("use_case", ["x", None, ["arvr"]])
    def test_inline_spec_use_case_is_checked_at_parse(self, use_case):
        """Rejected here, not as a HardwareError once a session
        resolves the scenario."""
        from repro.workloads import scenario

        spec = scenario_spec(scenario(8))
        document = ScheduleRequest(scenario_spec=spec).to_dict()
        document["scenario_spec"]["use_case"] = use_case
        with pytest.raises(ConfigError, match="use_case"):
            ScheduleRequest.from_dict(document)
        with pytest.raises(ConfigError, match="use_case"):
            ScheduleRequest(scenario_spec={**spec, "use_case": use_case})

    @pytest.mark.parametrize("change", [
        {"model": "nope"}, {"batch": 0}, {"batch": "2"},
        {"layers": [{"name": "x"}]}, {"model": None}],
        ids=["unknown-model", "batch-0", "string-batch", "bad-layer",
             "null-model"])
    def test_inline_spec_is_resolved_at_parse(self, change):
        """The whole spec resolves when the request is built, so a
        replica refuses it at the POST instead of failing the job."""
        from repro.workloads import scenario

        spec = scenario_spec(scenario(8))
        spec["models"][0].update(change)
        document = ScheduleRequest(scenario_id=8).to_dict()
        document.update(scenario_id=None, scenario_spec=spec)
        with pytest.raises(ConfigError, match="malformed scenario"):
            ScheduleRequest.from_dict(document)
        with pytest.raises(ConfigError, match="malformed scenario"):
            ScheduleRequest(scenario_spec=spec)

    def test_inline_spec_use_case_defaults_to_datacenter(self):
        from repro.workloads import scenario

        spec = scenario_spec(scenario(1))
        del spec["use_case"]
        request = ScheduleRequest(scenario_spec=spec)
        assert request.resolve_scenario().use_case == "datacenter"

    def test_legacy_jobs_key_is_never_read(self):
        """A request document's jobs key, even a bad one, is ignored."""
        data = {**ScheduleRequest(scenario_id=1).to_dict(), "jobs": 0}
        assert ScheduleRequest.from_dict(data) == \
            ScheduleRequest(scenario_id=1)

    def test_bad_objective(self):
        with pytest.raises(Exception):
            ScheduleRequest(scenario_id=1, objective="power")

    def test_malformed_document(self):
        with pytest.raises(ConfigError):
            ScheduleRequest.from_dict({"kind": "schedule_request",
                                       "version": 1})

    def test_wrong_kind(self):
        request = ScheduleRequest(scenario_id=1)
        data = request.to_dict()
        data["kind"] = "something_else"
        with pytest.raises(ConfigError):
            ScheduleRequest.from_dict(data)

    def test_unsupported_version(self):
        data = ScheduleRequest(scenario_id=1).to_dict()
        data["version"] = 999
        with pytest.raises(ConfigError):
            ScheduleRequest.from_dict(data)

    def test_missing_envelope_rejected(self):
        """Documents without kind/version fail the gate, not field lookup."""
        data = ScheduleRequest(scenario_id=1).to_dict()
        for dropped in ("kind", "version"):
            broken = dict(data)
            del broken[dropped]
            with pytest.raises(ConfigError,
                               match="kind|version"):
                ScheduleRequest.from_dict(broken)

    def test_bad_json_text(self):
        with pytest.raises(ConfigError):
            ScheduleRequest.from_json("{not json")


class TestAuxRoundTrips:
    def test_perf_report(self):
        perf = PerfReport(wall_s=1.25, num_evaluated=100, num_windows=3,
                          cache={"window": CacheStats(hits=5, misses=7)})
        assert perf_from_dict(perf_to_dict(perf)) == perf
        assert "jobs" not in perf_to_dict(perf)

    def test_perf_report_legacy_keys_ignored(self):
        """Reports written while the window search had a worker pool
        carry ``jobs``, and those written while evaluator caches could
        evict carry a per-table ``evictions`` count; both parse, and
        neither is read."""
        perf = PerfReport(wall_s=1.25, num_evaluated=100, num_windows=3,
                          cache={"window": CacheStats(hits=5, misses=7)})
        document = {**perf_to_dict(perf), "jobs": 2}
        document["cache"]["window"]["evictions"] = 3
        assert perf_from_dict(document) == perf
        assert "evictions" not in perf_to_dict(perf)["cache"]["window"]

    def test_perf_report_without_jobs_key_parses(self):
        document = {"wall_s": 0.5, "num_evaluated": 4, "num_windows": 2,
                    "cache": {"chain": {"hits": 1, "misses": 3}}}
        assert perf_from_dict(document) == PerfReport(
            wall_s=0.5, num_evaluated=4, num_windows=2,
            cache={"chain": CacheStats(hits=1, misses=3)})

    def test_metrics_round_trip_from_real_run(self, tiny_scenario,
                                              nvd_mcm):
        from repro.core import ScheduleEvaluator, StandaloneScheduler

        outcome = StandaloneScheduler(nvd_mcm).schedule(tiny_scenario)
        metrics = outcome.metrics
        clone = metrics_from_dict(metrics_to_dict(metrics))
        assert clone == metrics
        assert clone.edp == metrics.edp
        # and again through real JSON text
        assert metrics_from_dict(
            json.loads(json.dumps(metrics_to_dict(metrics)))) == metrics


def _quick_request(tiny_scenario) -> ScheduleRequest:
    return ScheduleRequest.for_scenario(
        tiny_scenario, template="het_sides_3x3", policy="scar",
        budget=QUICK_BUDGET, nsplits=1)


@pytest.fixture
def result(tiny_scenario):
    return Session().submit(_quick_request(tiny_scenario))


#: A version-1 ``schedule_result`` document (one object per candidate)
#: as a replica sent it before version 2: scenario 4, QUICK_BUDGET,
#: nsplits=1, about 20 KB.
_V1_RESULT_PATH = Path(__file__).parent / "fixtures" \
    / "schedule_result_v1.json"


#: A field a test case deletes instead of setting.
_DROP = object()


@pytest.fixture
def v1_document():
    return json.loads(_V1_RESULT_PATH.read_text(encoding="utf-8"))


class TestResultRoundTrip:
    def test_dict_round_trip(self, result):
        clone = ScheduleResult.from_dict(result.to_dict())
        assert clone == result

    def test_json_round_trip(self, result):
        clone = ScheduleResult.from_json(result.to_json())
        assert clone == result
        assert clone.metrics == result.metrics
        assert clone.schedule == result.schedule
        assert clone.window_candidates == result.window_candidates
        assert clone.perf == result.perf

    def test_legacy_perf_key_still_parses(self, result):
        """Documents written before the perf logs became running totals
        carry ``perf.reports_dropped``; it is ignored."""
        document = json.loads(result.to_json())
        document["perf"]["reports_dropped"] = 0
        clone = ScheduleResult.from_dict(document)
        assert clone.same_payload(result)
        assert clone.perf == result.perf

    def test_candidate_points_survive_the_wire(self, result,
                                              tiny_scenario):
        from repro.core.scar import SCARScheduler
        from repro.mcm import templates

        clone = ScheduleResult.from_json(result.to_json())
        assert clone.candidate_points() == result.candidate_points()
        direct = SCARScheduler(
            templates.build("het_sides_3x3", tiny_scenario.use_case),
            budget=QUICK_BUDGET, nsplits=1).schedule(tiny_scenario)
        assert clone.candidate_points() == direct.candidate_points()

    def test_value_lookup(self, result):
        assert result.value("edp") == pytest.approx(
            result.value("latency") * result.value("energy"))
        with pytest.raises(ConfigError):
            result.value("power")

    @pytest.mark.parametrize("point", [
        {"score": 1.0, "latency_s": 0.01},
        [1.0, 0.01, 0.002],
        None,
        {"score": "x", "latency_s": 0.01, "energy_j": 0.002},
        {"score": 1.0, "latency_s": None, "energy_j": 0.002},
        {"score": 1.0, "latency_s": 0.01, "energy_j": [1]},
        {"score": 1.0, "latency_s": 0.01, "energy_j": {"j": 1}},
        {"score": 10**400, "latency_s": 0.01, "energy_j": 0.002},
    ], ids=["missing-energy", "list", "null", "string-score",
            "null-latency", "list-energy", "object-energy",
            "int-beyond-double"])
    def test_malformed_window_candidate_is_config_error(self, v1_document,
                                                        point):
        """Version 1: rejected while the columns fill, not later as a
        TypeError inside candidate_points()."""
        v1_document["window_candidates"][0][0] = point
        with pytest.raises(ConfigError, match="candidate point"):
            ScheduleResult.from_dict(v1_document)

    @pytest.mark.parametrize("column,index,value", [
        ("energy_j", None, _DROP), ("energy_j", None, None),
        ("score", None, "x"), ("score", None, {}),
        ("latency_s", None, 0.01), ("score", 0, "x"),
        ("energy_j", 0, None), ("score", 0, [1.0]),
        ("latency_s", None, [1.0]), ("score", 0, 10**400),
    ], ids=["missing-column", "null-column", "string-column",
            "object-column", "number-column", "string-value",
            "null-value", "list-value", "unequal-lengths",
            "int-beyond-double"])
    def test_malformed_window_columns_are_config_error(
            self, result, column, index, value):
        """Version 2's twins of the version-1 cases above: ``value``
        replaces a whole column (``index`` None) or one of its items."""
        document = result.to_dict()
        window = document["window_candidates"][0]
        assert len(window[column]) > 1
        if value is _DROP:
            del window[column]
        elif index is None:
            window[column] = value
        else:
            window[column][index] = value
        with pytest.raises(ConfigError, match="candidate columns"):
            ScheduleResult.from_dict(document)

    @pytest.mark.parametrize("window", [None, [], "x", 1.0])
    def test_window_that_is_no_object_is_config_error(self, result,
                                                      window):
        document = result.to_dict()
        document["window_candidates"][0] = window
        with pytest.raises(ConfigError, match="candidate columns"):
            ScheduleResult.from_dict(document)

    def test_version_2_writes_each_window_as_three_columns(self, result):
        document = json.loads(result.wire_bytes)
        assert document["version"] == 2
        assert len(document["window_candidates"]) == \
            len(result.window_candidates)
        for window, columns in zip(result.window_candidates,
                                   document["window_candidates"]):
            assert sorted(columns) == ["energy_j", "latency_s", "score"]
            assert columns["score"] == [p.score for p in window]
            assert columns["latency_s"] == [p.latency_s for p in window]
            assert columns["energy_j"] == [p.energy_j for p in window]

    def test_version_1_document_parses_to_a_fresh_result(self,
                                                         v1_document):
        """A document a replica sent before version 2 (and a
        ResultStore line written then) reads as the same result a
        search makes now."""
        parsed = ScheduleResult.from_dict(v1_document)
        assert parsed.request == ScheduleRequest(
            scenario_id=4, budget=QUICK_BUDGET, nsplits=1)
        assert parsed.same_payload(Session().submit(parsed.request))
        assert parsed.perf is not None
        assert parsed.perf.wall_s == v1_document["perf"]["wall_s"]
        assert sum(map(len, parsed.window_candidates)) == sum(
            map(len, v1_document["window_candidates"]))
        assert ScheduleResult.from_dict(parsed.to_dict()) == parsed

    @pytest.mark.parametrize("version", [True, False, 0, 3, -1, 2.5,
                                         "2", None, [2]])
    def test_result_version_must_be_1_or_2(self, result, v1_document,
                                           version):
        for document in (result.to_dict(), v1_document):
            document["version"] = version
            with pytest.raises(ConfigError, match="wire version"):
                ScheduleResult.from_dict(document)

    @pytest.mark.parametrize("version", [2, True])
    def test_every_other_kind_reads_only_version_1(self, version):
        from repro.api import ErrorDocument
        from repro.service import JobRecord

        request = ScheduleRequest(scenario_id=1)
        job = JobRecord(job_id="job-1", request=request)
        for parse, document in (
                (ScheduleRequest.from_dict, request.to_dict()),
                (JobRecord.from_dict, job.to_dict()),
                (ErrorDocument.from_dict,
                 ErrorDocument(code="x", message="y").to_dict())):
            assert parse(document) is not None
            document["version"] = version
            with pytest.raises(ConfigError, match="wire version"):
                parse(document)

    @pytest.mark.parametrize("breakage", ["negative-start",
                                          "non-contiguous-chain"])
    def test_invalid_schedule_is_config_error(self, result, breakage):
        """A schedule that parses but fails the Schedule checks
        (SchedulingError, ValidationError) is a ConfigError, the one
        error ResultStore.get drops a stored line on."""
        document = result.to_dict()
        chains = document["schedule"]["windows"][0]["chains"]
        first = chains[0][0]
        if breakage == "negative-start":
            first["start"] = -1
        else:
            chains[0] = [first, {**first, "start": first["stop"] + 1,
                                 "stop": first["stop"] + 2}]
        with pytest.raises(ConfigError, match="malformed schedule"):
            ScheduleResult.from_dict(document)

    def test_wire_bytes_is_the_compact_sorted_encoding(self, result):
        assert result.wire_bytes == json.dumps(
            result.to_dict(), sort_keys=True,
            separators=(",", ":")).encode()
        assert result.wire_bytes is result.wire_bytes  # encoded once
        assert ScheduleResult.from_dict(
            json.loads(result.wire_bytes)) == result

    def test_encoding_is_not_part_of_the_value(self, result):
        """Reading wire_bytes first changes none of ==, repr,
        same_payload, dataclasses.replace or a pickle round-trip."""
        read = ScheduleResult.from_dict(result.to_dict())
        unread = ScheduleResult.from_dict(result.to_dict())
        encoded = read.wire_bytes
        assert read == unread and repr(read) == repr(unread)
        assert read.same_payload(unread) and unread.same_payload(read)
        assert dataclasses.replace(read) == unread
        changed = dataclasses.replace(
            read, num_evaluated=read.num_evaluated + 1)
        assert json.loads(changed.wire_bytes)["num_evaluated"] == \
            read.num_evaluated + 1
        clone = pickle.loads(pickle.dumps(read))
        assert clone == unread and repr(clone) == repr(unread)
        assert clone.wire_bytes == encoded


def _paths(document, prefix=()):
    """Every key and list position of a wire document (the first three
    items of each list), parents before children."""
    items = document.items() if isinstance(document, dict) \
        else enumerate(document[:3]) if isinstance(document, list) \
        else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


#: Values a mutation writes in place of a field.
_MUTANT_VALUES = (None, "x", -1, 0, 2.5, True, [], {}, [1], {"a": 1},
                  10**400, float("nan"), float("inf"))


def _mutants(document, seed, count=60):
    """``count`` seeded mutants of ``document``: one field at any depth
    dropped or replaced by one of :data:`_MUTANT_VALUES`.  Yields
    ``(description, mutant)``."""
    rng = random.Random(seed)
    paths = list(_paths(document))
    for _ in range(count):
        mutant = copy.deepcopy(document)
        path = rng.choice(paths)
        parent = mutant
        for key in path[:-1]:
            parent = parent[key]
        if isinstance(parent, dict) and rng.random() < 0.2:
            del parent[path[-1]]
            change = "dropped"
        else:
            parent[path[-1]] = rng.choice(_MUTANT_VALUES)
            change = f"= {parent[path[-1]]!r:.40}"
        yield f"{'/'.join(map(str, path))} {change}", mutant


class TestResultParseBoundary:
    """Seeded mutations of real schedule_result documents, one of each
    version: every field at every depth dropped or replaced by a value
    of another type or range.  The document either parses or is a
    ConfigError -- never a SchedulingError, TypeError, AttributeError
    or OverflowError."""

    @pytest.fixture(scope="class", params=["v2", "v1"])
    def document(self, request):
        if request.param == "v1":
            return json.loads(_V1_RESULT_PATH.read_text(encoding="utf-8"))
        from repro.workloads import scenario

        schedule_request = ScheduleRequest.for_scenario(
            scenario(4), template="het_sides_3x3", budget=QUICK_BUDGET,
            nsplits=1)
        return Session().submit(schedule_request).to_dict()

    @pytest.mark.parametrize("seed", range(8))
    def test_mutant_parses_or_is_a_config_error(self, document, seed):
        for change, mutant in _mutants(document, seed):
            try:
                ScheduleResult.from_dict(mutant)
            except ConfigError:
                pass
            except Exception as exc:  # any other error fails the test
                pytest.fail(f"{change}: {type(exc).__name__}: {exc}")


class TestTraceSpecParseBoundary:
    """The same seeded mutations of a trace_spec document with every
    field set: each mutant parses or is a ConfigError, and a parsed
    spec's trace generates.  Seeds 0, 1 and 6 set a ``models`` entry to
    an unknown name, which must fail at parse time."""

    @pytest.fixture(scope="class")
    def document(self):
        from repro.sim import TraceSpec

        return TraceSpec(
            family="uunifast", seed=7, tenants=3, horizon=8,
            use_case="arvr", models=("eyecod", "hand_sp"),
            batches=(1, 2, 4), utilization=0.75,
            deadline_range=(0.05, 0.5), name="mutated").to_dict()

    @pytest.mark.parametrize("seed", range(8))
    def test_mutant_parses_and_generates_or_fails_typed(self, document,
                                                        seed):
        from repro.sim import TraceSpec, generate_trace

        for change, mutant in _mutants(document, seed):
            try:
                spec = TraceSpec.from_dict(mutant)
            except ConfigError:
                continue
            except Exception as exc:  # any other error fails the test
                pytest.fail(f"{change}: {type(exc).__name__}: {exc}")
            try:
                generate_trace(spec)
            except Exception as exc:  # a parsed spec must generate
                pytest.fail(f"{change}: generate_trace raised "
                            f"{type(exc).__name__}: {exc}")


class TestTraceParseBoundary:
    """The same seeded mutations of a one-tenant trace document: each
    mutant parses or is a ConfigError, and a parsed trace replays to a
    sim_report that is strict JSON, or fails with a ReproError."""

    #: Distinct parsed mutants replayed per seed (a replay takes about
    #: a tenth of a second).
    REPLAYS = 4

    @pytest.fixture(scope="class")
    def document(self):
        from repro.sim import TenantEvent, Trace

        return Trace(name="mutated", use_case="arvr", events=(
            TenantEvent(tick=0, kind="arrive", tenant="a",
                        model="eyecod", batch=2, deadline_s=0.05),
            TenantEvent(tick=2, kind="depart", tenant="a"))).to_dict()

    @pytest.mark.parametrize("seed", range(8))
    def test_mutant_parses_and_replays_or_fails_typed(self, document,
                                                      seed):
        from repro.sim import Trace, build_report, replay

        replayed: set[str] = set()
        for change, mutant in _mutants(document, seed):
            try:
                trace = Trace.from_dict(mutant)
            except ConfigError:
                continue
            except Exception as exc:  # any other error fails the test
                pytest.fail(f"{change}: {type(exc).__name__}: {exc}")
            if len(replayed) == self.REPLAYS \
                    or trace.to_json() in replayed:
                continue
            replayed.add(trace.to_json())
            try:
                report = build_report(trace, "warm", replay(
                    trace, nsplits=1, budget=QUICK_BUDGET))
            except ReproError:
                continue
            except Exception as exc:
                pytest.fail(f"{change}: replay raised "
                            f"{type(exc).__name__}: {exc}")
            try:
                json.dumps(report.to_dict(), allow_nan=False)
            except ValueError as exc:
                pytest.fail(f"{change}: the sim_report is not JSON: "
                            f"{exc}")


def _column_storage(window) -> list[bytes]:
    """The storage a window holds, found the way the collector walks it."""
    return [obj for obj in gc.get_referents(window)
            if not isinstance(obj, type)]


def _tracked_reachable(root) -> int:
    """GC-tracked objects reachable from ``root`` (classes excluded:
    every instance shares its own)."""
    seen: set[int] = set()
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, type) \
                or not gc.is_tracked(obj):
            continue
        seen.add(id(obj))
        stack.extend(gc.get_referents(obj))
    return len(seen)


class TestCandidateColumns:
    """The per-window population type behind
    ScheduleResult.window_candidates."""

    @pytest.fixture
    def windows(self, result):
        """A memoized result's windows and the same windows after a
        JSON round trip (the client-side parse)."""
        clone = ScheduleResult.from_json(result.to_json())
        return result.window_candidates + clone.window_candidates

    def test_column_storage_is_not_tracked_by_the_collector(self,
                                                            windows):
        assert windows
        for window in windows:
            storage = _column_storage(window)
            assert len(storage) == 3
            assert not any(gc.is_tracked(column) for column in storage)

    def test_a_window_holds_at_most_32_bytes_per_point(self, windows):
        large = CandidateColumns.from_dicts(
            [{"score": float(i), "latency_s": 1.0, "energy_j": 2.0}
             for i in range(1000)])
        for window in windows + (large,):
            held = sys.getsizeof(window) + sum(
                sys.getsizeof(column) for column in _column_storage(window))
            assert held <= 32 * len(window), (held, len(window))

    def test_memo_tracks_objects_per_window_not_per_point(
            self, tiny_scenario):
        session = Session()
        request = _quick_request(tiny_scenario)
        session.submit(request)
        windows = session.cached(request).window_candidates
        points = sum(len(window) for window in windows)
        assert points > 10 * len(windows)
        # the tuple, and one object per window
        assert _tracked_reachable(windows) == 1 + len(windows)

    def test_reads_as_a_sequence_of_points(self):
        window = CandidateColumns([2.0, 1.0], [0.5, 0.25], [4.0, 3.0])
        assert len(window) == 2
        assert list(window) == [CandidatePoint(2.0, 0.5, 4.0),
                                CandidatePoint(1.0, 0.25, 3.0)]
        assert window[1] == window[-1] == CandidatePoint(1.0, 0.25, 3.0)
        with pytest.raises(IndexError):
            window[2]
        with pytest.raises(TypeError):
            window[0:1]
        assert window.to_dict() == {"score": [2.0, 1.0],
                                    "latency_s": [0.5, 0.25],
                                    "energy_j": [4.0, 3.0]}
        assert CandidateColumns.from_dict(window.to_dict()) == window
        assert CandidateColumns.from_dicts(
            [point.to_dict() for point in window]) == window

    def test_columns_are_read_only(self, result):
        window = result.window_candidates[0]
        scores, latencies, energies = window.columns
        assert list(scores) == [point.score for point in window]
        for column in (scores, latencies, energies):
            assert column.readonly
            with pytest.raises(TypeError):
                column[0] = 0.0
        with pytest.raises(TypeError):
            window[0] = CandidatePoint(0.0, 0.0, 0.0)
        with pytest.raises(AttributeError):
            window.extra = 1

    def test_equal_values_compare_and_hash_equal(self):
        columns = ([3.0, 1.0, 2.0], [0.1, 0.2, 0.3], [5.0, 6.0, 7.0])
        a = CandidateColumns(*columns)
        b = CandidateColumns(*(list(column) for column in columns))
        assert a == b and hash(a) == hash(b)
        assert CandidateColumns([0.0], [1.0], [2.0]) \
            == CandidateColumns([-0.0], [1.0], [2.0])
        assert hash(CandidateColumns([0.0], [1.0], [2.0])) \
            == hash(CandidateColumns([-0.0], [1.0], [2.0]))
        for c, column in enumerate(columns):
            for i in range(len(column)):
                changed = [list(col) for col in columns]
                changed[c][i] += 1.0
                assert CandidateColumns(*changed) != a
        assert CandidateColumns([1.0], [2.0], [3.0]) \
            != (CandidatePoint(1.0, 2.0, 3.0),)

    def test_repr_and_pickle_round_trip_by_value(self):
        window = CandidateColumns([1.5e-8, 2.0], [0.01, 0.02],
                                  [0.002, 0.003])
        assert repr(window) == ("CandidateColumns(score=[1.5e-08, 2.0], "
                                "latency_s=[0.01, 0.02], "
                                "energy_j=[0.002, 0.003])")
        assert eval(repr(window),
                    {"CandidateColumns": CandidateColumns}) == window
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            clone = pickle.loads(pickle.dumps(window, protocol))
            assert clone == window and repr(clone) == repr(window)

    def test_columns_of_unequal_length_are_rejected(self):
        with pytest.raises(ConfigError, match="length"):
            CandidateColumns([1.0, 2.0], [1.0], [1.0, 2.0])


def _random_trace(rng: random.Random):
    """A seeded, valid trace: staircase lifecycles over random models."""
    from repro.sim import TenantEvent, Trace

    models = ("eyecod", "hand_sp", "emformer", "resnet50")
    events = []
    tick = 0
    active = []
    for i in range(rng.randrange(1, 5)):
        tenant = f"{rng.choice(models)}#t{i}"
        events.append(TenantEvent(
            tick=tick, kind="arrive", tenant=tenant,
            model=rng.choice(models), batch=rng.randrange(1, 16),
            deadline_s=rng.choice([None, rng.uniform(0.01, 1.0)])))
        active.append(tenant)
        tick += rng.randrange(0, 3)
    for tenant in active:
        tick += rng.randrange(1, 3)
        events.append(TenantEvent(tick=tick, kind="depart",
                                  tenant=tenant))
    return Trace(name=f"wire:{rng.randrange(1 << 16)}",
                 events=tuple(sorted(events, key=TenantEvent.sort_key)),
                 use_case=rng.choice(("datacenter", "arvr")))


def _random_trace_spec(rng: random.Random):
    from repro.sim import TraceSpec

    return TraceSpec(
        family=rng.choice(("arrivals", "uunifast")),
        seed=rng.randrange(1 << 16),
        tenants=rng.randrange(1, 8),
        horizon=rng.randrange(2, 40),
        use_case=rng.choice(("datacenter", "arvr")),
        models=rng.choice([None, ("eyecod", "hand_sp")]),
        batches=rng.choice([None, (1, 2, 4)]),
        utilization=rng.uniform(0.05, 1.0),
        deadline_range=rng.choice(
            [None, (rng.uniform(0.001, 0.01), rng.uniform(0.02, 2.0))]),
        name=rng.choice([None, f"spec:{rng.randrange(100)}"]),
    )


class TestSimWireRoundTrips:
    """Traces and trace specs are wire documents too."""

    @pytest.mark.parametrize("seed", range(20))
    def test_trace_round_trip(self, seed):
        from repro.sim import Trace

        trace = _random_trace(random.Random(f"wire-trace-{seed}"))
        assert Trace.from_json(trace.to_json()) == trace

    @pytest.mark.parametrize("seed", range(20))
    def test_trace_spec_round_trip(self, seed):
        from repro.sim import TraceSpec

        spec = _random_trace_spec(random.Random(f"wire-spec-{seed}"))
        assert TraceSpec.from_json(spec.to_json()) == spec

    def test_envelope_kinds(self):
        from repro.sim import TRACE_KIND, TRACE_SPEC_KIND
        from repro.api.wire import WIRE_VERSION

        rng = random.Random("wire-kinds")
        for value, kind in ((_random_trace(rng), TRACE_KIND),
                            (_random_trace_spec(rng), TRACE_SPEC_KIND)):
            data = value.to_dict()
            assert data["kind"] == kind
            assert data["version"] == WIRE_VERSION

    def test_wrong_kind_rejected_everywhere(self):
        from repro.sim import Trace, TraceSpec

        rng = random.Random("wire-cross")
        trace = _random_trace(rng).to_dict()
        spec = _random_trace_spec(rng).to_dict()
        with pytest.raises(ConfigError, match="kind"):
            Trace.from_dict(spec)
        with pytest.raises(ConfigError, match="kind"):
            TraceSpec.from_dict(trace)

    def test_malformed_documents_are_config_errors(self):
        from repro.sim import Trace, TraceSpec

        with pytest.raises(ConfigError, match="trace"):
            Trace.from_json("{not json")
        with pytest.raises(ConfigError, match="trace spec"):
            TraceSpec.from_json("{not json")
        broken = _random_trace(random.Random("wire-broken")).to_dict()
        broken["events"] = [{"tick": 0}]  # missing kind/tenant
        with pytest.raises(ConfigError, match="malformed"):
            Trace.from_dict(broken)
