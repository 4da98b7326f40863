"""The HTTP layer: live-server parity, lifecycle over the wire, errors."""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import errors
from repro.api import (
    DEFAULT_REGISTRY,
    ErrorDocument,
    ScheduleRequest,
    ScheduleResult,
    Session,
)
from repro.core.budget import SearchBudget
from repro.errors import (
    AnalysisError,
    ConfigError,
    DataflowError,
    HardwareError,
    JobNotFoundError,
    ReproError,
    SchedulingError,
    SearchError,
    ServiceError,
    ServiceOverloadedError,
    ValidationError,
    WorkloadError,
)
from repro.service import (
    CANCELLED,
    DONE,
    FAILED,
    ServiceClient,
    local_service,
)
from repro.service import client as client_module
from service_helpers import (
    POLICIES,
    assert_equivalent,
    failing_registry,
    gated_registry,
    request_for,
)


class TestLiveServerParity:
    def test_every_policy_bit_identical_over_http(self, tiny_scenario,
                                                  small_budget):
        """The issue's acceptance gate: ServiceClient against a live
        server == Session.submit, for every built-in policy."""
        requests = [request_for(tiny_scenario, small_budget, policy)
                    for policy in POLICIES]
        reference = [Session().submit(r) for r in requests]
        with local_service(workers=2) as (url, _service):
            client = ServiceClient(url)
            handles = client.submit_many(requests)
            results = [h.result(timeout=600) for h in handles]
        for got, want in zip(results, reference):
            assert_equivalent(got, want)

    def test_single_submit_and_resubmit_after_eviction(self,
                                                       tiny_scenario,
                                                       small_budget):
        a = request_for(tiny_scenario, small_budget, "standalone")
        b = request_for(tiny_scenario, small_budget, "nn_baton")
        reference = Session().submit(a)
        with local_service(Session(max_memo=1),
                           workers=1) as (url, _service):
            client = ServiceClient(url)
            first = client.submit(a).result(timeout=300)
            client.submit(b).result(timeout=300)  # evicts a's memo entry
            again = client.submit(a).result(timeout=300)
        assert_equivalent(first, reference)
        assert_equivalent(again, reference)


class TestJobLifecycleOverHTTP:
    @pytest.fixture
    def gated(self, tiny_scenario, small_budget):
        registry, started, release, _order = gated_registry()
        request = ScheduleRequest.for_scenario(
            tiny_scenario, template="het_sides_3x3", policy="gated",
            budget=small_budget, nsplits=1)
        with local_service(Session(registry), workers=1) as (url, svc):
            yield ServiceClient(url), request, started, release
            release.set()

    def test_result_before_done_raises(self, gated):
        client, request, started, release = gated
        handle = client.submit(request)
        assert started.wait(timeout=60)
        with pytest.raises(ServiceError, match="job_not_done|RUNNING"):
            client.result(handle.job_id)
        release.set()
        assert handle.result(timeout=300).metrics.latency_s > 0

    def test_delete_cancels_queued_job(self, gated):
        client, request, started, release = gated
        client.submit(request)  # occupies the single worker
        assert started.wait(timeout=60)
        queued = client.submit(request.replace(prov_limit=63))
        record = queued.cancel()
        assert record.state == CANCELLED
        with pytest.raises(ServiceError, match="cancelled"):
            client.result(queued.job_id)
        release.set()

    def test_job_listing_and_progress_events(self, gated):
        client, request, started, release = gated
        handle = client.submit(request)
        release.set()
        record = handle.wait(timeout=300)
        assert record.state == DONE
        assert [e.state for e in record.events] == \
            ["QUEUED", "RUNNING", "DONE"]
        assert record.queue_s is not None and record.run_s is not None
        listed = client.jobs()
        assert [r.job_id for r in listed] == [handle.job_id]

    def test_failed_job_reraises_typed_error(self, tiny_scenario,
                                             small_budget):
        bad = request_for(tiny_scenario, small_budget, "failing")
        with local_service(Session(failing_registry()),
                           workers=1) as (url, _service):
            client = ServiceClient(url)
            handle = client.submit(bad)
            record = handle.wait(timeout=300)
            assert record.state == FAILED
            assert record.error is not None
            assert record.error.code == "search_error"
            with pytest.raises(SearchError, match="failing test policy"):
                handle.result()


class TestAdmissionControlOverHTTP:
    @pytest.fixture
    def overloaded(self, tiny_scenario, small_budget, monkeypatch):
        """A 1-worker, max_pending=1 service with the worker gated and
        the one queue slot filled: the next submit must get a 429."""
        registry, started, release, _order = gated_registry()
        request = ScheduleRequest.for_scenario(
            tiny_scenario, template="het_sides_3x3", policy="gated",
            budget=small_budget, nsplits=1)
        monkeypatch.setattr(client_module, "OVERLOAD_RETRIES", 0)
        with local_service(Session(registry), workers=1,
                           max_pending=1) as (url, svc):
            client = ServiceClient(url)
            client.submit(request)  # occupies the worker
            assert started.wait(timeout=60)
            client.submit(request.replace(prov_limit=63))  # fills queue
            yield url, client, request, release
            release.set()

    def test_queue_full_is_429_with_retry_after(self, overloaded):
        url, _client, request, _release = overloaded
        body = json.dumps(request.replace(prov_limit=62)
                          .to_dict()).encode()
        req = urllib.request.Request(
            url + "/v1/jobs", data=body, method="POST",
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(req, timeout=30)
        assert excinfo.value.code == 429
        assert excinfo.value.headers["Retry-After"] == "1"
        document = json.loads(excinfo.value.read().decode())
        assert document["kind"] == "error"
        assert document["code"] == "service_overloaded"

    def test_client_reraises_typed_overload(self, overloaded):
        _url, client, request, _release = overloaded
        with pytest.raises(ServiceOverloadedError,
                           match="max_pending") as excinfo:
            client.submit(request.replace(prov_limit=62))
        assert excinfo.value.retry_after_s == 1.0

    def test_client_backoff_retries_until_admitted(self, overloaded,
                                                   monkeypatch):
        """The backing-off client rides out the overload: once the gate
        releases and the queue drains, a retried submit is accepted and
        completes."""
        url, _client, request, release = overloaded
        monkeypatch.setattr(client_module, "OVERLOAD_RETRIES", 8)
        monkeypatch.setattr(client_module, "BACKOFF_S", 0.05)
        monkeypatch.setattr(client_module, "BACKOFF_CAP_S", 0.05)
        patient = ServiceClient(url)
        releaser = threading.Timer(0.15, release.set)
        releaser.start()
        try:
            handle = patient.submit(request.replace(prov_limit=62))
            assert handle.result(timeout=300).metrics.latency_s > 0
        finally:
            releaser.cancel()

    def test_batch_rejection_queues_nothing(self, overloaded):
        _url, client, request, _release = overloaded
        before = client.health()["total"]
        with pytest.raises(ServiceOverloadedError):
            client.submit_many([request.replace(prov_limit=62 - i)
                                for i in range(2)])
        assert client.health()["total"] == before


class TestSharedStoreOverHTTP:
    def test_cache_hit_parity_across_replicas(self, tmp_path,
                                              tiny_scenario,
                                              small_budget):
        """The tentpole's cross-replica contract over the wire: a
        result served from the shared store is same_payload-identical
        to a fresh search, and the replica reports the hit."""
        from repro.sweep import ResultStore

        request = request_for(tiny_scenario, small_budget, "scar")
        reference = Session().submit(request)
        path = tmp_path / "cache.jsonl"
        with local_service(Session(),
                           store=ResultStore(path)) as (url, _svc):
            computed = ServiceClient(url).submit(request) \
                .result(timeout=600)
        assert_equivalent(computed, reference)
        with local_service(Session(),
                           store=ResultStore(path)) as (url, service):
            served = ServiceClient(url).submit(request) \
                .result(timeout=60)
            stats = service.perf_summary()["store"]
        assert stats["hits"] == 1 and stats["hit_rate"] > 0
        assert_equivalent(served, reference)


#: (field, bad value) pairs that must fail when the request is built.
_BAD_REQUEST_VALUES = [
    ("nsplits", 2.5), ("nsplits", True), ("nsplits", -1),
    ("beam", 2.5), ("beam", 0),
    ("latency_bound_s", "1"), ("latency_bound_s", 0.0),
    ("latency_bound_s", float("inf")),
    # a JSON integer no double can hold (it used to raise OverflowError)
    pytest.param("latency_bound_s", 10**400,
                 id="latency_bound_s-int-beyond-double"),
    ("scenario_id", "1"), ("scenario_id", 1.0), ("scenario_id", 11),
    ("template", "nope"),
    ("prov_limit", -1), ("prov_limit", 0),
    ("max_nodes_per_model", 0), ("max_nodes_per_model", 1.5),
    ("packing", "gredy"), ("provisioning", "exhaustve"),
    ("seg_search", "evolutionery"), ("objective", "edp2"),
]

#: (budget field, bad value) pairs that must fail when the budget is
#: built, and so when the request document is parsed.
_BAD_BUDGET_VALUES = [
    ("max_candidates_per_window", 0), ("max_root_combos", 2.5),
    ("top_k_segmentations", True), ("seed", "x"),
]


def _post_job(url: str, document) -> tuple[int, dict]:
    """POST one document to /v1/jobs: (HTTP status, response body)."""
    req = urllib.request.Request(
        url + "/v1/jobs", data=json.dumps(document).encode(),
        method="POST", headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def _parse_boundary_cases() -> list[tuple[str, dict]]:
    """(case id, document): every top-level and every budget field of a
    cheap request dropped, set to null and set to a value of the wrong
    type, plus every budget cap set to 0."""
    base = ScheduleRequest(scenario_id=1, policy="standalone",
                           nsplits=1).to_dict()
    budget = base["budget"]

    def variants(doc: dict):
        for name, value in doc.items():
            yield f"{name}-dropped", {k: v for k, v in doc.items()
                                      if k != name}
            yield f"{name}-null", {**doc, name: None}
            yield f"{name}-wrong-type", {
                **doc, name: 7 if isinstance(value, str) else "7"}

    return (list(variants(base))
            + [(f"budget.{case}", {**base, "budget": doc})
               for case, doc in variants(budget)]
            + [(f"budget.{name}-zero", {**base,
                                        "budget": {**budget, name: 0}})
               for name in budget if name != "seed"]
            + [("scenario_id-unknown", {**base, "scenario_id": 11}),
               ("template-unknown", {**base, "template": "nope"}),
               ("policy-unknown", {**base, "policy": "nope"})])


_PARSE_BOUNDARY_CASES = _parse_boundary_cases()


class TestWireErrors:
    @pytest.mark.parametrize("field,value", _BAD_REQUEST_VALUES)
    def test_bad_request_value_is_config_error_at_every_entry(
            self, field, value):
        """Rejected by the constructor, by from_dict and over HTTP
        (400 config_error) -- never as a TypeError inside the search."""
        with pytest.raises(ConfigError, match=field):
            ScheduleRequest(**{"scenario_id": 1, field: value})
        document = {**ScheduleRequest(scenario_id=1).to_dict(),
                    field: value}
        with pytest.raises(ConfigError, match=field):
            ScheduleRequest.from_dict(document)
        with local_service(workers=1) as (url, _service):
            req = urllib.request.Request(
                url + "/v1/jobs", data=json.dumps(document).encode(),
                method="POST",
                headers={"Content-Type": "application/json"})
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(req, timeout=30)
            assert excinfo.value.code == 400
            doc = ErrorDocument.from_json(
                excinfo.value.read().decode("utf-8"))
            assert doc.code == "config_error"

    @pytest.mark.parametrize("field,value", _BAD_BUDGET_VALUES)
    def test_bad_budget_value_is_config_error_at_every_entry(
            self, field, value):
        """A bad budget fails where the budget is built, so a request
        document carrying it is a 400 config_error naming the field --
        not a 500 search_error or a job that fails later."""
        with pytest.raises(ConfigError, match=field):
            SearchBudget(**{field: value})
        base = ScheduleRequest(scenario_id=1).to_dict()
        document = {**base, "budget": {**base["budget"], field: value}}
        with pytest.raises(ConfigError, match=field):
            ScheduleRequest.from_dict(document)
        with local_service(workers=1) as (url, _service):
            status, body = _post_job(url, document)
        assert status == 400
        assert body["code"] == "config_error"
        assert field in body["message"]

    def test_unregistered_policy_is_config_error_at_submit(self):
        """A policy name is any string when the request is built; the
        replica's registry refuses an unknown one with a 400, alone or
        in a batch, and queues nothing."""
        good = ScheduleRequest(scenario_id=1, policy="standalone").to_dict()
        bad = {**good, "policy": "nope"}
        ScheduleRequest.from_dict(bad)  # parses
        with local_service(workers=1) as (url, service):
            for document in (bad, [good, bad]):
                status, body = _post_job(url, document)
                assert status == 400, body
                assert body["code"] == "config_error"
                assert "unknown policy 'nope'" in body["message"]
            assert service.jobs() == []

    def test_inline_spec_unknown_use_case_is_config_error(self):
        """Refused at the POST with a 400, not accepted with a 201 to
        fail later with a hardware_error."""
        from repro.workloads import scenario

        document = ScheduleRequest.for_scenario(scenario(8)).to_dict()
        document["scenario_spec"]["use_case"] = "x"
        with local_service(workers=1) as (url, service):
            status, body = _post_job(url, document)
            assert service.jobs() == []
        assert status == 400, body
        assert body["code"] == "config_error"
        assert "use_case" in body["message"]

    @pytest.mark.parametrize("change", [{"model": "nope"}, {"batch": 0}],
                             ids=["unknown-model", "batch-0"])
    def test_inline_spec_that_does_not_resolve_is_config_error(
            self, change):
        """Refused at the POST with a 400, not accepted with a 201 to
        fail when the job runs."""
        from repro.workloads import scenario

        document = ScheduleRequest.for_scenario(scenario(8)).to_dict()
        document["scenario_spec"]["models"][0].update(change)
        with local_service(workers=1) as (url, service):
            status, body = _post_job(url, document)
            assert service.jobs() == []
        assert status == 400, body
        assert body["code"] == "config_error"
        assert "malformed scenario" in body["message"]

    def test_unknown_job_id_raises_service_error(self):
        with local_service(workers=1) as (url, _service):
            client = ServiceClient(url)
            with pytest.raises(ServiceError, match="unknown job id"):
                client.job("job-999999")

    def test_malformed_request_document_rejected(self):
        with local_service(workers=1) as (url, _service):
            client = ServiceClient(url)
            with pytest.raises(ConfigError):
                client._call("POST", "/v1/jobs",
                             payload={"kind": "nonsense"})

    def test_bad_batch_entry_names_the_field(self, tiny_scenario,
                                             small_budget):
        good = request_for(tiny_scenario, small_budget, "standalone")
        with local_service(workers=1) as (url, _service):
            body = json.dumps([good.to_dict(), {"kind": "x"}]) \
                .encode("utf-8")
            req = urllib.request.Request(
                url + "/v1/jobs", data=body, method="POST",
                headers={"Content-Type": "application/json"})
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(req, timeout=30)
            assert excinfo.value.code == 400
            doc = ErrorDocument.from_json(
                excinfo.value.read().decode("utf-8"))
            assert doc.field == "requests[1]"
            assert doc.code == "config_error"

    def test_unknown_endpoint_is_structured_404(self):
        with local_service(workers=1) as (url, _service):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(url + "/v2/nope", timeout=30)
            assert excinfo.value.code == 404
            doc = ErrorDocument.from_json(
                excinfo.value.read().decode("utf-8"))
            # distinct from "not_found" so clients never confuse a
            # typo'd URL with an evicted job
            assert doc.code == "unknown_endpoint"
            assert not isinstance(doc.exception(), JobNotFoundError)

    def test_health_endpoint(self):
        with local_service(workers=1) as (url, _service):
            health = ServiceClient(url).health()
            assert health["status"] == "ok"
            assert health["total"] == 0

    def test_unreachable_server_raises_service_error(self):
        client = ServiceClient("http://127.0.0.1:9", timeout_s=0.5)
        with pytest.raises(ServiceError, match="cannot reach"):
            client.health()

    def test_malformed_content_length_gets_structured_400(self):
        import http.client

        with local_service(workers=1) as (url, _service):
            host, port = url.removeprefix("http://").split(":")
            conn = http.client.HTTPConnection(host, int(port),
                                              timeout=30)
            try:
                conn.putrequest("POST", "/v1/jobs")
                conn.putheader("Content-Length", "abc")
                conn.endheaders()
                response = conn.getresponse()
                # empty body -> JSON parse failure -> structured 400
                # (the server also closes the unreadable connection)
                assert response.status == 400
                doc = ErrorDocument.from_json(
                    response.read().decode("utf-8"))
                assert doc.code == "config_error"
            finally:
                conn.close()

    def test_oversized_body_refused_with_413(self):
        import http.client

        with local_service(workers=1) as (url, _service):
            host, port = url.removeprefix("http://").split(":")
            conn = http.client.HTTPConnection(host, int(port),
                                              timeout=30)
            try:
                conn.putrequest("POST", "/v1/jobs")
                conn.putheader("Content-Length", str(1 << 40))
                conn.endheaders()
                response = conn.getresponse()  # refused before any read
                assert response.status == 413
                doc = ErrorDocument.from_json(
                    response.read().decode("utf-8"))
                assert doc.code == "bad_request"
                assert "too large" in doc.message
            finally:
                conn.close()

    def test_remote_result_fetch_is_single_round_trip(self,
                                                      tiny_scenario,
                                                      small_budget):
        """RemoteJob.result polls the result endpoint itself, so the
        response that reports completion IS the result -- no gap for a
        retain cap to evict it in (mirrors JobHandle's completion
        slot)."""
        request = request_for(tiny_scenario, small_budget, "standalone")
        with local_service(workers=1) as (url, _service):
            client = ServiceClient(url)
            result = client.submit(request).result(timeout=300)
            assert result.metrics.latency_s > 0


class TestRequestParseBoundary:
    @pytest.fixture(scope="class")
    def url(self):
        with local_service(workers=1) as (url, _service):
            yield url

    @pytest.mark.parametrize(
        "document", [doc for _, doc in _PARSE_BOUNDARY_CASES],
        ids=[case for case, _ in _PARSE_BOUNDARY_CASES])
    def test_document_parses_or_is_a_config_error(self, url, document):
        """from_dict either parses or raises ConfigError (never a
        SearchError or TypeError), and the POST agrees: 201 for a
        document that parses and names a registered policy, 400
        config_error for one that does not."""
        try:
            DEFAULT_REGISTRY.get(ScheduleRequest.from_dict(document).policy)
        except ConfigError:
            parsed = False
        else:
            parsed = True
        status, body = _post_job(url, document)
        if parsed:
            assert status == 201, body
        else:
            assert status == 400, body
            assert body["code"] == "config_error"


#: The error contract, pinned: each repro.errors class, the wire code
#: ErrorDocument.from_exception gives it and the HTTP status a replica
#: answers it with.
_ERROR_CONTRACT = [
    (ReproError, "repro_error", 500),
    (WorkloadError, "workload_error", 500),
    (HardwareError, "hardware_error", 500),
    (DataflowError, "dataflow_error", 500),
    (SchedulingError, "scheduling_error", 500),
    (ValidationError, "validation_error", 500),
    (SearchError, "search_error", 500),
    (ConfigError, "config_error", 400),
    (AnalysisError, "analysis_error", 500),
    (ServiceError, "service_error", 409),
    (JobNotFoundError, "not_found", 404),
    (ServiceOverloadedError, "service_overloaded", 429),
]

#: Wire codes without a class of their own, the class a client rebuilds
#: for each and the code that class sends back.
_SERVICE_CONDITIONS = [
    ("job_not_done", ServiceError, "service_error"),
    ("job_cancelled", ServiceError, "service_error"),
    ("unknown_endpoint", ServiceError, "service_error"),
    ("bad_request", ConfigError, "config_error"),
]


class TestErrorContract:
    @pytest.fixture(scope="class")
    def replica(self):
        with local_service(workers=1) as replica:
            yield replica

    @staticmethod
    def _answer(replica, monkeypatch, exc) -> tuple[int, ErrorDocument]:
        """(status, body) of a replica whose job lookup raises exc."""
        url, service = replica

        def job(job_id):
            raise exc

        monkeypatch.setattr(service, "job", job)
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(url + "/v1/jobs/job-1", timeout=30)
        return excinfo.value.code, ErrorDocument.from_json(
            excinfo.value.read().decode("utf-8"))

    def test_every_class_is_pinned(self):
        classes = {value for value in vars(errors).values()
                   if isinstance(value, type)
                   and issubclass(value, ReproError)}
        assert classes == {cls for cls, _, _ in _ERROR_CONTRACT}

    @pytest.mark.parametrize(
        "cls,code,status", _ERROR_CONTRACT,
        ids=[cls.__name__ for cls, _, _ in _ERROR_CONTRACT])
    def test_code_and_status(self, replica, monkeypatch, cls, code,
                             status):
        assert ErrorDocument.from_exception(cls("m")).code == code
        assert type(ErrorDocument(code=code,
                                  message="m").exception()) is cls
        assert self._answer(replica, monkeypatch, cls("m")) == \
            (status, ErrorDocument(code=code, message="m"))

    @pytest.mark.parametrize("code,cls,sent_back", _SERVICE_CONDITIONS)
    def test_service_condition_rebuilds_its_class(self, code, cls,
                                                  sent_back):
        exc = ErrorDocument(code=code, message="m").exception()
        assert type(exc) is cls and exc.code == code
        assert ErrorDocument.from_exception(exc).code == sent_back

    def test_subclass_without_a_code_inherits_its_contract(
            self, replica, monkeypatch):
        class UnlistedConfigError(ConfigError):
            pass

        assert self._answer(replica, monkeypatch,
                            UnlistedConfigError("m")) == \
            (400, ErrorDocument(code="config_error", message="m"))
        assert type(ErrorDocument(code="config_error",
                                  message="m").exception()) is ConfigError


class TestResultBody:
    def test_memo_hit_serves_the_once_encoded_body(self, tiny_scenario,
                                                   small_budget,
                                                   monkeypatch):
        """A request and its memo hit: both GET /result bodies are the
        same compact sorted-key bytes, from one to_dict call."""
        request = request_for(tiny_scenario, small_budget, "standalone")
        reference = Session().submit(request)
        to_dict = ScheduleResult.to_dict
        encoded = []

        def counting_to_dict(result):
            encoded.append(result)
            return to_dict(result)

        monkeypatch.setattr(ScheduleResult, "to_dict", counting_to_dict)
        with local_service(workers=1) as (url, service):
            client = ServiceClient(url)
            bodies = []
            for _ in range(2):
                handle = client.submit(request)
                assert handle.wait(timeout=300).state == DONE
                with urllib.request.urlopen(
                        f"{url}/v1/jobs/{handle.job_id}/result",
                        timeout=30) as response:
                    bodies.append(response.read())
            memoized = service.session.cached(request)
        assert len(encoded) == 1 and encoded[0] is memoized
        assert bodies[0] == bodies[1] == json.dumps(
            to_dict(memoized), sort_keys=True,
            separators=(",", ":")).encode()
        decoded = ScheduleResult.from_dict(json.loads(bodies[1]))
        assert decoded.same_payload(reference)

    def test_keep_alive_responses_are_not_delayed(self):
        """20 GETs over one persistent connection.  With Nagle's
        algorithm on, every body waited for the client's delayed ACK
        (at least 40 ms on Linux), so 20 took at least 0.8 s."""
        import http.client

        with local_service(workers=1) as (url, _service):
            host, port = url.removeprefix("http://").split(":")
            conn = http.client.HTTPConnection(host, int(port),
                                              timeout=30)
            try:
                started = time.perf_counter()
                for _ in range(20):
                    conn.request("GET", "/v1/health")
                    response = conn.getresponse()
                    assert response.status == 200
                    response.read()
                elapsed = time.perf_counter() - started
            finally:
                conn.close()
        assert elapsed < 0.4, f"20 keep-alive GETs took {elapsed:.3f} s"


def _raw_exchange(url: str, request: bytes) -> tuple[bytes, bool]:
    """Send raw request bytes; the response head, and whether the
    server closed the connection after the response."""
    import socket

    host, port = url.removeprefix("http://").split(":")
    with socket.create_connection((host, int(port)), timeout=30) as sock:
        sock.sendall(request)
        received = b""
        while b"\r\n\r\n" not in received:
            chunk = sock.recv(65536)
            assert chunk, received
            received += chunk
        head, _, body = received.partition(b"\r\n\r\n")
        length = int(next(line.split(b":")[1] for line in head.split(
            b"\r\n") if line.lower().startswith(b"content-length")))
        while len(body) < length:
            body += sock.recv(65536)
        closed = sock.recv(65536) == b""
    return head, closed


class TestConnectionClose:
    """Each response after which the handler closes the connection says
    so with ``Connection: close``, so a keep-alive client knows before
    it sends another request on a closed socket."""

    @pytest.mark.parametrize("header,status", [
        (b"Content-Length: -5", b"400"),
        (b"Transfer-Encoding: chunked", b"501"),
        (b"Content-Length: 1099511627776", b"413"),
    ], ids=["negative-length", "transfer-encoding", "oversized"])
    def test_closing_response_says_so(self, header, status):
        with local_service(workers=1) as (url, _service):
            head, closed = _raw_exchange(
                url, b"POST /v1/jobs HTTP/1.1\r\nHost: x\r\n"
                + header + b"\r\n\r\n")
        lines = head.split(b"\r\n")
        assert lines[0].split()[1] == status
        assert b"Connection: close" in lines[1:]
        assert closed

    def test_kept_alive_response_does_not(self):
        with local_service(workers=1) as (url, _service):
            import http.client

            host, port = url.removeprefix("http://").split(":")
            conn = http.client.HTTPConnection(host, int(port), timeout=30)
            try:
                conn.request("GET", "/v1/health")
                response = conn.getresponse()
                response.read()
                assert response.getheader("Connection") is None
                assert not response.will_close
            finally:
                conn.close()


class TestOlderStoreLines:
    @pytest.mark.parametrize("version", [1, 2])
    def test_stored_result_is_served_as_version_3(self, tmp_path,
                                                  version):
        """A ResultStore line written before schedule_result version 3
        (one object per candidate, or three number lists per window) is
        read, and served over HTTP in version 3 -- not a 500 and not a
        search: the stored wall time rides along."""
        import base64
        from pathlib import Path

        from repro.sweep import ResultStore

        fixture = Path(__file__).parent / "fixtures" \
            / f"schedule_result_v{version}.json"
        document = json.loads(fixture.read_text(encoding="utf-8"))
        assert document["version"] == version
        document["perf"]["wall_s"] = 4321.5
        stored = ScheduleResult.from_dict(document)
        path = tmp_path / "store.jsonl"
        path.write_text(json.dumps(
            {"kind": "sweep_cell", "version": 1,
             "key": stored.request.cache_key(),
             "result": document}) + "\n", encoding="utf-8")
        with local_service(Session(), workers=1,
                           store=ResultStore(path)) as (url, service):
            with ServiceClient(url) as client:
                handle = client.submit(stored.request)
                served = handle.result(timeout=60)
            with urllib.request.urlopen(
                    f"{url}/v1/jobs/{handle.job_id}/result",
                    timeout=30) as response:
                body = json.loads(response.read())
            assert service.perf_summary()["store"]["hits"] == 1
        assert served.same_payload(stored)
        assert served.perf.wall_s == 4321.5
        assert body["version"] == 3
        for window in body["window_candidates"]:
            lengths = {len(base64.b64decode(window[name], validate=True))
                       for name in ("score", "latency_s", "energy_j")}
            assert len(lengths) == 1 and lengths != {0}, lengths
            assert lengths.pop() % 8 == 0
