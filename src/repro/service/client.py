"""Typed HTTP client for the scheduling service.

:class:`ServiceClient` mirrors the :class:`~repro.api.Session` /
:class:`~repro.service.SchedulerService` surface over the wire, so an
experiment written against handles runs unchanged against a local
in-process server (:func:`repro.service.local_service`) or a remote
``scar serve`` instance::

    client = ServiceClient("http://127.0.0.1:8787")
    handle = client.submit(request)
    result = handle.result(timeout=300)     # a ScheduleResult

Error documents coming back over HTTP are re-raised as the typed
:mod:`repro.errors` exception they encode, so remote failures look
exactly like local ones.  The one exception the client absorbs itself
is admission-control pushback: a 429 ``service_overloaded`` rejection
is retried with capped exponential backoff (honouring the server's
``Retry-After``) before surfacing, so bursty callers degrade to
waiting instead of erroring.  Pure stdlib (``urllib.request``).
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Any, Callable, Iterable

from repro.api.request import ScheduleRequest, ScheduleResult
from repro.api.wire import ErrorDocument, is_error_document
from repro.errors import ServiceError, ServiceOverloadedError
from repro.service.jobs import JobRecord

#: How many times a submit rejected with ``service_overloaded`` (HTTP
#: 429) is retried before the rejection surfaces.
OVERLOAD_RETRIES = 6
#: First retry delay; it doubles per attempt up to BACKOFF_CAP_S, and
#: never undercuts the server's ``Retry-After`` (itself capped).
BACKOFF_S = 0.05
BACKOFF_CAP_S = 2.0
#: Delay between polls while waiting for a job to finish.
POLL_S = 0.05


class RemoteJob:
    """Handle to one job living in a remote service (same shape as
    :class:`~repro.service.scheduler.JobHandle`)."""

    def __init__(self, client: "ServiceClient", job_id: str) -> None:
        self._client = client
        self.job_id = job_id

    def record(self) -> JobRecord:
        return self._client.job(self.job_id)

    @property
    def state(self) -> str:
        return self.record().state

    def done(self) -> bool:
        return self.record().terminal

    def wait(self, timeout: float | None = None) -> JobRecord:
        return self._client.wait(self.job_id, timeout=timeout)

    def result(self, timeout: float | None = None) -> ScheduleResult:
        return self._client.wait_result(self.job_id, timeout=timeout)

    def cancel(self) -> JobRecord:
        return self._client.cancel(self.job_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RemoteJob({self.job_id!r})"


class ServiceClient:
    """JSON-over-HTTP client speaking the ``/v1/jobs`` endpoints.

    ``timeout_s`` bounds each HTTP round trip.  Overload retries and
    polling follow the module constants (``OVERLOAD_RETRIES``,
    ``BACKOFF_S``, ``BACKOFF_CAP_S``, ``POLL_S``).
    """

    def __init__(self, base_url: str, *, timeout_s: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout_s = timeout_s

    # -- submission --------------------------------------------------------

    def submit(self, request: ScheduleRequest, *,
               priority: int = 0) -> RemoteJob:
        document = self._post_with_backoff(self._jobs_path(priority),
                                           request.to_dict())
        return RemoteJob(self, JobRecord.from_dict(document).job_id)

    def submit_many(self, requests: Iterable[ScheduleRequest], *,
                    priority: int = 0) -> list[RemoteJob]:
        documents = self._post_with_backoff(
            self._jobs_path(priority),
            [request.to_dict() for request in requests])
        return [RemoteJob(self, JobRecord.from_dict(doc).job_id)
                for doc in documents]

    def _post_with_backoff(self, path: str,
                           payload: dict | list) -> Any:
        """POST, absorbing up to ``OVERLOAD_RETRIES`` 429 rejections.

        Submission is idempotent to retry here because a rejected
        submit queued nothing (batch admission is all-or-nothing on
        the server).
        """
        attempt = 0
        while True:
            try:
                return self._call("POST", path, payload=payload)
            except ServiceOverloadedError as exc:
                if attempt >= OVERLOAD_RETRIES:
                    raise
                delay = min(BACKOFF_S * (2 ** attempt), BACKOFF_CAP_S)
                retry_after = getattr(exc, "retry_after_s", None)
                if retry_after is not None:
                    delay = max(delay, min(retry_after, BACKOFF_CAP_S))
                time.sleep(delay)
                attempt += 1

    # -- observation -------------------------------------------------------

    def job(self, job_id: str) -> JobRecord:
        return JobRecord.from_dict(self._call("GET",
                                              f"/v1/jobs/{job_id}"))

    def jobs(self) -> list[JobRecord]:
        return [JobRecord.from_dict(doc)
                for doc in self._call("GET", "/v1/jobs")]

    def wait(self, job_id: str,
             timeout: float | None = None) -> JobRecord:
        """Poll until the job is terminal; returns the final record."""
        def terminal_record() -> JobRecord | None:
            record = self.job(job_id)
            return record if record.terminal else None
        return self._poll(job_id, timeout, terminal_record)

    def result(self, job_id: str) -> ScheduleResult:
        """The finished job's result; remote failures re-raise typed."""
        return ScheduleResult.from_dict(
            self._call("GET", f"/v1/jobs/{job_id}/result"))

    def wait_result(self, job_id: str,
                    timeout: float | None = None) -> ScheduleResult:
        """Poll the *result* endpoint until the job finishes.

        Unlike wait-then-fetch, the 200 response that reports completion
        *is* the result, so a ``--retain`` cap on the server can never
        evict a result between observing DONE and retrieving it.
        """
        def finished_result() -> ScheduleResult | None:
            try:
                return self.result(job_id)
            except ServiceError as exc:
                if exc.code != "job_not_done":
                    raise
                return None
        return self._poll(job_id, timeout, finished_result)

    def cancel(self, job_id: str) -> JobRecord:
        return JobRecord.from_dict(self._call("DELETE",
                                              f"/v1/jobs/{job_id}"))

    def health(self) -> dict:
        return self._call("GET", "/v1/health")

    # -- plumbing ----------------------------------------------------------

    @staticmethod
    def _poll(job_id: str, timeout: float | None,
              attempt: Callable[[], Any]) -> Any:
        """Call ``attempt`` every ``POLL_S`` until it returns a value;
        past ``timeout`` seconds raise :class:`ServiceError`."""
        deadline = None if timeout is None \
            else time.monotonic() + timeout
        while True:
            value = attempt()
            if value is not None:
                return value
            if deadline is not None and time.monotonic() >= deadline:
                raise ServiceError(
                    f"job {job_id} not finished after {timeout}s")
            time.sleep(POLL_S)

    @staticmethod
    def _jobs_path(priority: int) -> str:
        return "/v1/jobs" if priority == 0 \
            else f"/v1/jobs?priority={priority}"

    def _call(self, method: str, path: str,
              payload: dict | list | None = None) -> Any:
        data = None if payload is None \
            else json.dumps(payload).encode("utf-8")
        req = urllib.request.Request(
            self.base_url + path, data=data, method=method,
            headers={"Content-Type": "application/json"})
        try:
            with urllib.request.urlopen(req,
                                        timeout=self.timeout_s) as resp:
                body = resp.read()
        except urllib.error.HTTPError as exc:
            body = exc.read()
            self._raise_from_body(body, exc)
            raise  # unreachable: _raise_from_body always raises
        except urllib.error.URLError as exc:
            raise ServiceError(
                f"cannot reach service at {self.base_url}: "
                f"{exc.reason}") from exc
        return json.loads(body.decode("utf-8"))

    def _raise_from_body(self, body: bytes,
                         exc: urllib.error.HTTPError) -> None:
        try:
            document = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            document = None
        if is_error_document(document):
            error = ErrorDocument.from_dict(document).exception()
            retry_after = exc.headers.get("Retry-After") \
                if exc.headers is not None else None
            if retry_after is not None:
                try:
                    error.retry_after_s = float(retry_after)
                except ValueError:
                    pass  # HTTP-date form: ignore, use our own backoff
            raise error from None
        raise ServiceError(
            f"HTTP {exc.code} from {exc.url}: {exc.reason}") from exc
