"""Typed HTTP client for the scheduling service.

:class:`ServiceClient` mirrors the :class:`~repro.api.Session` /
:class:`~repro.service.SchedulerService` surface over the wire, so an
experiment written against handles runs unchanged against a local
in-process server (:func:`repro.service.local_service`) or a remote
``scar serve`` instance::

    with ServiceClient("http://127.0.0.1:8787") as client:
        handle = client.submit(request)
        result = handle.result(timeout=300)     # a ScheduleResult

Error documents coming back over HTTP are re-raised as the typed
:mod:`repro.errors` exception they encode, so remote failures look
exactly like local ones.  The one exception the client absorbs itself
is admission-control pushback: a 429 ``service_overloaded`` rejection
is retried with capped exponential backoff (honouring the server's
``Retry-After``) before surfacing, so bursty callers degrade to
waiting instead of erroring.

Pure stdlib (:mod:`http.client`).  Each calling thread keeps one
persistent HTTP/1.1 connection, opened by its first call and reused by
every later one, so a submit and its result fetch pay for no TCP
set-up and the replica starts no handler thread per call.  A request
is sent a second time, on a fresh connection, only when it failed on a
reused connection before any response byte arrived: the server had
closed the idle connection, so the request never ran (the rule
:meth:`xmlrpc.client.Transport.request` uses).  A request the server
answered is never sent twice.  :meth:`ServiceClient.close`, or leaving
its ``with`` block, closes the connections.  The base URL must be
plain ``http://``, which is what a replica serves, and proxy
environment variables (``http_proxy``, ``no_proxy``) are not read: the
client always connects to the replica itself.
"""

from __future__ import annotations

import errno
import http.client
import json
import threading
import time
from typing import Any, Callable, Iterable, NoReturn
from urllib.parse import urlsplit

from repro.api.request import ScheduleRequest, ScheduleResult
from repro.api.wire import ErrorDocument, is_error_document
from repro.errors import ConfigError, ServiceError, ServiceOverloadedError
from repro.service.jobs import JobRecord

#: How many times a submit rejected with ``service_overloaded`` (HTTP
#: 429) is retried before the rejection surfaces.
OVERLOAD_RETRIES = 6
#: First retry delay; it doubles per attempt up to BACKOFF_CAP_S, and
#: never undercuts the server's ``Retry-After`` (itself capped).
BACKOFF_S = 0.05
BACKOFF_CAP_S = 2.0
#: Longest delay between polls while waiting for a job to finish; the
#: first re-poll waits about 1 ms, and each later one twice as long.
POLL_S = 0.05

#: Errors of a reused connection that the server had already closed:
#: the request never reached it, so it is sent once more.
_STALE_ERRNOS = (errno.ECONNRESET, errno.ECONNABORTED, errno.EPIPE)
_TRANSPORT_ERRORS = (OSError, http.client.HTTPException)


def _stale(exc: BaseException) -> bool:
    """True when ``exc`` means a kept-alive connection was closed by
    the server before the request's response began."""
    return isinstance(exc, http.client.RemoteDisconnected) or (
        isinstance(exc, OSError) and exc.errno in _STALE_ERRNOS)


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
    ``BACKOFF_S``, ``BACKOFF_CAP_S``, ``POLL_S``).  One client may be
    shared by threads: each gets its own connection (see the module
    docstring), and :meth:`close` closes them all.
    """

    def __init__(self, base_url: str, *, timeout_s: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout_s = timeout_s
        try:
            split = urlsplit(self.base_url)
            self._address = (split.hostname, split.port or 80)
        except ValueError as exc:  # a port that is not a number
            raise ConfigError(f"bad service URL {base_url!r}: {exc}") \
                from exc
        if split.scheme != "http" or not split.hostname:
            raise ConfigError(f"service URL must be http://host[:port], "
                              f"got {base_url!r}")
        self._path = split.path
        self._lock = threading.Lock()
        self._connections: dict[threading.Thread,
                                http.client.HTTPConnection] = \
            {}  # guarded by: _lock

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        """Close every thread's connection (a later call opens anew)."""
        with self._lock:
            connections = list(self._connections.values())
            self._connections.clear()
        for connection in connections:
            connection.close()

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
        """Call ``attempt`` until it returns a value; past ``timeout``
        seconds raise :class:`ServiceError`.

        The first re-poll waits about 1 ms and each later one twice as
        long, up to ``POLL_S``: a memo hit's job finishes on a worker
        thread just after its submit returns, so a fetch sent at once
        can find it a moment early.
        """
        deadline = None if timeout is None \
            else time.monotonic() + timeout
        delay = 0.001
        while True:
            value = attempt()
            if value is not None:
                return value
            if deadline is not None and time.monotonic() >= deadline:
                raise ServiceError(
                    f"job {job_id} not finished after {timeout}s")
            time.sleep(delay)
            delay = min(2 * delay, POLL_S)

    @staticmethod
    def _jobs_path(priority: int) -> str:
        return "/v1/jobs" if priority == 0 \
            else f"/v1/jobs?priority={priority}"

    def _call(self, method: str, path: str,
              payload: dict | list | None = None) -> Any:
        body = None if payload is None \
            else json.dumps(payload).encode("utf-8")
        response, data = self._round_trip(method, path, body)
        if response.status >= 300:
            self._raise_for_status(response, data, path)
        return json.loads(data.decode("utf-8"))

    def _connection(self) -> http.client.HTTPConnection:
        """The calling thread's connection, made on its first call.

        Making one also closes those of threads that have ended.
        """
        thread = threading.current_thread()
        with self._lock:
            connection = self._connections.get(thread)
            if connection is None:
                for ended in [t for t in self._connections
                              if not t.is_alive()]:
                    self._connections.pop(ended).close()
                connection = self._connections[thread] = \
                    http.client.HTTPConnection(*self._address,
                                               timeout=self.timeout_s)
        return connection

    def _round_trip(self, method: str, path: str, body: bytes | None
                    ) -> tuple[http.client.HTTPResponse, bytes]:
        """One request on this thread's connection: the response and
        its body.

        A request that failed on a reused connection before any
        response byte arrived (:func:`_stale`) is sent once more, on a
        fresh connection; any other transport failure, or a second
        one, is a :class:`ServiceError`, and closes the connection.
        """
        for attempt in range(2):
            connection = self._connection()
            reused = connection.sock is not None
            try:
                connection.request(method, self._path + path, body,
                                   {"Content-Type": "application/json"})
                response = connection.getresponse()
                break
            except _TRANSPORT_ERRORS as exc:
                connection.close()
                if attempt or not reused or not _stale(exc):
                    raise ServiceError(
                        f"cannot reach service at {self.base_url}: "
                        f"{exc}") from exc
        try:
            return response, response.read()
        except _TRANSPORT_ERRORS as exc:
            connection.close()
            raise ServiceError(
                f"lost the response to {method} {path} from "
                f"{self.base_url}: {exc}") from exc

    def _raise_for_status(self, response: http.client.HTTPResponse,
                          body: bytes, path: str) -> NoReturn:
        try:
            document = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            document = None
        if is_error_document(document):
            error = ErrorDocument.from_dict(document).exception()
            retry_after = response.getheader("Retry-After")
            if retry_after is not None:
                try:
                    error.retry_after_s = float(retry_after)
                except ValueError:
                    pass  # HTTP-date form: ignore, use our own backoff
            raise error
        raise ServiceError(f"HTTP {response.status} from "
                           f"{self.base_url}{path}: {response.reason}")
