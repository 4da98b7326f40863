"""Stdlib HTTP front-end speaking the ``repro.api`` wire documents.

Endpoints (all JSON, all under ``/v1``)::

    POST   /v1/jobs[?priority=N]   submit a schedule_request document
                                   (or a JSON array of them: a batch)
                                   -> job document / array of them
    GET    /v1/jobs                -> array of job documents
    GET    /v1/jobs/<id>           -> job document (poll this for state)
    GET    /v1/jobs/<id>/result    -> schedule_result document (DONE),
                                      the job's error document (FAILED,
                                      HTTP 500) or a job_not_done /
                                      job_cancelled error (HTTP 409)
    DELETE /v1/jobs/<id>           -> job document after cancellation
    GET    /v1/health              -> {"status": "ok", ...}

Every failure body is a structured :class:`~repro.api.ErrorDocument` --
no tracebacks cross the wire.  A ``schedule_result`` body is the
result's :attr:`~repro.api.ScheduleResult.wire_bytes`, encoded once per
result object, so repeated fetches of a memoized result re-encode
nothing.  :class:`ServiceServer` is a ``ThreadingHTTPServer`` bound to
one :class:`SchedulerService`; :func:`local_service` runs one in a
background thread for tests, examples and notebooks.
"""

from __future__ import annotations

import contextlib
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any
from urllib.parse import parse_qs, urlsplit

from repro.api.request import ScheduleRequest
from repro.api.session import Session
from repro.api.wire import ErrorDocument
from repro.errors import (
    ConfigError,
    JobNotFoundError,
    ReproError,
    ServiceError,
    ServiceOverloadedError,
)
from repro.service import jobs as jobstate
from repro.service.scheduler import SchedulerService


class ServiceServer(ThreadingHTTPServer):
    """HTTP server bound to one :class:`SchedulerService`."""

    daemon_threads = True

    def __init__(self, address: tuple[str, int],
                 service: SchedulerService) -> None:
        super().__init__(address, _JobsHandler)
        self.service = service

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


#: Hard cap on request bodies (a generous multiple of the largest
#: inline-scenario batch we expect); bigger declarations get a 413.
_MAX_BODY_BYTES = 16 * 1024 * 1024


class _JobsHandler(BaseHTTPRequestHandler):
    server_version = "repro-service/1"
    protocol_version = "HTTP/1.1"
    #: Socket timeout: a client that declares a body and stalls cannot
    #: pin its handler thread forever.
    timeout = 60
    #: TCP_NODELAY: headers and body go out as two writes, and on a
    #: keep-alive connection Nagle would hold the body back until the
    #: client's delayed ACK (40 ms on Linux) for every response.
    disable_nagle_algorithm = True

    # Quiet by default: per-request logging would swamp test output.
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass

    @property
    def service(self) -> SchedulerService:
        return self.server.service  # type: ignore[attr-defined]

    # -- plumbing ----------------------------------------------------------

    def _send(self, status: int, payload: dict | list,
              headers: dict[str, str] | None = None) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self._send_bytes(status, body, headers)

    def _send_bytes(self, status: int, body: bytes,
                    headers: dict[str, str] | None = None) -> None:
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_exception(self, exc: ReproError) -> None:
        """Map a typed exception to its wire document + HTTP status.

        Overload rejections carry ``Retry-After`` so well-behaved
        clients (and :class:`~repro.service.ServiceClient`) know the
        server's suggested backoff floor.
        """
        headers = None
        if isinstance(exc, ServiceOverloadedError):
            retry_after = getattr(exc, "retry_after_s", None) or 1.0
            headers = {"Retry-After": str(max(1, round(retry_after)))}
        self._send(_status_for(exc),
                   ErrorDocument.from_exception(exc).to_dict(),
                   headers=headers)

    def _send_error_doc(self, status: int, code: str, message: str,
                        field: str | None = None) -> None:
        self._send(status, ErrorDocument(code=code, message=message,
                                         field=field).to_dict())

    def _drain_body(self) -> bytes | None:
        """Read the full request body; ``None`` means already answered.

        Always called before any response is written: with HTTP/1.1
        keep-alive, unread body bytes would be parsed as the next
        request line on the persistent connection.  A malformed or
        negative Content-Length is treated as an empty body and the
        connection is closed after the response, so stale bytes cannot
        poison the next request (and ``read(-1)`` can never pin the
        handler thread until the peer disconnects).  Bodies declared
        larger than ``_MAX_BODY_BYTES`` are refused with 413 before any
        buffering, so one request cannot exhaust server memory.
        """
        if self.headers.get("Transfer-Encoding"):
            # Chunked bodies are not supported; answering without
            # draining the chunk framing would desync keep-alive, so
            # refuse and close.
            self.close_connection = True
            self._send_error_doc(
                501, "bad_request",
                "Transfer-Encoding is not supported; send a "
                "Content-Length body")
            return None
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        if length < 0:
            self.close_connection = True
            return b""
        if length > _MAX_BODY_BYTES:
            self.close_connection = True
            self._send_error_doc(
                413, "bad_request",
                f"request body too large ({length} bytes; "
                f"max {_MAX_BODY_BYTES})")
            return None
        return self.rfile.read(length)

    @staticmethod
    def _parse_json(body: bytes) -> Any:
        try:
            return json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigError(f"request body is not JSON: {exc}") from exc

    def _route(self) -> tuple[list[str], dict[str, list[str]]]:
        split = urlsplit(self.path)
        parts = [part for part in split.path.split("/") if part]
        return parts, parse_qs(split.query)

    # -- verbs -------------------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802 - http.server convention
        body = self._drain_body()
        if body is None:
            return
        parts, query = self._route()
        if parts != ["v1", "jobs"]:
            self._send_error_doc(404, "unknown_endpoint",
                                 f"no such endpoint: POST {self.path}")
            return
        try:
            priority = int(query.get("priority", ["0"])[0])
        except ValueError:
            self._send_error_doc(400, "bad_request",
                                 "priority must be an integer",
                                 field="priority")
            return
        try:
            document = self._parse_json(body)
            if isinstance(document, list):
                requests = []
                for i, entry in enumerate(document):
                    try:
                        requests.append(ScheduleRequest.from_dict(entry))
                    except ReproError as exc:
                        self._bad_entry(exc, i)
                handles = self.service.submit_many(requests,
                                                   priority=priority)
                # The submit-time snapshot: a fast-terminal job under a
                # tight retain cap may already be evicted, but the
                # acceptance (and its job id) must still be answerable.
                self._send(201, [handle.submitted_record.to_dict()
                                 for handle in handles])
            else:
                request = ScheduleRequest.from_dict(document)
                handle = self.service.submit(request, priority=priority)
                self._send(201, handle.submitted_record.to_dict())
        except _BadBatchEntry as exc:
            self._send(400, exc.document.to_dict())
        except ReproError as exc:
            self._send_exception(exc)

    def _bad_entry(self, exc: ReproError, index: int) -> None:
        raise _BadBatchEntry(ErrorDocument.from_exception(
            exc, field=f"requests[{index}]"))

    def do_GET(self) -> None:  # noqa: N802
        if self._drain_body() is None:
            return
        parts, _ = self._route()
        try:
            if parts == ["v1", "health"]:
                self._send(200, {"status": "ok",
                                 **self.service.state_counts()})
            elif parts == ["v1", "jobs"]:
                self._send(200, [record.to_dict()
                                 for record in self.service.jobs()])
            elif len(parts) == 3 and parts[:2] == ["v1", "jobs"]:
                self._send(200, self.service.job(parts[2]).to_dict())
            elif len(parts) == 4 and parts[:2] == ["v1", "jobs"] \
                    and parts[3] == "result":
                self._send_result(parts[2])
            else:
                self._send_error_doc(404, "unknown_endpoint",
                                     f"no such endpoint: GET {self.path}")
        except ReproError as exc:
            self._send_exception(exc)

    def _send_result(self, job_id: str) -> None:
        # One atomic snapshot: a separate job()-then-result() pair could
        # lose the result to retain-eviction between the two calls.
        record, result = self.service.snapshot(job_id)
        if record.state == jobstate.DONE:
            assert result is not None
            self._send_bytes(200, result.wire_bytes)
        elif record.state == jobstate.FAILED:
            assert record.error is not None
            self._send(500, record.error.to_dict())
        elif record.state == jobstate.CANCELLED:
            self._send_error_doc(409, "job_cancelled",
                                 f"job {job_id} was cancelled")
        else:
            self._send_error_doc(409, "job_not_done",
                                 f"job {job_id} is {record.state}; "
                                 f"poll GET /v1/jobs/{job_id}")

    def do_DELETE(self) -> None:  # noqa: N802
        if self._drain_body() is None:
            return
        parts, _ = self._route()
        if len(parts) != 3 or parts[:2] != ["v1", "jobs"]:
            self._send_error_doc(404, "unknown_endpoint",
                                 f"no such endpoint: DELETE {self.path}")
            return
        try:
            self._send(200, self.service.cancel(parts[2]).to_dict())
        except ReproError as exc:
            self._send_exception(exc)


class _BadBatchEntry(Exception):
    """Internal: one entry of a batch POST failed to parse."""

    def __init__(self, document: ErrorDocument) -> None:
        super().__init__(document.message)
        self.document = document


def _status_for(exc: ReproError) -> int:
    """HTTP status for a service-boundary exception."""
    if isinstance(exc, JobNotFoundError):
        return 404
    if isinstance(exc, ServiceOverloadedError):
        return 429
    if isinstance(exc, ServiceError):
        return 409
    if isinstance(exc, ConfigError):
        return 400
    return 500


@contextlib.contextmanager
def local_service(session: Session | None = None, *, workers: int = 2,
                  host: str = "127.0.0.1", port: int = 0,
                  **service_kwargs):
    """A live service + HTTP server in this process, for tests/demos.

    Yields ``(url, service)``; the server thread and worker pool shut
    down on exit.  ``port=0`` picks a free ephemeral port.  Extra
    keyword arguments (``retain``, ``job_backend``, ``max_pending``,
    ``store``) pass through to :class:`SchedulerService`.
    """
    service = SchedulerService(session, workers=workers,
                               **service_kwargs)
    server = ServiceServer((host, port), service)
    thread = threading.Thread(target=server.serve_forever, daemon=True,
                              name="repro-service-http")
    thread.start()
    try:
        yield server.url, service
    finally:
        server.shutdown()
        server.server_close()
        thread.join()
        service.close()
