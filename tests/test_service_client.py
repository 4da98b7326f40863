"""ServiceClient's transport: kept-alive connections and when a request
is sent again.

Live replicas count the connections they accept; scripted socket
servers and a scripted connection play the failures a kept-alive
connection meets (the server closed it while idle, reset it, or broke
off a response half sent).
"""

from __future__ import annotations

import contextlib
import errno
import http.client
import os
import select
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.api import ScheduleRequest, Session
from repro.core.budget import QUICK_BUDGET
from repro.errors import ConfigError, ServiceError
from repro.service import ServiceClient, ServiceServer, local_service
from repro.service import client as client_module
from repro.service import http as http_module

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def accepted(monkeypatch):
    """Every connection a ServiceServer accepts, as its client address."""
    addresses: list = []
    get_request = ServiceServer.get_request

    def counting(server):
        connection, address = get_request(server)
        addresses.append(address)
        return connection, address

    monkeypatch.setattr(ServiceServer, "get_request", counting)
    return addresses


def _request(scenario_id: int) -> ScheduleRequest:
    return ScheduleRequest(scenario_id=scenario_id, policy="standalone",
                           budget=QUICK_BUDGET, nsplits=1)


class TestConnectionReuse:
    def test_calls_from_one_thread_share_one_connection(self, accepted):
        request = _request(1)
        with local_service(workers=1) as (url, _service):
            with ServiceClient(url) as client:
                first = client.submit(request).result(timeout=300)
                for _ in range(10):
                    again = client.submit(request).result(timeout=300)
                    assert again.same_payload(first)
                assert client.health()["status"] == "ok"
        assert len(accepted) == 1

    def test_threads_sharing_a_client_each_get_their_own(self, accepted):
        requests = [_request(1), _request(2)]
        expected = [Session().submit(r) for r in requests]
        results: dict[int, list] = {0: [], 1: []}
        barrier = threading.Barrier(2, timeout=60)

        def work(index: int) -> None:
            barrier.wait()
            for _ in range(5):
                results[index].append(client.submit(requests[index])
                                      .result(timeout=300))

        with local_service(workers=2) as (url, _service):
            with ServiceClient(url) as client:
                threads = [threading.Thread(target=work, args=(i,))
                           for i in range(2)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=300)
                assert not any(thread.is_alive() for thread in threads)
        assert len(accepted) == 2
        for index in (0, 1):
            assert len(results[index]) == 5
            assert all(r.same_payload(expected[index])
                       for r in results[index])

    def test_idle_connection_closed_by_the_server_is_replaced(
            self, accepted, monkeypatch):
        """The replica drops a connection idle past its handler
        timeout; the next call goes out on a fresh one, unnoticed."""
        monkeypatch.setattr(http_module._JobsHandler, "timeout", 0.2)
        with local_service(workers=1) as (url, _service):
            with ServiceClient(url) as client:
                assert client.health()["status"] == "ok"
                sock = client._connections[threading.current_thread()].sock
                # Readable at EOF: wait until the replica has closed it.
                assert select.select([sock], [], [], 30)[0]
                assert client.health()["status"] == "ok"
                assert client.health()["status"] == "ok"
        assert len(accepted) == 2

    def test_close_and_a_with_block_close_the_connections(self, accepted):
        with local_service(workers=1) as (url, _service):
            client = ServiceClient(url)
            with client:
                client.health()
                connection = client._connections[threading.current_thread()]
                assert connection.sock is not None
            assert connection.sock is None
            client.health()  # a later call opens a new connection
            client.close()
        assert len(accepted) == 2

    def test_a_thread_that_ended_has_its_connection_closed(self,
                                                           accepted):
        with local_service(workers=1) as (url, _service):
            with ServiceClient(url) as client:
                worker = threading.Thread(target=client.health)
                worker.start()
                worker.join(timeout=60)
                assert not worker.is_alive()
                (ended,) = client._connections.values()
                assert ended.sock is not None
                client.health()
                assert ended.sock is None
                assert list(client._connections) == \
                    [threading.current_thread()]

    @pytest.mark.parametrize("url", [
        "https://127.0.0.1:8787", "ftp://127.0.0.1", "127.0.0.1:8787",
        "http://", "http://127.0.0.1:port", "http://127.0.0.1:99999"])
    def test_base_url_must_be_plain_http(self, url):
        with pytest.raises(ConfigError, match="URL"):
            ServiceClient(url)


# -- resending ------------------------------------------------------------


def _read_head(reader) -> bool:
    """Read one request head (GETs only: no body); False at EOF."""
    while True:
        line = reader.readline()
        if not line:
            return False
        if line == b"\r\n":
            return True


@contextlib.contextmanager
def _scripted_server(plays):
    """A localhost server that plays ``plays[i]`` on its i-th accepted
    connection: each play is a list of actions, one per request read
    from that connection -- ``"answer"`` sends a complete 200, ``"fin"``
    and ``"rst"`` close without a response byte (``rst`` with a
    reset), ``"half"`` sends the head and part of the body, then
    closes.  Yields ``(url, requests)``: the requests read, one
    ``(connection, index)`` pair each."""
    listener = socket.create_server(("127.0.0.1", 0))
    requests: list[tuple[int, int]] = []

    def play(number: int, connection: socket.socket, actions) -> None:
        with connection, connection.makefile("rb") as reader:
            for index, action in enumerate(actions):
                if not _read_head(reader):
                    return
                requests.append((number, index))
                if action == "answer":
                    connection.sendall(b"HTTP/1.1 200 OK\r\n"
                                       b"Content-Length: 2\r\n\r\n{}")
                    continue
                if action == "half":
                    connection.sendall(b"HTTP/1.1 200 OK\r\n"
                                       b"Content-Length: 99\r\n\r\n{")
                elif action == "rst":
                    connection.setsockopt(socket.SOL_SOCKET,
                                          socket.SO_LINGER,
                                          struct.pack("ii", 1, 0))
                return

    def serve() -> None:
        for number, actions in enumerate(plays):
            try:
                connection, _ = listener.accept()
            except OSError:  # the listener was shut down
                return
            play(number, connection, actions)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{listener.getsockname()[1]}", requests
    finally:
        listener.shutdown(socket.SHUT_RDWR)  # wakes a blocked accept
        listener.close()
        thread.join(timeout=30)
        assert not thread.is_alive()


class TestResend:
    @pytest.mark.parametrize("close", ["fin", "rst"])
    def test_reused_connection_closed_before_the_response_is_resent(
            self, close):
        with _scripted_server([["answer", close],
                               ["answer", "answer"]]) as (url, requests):
            with ServiceClient(url, timeout_s=10) as client:
                assert client.health() == {}
                assert client.health() == {}  # resent on connection 1
                assert client.health() == {}
        assert requests == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_it_is_resent_only_once(self):
        with _scripted_server([["answer", "fin"],
                               ["fin"], ["answer"]]) as (url, requests):
            with ServiceClient(url, timeout_s=10) as client:
                client.health()
                with pytest.raises(ServiceError, match="cannot reach"):
                    client.health()
        assert requests == [(0, 0), (0, 1), (1, 0)]

    def test_a_fresh_connection_that_fails_is_not_resent(self):
        with _scripted_server([["fin"], ["answer"]]) as (url, requests):
            with ServiceClient(url, timeout_s=10) as client:
                with pytest.raises(ServiceError, match="cannot reach"):
                    client.health()
        assert requests == [(0, 0)]

    def test_a_response_that_arrived_is_never_resent(self):
        with _scripted_server([["answer", "half"],
                               ["answer"]]) as (url, requests):
            with ServiceClient(url, timeout_s=10) as client:
                client.health()
                with pytest.raises(ServiceError, match="lost the response"):
                    client.health()
        assert requests == [(0, 0), (0, 1)]

    def test_connection_refused_is_a_service_error(self):
        with socket.create_server(("127.0.0.1", 0)) as placeholder:
            port = placeholder.getsockname()[1]
        client = ServiceClient(f"http://127.0.0.1:{port}", timeout_s=5)
        with pytest.raises(ServiceError, match="cannot reach"):
            client.health()


class _ScriptedResponse:
    status, reason = 200, "OK"

    def __init__(self, failure: BaseException | None) -> None:
        self.failure = failure

    def getheader(self, name, default=None):
        return default

    def read(self) -> bytes:
        if self.failure is not None:
            raise self.failure
        return b"{}"


class _ScriptedConnection:
    """Stands in for ``http.client.HTTPConnection``: each request plays
    the next ``(stage, exception)`` of its script, raising at
    ``request``, ``getresponse`` or ``read``; ``None`` answers ``{}``."""

    def __init__(self, script, *, reused: bool) -> None:
        self.script = list(script)
        self.sock = object() if reused else None
        self.sent = 0

    def request(self, method, url, body=None, headers=None) -> None:
        self.sent += 1
        self.sock = self.sock or object()  # connects when closed
        self.stage, self.failure = self.script.pop(0) or (None, None)
        if self.stage == "request":
            raise self.failure

    def getresponse(self) -> _ScriptedResponse:
        if self.stage == "getresponse":
            raise self.failure
        return _ScriptedResponse(self.failure if self.stage == "read"
                                 else None)

    def close(self) -> None:
        self.sock = None


def _scripted_client(script, *, reused=True):
    client = ServiceClient("http://127.0.0.1:9")
    connection = _ScriptedConnection(script, reused=reused)
    client._connections[threading.current_thread()] = connection
    return client, connection


#: The failures that show a kept-alive connection the server closed.
_STALE = [
    http.client.RemoteDisconnected("closed"),
    ConnectionResetError(errno.ECONNRESET, "reset"),
    ConnectionAbortedError(errno.ECONNABORTED, "aborted"),
    BrokenPipeError(errno.EPIPE, "broken pipe"),
]
_STALE_IDS = ["remote-disconnected", "econnreset", "econnaborted",
              "epipe"]
#: Failures that do not: a request that met one is never resent.
_OTHER = [
    TimeoutError("timed out"),
    ConnectionRefusedError(errno.ECONNREFUSED, "refused"),
    OSError(errno.ENETUNREACH, "unreachable"),
    http.client.BadStatusLine("garbage"),
]
_OTHER_IDS = ["timeout", "refused", "enetunreach", "bad-status-line"]


class TestResendRule:
    @pytest.mark.parametrize("stage", ["request", "getresponse"])
    @pytest.mark.parametrize("failure", _STALE, ids=_STALE_IDS)
    def test_stale_reused_connection_is_resent_once(self, stage,
                                                    failure):
        client, connection = _scripted_client([(stage, failure), None])
        assert client.health() == {}
        assert connection.sent == 2

    @pytest.mark.parametrize("failure", _STALE, ids=_STALE_IDS)
    def test_not_twice(self, failure):
        client, connection = _scripted_client(
            [("getresponse", failure), ("request", failure), None])
        with pytest.raises(ServiceError, match="cannot reach"):
            client.health()
        assert connection.sent == 2

    @pytest.mark.parametrize("failure", _STALE, ids=_STALE_IDS)
    def test_not_on_a_fresh_connection(self, failure):
        client, connection = _scripted_client(
            [("getresponse", failure), None], reused=False)
        with pytest.raises(ServiceError, match="cannot reach"):
            client.health()
        assert connection.sent == 1

    @pytest.mark.parametrize("failure", _STALE, ids=_STALE_IDS)
    def test_not_once_the_response_began(self, failure):
        client, connection = _scripted_client([("read", failure), None])
        with pytest.raises(ServiceError, match="lost the response"):
            client.health()
        assert connection.sent == 1

    @pytest.mark.parametrize("stage", ["request", "getresponse"])
    @pytest.mark.parametrize("failure", _OTHER, ids=_OTHER_IDS)
    def test_other_failures_are_not_resent(self, stage, failure):
        client, connection = _scripted_client([(stage, failure), None])
        with pytest.raises(ServiceError, match="cannot reach"):
            client.health()
        assert connection.sent == 1


class TestPolling:
    def test_re_polls_back_off_from_about_1_ms(self, monkeypatch):
        """A job that finishes after eight polls: the waits double from
        1 ms and stop growing at POLL_S."""
        client = ServiceClient("http://127.0.0.1:9")
        polls = []

        def result(job_id):
            polls.append(job_id)
            if len(polls) < 9:
                error = ServiceError(f"job {job_id} is RUNNING")
                error.code = "job_not_done"
                raise error
            return "the result"

        sleeps: list[float] = []
        monkeypatch.setattr(client, "result", result)
        monkeypatch.setattr(client_module.time, "sleep", sleeps.append)
        assert client.wait_result("job-1", timeout=60) == "the result"
        assert len(polls) == 9
        assert sleeps == pytest.approx(
            [0.001, 0.002, 0.004, 0.008, 0.016, 0.032, 0.05, 0.05])


# -- shutdown with a connection open --------------------------------------


def _env() -> dict[str, str]:
    env = dict(os.environ, PYTHONUNBUFFERED="1")
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class TestShutdown:
    def test_sigterm_exits_promptly_with_a_client_connected(self):
        replica = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", "1"],
            stdout=subprocess.PIPE, text=True, env=_env(), cwd=REPO_ROOT)
        try:
            banner = replica.stdout.readline()
            assert "http://" in banner, banner
            url = "http://" + banner.split("http://", 1)[1] \
                .split("/v1/")[0]
            with ServiceClient(url) as client:
                assert client.health()["status"] == "ok"
                started = time.monotonic()
                replica.send_signal(signal.SIGTERM)
                code = replica.wait(timeout=30)
                elapsed = time.monotonic() - started
        finally:
            if replica.poll() is None:
                replica.kill()
                replica.wait(timeout=30)
            replica.stdout.close()
        assert code == 0
        assert elapsed < 5.0, f"SIGTERM took {elapsed:.2f} s"

    def test_leaving_local_service_does_not_wait_on_idle_connections(
            self):
        client = None
        with local_service(workers=1) as (url, _service):
            client = ServiceClient(url)
            client.health()
            started = time.monotonic()
        elapsed = time.monotonic() - started
        client.close()
        assert elapsed < 3.0, f"leaving took {elapsed:.2f} s"
