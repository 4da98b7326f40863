"""The job scheduler: a bounded worker pool over a :class:`Session`.

:class:`SchedulerService` turns the blocking ``Session.submit`` call
into asynchronous jobs: callers get a :class:`JobHandle` back
immediately, jobs run on ``workers`` daemon threads popping a priority
queue (lower ``priority`` first, FIFO within a priority), and every
result is produced by the *same* ``Session.submit`` path -- same memo,
same cache keys -- so a job's schedule/metrics are bit-identical to a
direct in-process submit of the same request.

Cancellation is cooperative: a ``QUEUED`` job cancels immediately; a
``RUNNING`` job finishes its (atomic) policy run and is then marked
``CANCELLED`` with its result discarded.  ``close()`` drains the queue
(remaining jobs still run) and joins the workers; the service is usable
as a context manager.

Three knobs make the service scale past a single box's GIL:

``job_backend="process"``  workers dispatch each search to a process
                           pool mirroring the session (same registry
                           and ``eval_mode``), so concurrent
                           CPU-bound jobs actually overlap; results are
                           adopted back into the session memo and are
                           bit-identical to in-process ``submit``.
``max_pending=N``          admission control: submits past N queued
                           jobs are rejected with
                           :class:`~repro.errors.ServiceOverloadedError`
                           (HTTP 429 + ``Retry-After`` at the
                           transport) instead of growing the queue
                           without bound.
``store=ResultStore``      cross-replica schedule cache: finished
                           results are appended to a shared JSONL
                           store keyed by ``ScheduleRequest.cache_key``
                           and consulted (with a :meth:`refresh
                           <repro.sweep.store.ResultStore.refresh>` on
                           miss) before searching, so identical
                           requests across ``scar serve`` replicas hit
                           a memo instead of a search.
"""

from __future__ import annotations

import heapq
import itertools
import queue
import threading
import time
from collections import OrderedDict
from concurrent.futures.process import BrokenProcessPool
from typing import Iterable

from repro.api.request import ScheduleRequest, ScheduleResult
from repro.api.session import Session, run_pooled_request
from repro.api.wire import ErrorDocument
from repro.errors import (
    ConfigError,
    JobNotFoundError,
    ServiceError,
    ServiceOverloadedError,
)
from repro.perf import CacheStats, TimingSummary
from repro.service import jobs as jobstate
from repro.service.jobs import JobRecord
from repro.sweep.store import ResultStore

#: Job execution backends: in the worker thread, or fanned out to a
#: process pool built by :meth:`Session.process_pool`.
JOB_BACKENDS = ("thread", "process")

#: Queue sentinel priority: sorts after every real job, so close() drains
#: the backlog before the workers exit.
_SHUTDOWN_PRIORITY = float("inf")


class _Job:
    """One job's state: the slot shared by the service and its handle.

    The service keeps one slot per job id (``SchedulerService._jobs``);
    the slot holds the current :class:`JobRecord`, the result, the done
    event, the enqueue time, the cancel flag, the retrieved flag and the
    terminal sequence number.  Every field is written only by a
    :class:`SchedulerService` method holding the service's ``_lock``,
    and the terminal ``record`` and ``result`` are written before
    ``done`` is set, so a waiter that wakes reads a complete outcome.
    Retain-eviction drops the service's reference only -- a live
    :class:`JobHandle` keeps its own, so an in-process caller can never
    lose a job it holds.
    """

    __slots__ = ("record", "result", "done", "enqueued_at",
                 "cancel_requested", "retrieved", "terminal_seq")

    def __init__(self, record: JobRecord) -> None:
        self.record = record
        self.result: ScheduleResult | None = None
        self.done = threading.Event()
        self.enqueued_at = time.monotonic()
        self.cancel_requested = False
        #: result fetched at least once (the eviction preference)
        self.retrieved = False
        #: position in the terminal order, set when the job finishes
        self.terminal_seq: int | None = None


class JobHandle:
    """Caller-facing view of one submitted job.

    ``record()`` snapshots the immutable :class:`JobRecord`; ``result()``
    blocks until the job is terminal and either returns the
    ``ScheduleResult`` or raises the job's typed error (``FAILED``) /
    :class:`~repro.errors.ServiceError` (``CANCELLED``).  The handle
    holds the job's slot and reads it directly, so ``record()``,
    ``wait()`` and ``result()`` are immune to retain-eviction (unlike
    by-id access, which lives inside the retention window).
    """

    def __init__(self, service: "SchedulerService", job: _Job) -> None:
        self._service = service
        self._job = job
        self.job_id = job.record.job_id
        #: The QUEUED record snapshotted at submit time: the HTTP 201
        #: acknowledges it, whatever state the job has reached by the
        #: time the response is written.
        self.submitted_record = job.record

    def record(self) -> JobRecord:
        return self._job.record

    @property
    def state(self) -> str:
        return self.record().state

    def done(self) -> bool:
        return self.record().terminal

    def wait(self, timeout: float | None = None) -> JobRecord:
        if not self._job.done.wait(timeout):
            raise ServiceError(
                f"job {self.job_id} still {self.record().state} after "
                f"{timeout}s")
        return self._job.record

    def result(self, timeout: float | None = None) -> ScheduleResult:
        record = self.wait(timeout)
        if record.state == jobstate.DONE:
            result = self._job.result
            assert result is not None  # set before the event fires
            return result
        if record.state == jobstate.FAILED:
            assert record.error is not None
            raise record.error.exception()
        raise ServiceError(f"job {self.job_id} was cancelled")

    def cancel(self) -> JobRecord:
        return self._service.cancel(self.job_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"JobHandle({self.job_id!r}, state={self.state!r})"


class SchedulerService:
    """Asynchronous job front-end over one :class:`Session`.

    ``workers`` bounds concurrency.  On the default thread backend,
    ``workers > 1`` overlaps queue and IO handling, while the searches
    themselves take turns on the GIL; the process backend (below) is
    what overlaps CPU-bound searches.  The determinism contract is
    unconditional either way.

    Each job lives in one slot (``_jobs``, id -> :class:`_Job`) that
    its :class:`JobHandle` shares.  ``retain`` bounds memory like
    ``Session(max_memo=N)`` does for the result memo: only the N most
    recent *terminal* jobs keep their slots; older ones are evicted, and
    by-id access to them (``job``, ``snapshot``, ``cancel``) raises
    :class:`~repro.errors.JobNotFoundError`, while an open handle still
    reads its own slot.  ``None`` (the default) retains everything.

    ``job_backend="process"`` runs each job's search on a process pool
    (size ``workers``) instead of the worker thread itself, so
    CPU-bound jobs overlap in wall time; the worker threads then only
    shepherd queue state and IPC.  A non-default registry must be
    picklable to cross into the pool (see ``Session.process_pool``);
    keep the default ``"thread"`` backend for closure-based test
    policies.  ``max_pending`` bounds the admission queue (``None`` =
    unbounded): a submit that would leave more than ``max_pending``
    jobs ``QUEUED`` raises
    :class:`~repro.errors.ServiceOverloadedError`; batch submits are
    all-or-nothing.  ``store`` attaches a shared
    :class:`~repro.sweep.store.ResultStore` consulted before every
    search and appended after, the cross-replica schedule cache.
    """

    def __init__(self, session: Session | None = None, *,
                 workers: int = 1, retain: int | None = None,
                 job_backend: str = "thread",
                 max_pending: int | None = None,
                 store: ResultStore | None = None) -> None:
        if workers < 1:
            raise ConfigError(f"workers must be >= 1, got {workers}")
        if retain is not None and retain < 1:
            raise ConfigError(f"retain must be None or >= 1, got {retain}")
        if job_backend not in JOB_BACKENDS:
            raise ConfigError(
                f"unknown job_backend {job_backend!r}; "
                f"expected one of {JOB_BACKENDS}")
        if max_pending is not None and max_pending < 1:
            raise ConfigError(
                f"max_pending must be None or >= 1, got {max_pending}")
        self.session = session if session is not None else Session()
        self.workers = workers
        self.retain = retain
        self.job_backend = job_backend
        self.max_pending = max_pending
        self._store = store
        self._store_stats = CacheStats()  # guarded by: _lock
        #: the current process pool; replaced when a worker death
        #: breaks it (see :meth:`_run_pooled`).
        self._pool = self.session.process_pool(workers) \
            if job_backend == "process" else None  # guarded by: _lock
        self._queue: queue.PriorityQueue = queue.PriorityQueue()
        self._lock = threading.Lock()
        #: job id -> its slot, in submission order.
        self._jobs: dict[str, _Job] = {}  # guarded by: _lock
        #: per-state record tally, maintained incrementally on every
        #: transition so /v1/health and admission checks are O(states),
        #: not O(jobs).
        self._counts: dict[str, int] = {  # guarded by: _lock
            state: 0 for state in jobstate.JOB_STATES}
        #: retained terminal job ids, oldest first: the eviction order
        #: for ``retain`` (an ordered dict so eviction pops are O(1)
        #: instead of ``list.remove``'s O(n)).
        self._terminal_order: OrderedDict[str, None] = \
            OrderedDict()  # guarded by: _lock
        self._terminal_seq = itertools.count()
        #: (terminal seq, job id) min-heap of retrieved jobs: the
        #: eviction preference queue.  Entries are lazily invalidated --
        #: an already-evicted head is popped and skipped -- which keeps
        #: the "oldest retrieved first" policy at O(log n).
        self._retrieved_heap: list[tuple[int, str]] = []  # guarded by: _lock
        self._seq = itertools.count()
        self._closed = False  # guarded by: _lock
        self._threads = [
            threading.Thread(target=self._worker, daemon=True,
                             name=f"repro-service-worker-{i}")
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    # -- submission --------------------------------------------------------

    def submit(self, request: ScheduleRequest, *,
               priority: int = 0) -> JobHandle:
        """Queue one request; lower ``priority`` runs first.

        Raises :class:`~repro.errors.ConfigError` when the session's
        registry has no policy of the request's name, and
        :class:`~repro.errors.ServiceOverloadedError` when the
        admission queue (``max_pending``) is full.
        """
        self.session.registry.get(request.policy)  # unknown: ConfigError
        with self._lock:
            self._admit_locked(1)
            return self._submit_locked(request, priority)

    def submit_many(self, requests: Iterable[ScheduleRequest], *,
                    priority: int = 0) -> list[JobHandle]:
        """Queue a batch atomically; handles come back in request order.

        One lock section covers the whole batch, so a concurrent
        ``close()`` either rejects it entirely or accepts it entirely --
        never a partially queued batch behind an error.  Admission
        control is likewise all-or-nothing: a batch that does not fit
        under ``max_pending``, or that names an unregistered policy, is
        rejected whole, queueing nothing.
        """
        requests = list(requests)
        for request in requests:
            self.session.registry.get(request.policy)
        with self._lock:
            self._admit_locked(len(requests))
            return [self._submit_locked(request, priority)
                    for request in requests]

    def _admit_locked(self, batch: int) -> None:
        if self.max_pending is None:
            return
        queued = self._counts[jobstate.QUEUED]
        if queued + batch > self.max_pending:
            what = "1 new job" if batch == 1 else f"batch of {batch}"
            raise ServiceOverloadedError(
                f"service overloaded: {queued} of max_pending="
                f"{self.max_pending} jobs queued, no room for {what}; "
                f"retry with backoff")

    def _submit_locked(self, request: ScheduleRequest,
                       priority: int) -> JobHandle:
        if self._closed:
            raise ServiceError("service is closed; no new jobs")
        seq = next(self._seq)
        job = _Job(JobRecord(job_id=f"job-{seq:06d}", request=request,
                             priority=priority,
                             events=(jobstate.JobEvent(
                                 seq=0, state=jobstate.QUEUED),)))
        self._jobs[job.record.job_id] = job
        self._counts[jobstate.QUEUED] += 1
        # Enqueue under the same lock as the closed check: a close()
        # racing in between would drain the workers before this put
        # landed, stranding an accepted job QUEUED forever.  The queue
        # is unbounded, so put never blocks.
        self._queue.put((priority, seq, job))
        return JobHandle(self, job)

    # -- observation -------------------------------------------------------

    def job(self, job_id: str) -> JobRecord:
        """Snapshot one job's record (unknown/evicted ids raise
        :class:`~repro.errors.JobNotFoundError`)."""
        with self._lock:
            return self._job_locked(job_id).record

    def jobs(self) -> list[JobRecord]:
        """Snapshots of every job, in submission order."""
        with self._lock:
            return [job.record for job in self._jobs.values()]

    def snapshot(self, job_id: str) \
            -> tuple[JobRecord, ScheduleResult | None]:
        """Atomically read a job's record and (if DONE) its result.

        One lock section, so retain-eviction can never fall between
        observing a terminal state and fetching the payload -- the HTTP
        result endpoint is built on this.  Reading a ``DONE`` job marks
        its result retrieved, which makes it the first to evict.
        """
        with self._lock:
            job = self._job_locked(job_id)
            if job.record.state == jobstate.DONE:
                self._mark_retrieved_locked(job)
            return job.record, job.result

    # -- cancellation ------------------------------------------------------

    def cancel(self, job_id: str) -> JobRecord:
        """Request cancellation (idempotent; cooperative while RUNNING).

        ``QUEUED`` jobs flip to ``CANCELLED`` immediately; ``RUNNING``
        jobs are flagged and become ``CANCELLED`` when their policy run
        completes (the computed result is discarded).  Terminal jobs are
        returned unchanged.
        """
        with self._lock:
            job = self._job_locked(job_id)
            if job.record.state == jobstate.QUEUED:
                self._cancel_queued_locked(job, "cancelled while queued")
            elif job.record.state == jobstate.RUNNING:
                # Flag it; the worker finishes the transition.
                job.cancel_requested = True
            return job.record

    # -- reporting ---------------------------------------------------------

    def state_counts(self) -> dict[str, int]:
        """Cheap per-state job tally (the ``/v1/health`` payload).

        Served from the incrementally maintained counters -- O(states),
        so a health poll stays cheap no matter how many records the
        retention window holds.
        """
        with self._lock:
            return {**self._counts, "total": len(self._jobs)}

    def perf_summary(self) -> dict:
        """Service-level stats: job states, queue/run times, session perf.

        ``queue`` / ``run`` aggregate per-job wall times
        (:class:`~repro.perf.TimingSummary`); ``session`` is the wrapped
        session's aggregate :class:`~repro.perf.PerfReport` (including
        the engine's delta-evaluation ``num_segments*`` counters and
        per-table cache hit/miss counts).  ``job_backend`` is how jobs
        execute (worker thread vs process pool) and ``store`` the
        cross-replica cache's hit/miss stats (``None`` when no store is
        attached).
        """
        with self._lock:
            records = [job.record for job in self._jobs.values()]
            counts = {**self._counts, "total": len(records)}
            store_stats = self._store_stats.to_dict() \
                if self._store is not None else None
        queue_summary = TimingSummary.from_samples(
            record.queue_s for record in records
            if record.queue_s is not None)
        run_summary = TimingSummary.from_samples(
            record.run_s for record in records
            if record.run_s is not None)
        return {
            "jobs": counts,
            "queue": queue_summary.to_dict(),
            "run": run_summary.to_dict(),
            "job_backend": self.job_backend,
            "store": store_stats,
            "session": self.session.perf_summary().to_dict(),
        }

    # -- lifecycle ---------------------------------------------------------

    def close(self, *, wait: bool = True,
              cancel_pending: bool = False) -> None:
        """Stop accepting jobs and join the workers.

        By default the queued backlog still runs (graceful drain).
        ``cancel_pending=True`` cancels every still-``QUEUED`` job
        instead, so shutdown is prompt even under a deep backlog; jobs
        already ``RUNNING`` finish their atomic policy run either way.

        ``wait=True`` means "workers joined on return" for *every*
        caller, not just the first: a second concurrent closer blocks
        until the drain completes rather than returning early because
        the closed flag was already up.
        """
        with self._lock:
            first = not self._closed
            self._closed = True
            if cancel_pending:
                # A copy: cancelling evicts, which pops from _jobs.
                for job in list(self._jobs.values()):
                    if job.record.state == jobstate.QUEUED:
                        self._cancel_queued_locked(
                            job, "cancelled at shutdown")
        if first:
            for _ in self._threads:
                self._queue.put(
                    (_SHUTDOWN_PRIORITY, next(self._seq), None))
        if wait:
            self._reap_pool()
        elif first and self.job_backend == "process":
            # Nobody joins the workers on this path, so a reaper thread
            # shuts the pool down once they drain -- shutting it down
            # now would fail the backlog's pool submits.
            threading.Thread(target=self._reap_pool, daemon=True,
                             name="repro-service-reaper").start()

    def _reap_pool(self) -> None:
        """Join the workers, then shut down whichever pool is current."""
        for thread in self._threads:
            thread.join()
        with self._lock:
            pool = self._pool
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "SchedulerService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- internals ---------------------------------------------------------

    def _worker(self) -> None:
        while True:
            _, _, job = self._queue.get()
            if job is None:  # shutdown sentinel
                self._queue.task_done()
                return
            try:
                self._run_one(job)
            finally:
                self._queue.task_done()

    def _run_one(self, job: _Job) -> None:
        with self._lock:
            if job.record.state != jobstate.QUEUED:
                # Cancelled off the queue (and possibly evicted already);
                # the stale queue entry is a no-op.
                return
            queue_s = time.monotonic() - job.enqueued_at
            self._replace_locked(
                job, job.record.transition(jobstate.RUNNING,
                                           queue_s=queue_s))
            request = job.record.request
        started = time.monotonic()
        try:
            result = self._execute(request)
        except Exception as exc:  # noqa: BLE001 - mapped to wire error
            self._finish(job, jobstate.FAILED, started,
                         error=ErrorDocument.from_exception(exc))
        else:
            self._finish(job, jobstate.DONE, started, result=result)

    def _execute(self, request: ScheduleRequest) -> ScheduleResult:
        """One job's search: memo, then shared store, then compute.

        The lookup order preserves the bit-identity contract: a session
        memo hit returns the identical object ``Session.submit`` would;
        a store hit rebuilds the exact wire payload another replica
        computed (adopted into the memo, but *not* the perf total -- its
        engine counters belong to the replica that searched); a miss
        computes here (worker thread or process pool) and is recorded
        back to the store for the other replicas.
        """
        cached = self.session.cached(request)
        if cached is not None:
            return cached
        key = request.cache_key() if self._store is not None else None
        if key is not None:
            stored = self._store.get(key)
            if stored is None and self._store.refresh():
                stored = self._store.get(key)
            with self._lock:
                self._store_stats.record(stored is not None)
            if stored is not None:
                self.session.remember(request, stored)
                return stored
        if self.job_backend == "thread":
            result = self.session.submit(request)
        else:
            result = self._run_pooled(request)
            self.session.remember(request, result, log_perf=True)
        if key is not None:
            self._store.record(result, key=key)
        return result

    def _run_pooled(self, request: ScheduleRequest) -> ScheduleResult:
        """Run one search on the process pool, surviving a worker death.

        A pool whose worker dies (SIGKILL, the OOM killer) is broken
        for good: every later submit raises ``BrokenProcessPool``.  So
        the job that sees it replaces the pool and retries once on the
        new one.  A job that breaks the new pool too fails, and the
        pool is replaced again for the next job.
        """
        with self._lock:
            pool = self._pool
        assert pool is not None
        try:
            return pool.submit(run_pooled_request, request).result()
        except BrokenProcessPool:
            pool = self._replace_pool(pool)
        try:
            return pool.submit(run_pooled_request, request).result()
        except BrokenProcessPool:
            self._replace_pool(pool)
            raise

    def _replace_pool(self, broken):
        """Swap ``broken`` for a fresh pool; return the current pool.

        Only while ``broken`` is still current: the worker threads that
        all saw one pool break rebuild it once, and each retries on the
        replacement.
        """
        with self._lock:
            if self._pool is broken:
                self._pool = self.session.process_pool(self.workers)
                replaced = True
            else:
                replaced = False
            current = self._pool
        if replaced:
            broken.shutdown(wait=False)
        return current

    def _finish(self, job: _Job, state: str, started: float, *,
                result: ScheduleResult | None = None,
                error: ErrorDocument | None = None) -> None:
        run_s = time.monotonic() - started
        note = ""
        with self._lock:
            # The cancel flag is honoured under the same lock that sets
            # it, so a cancel() racing the end of the run can never be
            # silently dropped into a DONE.
            if state == jobstate.DONE and job.cancel_requested:
                state = jobstate.CANCELLED
                result = None
                note = "cancelled during run; result discarded"
            self._terminate_locked(job, job.record.transition(
                state, note=note, error=error, run_s=run_s), result)

    def _job_locked(self, job_id: str) -> _Job:
        try:
            return self._jobs[job_id]
        except KeyError:
            raise JobNotFoundError(f"unknown job id {job_id!r}") from None

    def _cancel_queued_locked(self, job: _Job, note: str) -> None:
        queue_s = time.monotonic() - job.enqueued_at
        self._terminate_locked(job, job.record.transition(
            jobstate.CANCELLED, note=note, queue_s=queue_s))

    def _replace_locked(self, job: _Job, record: JobRecord) -> None:
        """Swap in a transitioned record, keeping the state counters."""
        self._counts[job.record.state] -= 1
        self._counts[record.state] += 1
        job.record = record

    def _terminate_locked(self, job: _Job, record: JobRecord,
                          result: ScheduleResult | None = None) -> None:
        """Install the terminal ``record``, wake the job's waiters and
        evict past the ``retain`` cap."""
        job.result = result
        self._replace_locked(job, record)
        job.terminal_seq = next(self._terminal_seq)
        self._terminal_order[record.job_id] = None
        job.done.set()
        self._evict_locked()

    def _mark_retrieved_locked(self, job: _Job) -> None:
        if job.retrieved:
            return
        job.retrieved = True
        assert job.terminal_seq is not None  # retrieval implies DONE
        heapq.heappush(self._retrieved_heap,
                       (job.terminal_seq, job.record.job_id))

    def _evict_locked(self) -> None:
        """Drop terminal jobs past the ``retain`` cap, oldest first,
        preferring jobs whose result was already retrieved.

        Caller holds ``self._lock``.  Live (QUEUED/RUNNING) jobs are
        never candidates, so the worker loop and open handles on pending
        work stay valid.  The retrieved-first preference means a
        well-paced client rarely loses an unfetched result; when *every*
        candidate is unretrieved the oldest goes anyway -- the cap is a
        hard memory bound, so ``retain`` should be sized comfortably
        above the number of jobs in flight.  The victim -- the
        oldest-terminal retrieved job, else the oldest terminal job --
        comes from the retrieved heap and the terminal order in
        O(log n).
        """
        if self.retain is None:
            return
        while len(self._terminal_order) > self.retain:
            job_id = None
            while self._retrieved_heap:
                _, candidate = heapq.heappop(self._retrieved_heap)
                if candidate in self._terminal_order:
                    job_id = candidate
                    break  # else already evicted: skip
            if job_id is None:
                job_id = next(iter(self._terminal_order))
            del self._terminal_order[job_id]
            self._counts[self._jobs.pop(job_id).record.state] -= 1
