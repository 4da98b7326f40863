"""The Session facade: lifecycle owner of scheduling runs.

A :class:`Session` owns everything a scheduling run needs besides the
request itself -- MCM construction, the memoized
:class:`~repro.dataflow.database.LayerCostDatabase` per clock domain,
resolved scenarios, the result memo and a running perf total -- and
runs one :class:`ScheduleRequest` per :meth:`Session.submit` call.
Overlapping many requests is the job service's concern
(:class:`~repro.service.SchedulerService`).

Every request a session runs reads and fills the same per-clock
database, so a layer one request costed is a dictionary hit for the
next; it holds at most :data:`repro.dataflow.database._MAX_ENTRIES`
costs.

Results are memoized on :meth:`ScheduleRequest.cache_key`.  The request
names the problem only; the session owns execution (``eval_mode``),
and since results are bit-identical across kernels, one memo entry
serves them both.  The memo holds wire-level :class:`ScheduleResult`
values only, never a search's candidate population: each window's
candidate summaries are three float columns
(:class:`~repro.api.wire.CandidateColumns`), 24 bytes per candidate
and no garbage-collected object per candidate.  It is unbounded
by default; long-running front-ends (the job service) pass
``max_memo=N`` to cap it with LRU eviction -- evicted entries simply
recompute bit-identically on the next submit.
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor

from repro.api import policies as _builtin_policies  # noqa: F401
from repro.api.registry import (
    DEFAULT_REGISTRY,
    PolicyContext,
    SchedulerRegistry,
)
from repro.api.request import ScheduleRequest, ScheduleResult
from repro.api.wire import CandidateColumns
from repro.core.evalcache import EvalCache
from repro.dataflow.database import LayerCostDatabase
from repro.engine.candidates import window_columns
from repro.engine.tensorkernel import check_eval_mode
from repro.errors import ConfigError
from repro.mcm import templates
from repro.perf import PerfReport, aggregate_reports
from repro.workloads.model import Scenario

#: LRU cap on resolved scenarios: inline ``scenario_spec`` requests are
#: each a distinct key, so the cache must not grow per unique spec.
#: Evicted scenarios re-resolve deterministically on the next submit.
_SCENARIO_CACHE_CAP = 1024

#: LRU cap on warm evaluator caches (``warm_caches=True`` sessions).
#: One cache per (scenario, template) pair; the simulation replay
#: revisits a handful of tenant sets, so a small cap suffices and an
#: evicted cache merely re-warms on the next submit.
_EVAL_CACHE_CAP = 32


class Session:
    """Memoizing front-end over the scheduler registry.

    One session per process (or per logical tenant) is the intended
    shape: experiments, the CLI and batch drivers all share databases and
    results through it.  SCAR runs' perf reports fold into one running
    total, :meth:`perf_summary`, for aggregate throughput / cache-hit
    reporting.

    ``max_memo`` bounds the result memo: ``None`` (the default) keeps
    every result, ``N >= 1`` keeps the N most recently used, ``0``
    disables result memoization entirely.  Resource and memo bookkeeping
    is lock-protected, so concurrent ``submit`` calls from the service's
    worker threads are safe; two threads racing on the same cache key at
    worst compute the same bit-identical result twice.

    ``eval_mode`` is the candidate-costing kernel (``"scalar"``, the
    default, or ``"vector"``, see :mod:`repro.engine.tensorkernel`).
    It is a deployment concern -- what this host has installed -- so it
    lives on the session, not in the request.  Results are
    bit-identical across kernels, so memo and store entries stay valid
    whichever session computed them; ``"vector"`` fails fast at session
    construction when numpy is missing.

    ``warm_caches=True`` keeps one long-lived
    :class:`~repro.core.evalcache.EvalCache` per (scenario, template)
    pair and injects it into every SCAR-family run, so repeated requests
    against the same workload start with their segment/window memo
    tables warm.  Caches are keyed on the scenario identity because
    EvalCache keys carry scenario-relative model *indices* -- sharing
    one cache across different tenant sets would alias.  Entries are
    pure functions of their keys, so warm results stay bit-identical to
    cold ones (the simulation replay's parity contract, see
    :mod:`repro.sim.replay`).  A warm cache serves one submit at a
    time: a concurrent submit on the same workload runs with a cold
    cache instead (same results), because a batch evaluation keeps
    unfinished placeholder entries in its cache until it returns.
    """

    def __init__(self, registry: SchedulerRegistry | None = None, *,
                 max_memo: int | None = None,
                 eval_mode: str | None = None,
                 warm_caches: bool = False) -> None:
        if max_memo is not None and max_memo < 0:
            raise ConfigError(
                f"max_memo must be None or >= 0, got {max_memo}")
        self.registry = registry if registry is not None \
            else DEFAULT_REGISTRY
        self.max_memo = max_memo
        self.eval_mode = check_eval_mode(eval_mode)
        self.warm_caches = warm_caches
        self._memo: OrderedDict[str, ScheduleResult] = \
            OrderedDict()  # guarded by: _mutex
        self._databases: dict[float, LayerCostDatabase] = \
            {}  # guarded by: _mutex
        self._scenarios: OrderedDict[str, Scenario] = \
            OrderedDict()  # guarded by: _mutex
        self._eval_caches: OrderedDict[str, EvalCache] = \
            OrderedDict()  # guarded by: _mutex
        #: warm caches a running submit holds
        self._lent_caches: set[EvalCache] = set()  # guarded by: _mutex
        self._perf_total = PerfReport()  # guarded by: _mutex
        self._mutex = threading.RLock()

    # -- resource lifecycle ------------------------------------------------

    def _database(self, clock_hz: float) -> LayerCostDatabase:
        with self._mutex:
            if clock_hz not in self._databases:
                self._databases[clock_hz] = \
                    LayerCostDatabase(clock_hz=clock_hz)
            return self._databases[clock_hz]

    @staticmethod
    def _scenario_key(request: ScheduleRequest) -> str:
        """Identity of the workload a request resolves to.

        Shared by the scenario cache and the warm evaluator caches: two
        requests with the same key schedule the same tenant set.
        """
        if request.scenario_id is not None:
            return f"id:{request.scenario_id}"
        return "spec:" + json.dumps(request.scenario_spec,
                                    sort_keys=True,
                                    separators=(",", ":"))

    def _scenario(self, request: ScheduleRequest) -> Scenario:
        key = self._scenario_key(request)
        with self._mutex:
            cached = self._scenarios.get(key)
            if cached is not None:
                self._scenarios.move_to_end(key)
                return cached
        # Resolve outside the lock: model building can be slow, and
        # holding the session mutex would stall every concurrent submit
        # (two racing resolutions build the same scenario; last wins).
        scenario = request.resolve_scenario()
        with self._mutex:
            self._scenarios[key] = scenario
            self._scenarios.move_to_end(key)
            while len(self._scenarios) > _SCENARIO_CACHE_CAP:
                self._scenarios.popitem(last=False)
            return scenario

    def _warm_cache(self, request: ScheduleRequest) -> EvalCache | None:
        """The long-lived evaluator cache for ``request``'s workload.

        ``None`` unless this is a ``warm_caches`` session.  Keyed per
        (scenario, template): EvalCache keys carry scenario-relative
        model indices, so a cache is only valid for the exact tenant set
        it was warmed on.
        """
        if not self.warm_caches:
            return None
        key = self._scenario_key(request) + "|tpl:" + request.template
        with self._mutex:
            cache = self._eval_caches.get(key)
            if cache is None:
                cache = EvalCache(enabled=True)
                self._eval_caches[key] = cache
            self._eval_caches.move_to_end(key)
            while len(self._eval_caches) > _EVAL_CACHE_CAP:
                self._eval_caches.popitem(last=False)
            return cache

    def _lend_warm_cache(self, request: ScheduleRequest) -> EvalCache | None:
        """:meth:`_warm_cache`, unless another submit holds it (``None``).

        Return it with :meth:`_return_warm_cache`.
        """
        cache = self._warm_cache(request)
        with self._mutex:
            if cache is None or cache in self._lent_caches:
                return None
            self._lent_caches.add(cache)
            return cache

    def _return_warm_cache(self, cache: EvalCache | None) -> None:
        if cache is not None:
            with self._mutex:
                self._lent_caches.discard(cache)

    # -- result memo -------------------------------------------------------

    def _memo_get(self, key: str) -> ScheduleResult | None:
        with self._mutex:
            result = self._memo.get(key)
            if result is not None:
                self._memo.move_to_end(key)  # LRU touch
            return result

    def _memo_put(self, key: str, result: ScheduleResult) -> None:
        if self.max_memo == 0:
            return
        with self._mutex:
            self._memo[key] = result
            self._memo.move_to_end(key)
            while self.max_memo is not None \
                    and len(self._memo) > self.max_memo:
                self._memo.popitem(last=False)

    def cached(self, request: ScheduleRequest) -> ScheduleResult | None:
        """The memoized result for ``request``, or ``None``.

        Front-ends that execute requests outside :meth:`submit` (the
        service's process job backend) use this plus :meth:`remember`
        so their memo behavior stays bit-for-bit the session's own.
        """
        return self._memo_get(request.cache_key())

    def remember(self, request: ScheduleRequest, result: ScheduleResult,
                 *, log_perf: bool = False) -> None:
        """Adopt an externally computed result exactly as submit would.

        ``log_perf=True`` also adds the result's perf report to the
        session total -- right for results this session's own workers
        computed, wrong for results another replica computed (their
        engine counters belong to that replica's session).
        """
        if log_perf and result.perf is not None:
            self._log_perf(result.perf)
        self._memo_put(request.cache_key(), result)

    # -- execution ---------------------------------------------------------

    def submit(self, request: ScheduleRequest) -> ScheduleResult:
        """Run one request (or serve it from the session memo)."""
        key = request.cache_key()
        memoized = self._memo_get(key)
        if memoized is not None:
            return memoized

        scenario = self._scenario(request)
        mcm = templates.build(request.template, scenario.use_case)
        eval_cache = self._lend_warm_cache(request)
        try:
            ctx = PolicyContext(request=request, scenario=scenario,
                                mcm=mcm,
                                database=self._database(mcm.clock_hz),
                                eval_cache=eval_cache,
                                eval_mode=self.eval_mode)
            outcome = self.registry.run(ctx)
        finally:
            self._return_warm_cache(eval_cache)
        result = self._wrap(request, outcome)
        if result.perf is not None:
            self._log_perf(result.perf)
        self._memo_put(key, result)
        return result

    def _log_perf(self, perf: PerfReport) -> None:
        with self._mutex:
            self._perf_total = aggregate_reports([self._perf_total, perf])

    def process_pool(self, max_workers: int) -> ProcessPoolExecutor:
        """A worker-process pool that mirrors this session.

        Each worker process builds a fresh session with the same
        registry and ``eval_mode``; submit requests to it with
        :func:`run_pooled_request`.  The service's process job backend
        runs on it.  A non-default registry must be picklable
        (module-level policy functions) to cross into spawned workers;
        on fork-based platforms it is inherited either way.  Workers
        spawn lazily, so building the pool is cheap until the first
        submit.
        """
        # The default registry needs no shipping: workers rebuild it
        # (fork inherits any extra registrations either way).
        registry = None if self.registry is DEFAULT_REGISTRY \
            else self.registry
        return ProcessPoolExecutor(
            max_workers=max_workers, initializer=_pool_worker_init,
            initargs=(registry, self.eval_mode))

    # -- reporting ---------------------------------------------------------

    def perf_summary(self) -> PerfReport:
        """Running total over every SCAR run this session made.

        A snapshot: the total is replaced, never mutated, on each run,
        so a held summary keeps its value and diffs against a later one
        with :func:`repro.perf.diff_reports`.
        """
        with self._mutex:
            return self._perf_total

    # -- result assembly ---------------------------------------------------

    @staticmethod
    def _wrap(request: ScheduleRequest, outcome) -> ScheduleResult:
        scar_result = outcome.scar_result
        if scar_result is None:
            return ScheduleResult(request=request,
                                  schedule=outcome.schedule,
                                  metrics=outcome.metrics)
        return ScheduleResult(
            request=request,
            schedule=outcome.schedule,
            metrics=outcome.metrics,
            window_candidates=tuple(
                CandidateColumns(*window_columns(window))
                for window in scar_result.window_candidates),
            num_evaluated=scar_result.num_evaluated,
            perf=scar_result.perf,
        )


# -- process-pool worker state (one session per worker process) ------------

_WORKER_SESSION: Session | None = None


def _pool_worker_init(registry: SchedulerRegistry | None,
                      eval_mode: str) -> None:
    global _WORKER_SESSION
    _WORKER_SESSION = Session(registry, eval_mode=eval_mode)


def run_pooled_request(request: ScheduleRequest) -> ScheduleResult:
    """Run one request on a pool built by :meth:`Session.process_pool`.

    Module-level, and so picklable.  The result is the worker session's
    memoized one, which holds only its wire-level payload, so the
    transfer carries no search population.
    """
    assert _WORKER_SESSION is not None
    return _WORKER_SESSION.submit(request)
