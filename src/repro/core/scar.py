"""SCAR scheduler facade (Fig. 4): the four engines wired together.

``SCARScheduler.schedule(scenario)`` runs the full multi-tiered search:

1. **MCM-Reconfig** -- offline expected layer costs (Eq. 1), periodic time
   windows, greedy layer packing (Algorithm 1, or the uniform baseline).
2. **PROV** -- per-window node allocation (Eq. 2 uniform rule, or
   exhaustive composition enumeration), via
   :mod:`repro.engine.provisioning`.
3. **SEG** -- top-k segmentation candidates per model (Heuristic 1), with
   the optional Heuristic-2 node-allocation constraint.
4. **SCHED** -- scheduling-tree placement search with full cost-model
   evaluation (or the evolutionary variant for large MCMs): one
   :class:`~repro.engine.CandidateEvaluator` (delta costing + stats)
   scores the candidates of
   :func:`~repro.core.sched_engine.search_window` (``beam=None`` = the
   paper's exhaustive search), in-process or over ``jobs`` worker
   processes.

The result carries the chosen schedule, its metrics and the whole
evaluated population, which the Pareto/top-candidate figures consume.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from repro.core.budget import SearchBudget
from repro.core.evalcache import EvalCache
from repro.core.evolutionary import EvolutionarySegSearch, GAConfig
from repro.core.metrics import ScheduleMetrics
from repro.core.packing import (
    PACKING_MODES,
    PackingPlan,
    WindowAssignment,
    expected_layer_energies,
    expected_layer_latencies,
    greedy_pack,
    uniform_pack,
)
from repro.core.schedule import Schedule
from repro.core.scoring import Objective, edp_objective
from repro.core.sched_engine import WindowCandidate, search_window
from repro.core.segmentation import RankedSegmentation, rank_segmentations
from repro.dataflow.database import LayerCostDatabase
from repro.engine.candidates import assemble_candidate_points
from repro.engine.evaluator import CandidateEvaluator, EvaluatorStats
from repro.engine.provisioning import (
    PROVISIONING_MODES,
    window_allocations,
    window_shares,
)
from repro.engine.tensorkernel import TensorEvaluator, check_eval_mode
from repro.errors import ConfigError, SearchError
from repro.mcm.package import MCM
from repro.perf import (
    CacheStats,
    PerfReport,
    diff_stats,
    log_report,
    merge_stats,
)
from repro.workloads.model import Scenario

__all__ = ["SCARResult", "SCARScheduler", "SEG_SEARCH_MODES",
           "assemble_candidate_points", "check_jobs"]

#: Valid ``seg_search`` modes: top-k enumeration, or the GA.
SEG_SEARCH_MODES = ("enumerative", "evolutionary")

#: One unit of independent search work: (window, alloc_index, alloc).
Task = tuple[WindowAssignment, int, dict[int, int]]

#: What running one task yields: (window_index, alloc_index, best
#: candidate, evaluated candidates, cache-stat delta, evaluator-stat
#: delta); the deltas are ``None`` for in-process runs, whose counters
#: already live in the run's shared evaluator.
TaskOutcome = tuple[int, int, WindowCandidate, list[WindowCandidate],
                    dict[str, CacheStats] | None, EvaluatorStats | None]


def check_jobs(jobs: int) -> int:
    """Validate a worker-process count (an ``int >= 1``).

    The one check shared by :class:`~repro.api.session.Session` and
    :class:`SCARScheduler`.
    """
    if not isinstance(jobs, int) or isinstance(jobs, bool) or jobs < 1:
        raise ConfigError(f"jobs must be an integer >= 1, got {jobs!r}")
    return jobs


@dataclass(frozen=True)
class SCARResult:
    """Everything a scheduling run produced."""

    schedule: Schedule
    metrics: ScheduleMetrics
    plan: PackingPlan
    window_candidates: tuple[tuple[WindowCandidate, ...], ...]
    num_evaluated: int
    perf: PerfReport | None = None

    def candidate_points(self) -> list[tuple[float, float]]:
        """(latency_s, energy_j) of assembled candidate schedules.

        See :func:`repro.engine.candidates.assemble_candidate_points`
        (the one Pareto construction shared with the wire-side
        ``ScheduleResult``).
        """
        return assemble_candidate_points(
            self.window_candidates,
            fallback=(self.metrics.latency_s, self.metrics.energy_j))


class SCARScheduler:
    """The SCAR multi-model scheduler for one MCM configuration.

    Parameters mirror the paper's hyperparameters:

    ``nsplits``              time-window split count (default 4 -> 5 windows).
    ``objective``            Latency / Energy / EDP search (default EDP).
    ``budget``               search caps (see :class:`SearchBudget`).
    ``database``             the layer-cost database the search reads and
                             fills, kept as given even while empty
                             (default: a fresh one at the MCM's clock).
                             A :class:`~repro.api.session.Session`
                             passes its per-clock database, so costs one
                             request computes serve every later one.
    ``packing``              ``"greedy"`` (Algorithm 1) or ``"uniform"``.
    ``provisioning``         ``"uniform"`` (Eq. 2) or ``"exhaustive"``.
    ``max_nodes_per_model``  Heuristic-2 node-allocation constraint.
    ``seg_search``           ``"enumerative"`` or ``"evolutionary"``.
    ``jobs``                 worker processes for the window search
                             (1 = in-process; results are bit-identical
                             either way, see :meth:`schedule`).
    ``beam``                 window-search beam width (see
                             :func:`~repro.core.sched_engine.search_window`);
                             ``None`` (default, used by every paper
                             figure) = exhaustive search.
    ``use_delta``            enable the chain-level delta-evaluation fast
                             path (bit-identical on or off; off is only
                             useful for measuring what it saves).
    ``eval_mode``            candidate-costing kernel: ``"scalar"`` (the
                             pure-Python Sec. III-E reference, default)
                             or ``"vector"`` (the numpy tensor kernel of
                             :mod:`repro.engine.tensorkernel`; requires
                             the optional numpy dependency and produces
                             bit-identical schedules and metrics).
    ``cache``                inject a caller-owned :class:`EvalCache`
                             instead of building a fresh one per
                             :meth:`schedule` call
                             (``EvalCache(enabled=False)`` runs uncached;
                             results are bit-identical either way).  A
                             long-lived front-end (the warm simulation
                             replay, see :mod:`repro.sim`) shares one
                             cache across runs *of the same scenario +
                             MCM*, so repeated searches start warm;
                             entries are pure functions of their keys,
                             so results stay bit-identical.  The per-run
                             perf report still counts only this run's
                             lookups (the scheduler snapshots the cache
                             counters around the run).
    """

    def __init__(self, mcm: MCM, *, objective: Objective | None = None,
                 nsplits: int = 4, budget: SearchBudget | None = None,
                 database: LayerCostDatabase | None = None,
                 packing: str = "greedy", provisioning: str = "uniform",
                 max_nodes_per_model: int | None = None,
                 seg_search: str = "enumerative",
                 ga_config: GAConfig | None = None,
                 prov_limit: int = 64, jobs: int = 1,
                 beam: int | None = None, use_delta: bool = True,
                 cache: EvalCache | None = None,
                 eval_mode: str = "scalar") -> None:
        if packing not in PACKING_MODES:
            raise SearchError(f"unknown packing mode {packing!r}")
        if provisioning not in PROVISIONING_MODES:
            raise SearchError(f"unknown provisioning mode {provisioning!r}")
        if seg_search not in SEG_SEARCH_MODES:
            raise SearchError(f"unknown seg_search mode {seg_search!r}")
        self.jobs = check_jobs(jobs)
        self.eval_mode = check_eval_mode(eval_mode)
        self.mcm = mcm
        self.objective = objective or edp_objective()
        self.nsplits = nsplits
        self.budget = budget or SearchBudget()
        self.database = database if database is not None \
            else LayerCostDatabase(clock_hz=mcm.clock_hz)
        self.packing = packing
        self.provisioning = provisioning
        self.max_nodes_per_model = max_nodes_per_model
        self.seg_search = seg_search
        self.ga_config = ga_config
        self.prov_limit = prov_limit
        self.beam = beam
        self.use_delta = use_delta
        self.cache = cache

    # -- public API ------------------------------------------------------------

    def make_evaluator(self, scenario: Scenario,
                       cache: EvalCache | None = None) -> CandidateEvaluator:
        """Build the candidate evaluator this scheduler is configured for.

        Chooses the scalar reference kernel or the numpy tensor kernel
        per ``eval_mode``; both honour ``use_delta`` and share the same
        cache/stat channels.  Pool workers call this so they build the
        same kernel as the parent.
        """
        cls = TensorEvaluator if self.eval_mode == "vector" \
            else CandidateEvaluator
        return cls(scenario, self.mcm, self.database,
                   cache=cache if cache is not None else EvalCache(),
                   delta=self.use_delta)

    def schedule(self, scenario: Scenario) -> SCARResult:
        """Run the full SCAR search on ``scenario``.

        The search is decomposed into independent (window, provisioning
        allocation) tasks, run in-process or over ``jobs`` worker
        processes (see :meth:`_run_tasks`).  Each task is internally
        deterministic (seeded by its window index) and the merge orders
        outcomes by ``(window_index, alloc_index)`` and picks per-window
        winners by ``(score, alloc_index)`` -- exactly the serial
        iteration order -- so every ``jobs`` value produces
        bit-identical results.
        """
        wall_start = time.perf_counter()
        cache = self.cache if self.cache is not None else EvalCache()
        # An injected cache outlives this run; snapshot its counters so
        # the perf report covers this run's lookups only.
        cache_before = cache.snapshot() if self.cache is not None else None
        evaluator = self.make_evaluator(scenario, cache=cache)
        expected_lat = expected_layer_latencies(scenario, self.mcm,
                                                self.database)
        expected_en = expected_layer_energies(scenario, self.mcm,
                                              self.database)
        if self.packing == "greedy":
            plan = greedy_pack(scenario, expected_lat, self.nsplits)
        else:
            plan = uniform_pack(scenario, self.nsplits)

        tasks = []
        for window in plan.windows:
            shares = window_shares(self.objective, window, expected_lat,
                                   expected_en)
            allocations = window_allocations(
                window, shares, mode=self.provisioning,
                num_chiplets=self.mcm.num_chiplets,
                max_nodes_per_model=self.max_nodes_per_model,
                limit=self.prov_limit)
            for alloc_index, alloc in enumerate(allocations):
                tasks.append((window, alloc_index, alloc))

        outcomes = self._run_tasks(scenario, tasks, expected_lat,
                                   evaluator)

        (best_by_window, all_candidates, num_evaluated, worker_stats,
         eval_stats) = self._merge_outcomes(plan, outcomes)

        schedule = Schedule(windows=tuple(
            candidate.window for candidate in best_by_window))
        metrics = evaluator.evaluate(schedule)
        eval_stats.merge(evaluator.stats)
        perf = PerfReport(
            wall_s=time.perf_counter() - wall_start,
            num_evaluated=num_evaluated,
            num_windows=plan.num_windows,
            jobs=self.jobs,
            cache=merge_stats(
                cache.snapshot() if cache_before is None
                else diff_stats(cache.snapshot(), cache_before),
                *worker_stats),
            num_segments=eval_stats.num_segments,
            num_segments_recosted=eval_stats.num_segments_recosted,
        )
        log_report(perf)
        return SCARResult(schedule=schedule, metrics=metrics, plan=plan,
                          window_candidates=tuple(all_candidates),
                          num_evaluated=num_evaluated, perf=perf)

    # -- task execution + merge ----------------------------------------------

    def _run_tasks(self, scenario: Scenario, tasks: list[Task],
                   expected_lat: list[list[float]],
                   evaluator: CandidateEvaluator) -> list[TaskOutcome]:
        """Run every (window, alloc) task; outcomes come back in any order.

        ``jobs == 1`` (or at most one task, where a pool cannot help)
        runs in-process against the run's shared evaluator.  Otherwise
        a pool of ``min(jobs, len(tasks))`` workers each builds one
        evaluator (fresh cache) at startup and ships per-task cache and
        stat deltas back, so the parent merges exact aggregate counters.
        """
        if self.jobs == 1 or len(tasks) <= 1:
            outcomes: list[TaskOutcome] = []
            for window, alloc_index, alloc in tasks:
                collected: list[WindowCandidate] = []
                best = self._search_one_alloc(scenario, window, alloc,
                                              expected_lat, evaluator,
                                              collected)
                outcomes.append((window.index, alloc_index, best,
                                 collected, None, None))
            return outcomes
        with ProcessPoolExecutor(
                max_workers=min(self.jobs, len(tasks)),
                initializer=_worker_init,
                initargs=(self, scenario, expected_lat)) as pool:
            return list(pool.map(_worker_run, tasks))

    @staticmethod
    def _merge_outcomes(plan: PackingPlan, outcomes):
        """Deterministically merge per-(window, alloc) search outcomes."""
        outcomes = sorted(outcomes, key=lambda o: (o[0], o[1]))
        best: dict[int, tuple[tuple[float, int], WindowCandidate]] = {}
        collected: dict[int, list[WindowCandidate]] = {}
        worker_stats = []
        eval_stats = EvaluatorStats()
        for (window_index, alloc_index, candidate, evaluated, stats,
                seg_stats) in outcomes:
            collected.setdefault(window_index, []).extend(evaluated)
            rank = (candidate.score, alloc_index)
            if window_index not in best or rank < best[window_index][0]:
                best[window_index] = (rank, candidate)
            if stats is not None:
                worker_stats.append(stats)
            if seg_stats is not None:
                eval_stats.merge(seg_stats)
        best_by_window = [best[w.index][1] for w in plan.windows]
        all_candidates = [tuple(collected.get(w.index, []))
                          for w in plan.windows]
        num_evaluated = sum(len(c) for c in all_candidates)
        return (best_by_window, all_candidates, num_evaluated,
                worker_stats, eval_stats)

    # -- engine plumbing ----------------------------------------------------------

    def _rank_for_window(self, scenario: Scenario, window: WindowAssignment,
                         alloc: dict[int, int],
                         expected_lat: list[list[float]]
                         ) -> dict[int, list[RankedSegmentation]]:
        ranked: dict[int, list[RankedSegmentation]] = {}
        for model, start, stop in window.ranges:
            instance = scenario[model]
            boundary = [float(instance.layer(i).output_bytes)
                        for i in range(start, stop)]
            ranked[model] = rank_segmentations(
                start, stop, alloc[model],
                expected_lat[model][start:stop], instance.batch,
                boundary, self.mcm.nop_gbps, self.budget)
        return ranked

    def _search_one_alloc(self, scenario: Scenario,
                          window: WindowAssignment, alloc: dict[int, int],
                          expected_lat: list[list[float]],
                          evaluator: CandidateEvaluator,
                          collected: list[WindowCandidate]
                          ) -> WindowCandidate:
        """SEG + SCHED search of one window under one node allocation."""
        ranked = self._rank_for_window(scenario, window, alloc,
                                       expected_lat)
        if self.seg_search == "evolutionary":
            seeds = {m: [r.cuts for r in ranked[m]] for m in ranked}
            search = EvolutionarySegSearch(
                window, alloc, evaluator, self.objective, self.budget,
                config=self.ga_config, seeds=seeds, beam=self.beam)
            candidate = search.run()
            collected.extend(search.evaluated)
            return candidate
        return search_window(window, ranked, evaluator, self.objective,
                             self.budget, collect=collected,
                             beam=self.beam)


# -- process-pool worker state (one evaluator per worker process) -----------

_WORKER: dict = {}


def _worker_init(scheduler: SCARScheduler, scenario: Scenario,
                 expected_lat: list[list[float]]) -> None:
    _WORKER["scheduler"] = scheduler
    _WORKER["scenario"] = scenario
    _WORKER["expected_lat"] = expected_lat
    _WORKER["evaluator"] = scheduler.make_evaluator(scenario)


def _worker_run(task: Task) -> TaskOutcome:
    """Run one (window, alloc) task; return its outcome + stat deltas."""
    window, alloc_index, alloc = task
    scheduler: SCARScheduler = _WORKER["scheduler"]
    evaluator: CandidateEvaluator = _WORKER["evaluator"]
    cache_before = evaluator.cache.snapshot()
    stats_before = evaluator.stats.snapshot()
    collected: list[WindowCandidate] = []
    best = scheduler._search_one_alloc(_WORKER["scenario"], window, alloc,
                                       _WORKER["expected_lat"], evaluator,
                                       collected)
    return (window.index, alloc_index, best, collected,
            diff_stats(evaluator.cache.snapshot(), cache_before),
            evaluator.stats.delta(stats_before))
