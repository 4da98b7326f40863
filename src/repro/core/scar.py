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
   :class:`~repro.core.metrics.ScheduleEvaluator` (chain memo + stats)
   scores the candidates of
   :func:`~repro.core.sched_engine.search_window` (``beam=None`` = the
   paper's exhaustive search).

The result carries the chosen schedule, its metrics and the whole
evaluated population, which the Pareto/top-candidate figures consume.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.budget import SearchBudget
from repro.core.evalcache import EvalCache
from repro.core.evolutionary import EvolutionarySegSearch, GAConfig
from repro.core.metrics import ScheduleEvaluator, ScheduleMetrics
from repro.core.packing import (
    PACKING_MODES,
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
from repro.engine.candidates import (
    assemble_candidate_points,
    window_columns,
)
from repro.engine.provisioning import (
    PROVISIONING_MODES,
    window_allocations,
    window_shares,
)
from repro.engine.tensorkernel import TensorEvaluator, check_eval_mode
from repro.errors import SearchError
from repro.mcm.package import MCM
from repro.perf import PerfReport, log_report
from repro.workloads.model import Scenario

__all__ = ["SCARResult", "SCARScheduler", "SEG_SEARCH_MODES",
           "assemble_candidate_points"]

#: Valid ``seg_search`` modes: top-k enumeration, or the GA.
SEG_SEARCH_MODES = ("enumerative", "evolutionary")


@dataclass(frozen=True)
class SCARResult:
    """Everything a scheduling run produced."""

    schedule: Schedule
    metrics: ScheduleMetrics
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
            [window_columns(window) for window in self.window_candidates],
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
    ``prov_limit``           most allocations ``"exhaustive"`` searches
                             per window (``>= 1``).
    ``max_nodes_per_model``  Heuristic-2 node-allocation constraint
                             (``>= 1``; ``None`` = no cap).
    ``seg_search``           ``"enumerative"`` or ``"evolutionary"``.
    ``beam``                 window-search beam width (see
                             :func:`~repro.core.sched_engine.search_window`);
                             ``None`` (default, used by every paper
                             figure) = exhaustive search.
    ``eval_mode``            candidate-costing kernel: ``"scalar"`` (the
                             pure-Python Sec. III-E reference, default)
                             or ``"vector"`` (the numpy tensor kernel of
                             :mod:`repro.engine.tensorkernel`; requires
                             the optional numpy dependency and produces
                             bit-identical schedules and metrics).
    ``cache``                inject a caller-owned :class:`EvalCache`
                             instead of building a fresh one per
                             :meth:`schedule` call
                             (``EvalCache(enabled=False)`` runs uncached,
                             the no-memo reference; results are
                             bit-identical either way).  Pass one cache
                             per run: the run's perf report is the
                             cache's counters, so a cache that served an
                             earlier run reports that run's lookups too.
    """

    def __init__(self, mcm: MCM, *, objective: Objective | None = None,
                 nsplits: int = 4, budget: SearchBudget | None = None,
                 database: LayerCostDatabase | None = None,
                 packing: str = "greedy", provisioning: str = "uniform",
                 max_nodes_per_model: int | None = None,
                 seg_search: str = "enumerative",
                 ga_config: GAConfig | None = None,
                 prov_limit: int = 64,
                 beam: int | None = None,
                 cache: EvalCache | None = None,
                 eval_mode: str = "scalar") -> None:
        if packing not in PACKING_MODES:
            raise SearchError(f"unknown packing mode {packing!r}")
        if provisioning not in PROVISIONING_MODES:
            raise SearchError(f"unknown provisioning mode {provisioning!r}")
        if seg_search not in SEG_SEARCH_MODES:
            raise SearchError(f"unknown seg_search mode {seg_search!r}")
        if prov_limit < 1:  # a window must have an allocation to search
            raise SearchError(f"prov_limit must be >= 1, got {prov_limit}")
        if max_nodes_per_model is not None and max_nodes_per_model < 1:
            raise SearchError("max_nodes_per_model must be >= 1 or None, "
                              f"got {max_nodes_per_model}")
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
        self.cache = cache

    # -- public API ------------------------------------------------------------

    def make_evaluator(self, scenario: Scenario,
                       cache: EvalCache | None = None) -> ScheduleEvaluator:
        """Build the candidate evaluator this scheduler is configured for.

        Chooses the scalar reference kernel or the numpy tensor kernel
        per ``eval_mode``; both share the same cache/stat channels.
        """
        cls = TensorEvaluator if self.eval_mode == "vector" \
            else ScheduleEvaluator
        return cls(scenario, self.mcm, self.database,
                   cache=cache if cache is not None else EvalCache())

    def schedule(self, scenario: Scenario) -> SCARResult:
        """Run the full SCAR search on ``scenario``.

        Each time window is searched under each of its PROV allocations
        in index order, and keeps the lowest-scoring candidate; a tie
        keeps the lower allocation index.  Every search is deterministic
        (seeded by its window index), so the result is too.  The
        schedule's metrics are assembled from the winners' window
        metrics, so no winner is costed twice.
        """
        wall_start = time.perf_counter()
        cache = self.cache if self.cache is not None else EvalCache()
        evaluator = self.make_evaluator(scenario, cache=cache)
        expected_lat = expected_layer_latencies(scenario, self.mcm,
                                                self.database)
        expected_en = expected_layer_energies(scenario, self.mcm,
                                              self.database)
        if self.packing == "greedy":
            plan = greedy_pack(scenario, expected_lat, self.nsplits)
        else:
            plan = uniform_pack(scenario, self.nsplits)

        best_by_window: list[WindowCandidate] = []
        all_candidates: list[tuple[WindowCandidate, ...]] = []
        for window in plan.windows:
            shares = window_shares(self.objective, window, expected_lat,
                                   expected_en)
            allocations = window_allocations(
                window, shares, mode=self.provisioning,
                num_chiplets=self.mcm.num_chiplets,
                max_nodes_per_model=self.max_nodes_per_model,
                limit=self.prov_limit)
            collected: list[WindowCandidate] = []
            best: WindowCandidate | None = None
            for alloc in allocations:
                candidate = self._search_one_alloc(
                    scenario, window, alloc, expected_lat, evaluator,
                    collected)
                if best is None or candidate.score < best.score:
                    best = candidate
            best_by_window.append(best)
            all_candidates.append(tuple(collected))
        num_evaluated = sum(len(c) for c in all_candidates)

        schedule = Schedule(windows=tuple(
            candidate.window for candidate in best_by_window))
        schedule.validate(scenario)
        metrics = ScheduleMetrics.from_windows(
            [candidate.metrics for candidate in best_by_window])
        perf = PerfReport(
            wall_s=time.perf_counter() - wall_start,
            num_evaluated=num_evaluated,
            num_windows=plan.num_windows,
            cache=cache.snapshot(),
            num_segments=evaluator.stats.num_segments,
            num_segments_recosted=evaluator.stats.num_segments_recosted,
        )
        log_report(perf)
        return SCARResult(schedule=schedule, metrics=metrics,
                          window_candidates=tuple(all_candidates),
                          num_evaluated=num_evaluated, perf=perf)

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
                          evaluator: ScheduleEvaluator,
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

