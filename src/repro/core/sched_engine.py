"""Scheduling engine (SCHED, Sec. IV-D): per-window candidate search.

Combines the SEG engine's top-k segmentations per model (Heuristic 1 step
2) with scheduling-tree placements, builds concrete
:class:`~repro.core.schedule.WindowSchedule` instances, evaluates each with
the full heterogeneous MCM cost model and returns the best one (plus the
evaluated population, which the Pareto figures consume).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product

from repro.core.budget import SearchBudget
from repro.core.metrics import ScheduleEvaluator, WindowMetrics
from repro.core.packing import WindowAssignment
from repro.core.schedule import Segment, WindowSchedule
from repro.core.scoring import Objective
from repro.core.sched_tree import (
    NodeRank,
    Path,
    PathMemo,
    Placement,
    placements,
)
from repro.core.segmentation import (
    Cuts,
    RankedSegmentation,
    segments_from_cuts,
)
from repro.errors import SearchError


@dataclass(frozen=True)
class WindowCandidate:
    """One fully evaluated window schedule."""

    window: WindowSchedule
    metrics: WindowMetrics
    score: float


ChainMemo = dict[tuple[int, Cuts, Path], tuple[Segment, ...]]
"""``(model, cuts, path)`` -> the segment chain they place in one window."""


def build_window_schedule(window: WindowAssignment,
                          cuts_by_model: dict[int, Cuts],
                          placement: Placement,
                          chains: ChainMemo | None = None
                          ) -> WindowSchedule:
    """Materialize a WindowSchedule from cuts + chiplet paths.

    Each chain is built once per ``(model, cuts, path)`` and kept in
    ``chains`` (a fresh dict when omitted); pass one dict to every call
    for the same ``window``, as :func:`search_window` does.  A path too
    short for its cuts raises :class:`SearchError` and is not kept.
    """
    if chains is None:
        chains = {}
    placed = []
    for model in window.models:
        cuts = cuts_by_model[model]
        path = placement[model]
        key = (model, cuts, path)
        chain = chains.get(key)
        if chain is None:
            layer_range = window.range_for(model)
            assert layer_range is not None
            ranges = segments_from_cuts(layer_range[0], layer_range[1],
                                        cuts)
            if len(path) < len(ranges):
                raise SearchError(
                    f"model {model}: {len(ranges)} segments but only "
                    f"{len(path)} chiplets in path")
            chain = tuple(
                Segment(model=model, start=s, stop=e, node=path[i])
                for i, (s, e) in enumerate(ranges))
            chains[key] = chain
        placed.append(chain)
    return WindowSchedule(index=window.index, chains=tuple(placed))


def node_affinity_ranks(window: WindowAssignment,
                        evaluator: ScheduleEvaluator,
                        objective: Objective) -> dict[int, NodeRank]:
    """Per-model chiplet preference (Fig. 1 heterogeneity-aware assignment).

    Each model ranks every chiplet by the objective score of executing its
    window layers on that chiplet's *class* (computed once per class, so
    this is cheap against the memoized cost database).  The ranks depend
    only on (window ranges, objective), so they are memoized in the
    evaluator's cache and shared across provisioning allocations.
    """
    return evaluator.cache.lookup(
        "affinity", (window.ranges, objective),
        lambda: _node_affinity_ranks(window, evaluator, objective))


def _node_affinity_ranks(window: WindowAssignment,
                         evaluator: ScheduleEvaluator,
                         objective: Objective) -> dict[int, NodeRank]:
    mcm = evaluator.mcm
    database = evaluator.database
    ranks: dict[int, NodeRank] = {}
    for model, start, stop in window.ranges:
        instance = evaluator.scenario[model]
        class_scores: dict[tuple, float] = {}
        for chiplet in mcm.chiplet_classes():
            latency = sum(database.latency_s(instance.layer(i), chiplet)
                          for i in range(start, stop))
            energy = sum(database.energy_j(instance.layer(i), chiplet)
                         for i in range(start, stop))
            class_scores[chiplet.class_key] = objective.score_values(
                latency, energy)
        ranks[model] = {
            node: class_scores[mcm.chiplet(node).class_key]
            for node in range(mcm.num_chiplets)
        }
    return ranks


def search_window(window: WindowAssignment,
                  ranked_by_model: dict[int, list[RankedSegmentation]],
                  evaluator: ScheduleEvaluator, objective: Objective,
                  budget: SearchBudget,
                  collect: list[WindowCandidate] | None = None,
                  beam: int | None = None) -> WindowCandidate:
    """Explore (segmentation x placement) for one window; return the best.

    Segmentation combinations are visited in ascending summed-proxy-score
    order; each combination receives an equal share of the window's
    evaluation budget.  ``collect``, when given, receives every evaluated
    candidate (for Pareto reporting).

    The candidates are built first, in visiting order, and evaluated
    by one :meth:`~repro.core.metrics.ScheduleEvaluator.evaluate_windows`
    call, which the vector kernel scores as one batch; scores, the
    collected population and the winner come out as if each candidate
    were evaluated as it was built.

    For the life of the search, two dicts keep what recurs across
    combos and placements: segment chains by ``(model, cuts, path)``
    and scheduling-tree DFS paths by ``(model, start, count,
    blocked)``.  Both are pure functions of their keys within one
    window (same ranges, MCM, budget and affinity ranks), so they
    change no result.

    ``beam`` prunes the combination list to the ``beam``
    best-proxy-scored entries *before* the budget is split, trading
    population coverage for a deeper placement search per surviving
    combination.  ``beam=None`` (the default everywhere, including every
    paper figure) keeps the full exhaustive enumeration and is
    bit-identical to the pre-beam engine.
    """
    if beam is not None and beam < 1:
        raise SearchError(f"beam must be None or >= 1, got {beam}")
    models = list(window.models)
    combos = sorted(
        product(*(ranked_by_model[m] for m in models)),
        key=lambda combo: sum(r.score for r in combo))
    if not combos:
        raise SearchError(f"window {window.index}: no segmentations")
    if beam is not None:
        combos = combos[:beam]

    per_combo_budget = max(1, budget.max_candidates_per_window // len(combos))
    rng = random.Random(budget.seed + 7919 * window.index)
    node_ranks = node_affinity_ranks(window, evaluator, objective)
    chains: ChainMemo = {}
    paths: PathMemo = {}

    # Which candidates a search visits never depends on their scores,
    # so the whole list is built first and evaluated in one call.
    windows: list[WindowSchedule] = []
    try:
        for combo in combos:
            if len(windows) >= budget.max_candidates_per_window:
                break
            cuts_by_model = {m: r.cuts for m, r in zip(models, combo)}
            # Place larger chains first (paper's subtree ordering
            # intuition: big subtrees constrain the forest the most).
            seg_counts = sorted(
                ((m, len(cuts_by_model[m]) + 1) for m in models),
                key=lambda mc: (-mc[1], mc[0]))
            combo_evals = 0
            for placement in placements(evaluator.mcm, seg_counts, budget,
                                        rng, node_ranks=node_ranks,
                                        paths=paths):
                windows.append(build_window_schedule(
                    window, cuts_by_model, placement, chains))
                combo_evals += 1
                if (combo_evals >= per_combo_budget
                        or len(windows) >= budget.max_candidates_per_window):
                    break
    except SearchError:
        # A path too short for its cuts ends the search where the
        # candidate-by-candidate loop ended it: after evaluating (and
        # collecting) every candidate built before it.
        _score_candidates(windows, evaluator, objective, collect)
        raise
    best = _score_candidates(windows, evaluator, objective, collect)
    if best is None:
        raise SearchError(
            f"window {window.index}: no feasible placement found "
            f"(models {models}, {evaluator.mcm.num_chiplets} chiplets)")
    return best


def _score_candidates(windows: list[WindowSchedule],
                      evaluator: ScheduleEvaluator, objective: Objective,
                      collect: list[WindowCandidate] | None
                      ) -> WindowCandidate | None:
    """Evaluate ``windows`` in one call; collect them; return the best.

    The first of equally scored candidates wins, as in visiting order.
    """
    best: WindowCandidate | None = None
    for window_schedule, metrics in zip(
            windows, evaluator.evaluate_windows(windows)):
        candidate = WindowCandidate(window=window_schedule,
                                    metrics=metrics,
                                    score=objective.score_window(metrics))
        if collect is not None:
            collect.append(candidate)
        if best is None or candidate.score < best.score:
            best = candidate
    return best
