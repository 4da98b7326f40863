"""Candidate-population helpers shared by every result type.

The Pareto figures consume *assembled* candidate schedules: same-rank
window candidates combined across windows.  Both the in-process
:class:`~repro.core.scar.SCARResult` (full
:class:`~repro.core.sched_engine.WindowCandidate` objects) and the
wire-side :class:`~repro.api.request.ScheduleResult`
(:class:`~repro.api.wire.CandidateColumns`) hand their population here
as columns, so the construction -- including the single-schedule
fallback for policies that collect no population -- cannot diverge
between the two.
"""

from __future__ import annotations

from typing import Any, Sequence

Point = tuple[float, float]
"""(latency_s, energy_j) of one candidate."""

Columns = tuple[Sequence[float], Sequence[float], Sequence[float]]
"""(score, latency_s, energy_j) of one window's candidates, in
collection order."""


def window_columns(window: Sequence[Any]) -> Columns:
    """Columns of one window of full
    :class:`~repro.core.sched_engine.WindowCandidate` objects."""
    return ([c.score for c in window],
            [c.metrics.latency_s for c in window],
            [c.metrics.energy_j for c in window])


def assemble_candidate_points(windows: Sequence[Columns], *,
                              fallback: Point) -> list[Point]:
    """(latency_s, energy_j) of assembled candidate schedules.

    Candidate schedules are formed by combining same-rank window
    candidates across windows after ranking each window by score (rank 0
    = the chosen schedule; the sort is stable, so tied scores keep their
    collection order).  A rank's latency and energy are ``sum``s over
    the windows, left to right.  ``fallback`` is the single schedule
    point used when no population was collected (baseline policies,
    results rebuilt from a wire document without candidates).
    """
    if not windows:
        return [fallback]
    ranked_latencies: list[list[float]] = []
    ranked_energies: list[list[float]] = []
    for scores, latencies, energies in windows:
        order = sorted(range(len(scores)), key=scores.__getitem__)
        ranked_latencies.append([latencies[i] for i in order])
        ranked_energies.append([energies[i] for i in order])
    # zip stops at the shallowest window: ranks every window reaches.
    return [(sum(latency), sum(energy)) for latency, energy
            in zip(zip(*ranked_latencies), zip(*ranked_energies))]
