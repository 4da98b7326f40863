"""PROV plumbing: expected shares and allocation enumeration.

The provisioning step (Sec. IV-B) used to be wired privately into
:class:`~repro.core.scar.SCARScheduler`; the engine layer owns it now so
any scheduler (or a future standalone provisioning service) builds its
(window, allocation) task list the same way.  The arithmetic lives in
:mod:`repro.core.provisioner`; this module is the strategy-facing
surface over it.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.packing import WindowAssignment
from repro.core.provisioner import exhaustive_allocations, uniform_allocation
from repro.core.scoring import Objective
from repro.errors import SearchError

#: Valid ``provisioning`` modes: the Eq. (2) rule, or enumeration.
PROVISIONING_MODES = ("uniform", "exhaustive")


def window_shares(objective: Objective, window: WindowAssignment,
                  expected_lat: list[list[float]],
                  expected_en: list[list[float]]) -> dict[int, float]:
    """E(P_i) per model for the PROV rule, under the search objective.

    The latency-bound constraint (if any) applies to schedules, not to
    provisioning shares, so it is stripped here -- otherwise a heavy
    model's expected cost could score ``inf`` and break Eq. (2).
    """
    unbounded = replace(objective, latency_bound_s=None)
    shares: dict[int, float] = {}
    for model, start, stop in window.ranges:
        lat = sum(expected_lat[model][start:stop])
        energy = sum(expected_en[model][start:stop])
        shares[model] = unbounded.score_values(lat, energy)
    return shares


def window_allocations(window: WindowAssignment,
                       shares: dict[int, float], *, mode: str,
                       num_chiplets: int,
                       max_nodes_per_model: int | None = None,
                       limit: int | None = None) -> list[dict[int, int]]:
    """Node allocations to search for one window.

    ``mode="uniform"`` applies the Eq. (2) proportional rule (one
    allocation); ``mode="exhaustive"`` enumerates every composition of
    the chiplet budget up to ``limit`` (the Sec. V-E PROV ablation).
    """
    if mode == "uniform":
        return [uniform_allocation(window, shares, num_chiplets,
                                   max_nodes_per_model)]
    if mode == "exhaustive":
        return list(exhaustive_allocations(window, num_chiplets,
                                           max_nodes_per_model,
                                           limit=limit))
    raise SearchError(f"unknown provisioning mode {mode!r}; "
                      f"expected one of {PROVISIONING_MODES}")
