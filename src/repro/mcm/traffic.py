"""Static NoP traffic-conflict analysis (the ``delta`` term of Sec. III-E).

Given the set of flows active in a time window, each flow's congestion
factor is the maximum number of flows sharing any directed link along its
route (XY routes on mesh, BFS routes on triangular).  Off-chip flows
additionally share the package DRAM bandwidth: their congestion factor is
the number of concurrent off-chip flows.

This is a static (schedule-time) approximation of dynamic contention, which
is what an analytical scheduler can see; the paper's delta plays the same
role.

:func:`contention_factors` is the reference: the evaluator's congestion
pass (``ScheduleEvaluator._window_congestion``, both kernels) counts the
same loads off per-chain flow sets without building :class:`Flow`
objects, and ``tests/test_congestion.py`` holds it to these factors.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.mcm.package import MCM

#: Marker for the off-chip endpoint of a flow.
OFFCHIP = None


@dataclass(frozen=True)
class Flow:
    """One logical transfer active during a time window.

    ``src``/``dst`` are node ids, or ``None`` for off-chip DRAM (the route
    then runs between the on-package endpoint and its nearest interface).
    """

    src: int | None
    dst: int | None
    size_bytes: float

    @property
    def is_offchip(self) -> bool:
        return self.src is None or self.dst is None


def _route_of(mcm: MCM, flow: Flow) -> tuple[tuple[int, int], ...]:
    """Directed links used by a flow (off-chip flows route to nearest IO)."""
    if flow.src is None and flow.dst is None:
        return ()
    if flow.src is None:
        assert flow.dst is not None
        io = mcm.nearest_io(flow.dst)
        return mcm.topology.route(io, flow.dst)
    if flow.dst is None:
        io = mcm.nearest_io(flow.src)
        return mcm.topology.route(flow.src, io)
    return mcm.topology.route(flow.src, flow.dst)


def contention_factors(mcm: MCM, flows: list[Flow]) -> list[float]:
    """Per-flow congestion factor (>= 1.0), aligned with ``flows``.

    A flow with no links (same chiplet, or zero-size) gets 1.0.  Off-chip
    flows take ``max(link contention, number of concurrent off-chip
    flows)`` since they also serialize on the shared DRAM channel.
    """
    routes = [_route_of(mcm, flow) for flow in flows]
    link_load: Counter[tuple[int, int]] = Counter()
    for route, flow in zip(routes, flows):
        if flow.size_bytes <= 0:
            continue
        for link in route:
            link_load[link] += 1
    num_offchip = sum(1 for flow in flows
                      if flow.is_offchip and flow.size_bytes > 0)
    factors: list[float] = []
    for route, flow in zip(routes, flows):
        if flow.size_bytes <= 0:
            factors.append(1.0)
            continue
        link_factor = max((link_load[link] for link in route), default=1)
        factor = float(link_factor)
        if flow.is_offchip:
            factor = max(factor, float(num_offchip))
        factors.append(max(factor, 1.0))
    return factors
