"""Trace replay: re-schedule the active tenant set on every event.

The event loop walks a :class:`~repro.sim.trace.Trace` in canonical
order, maintains the active tenant set as a
:class:`~repro.workloads.model.Scenario` (tenant ids become instance
names, sorted so scenario identity is a pure function of the set) and
re-schedules after each event through the public API.

Two local modes share the loop:

* ``"warm"`` -- one long-lived :class:`~repro.api.session.Session`:
  a recurring tenant set makes an identical request, which the
  session's result memo answers without a search, and every search
  reads and fills the session's layer-cost databases.
* ``"cold"`` -- a fresh session per event: every event pays the full
  from-scratch search.

The parity contract -- THE property the sim layer is built around --
is that warm replay is *bit-identical* per event to cold replay
(:meth:`ScheduleResult.same_payload`), just cheaper: memo and database
entries are pure functions of their keys.
:func:`replay_parity` checks it event by event; the ``BENCH_sim`` gate
additionally requires the warm mode to re-cost >= 40% fewer segments.

A third mode drives a live service replica instead: pass ``client=``
(a :class:`~repro.service.client.ServiceClient`) and every event's
request is submitted as a job; the replica's own session provides the
warmth.  Memo hits are then not observable, so every event is charged
its result's perf report (the replica's counters).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.api.request import ScheduleRequest, ScheduleResult
from repro.api.session import Session
from repro.core.budget import SearchBudget
from repro.errors import ConfigError
from repro.sim.trace import TenantEvent, Trace
from repro.workloads import zoo
from repro.workloads.model import ModelInstance, Scenario

MODES = ("warm", "cold")


@dataclass(frozen=True)
class EventOutcome:
    """What one trace event's re-scheduling produced.

    ``result`` is ``None`` when the active set was empty (nothing to
    schedule).  ``tenants`` is the active set in scenario instance
    order; ``deadlines`` the matching SLAs.  ``num_segments`` /
    ``num_segments_recosted`` count this event's evaluator work (0 for
    session-memo hits: a served result re-costs nothing) and ``wall_s``
    its wall time -- perf quantities, excluded from the parity contract
    like :attr:`ScheduleResult.perf` itself.
    """

    event: TenantEvent
    tenants: tuple[str, ...]
    deadlines: tuple[float | None, ...]
    result: ScheduleResult | None
    wall_s: float = 0.0
    num_segments: int = 0
    num_segments_recosted: int = 0
    memo_hit: bool = False

    def placements(self) -> dict[str, tuple]:
        """Tenant id -> placement signature, for churn accounting.

        The signature is the tenant's full spatio-temporal footprint:
        ``(window, start, stop, node)`` per segment, across windows.
        Two consecutive events where a tenant's signatures differ means
        the re-schedule *moved* it.
        """
        if self.result is None:
            return {}
        signatures: dict[str, list[tuple]] = \
            {tenant: [] for tenant in self.tenants}
        for window in self.result.schedule.windows:
            for chain in window.chains:
                for segment in chain:
                    tenant = self.tenants[segment.model]
                    signatures[tenant].append(
                        (window.index, segment.start, segment.stop,
                         segment.node))
        return {tenant: tuple(parts)
                for tenant, parts in signatures.items()}


@dataclass
class _ActiveSet:
    """The replayed tenant population (insertion-order independent)."""

    trace: Trace
    tenants: dict[str, tuple[str, int, float | None]] = \
        field(default_factory=dict)

    def apply(self, event: TenantEvent) -> None:
        if event.kind == "arrive":
            assert event.model is not None and event.batch is not None
            self.tenants[event.tenant] = \
                (event.model, event.batch, event.deadline_s)
        else:
            del self.tenants[event.tenant]

    def ordered(self) -> tuple[str, ...]:
        """Active tenant ids, sorted -- the scenario instance order.

        Sorted (not insertion) order makes scenario identity a pure
        function of the *set*, so a tenant set reached along different
        event paths maps to one scenario spec and one session memo key.
        """
        return tuple(sorted(self.tenants))

    def scenario(self) -> Scenario | None:
        ids = self.ordered()
        if not ids:
            return None
        instances = tuple(
            ModelInstance(zoo.build(self.tenants[tenant][0]),
                          self.tenants[tenant][1], instance_name=tenant)
            for tenant in ids)
        return Scenario(name=f"sim:{self.trace.name}:" + "+".join(ids),
                        instances=instances,
                        use_case=self.trace.use_case)

    def deadlines(self) -> tuple[float | None, ...]:
        return tuple(self.tenants[tenant][2]
                     for tenant in self.ordered())


def replay(trace: Trace, *, mode: str = "warm",
           template: str = "het_sides_3x3", policy: str = "scar",
           objective: str = "edp", nsplits: int = 4,
           budget: SearchBudget | None = None, beam: int | None = None,
           eval_mode: str | None = None,
           client=None) -> list[EventOutcome]:
    """Replay ``trace``, re-scheduling after every event.

    Returns one :class:`EventOutcome` per trace event, in order.  The
    outcomes' results are deterministic (mode- and client-independent,
    the parity contract); the perf fields are not.  ``eval_mode``
    configures the local sessions.  ``client`` switches
    submission to a live service replica (``mode`` then only labels the
    report -- warmth and execution settings are the replica's).
    """
    if mode not in MODES:
        raise ConfigError(f"unknown replay mode {mode!r}; known: {MODES}")
    warm_session = Session(eval_mode=eval_mode) \
        if client is None and mode == "warm" else None

    active = _ActiveSet(trace)
    outcomes: list[EventOutcome] = []
    for event in trace.events:
        active.apply(event)
        scenario = active.scenario()
        if scenario is None:
            outcomes.append(EventOutcome(
                event=event, tenants=(), deadlines=(), result=None))
            continue
        request = ScheduleRequest.for_scenario(
            scenario, template=template, policy=policy,
            objective=objective, nsplits=nsplits,
            budget=budget if budget is not None else SearchBudget(),
            beam=beam)

        wall_start = time.perf_counter()
        if client is not None:
            result = client.submit(request).result()
            memo_hit = False
        else:
            session = warm_session if warm_session is not None \
                else Session(eval_mode=eval_mode)
            memo_hit = session.cached(request) is not None
            result = session.submit(request)
        wall = time.perf_counter() - wall_start
        # A memo-served result carries the original run's report but
        # costs this event nothing; any other submit ran exactly it.
        perf = None if memo_hit else result.perf
        segments = 0 if perf is None else perf.num_segments
        recosted = 0 if perf is None else perf.num_segments_recosted
        outcomes.append(EventOutcome(
            event=event, tenants=active.ordered(),
            deadlines=active.deadlines(), result=result, wall_s=wall,
            num_segments=segments, num_segments_recosted=recosted,
            memo_hit=memo_hit))
    return outcomes


def replay_parity(trace: Trace, **kwargs) -> tuple[
        list[EventOutcome], list[EventOutcome], list[bool]]:
    """Run warm and cold replays and compare them event by event.

    Returns ``(warm, cold, parity)`` where ``parity[i]`` is the
    per-event :meth:`ScheduleResult.same_payload` verdict (``True`` for
    events with an empty active set on both sides).  Any ``False`` is a
    determinism bug -- warmth must never change results.
    """
    kwargs.pop("mode", None)
    warm = replay(trace, mode="warm", **kwargs)
    cold = replay(trace, mode="cold", **kwargs)
    parity = []
    for w, c in zip(warm, cold):
        if w.result is None or c.result is None:
            parity.append(w.result is None and c.result is None)
        else:
            parity.append(w.result.same_payload(c.result))
    return warm, cold, parity
