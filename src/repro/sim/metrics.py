"""Simulation metrics: deadlines, SLA slack, churn and reschedule cost.

Turns a replay's per-event outcomes into a ``kind:"sim_report"`` wire
document.  The headline quantities:

* **deadline-miss rate** -- fraction of deadline-carrying tenants whose
  end-to-end latency exceeded their SLA at any event they were active
  for (the real-time analyzer's verdict, per tenant);
* **per-tenant slack** -- worst-case ``deadline - latency`` across the
  tenant's active events (negative = missed);
* **churn** -- per event, the fraction of tenants present in both the
  previous and current schedule whose placement signature (window,
  layer span, chiplet node) changed: how much the re-schedule moved;
* **reschedule cost** -- wall time and segment (re-)costings per event,
  the quantities the warm replay's session memo shrinks (an event it
  answers costs no segment at all).

Like every perf report in the repo, wall-time fields are documented as
non-identity: two replays of the same trace produce identical metrics
*except* ``total_wall_s``/``mean_wall_s`` (compare with
:func:`strip_nonidentity`, which the CI determinism smoke does).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Sequence

from repro.api.wire import WIRE_VERSION, check_envelope, loads_document
from repro.errors import ConfigError
from repro.sim.replay import EventOutcome
from repro.sim.trace import Trace

SIM_REPORT_KIND = "sim_report"


@dataclass(frozen=True)
class TenantReport:
    """One tenant's SLA verdict over the whole replay.

    ``worst_latency_s`` is the tenant's maximum end-to-end latency
    across the events it was active for; ``min_slack_s`` the matching
    worst-case slack (``None`` deadline -> ``None`` slack, never a
    miss).  ``events_active`` counts scheduled events the tenant
    participated in (0 means it never coexisted with a schedulable
    set -- vacuously no miss).
    """

    tenant: str
    model: str
    batch: int
    deadline_s: float | None
    worst_latency_s: float
    min_slack_s: float | None
    missed: bool
    events_active: int

    def to_dict(self) -> dict[str, Any]:
        return {
            "tenant": self.tenant,
            "model": self.model,
            "batch": self.batch,
            "deadline_s": self.deadline_s,
            "worst_latency_s": self.worst_latency_s,
            "min_slack_s": self.min_slack_s,
            "missed": self.missed,
            "events_active": self.events_active,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "TenantReport":
        try:
            return cls(
                tenant=data["tenant"], model=data["model"],
                batch=data["batch"], deadline_s=data.get("deadline_s"),
                worst_latency_s=data["worst_latency_s"],
                min_slack_s=data.get("min_slack_s"),
                missed=data["missed"],
                events_active=data["events_active"],
            )
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"malformed tenant report: {exc}") from exc


@dataclass(frozen=True)
class SimReport:
    """The replay's aggregate verdict (``kind:"sim_report"``)."""

    trace: str
    mode: str
    num_events: int
    num_scheduled: int
    deadline_miss_rate: float
    tenants: tuple[TenantReport, ...]
    mean_churn: float
    total_wall_s: float
    mean_wall_s: float
    total_segments: int
    total_segments_recosted: int
    memo_hits: int

    def render(self) -> str:
        """Human-readable block (the CLI text format)."""
        lines = [
            f"trace {self.trace} ({self.mode} replay): "
            f"{self.num_scheduled}/{self.num_events} events scheduled, "
            f"{self.memo_hits} memo hits",
            f"deadlines      {self.deadline_miss_rate:.1%} missed "
            f"({sum(1 for t in self.tenants if t.missed)}/"
            f"{sum(1 for t in self.tenants if t.deadline_s is not None)}"
            f" SLA tenants)",
            f"churn          {self.mean_churn:.1%} of shared tenants "
            f"moved per event",
            f"reschedule     {self.mean_wall_s * 1e3:.1f} ms mean "
            f"({self.total_wall_s * 1e3:.1f} ms total), "
            f"{self.total_segments_recosted}/{self.total_segments} "
            f"segments re-costed",
        ]
        for tenant in self.tenants:
            slack = "best-effort" if tenant.min_slack_s is None else \
                f"slack {tenant.min_slack_s * 1e3:+.2f} ms" \
                + (" MISS" if tenant.missed else "")
            lines.append(
                f"  - {tenant.tenant} (batch {tenant.batch}): "
                f"worst {tenant.worst_latency_s * 1e3:.2f} ms, {slack}")
        return "\n".join(lines)

    # -- wire format -------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": SIM_REPORT_KIND,
            "version": WIRE_VERSION,
            "trace": self.trace,
            "mode": self.mode,
            "num_events": self.num_events,
            "num_scheduled": self.num_scheduled,
            "deadline_miss_rate": self.deadline_miss_rate,
            "tenants": [tenant.to_dict() for tenant in self.tenants],
            "mean_churn": self.mean_churn,
            "total_wall_s": self.total_wall_s,
            "mean_wall_s": self.mean_wall_s,
            "total_segments": self.total_segments,
            "total_segments_recosted": self.total_segments_recosted,
            "memo_hits": self.memo_hits,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "SimReport":
        check_envelope(data, SIM_REPORT_KIND)
        try:
            return cls(
                trace=data["trace"], mode=data["mode"],
                num_events=data["num_events"],
                num_scheduled=data["num_scheduled"],
                deadline_miss_rate=data["deadline_miss_rate"],
                tenants=tuple(TenantReport.from_dict(entry)
                              for entry in data["tenants"]),
                mean_churn=data["mean_churn"],
                total_wall_s=data["total_wall_s"],
                mean_wall_s=data["mean_wall_s"],
                total_segments=data["total_segments"],
                total_segments_recosted=data["total_segments_recosted"],
                memo_hits=data["memo_hits"],
            )
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"malformed sim report: {exc}") from exc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SimReport":
        return cls.from_dict(loads_document(text, "sim report"))


def strip_nonidentity(data: dict[str, Any]) -> dict[str, Any]:
    """A sim-report dict with the run-varying perf fields zeroed.

    Determinism checks compare reports through this: everything except
    wall time is bit-identical across replays of the same trace.
    """
    cleaned = dict(data)
    cleaned["total_wall_s"] = 0.0
    cleaned["mean_wall_s"] = 0.0
    return cleaned


def _tenant_latency(outcome: EventOutcome, tenant: str) -> float:
    """One tenant's end-to-end latency in one event's schedule.

    The evaluator's per-model chain latencies summed across windows
    (``Lat(SG_m)`` per window, model identified by its scenario index).
    """
    assert outcome.result is not None
    index = outcome.tenants.index(tenant)
    return outcome.result.metrics.model_latency(index)


def build_report(trace: Trace, mode: str,
                 outcomes: Sequence[EventOutcome]) -> SimReport:
    """Fold a replay's outcomes into the wire report."""
    workloads: dict[str, tuple[str, int, float | None]] = {}
    for event in trace.events:
        if event.kind == "arrive":
            assert event.model is not None and event.batch is not None
            workloads[event.tenant] = \
                (event.model, event.batch, event.deadline_s)

    worst: dict[str, float] = {}
    active_counts: dict[str, int] = {}
    scheduled = [o for o in outcomes if o.result is not None]
    for outcome in scheduled:
        for tenant in outcome.tenants:
            latency = _tenant_latency(outcome, tenant)
            worst[tenant] = max(worst.get(tenant, 0.0), latency)
            active_counts[tenant] = active_counts.get(tenant, 0) + 1

    tenants = []
    for tenant in sorted(workloads):
        model, batch, deadline = workloads[tenant]
        worst_latency = worst.get(tenant, 0.0)
        slack = None if deadline is None else deadline - worst_latency
        tenants.append(TenantReport(
            tenant=tenant, model=model, batch=batch, deadline_s=deadline,
            worst_latency_s=worst_latency, min_slack_s=slack,
            missed=slack is not None and slack < 0
            and active_counts.get(tenant, 0) > 0,
            events_active=active_counts.get(tenant, 0)))
    with_sla = [t for t in tenants if t.deadline_s is not None]
    miss_rate = (sum(1 for t in with_sla if t.missed) / len(with_sla)
                 if with_sla else 0.0)

    churn_samples: list[float] = []
    for prev, curr in zip(scheduled, scheduled[1:]):
        prev_placements = prev.placements()
        curr_placements = curr.placements()
        shared = sorted(set(prev_placements) & set(curr_placements))
        if not shared:
            continue
        moved = sum(1 for tenant in shared
                    if prev_placements[tenant] != curr_placements[tenant])
        churn_samples.append(moved / len(shared))
    mean_churn = sum(churn_samples) / len(churn_samples) \
        if churn_samples else 0.0

    total_wall = sum(o.wall_s for o in scheduled)
    return SimReport(
        trace=trace.name, mode=mode,
        num_events=len(outcomes), num_scheduled=len(scheduled),
        deadline_miss_rate=miss_rate, tenants=tuple(tenants),
        mean_churn=mean_churn, total_wall_s=total_wall,
        mean_wall_s=total_wall / len(scheduled) if scheduled else 0.0,
        total_segments=sum(o.num_segments for o in outcomes),
        total_segments_recosted=sum(o.num_segments_recosted
                                    for o in outcomes),
        memo_hits=sum(1 for o in outcomes if o.memo_hit),
    )
