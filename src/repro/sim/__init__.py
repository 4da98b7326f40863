"""Dynamic multi-tenant simulation: traces, replay, deadline metrics.

The repo's sixth subsystem makes the paper's setting dynamic: tenants
arrive and depart over time, each carrying a latency SLA, and the
scheduler re-plans the shared MCM package at every event::

    from repro.sim import TraceSpec, generate_trace, replay, build_report

    trace = generate_trace(TraceSpec(family="uunifast", seed=7))
    outcomes = replay(trace, mode="warm", nsplits=2)
    print(build_report(trace, "warm", outcomes).render())

Three modules, one contract:

* :mod:`repro.sim.trace` -- seeded, deterministic event traces
  (``kind:"trace"`` / ``kind:"trace_spec"`` wire documents);
* :mod:`repro.sim.replay` -- the event loop, re-scheduling the active
  set through one long-lived :class:`~repro.api.session.Session` whose
  result memo serves recurring sets (or cold from scratch, or a live
  service replica);
* :mod:`repro.sim.metrics` -- deadline-miss rate, per-tenant SLA slack,
  schedule churn and reschedule cost (``kind:"sim_report"``).

The contract: warm replay is bit-identical to cold replay per event
(:meth:`~repro.api.request.ScheduleResult.same_payload`), just cheaper
-- gated by ``benchmarks/test_sim_replay.py``.  The whole package is in
SCAR002's determinism lint scope.  See DESIGN.md ("The simulation
layer").
"""

from repro.sim.metrics import (
    SIM_REPORT_KIND,
    SimReport,
    TenantReport,
    build_report,
    strip_nonidentity,
)
from repro.sim.replay import MODES, EventOutcome, replay, replay_parity
from repro.sim.trace import (
    EVENT_KINDS,
    MAX_TENANTS,
    TRACE_KIND,
    TRACE_SPEC_KIND,
    TenantEvent,
    Trace,
    TraceSpec,
    generate_trace,
)

__all__ = [
    "EVENT_KINDS", "EventOutcome", "MAX_TENANTS", "MODES",
    "SIM_REPORT_KIND",
    "SimReport", "TRACE_KIND", "TRACE_SPEC_KIND", "TenantEvent",
    "TenantReport", "Trace", "TraceSpec", "build_report",
    "generate_trace", "replay", "replay_parity", "strip_nonidentity",
]
