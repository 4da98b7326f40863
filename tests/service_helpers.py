"""Shared helpers for the repro.service test suites.

One definition of the parity contract and the event-gated test policy,
imported by both ``test_service_scheduler.py`` (in-process) and
``test_service_http.py`` (over a live server), so the two suites cannot
drift apart.
"""

from __future__ import annotations

import threading

from repro.api import PolicyOutcome, ScheduleRequest, SchedulerRegistry
from repro.core.baselines import StandaloneScheduler

#: Every built-in policy; the parity suites run all of them.
POLICIES = ("standalone", "nn_baton", "scar", "evolutionary")


def request_for(tiny_scenario, small_budget, policy,
                **overrides) -> ScheduleRequest:
    """A quick request over the tiny fixture workload."""
    overrides.setdefault("template", "het_sides_3x3")
    return ScheduleRequest.for_scenario(
        tiny_scenario, policy=policy, budget=small_budget, nsplits=1,
        **overrides)


def replicated_request(small_budget, policy="scar",
                       **overrides) -> ScheduleRequest:
    """A quick multi-tenant request: two tenants of one zoo model.

    The generated-workload shape (``model#k`` instance names, see
    :func:`repro.workloads.replicated`), so the parity suites also
    cover scenarios the Table III set cannot express."""
    from repro.workloads import replicated

    overrides.setdefault("template", "het_sides_3x3")
    return ScheduleRequest.for_scenario(
        replicated("eyecod", (30, 60), use_case="arvr"), policy=policy,
        budget=small_budget, nsplits=1, **overrides)


def assert_equivalent(a, b):
    """Result equality minus the nondeterministic perf wall times — the
    service determinism contract.  The granular asserts give
    readable failures; the final ``same_payload`` check keeps this
    helper honest if the contract ever gains a field."""
    assert a.request == b.request
    assert a.schedule == b.schedule
    assert a.metrics == b.metrics
    assert a.window_candidates == b.window_candidates
    assert a.num_evaluated == b.num_evaluated
    assert a.same_payload(b)


def gated_registry():
    """A registry whose 'gated' policy blocks until released.

    Returns ``(registry, started, release, order)``: ``started`` fires
    when a run enters the policy, ``release`` lets runs proceed, and
    ``order`` logs each run's ``prov_limit`` so tests can observe
    execution order.  Makes queue occupancy deterministic for
    cancellation/priority tests.
    """
    started = threading.Event()
    release = threading.Event()
    order: list[int] = []
    registry = SchedulerRegistry()

    @registry.register("gated")
    def _gated(ctx):
        order.append(ctx.request.prov_limit)
        started.set()
        assert release.wait(timeout=60)
        outcome = StandaloneScheduler(ctx.mcm, ctx.database) \
            .schedule(ctx.scenario)
        return PolicyOutcome(schedule=outcome.schedule,
                             metrics=outcome.metrics)

    return registry, started, release, order
