"""The four built-in scheduler policies, registered at import time.

These adapt the existing scheduler classes to the registry's
:class:`~repro.api.registry.PolicyContext` calling convention; the paper's
named strategies (``stand_nvd``, ``het_sides``, ...) are (template,
policy) pairs over these names -- see
:data:`repro.experiments.runner.STRATEGIES`.
"""

from __future__ import annotations

from repro.api.registry import (
    PolicyContext,
    PolicyOutcome,
    register_policy,
)
from repro.core.baselines import NNBatonScheduler, StandaloneScheduler
from repro.core.scar import SCARScheduler


@register_policy("standalone")
def standalone_policy(ctx: PolicyContext) -> PolicyOutcome:
    """One model per chiplet, spatial multi-tenancy (Sec. V baseline)."""
    outcome = StandaloneScheduler(ctx.mcm, ctx.database) \
        .schedule(ctx.scenario)
    return PolicyOutcome(schedule=outcome.schedule,
                         metrics=outcome.metrics)


@register_policy("nn_baton")
def nn_baton_policy(ctx: PolicyContext) -> PolicyOutcome:
    """NN-baton-style sequential single-model baseline (Sec. II-C)."""
    outcome = NNBatonScheduler(ctx.mcm, database=ctx.database) \
        .schedule(ctx.scenario)
    return PolicyOutcome(schedule=outcome.schedule,
                         metrics=outcome.metrics)


def _run_scar(ctx: PolicyContext, seg_search: str) -> PolicyOutcome:
    request = ctx.request
    scheduler = SCARScheduler(
        ctx.mcm,
        objective=request.build_objective(),
        nsplits=request.nsplits,
        budget=request.budget,
        database=ctx.database,
        packing=request.packing,
        provisioning=request.provisioning,
        max_nodes_per_model=request.max_nodes_per_model,
        seg_search=seg_search,
        prov_limit=request.prov_limit,
        beam=request.beam,
        eval_mode=ctx.eval_mode,
    )
    result = scheduler.schedule(ctx.scenario)
    return PolicyOutcome(schedule=result.schedule, metrics=result.metrics,
                         scar_result=result)


@register_policy("scar")
def scar_policy(ctx: PolicyContext) -> PolicyOutcome:
    """The full SCAR search; honours the request's ``seg_search`` mode."""
    return _run_scar(ctx, ctx.request.seg_search)


@register_policy("evolutionary")
def evolutionary_policy(ctx: PolicyContext) -> PolicyOutcome:
    """SCAR with the GA segmentation search forced on (6x6-scale MCMs)."""
    return _run_scar(ctx, "evolutionary")
