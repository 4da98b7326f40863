"""Scheduler-policy registry: named, pluggable scheduling policies.

A *policy* is a callable turning a :class:`PolicyContext` (request +
resolved workload and hardware) into a :class:`PolicyOutcome` (schedule,
metrics, optional SCAR population).  Policies register by name::

    @register_policy("my_policy")
    def my_policy(ctx: PolicyContext) -> PolicyOutcome:
        ...

and requests select them via ``ScheduleRequest.policy``.  This replaces
the hardcoded policy-string dispatch the experiment runner used to carry:
the four built-ins (``standalone``, ``nn_baton``, ``scar``,
``evolutionary``, see :mod:`repro.api.policies`) live in the default
registry, and downstream code can add new policies without touching the
session or the experiment drivers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.core.metrics import ScheduleMetrics
from repro.core.scar import SCARResult
from repro.core.schedule import Schedule
from repro.dataflow.database import LayerCostDatabase
from repro.errors import ConfigError
from repro.mcm.package import MCM
from repro.workloads.model import Scenario

if TYPE_CHECKING:  # pragma: no cover
    from repro.api.request import ScheduleRequest


@dataclass(frozen=True)
class PolicyContext:
    """Everything a policy needs to run one request.

    ``eval_mode`` (the candidate-costing kernel, ``"scalar"`` /
    ``"vector"``) is the session's execution setting.  Results are
    bit-identical across kernels, so it only changes throughput;
    policies that do not search (the baselines) ignore it.

    A searching policy builds its evaluator caches per request (see
    :class:`~repro.core.scar.SCARScheduler`); of what the context
    carries, only the session's ``database`` serves later requests.
    """

    request: "ScheduleRequest"
    scenario: Scenario
    mcm: MCM
    database: LayerCostDatabase
    eval_mode: str = "scalar"


@dataclass(frozen=True)
class PolicyOutcome:
    """What a policy returns: the schedule, its metrics and (for SCAR-like
    searches) the full in-process result carrying the candidate
    population."""

    schedule: Schedule
    metrics: ScheduleMetrics
    scar_result: SCARResult | None = None


PolicyFn = Callable[[PolicyContext], PolicyOutcome]


class SchedulerRegistry:
    """Name -> policy mapping with decorator-style registration."""

    def __init__(self) -> None:
        self._policies: dict[str, PolicyFn] = {}

    def register(self, name: str,
                 policy: PolicyFn | None = None) -> Callable:
        """Register ``policy`` under ``name``.

        Usable directly (``registry.register("x", fn)``) or as a
        decorator (``@registry.register("x")``).  Re-registering a taken
        name is an error; use a new name or a fresh registry.
        """
        if not name or not isinstance(name, str):
            raise ConfigError(f"policy name must be a non-empty string, "
                              f"got {name!r}")

        def _add(fn: PolicyFn) -> PolicyFn:
            if name in self._policies:
                raise ConfigError(f"policy {name!r} is already registered")
            self._policies[name] = fn
            return fn

        if policy is not None:
            return _add(policy)
        return _add

    def get(self, name: str) -> PolicyFn:
        """Resolve a policy by name."""
        try:
            return self._policies[name]
        except KeyError:
            raise ConfigError(
                f"unknown policy {name!r}; registered: "
                f"{self.names()}") from None

    def run(self, ctx: PolicyContext) -> PolicyOutcome:
        """Dispatch ``ctx`` to the policy its request names."""
        return self.get(ctx.request.policy)(ctx)

    def names(self) -> tuple[str, ...]:
        """Registered policy names, sorted."""
        return tuple(sorted(self._policies))

    def __contains__(self, name: str) -> bool:
        return name in self._policies


#: The process-wide default registry; ``@register_policy`` adds to it and
#: :class:`~repro.api.session.Session` uses it unless given another.
DEFAULT_REGISTRY = SchedulerRegistry()


def register_policy(name: str,
                    policy: PolicyFn | None = None) -> Callable:
    """Register a policy in the default registry (decorator-friendly)."""
    return DEFAULT_REGISTRY.register(name, policy)
