"""Public scheduling API: typed requests, a policy registry, sessions.

The one stable entry point every consumer (CLI, experiment drivers,
batch jobs, future services) builds on::

    from repro.api import ScheduleRequest, Session

    session = Session()
    result = session.submit(ScheduleRequest(
        scenario_id=4, template="het_sides_3x3", policy="scar"))
    print(result.metrics.summary())
    print(result.to_json())          # the JSON wire format

See DESIGN.md ("The repro.api facade") for the wire format and the
session lifecycle, and :mod:`repro.api.registry` for registering custom
scheduler policies.
"""

from repro.api import policies  # noqa: F401  (registers the built-ins)
from repro.api.registry import (
    DEFAULT_REGISTRY,
    PolicyContext,
    PolicyOutcome,
    SchedulerRegistry,
    register_policy,
)
from repro.api.request import (
    ScheduleRequest,
    ScheduleResult,
    scenario_spec,
)
from repro.api.session import Session
from repro.api.wire import (
    WIRE_VERSION,
    CandidateColumns,
    CandidatePoint,
    ErrorDocument,
    is_error_document,
    metrics_from_dict,
    metrics_to_dict,
    perf_from_dict,
    perf_to_dict,
)

__all__ = [
    "CandidateColumns", "CandidatePoint", "DEFAULT_REGISTRY",
    "ErrorDocument", "PolicyContext", "PolicyOutcome", "ScheduleRequest",
    "ScheduleResult", "SchedulerRegistry", "Session", "WIRE_VERSION",
    "is_error_document", "metrics_from_dict", "metrics_to_dict",
    "perf_from_dict", "perf_to_dict", "register_policy", "scenario_spec",
]
