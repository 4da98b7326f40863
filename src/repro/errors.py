"""Exception hierarchy for the SCAR reproduction.

All library errors derive from :class:`ReproError` so callers can catch a
single base class at API boundaries.  Each subclass corresponds to one layer
of the system (workload definition, hardware model, scheduling, search).

Each class also owns its part of the error contract: ``code``, the
stable wire code of its :class:`~repro.api.ErrorDocument`, and
``http_status``, the status a service replica answers it with.  Adding
an error means adding one class here with its own ``code``, plus an
``http_status`` where the inherited one is wrong, and pinning both in
``tests/test_service_http.py::TestErrorContract``, which fails on a
class it does not list and on a code two classes share.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""

    code: str = "repro_error"
    http_status: int = 500


class WorkloadError(ReproError):
    """Invalid workload definition (layer dims, model topology, scenario)."""

    code = "workload_error"


class HardwareError(ReproError):
    """Invalid MCM hardware description (chiplet, topology, package)."""

    code = "hardware_error"


class DataflowError(ReproError):
    """Unknown dataflow or invalid dataflow/layer combination."""

    code = "dataflow_error"


class SchedulingError(ReproError):
    """A scheduling engine produced or received an invalid schedule."""

    code = "scheduling_error"


class ValidationError(SchedulingError):
    """A schedule violates Theorem 1/2 validity (coverage or exclusivity)."""

    code = "validation_error"


class SearchError(ReproError):
    """Search-space exploration failed (empty space, bad budget)."""

    code = "search_error"


class ConfigError(ReproError):
    """Malformed configuration file or unknown template name."""

    code = "config_error"
    http_status = 400


class AnalysisError(ReproError):
    """A static-analysis run could not complete (unreadable or
    unparsable source file, unknown checker code in --select/--ignore)."""

    code = "analysis_error"


class ServiceError(ReproError):
    """Invalid use of the job-oriented scheduling service (result
    requested before completion, submit after shutdown)."""

    code = "service_error"
    http_status = 409


class JobNotFoundError(ServiceError):
    """The service has no job under this id (never existed or evicted)."""

    code = "not_found"
    http_status = 404


class ServiceOverloadedError(ServiceError):
    """The service's admission queue is full; retry after a backoff.

    Transports surface this as HTTP 429 with a ``Retry-After`` header;
    :class:`repro.service.ServiceClient` retries it automatically with
    capped exponential backoff.  ``retry_after_s``, when set, is the
    server's suggested minimum delay before the next attempt.
    """

    code = "service_overloaded"
    http_status = 429
    retry_after_s: float | None = None
