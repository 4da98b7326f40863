"""Typed, serializable scheduling requests and results.

:class:`ScheduleRequest` is the single declarative input of the public
API: one frozen value object naming the workload (a Table III scenario id
or an inline scenario spec), the MCM template, the scheduler policy and
every search knob.  :class:`ScheduleResult` is the matching output:
schedule, metrics, per-window candidate summaries and perf statistics.

Both round-trip through plain JSON (``from_dict(to_dict(x)) == x``), so
the same value objects drive in-process calls, batch fan-out over worker
processes, files on disk and the HTTP front-end.
``ScheduleRequest.cache_key()`` is the canonical wire form and doubles as
the :class:`~repro.api.session.Session` memo key, so any two requests
that serialize identically share one result.  A request names the
problem only; how it runs (the costing kernel) belongs to the session
that executes it.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property
from typing import Any

from repro.api.wire import (
    WIRE_VERSION,
    CandidateColumns,
    check_envelope,
    loads_document,
    metrics_from_dict,
    metrics_to_dict,
    perf_from_dict,
    perf_to_dict,
)
from repro.config.files import (
    scenario_from_dict,
    scenario_to_dict,
    schedule_from_dict,
    schedule_to_dict,
)
from repro.core.budget import SearchBudget
from repro.core.metrics import ScheduleMetrics
from repro.core.packing import PACKING_MODES
from repro.core.scar import SEG_SEARCH_MODES
from repro.core.schedule import Schedule
from repro.engine.candidates import assemble_candidate_points
from repro.engine.provisioning import PROVISIONING_MODES
from repro.core.scoring import Objective, OptTarget, objective_by_name
from repro.errors import ConfigError
from repro.mcm.templates import template_names
from repro.perf import PerfReport
from repro.workloads.model import Scenario
from repro.workloads.scenarios import scenario as table3_scenario
from repro.workloads.scenarios import scenario_ids

_REQUEST_KIND = "schedule_request"
_RESULT_KIND = "schedule_result"

#: Integer request fields -> (minimum value or None, ``None`` allowed).
_INT_FIELDS: dict[str, tuple[int | None, bool]] = {
    "scenario_id": (None, True),
    "nsplits": (0, False),
    "prov_limit": (1, False),
    "max_nodes_per_model": (1, True),
    "beam": (1, True),
}

#: String request fields with a closed vocabulary -> the allowed values.
_CHOICE_FIELDS: dict[str, tuple[str, ...]] = {
    "template": template_names(),
    "objective": tuple(target.value for target in OptTarget),
    "packing": PACKING_MODES,
    "provisioning": PROVISIONING_MODES,
    "seg_search": SEG_SEARCH_MODES,
}


def scenario_spec(scenario: Scenario) -> dict[str, Any]:
    """Inline-spec form of a scenario for :class:`ScheduleRequest`.

    Models that rebuild bit-identically from the zoo are referenced by
    name (compact, Table III style); anything else -- custom or modified
    models -- has its layers inlined so the spec is self-contained.
    Multi-tenant instance names (``model#k``) ride along.  This is
    exactly :func:`repro.config.files.scenario_to_dict`, which inlines
    non-zoo models automatically.
    """
    return scenario_to_dict(scenario)


@dataclass(frozen=True)
class ScheduleRequest:
    """One declarative scheduling job.

    Exactly one of ``scenario_id`` (Table III reference) and
    ``scenario_spec`` (inline workload description, see
    :func:`repro.config.files.scenario_from_dict`) must be set.
    ``policy`` names an entry of the scheduler registry
    (:mod:`repro.api.registry`); the engine-mode fields (``packing``,
    ``provisioning``, ``seg_search``, ...) are forwarded to policies that
    understand them and ignored by the baselines, mirroring the paper's
    scheduler hyperparameters.  ``beam`` is the window-search beam width
    (see :func:`~repro.core.sched_engine.search_window`); ``None``
    (default) is the paper's exhaustive search.

    Every field can change the result, and every field is part of
    :meth:`cache_key`.  Settings that cannot, such as the costing
    kernel, are :class:`~repro.api.session.Session` options.
    Bad values raise :class:`ConfigError` here, at construction,
    including a ``scenario_id`` outside Table III and an unknown
    ``template``.  Which policies exist depends on the registry of the
    session that runs the request, so an unregistered ``policy`` is
    rejected there (and by :meth:`SchedulerService.submit
    <repro.service.SchedulerService.submit>`).
    """

    scenario_id: int | None = None
    scenario_spec: dict[str, Any] | None = None
    template: str = "het_sides_3x3"
    policy: str = "scar"
    objective: str = "edp"
    latency_bound_s: float | None = None
    nsplits: int = 4
    budget: SearchBudget = field(default_factory=SearchBudget)
    packing: str = "greedy"
    provisioning: str = "uniform"
    prov_limit: int = 64
    max_nodes_per_model: int | None = None
    seg_search: str = "enumerative"
    beam: int | None = None

    def __post_init__(self) -> None:
        if (self.scenario_id is None) == (self.scenario_spec is None):
            raise ConfigError(
                "exactly one of scenario_id and scenario_spec must be set")
        for name, (minimum, optional) in _INT_FIELDS.items():
            value = getattr(self, name)
            if value is None and optional:
                continue
            if not isinstance(value, int) or isinstance(value, bool) \
                    or (minimum is not None and value < minimum):
                expected = "an integer" if minimum is None \
                    else f"an integer >= {minimum}"
                if optional:
                    expected = "None or " + expected
                raise ConfigError(
                    f"{name} must be {expected}, got {value!r}")
        bound = self.latency_bound_s
        # A JSON integer can exceed every double: compare, never convert.
        if bound is not None and (
                not isinstance(bound, (int, float))
                or isinstance(bound, bool)
                or not 0 < bound <= sys.float_info.max):
            raise ConfigError(
                "latency_bound_s must be None or a positive finite "
                f"number, got {bound!r}")
        if self.scenario_spec is not None \
                and not isinstance(self.scenario_spec, dict):
            raise ConfigError("scenario_spec must be None or an object, "
                              f"got {self.scenario_spec!r}")
        if self.scenario_id is not None \
                and self.scenario_id not in scenario_ids():
            raise ConfigError(f"scenario_id must be None or one of "
                              f"{scenario_ids()}, got {self.scenario_id!r}")
        for name in ("template", "policy"):
            if not isinstance(getattr(self, name), str):
                raise ConfigError(f"{name} must be a string, "
                                  f"got {getattr(self, name)!r}")
        for name, choices in _CHOICE_FIELDS.items():
            if getattr(self, name) not in choices:
                raise ConfigError(f"{name} must be one of {choices}, "
                                  f"got {getattr(self, name)!r}")
        if not isinstance(self.budget, SearchBudget):
            raise ConfigError(
                f"budget must be a SearchBudget, got {self.budget!r}")

    def __hash__(self) -> int:
        # The generated frozen-dataclass hash would choke on the
        # scenario_spec dict; the canonical wire form is the identity.
        return hash(self.cache_key())

    # -- construction helpers ---------------------------------------------

    @classmethod
    def for_scenario(cls, scenario: int | Scenario,
                     **kwargs: Any) -> "ScheduleRequest":
        """Build a request from a scenario id or an in-memory scenario."""
        if isinstance(scenario, Scenario):
            return cls(scenario_spec=scenario_spec(scenario), **kwargs)
        return cls(scenario_id=scenario, **kwargs)

    def replace(self, **changes: Any) -> "ScheduleRequest":
        """A copy with ``changes`` applied (dataclasses.replace)."""
        return replace(self, **changes)

    # -- resolution --------------------------------------------------------

    def resolve_scenario(self) -> Scenario:
        """Materialize the workload this request names."""
        if self.scenario_id is not None:
            return table3_scenario(self.scenario_id)
        return scenario_from_dict(self.scenario_spec)

    def build_objective(self) -> Objective:
        """The search objective, with the optional latency bound applied."""
        objective = objective_by_name(self.objective)
        if self.latency_bound_s is not None:
            objective = replace(objective,
                                latency_bound_s=self.latency_bound_s)
        return objective

    # -- wire format -------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON form (the wire format; see DESIGN.md)."""
        return {
            "kind": _REQUEST_KIND,
            "version": WIRE_VERSION,
            "scenario_id": self.scenario_id,
            "scenario_spec": self.scenario_spec,
            "template": self.template,
            "policy": self.policy,
            "objective": self.objective,
            "latency_bound_s": self.latency_bound_s,
            "nsplits": self.nsplits,
            "budget": asdict(self.budget),
            "packing": self.packing,
            "provisioning": self.provisioning,
            "prov_limit": self.prov_limit,
            "max_nodes_per_model": self.max_nodes_per_model,
            "seg_search": self.seg_search,
            "beam": self.beam,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ScheduleRequest":
        """Rebuild a request from its wire form.

        The one place v1 documents are translated: documents written
        while execution settings rode in the request also carry
        ``jobs``, ``backend``, ``eval_mode``, ``memoize`` and the
        evaluator-cache switch.  None of them can change a result, so
        they are ignored, and such a document parses to the same
        request -- and the same :meth:`cache_key` -- as one without
        them.
        """
        check_envelope(data, _REQUEST_KIND)
        try:
            return cls(
                scenario_id=data["scenario_id"],
                scenario_spec=data["scenario_spec"],
                template=data["template"],
                policy=data["policy"],
                objective=data["objective"],
                latency_bound_s=data.get("latency_bound_s"),
                nsplits=data["nsplits"],
                budget=SearchBudget(**data["budget"]),
                packing=data["packing"],
                provisioning=data["provisioning"],
                prov_limit=data["prov_limit"],
                max_nodes_per_model=data.get("max_nodes_per_model"),
                seg_search=data["seg_search"],
                beam=data.get("beam"),
            )
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"malformed schedule request: {exc}") from exc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ScheduleRequest":
        return cls.from_dict(loads_document(text, "schedule request"))

    def cache_key(self) -> str:
        """Canonical identity for session memoization.

        The compact sorted-keys JSON dump of :meth:`to_dict`, so the memo
        key covers *every* field -- scenario, template, policy, objective,
        budget and engine modes -- and nothing that cannot change the
        result.
        """
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))


@dataclass(frozen=True)
class ScheduleResult:
    """Everything one :class:`ScheduleRequest` produced.

    ``window_candidates`` summarizes the evaluated population per time
    window, one :class:`~repro.api.wire.CandidateColumns` each (rank 0
    after sorting by score = the chosen candidate); the Pareto figures
    consume it via :meth:`candidate_points`.  A result holds only what
    the wire carries, so a memoized one pins no search state; callers
    that need the full in-process population (window candidates,
    packing plan) run :class:`~repro.core.scar.SCARScheduler`
    themselves.

    :attr:`wire_bytes` is the canonical encoding, computed on first read
    and kept on the instance (not a field), so it is not part of
    equality, ``repr`` or :meth:`same_payload`, and a
    ``dataclasses.replace`` copy encodes afresh.
    """

    request: ScheduleRequest
    schedule: Schedule
    metrics: ScheduleMetrics
    window_candidates: tuple[CandidateColumns, ...] = ()
    num_evaluated: int = 0
    perf: PerfReport | None = None

    # -- metric conveniences -----------------------------------------------

    @property
    def latency_s(self) -> float:
        return self.metrics.latency_s

    @property
    def energy_j(self) -> float:
        return self.metrics.energy_j

    @property
    def edp(self) -> float:
        return self.metrics.edp

    def value(self, metric: str) -> float:
        """Look up latency / energy / edp by name."""
        if metric == "latency":
            return self.latency_s
        if metric == "energy":
            return self.energy_j
        if metric == "edp":
            return self.edp
        raise ConfigError(f"unknown metric {metric!r}")

    def same_payload(self, other: "ScheduleResult") -> bool:
        """Equality on the deterministic payload.

        The service determinism contract: request, schedule, metrics,
        candidate summaries and evaluation count -- excluding ``perf``
        (wall times vary run to run).  This is THE definition parity
        tests and benches gate on.
        """
        return (self.request == other.request
                and self.schedule == other.schedule
                and self.metrics == other.metrics
                and self.window_candidates == other.window_candidates
                and self.num_evaluated == other.num_evaluated)

    def candidate_points(self) -> list[tuple[float, float]]:
        """(latency_s, energy_j) of assembled candidate schedules.

        Same construction as
        :meth:`repro.core.scar.SCARResult.candidate_points` (one shared
        helper in :mod:`repro.engine.candidates`): same-rank window
        candidates combine across windows; policies without a candidate
        population contribute their single schedule point.
        """
        return assemble_candidate_points(
            [window.columns for window in self.window_candidates],
            fallback=(self.metrics.latency_s, self.metrics.energy_j))

    # -- wire format -------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON form (request echoed back for self-description)."""
        return {
            "kind": _RESULT_KIND,
            "version": WIRE_VERSION,
            "request": self.request.to_dict(),
            "schedule": schedule_to_dict(self.schedule),
            "metrics": metrics_to_dict(self.metrics),
            "window_candidates": [window.to_dicts()
                                  for window in self.window_candidates],
            "num_evaluated": self.num_evaluated,
            "perf": None if self.perf is None else perf_to_dict(self.perf),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ScheduleResult":
        """Rebuild a result from its wire form."""
        check_envelope(data, _RESULT_KIND)
        try:
            return cls(
                request=ScheduleRequest.from_dict(data["request"]),
                schedule=schedule_from_dict(data["schedule"]),
                metrics=metrics_from_dict(data["metrics"]),
                window_candidates=tuple(
                    CandidateColumns.from_dicts(window)
                    for window in data["window_candidates"]),
                num_evaluated=data["num_evaluated"],
                perf=None if data.get("perf") is None
                else perf_from_dict(data["perf"]),
            )
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"malformed schedule result: {exc}") from exc

    @cached_property
    def wire_bytes(self) -> bytes:
        """Compact, sorted-key UTF-8 JSON of :meth:`to_dict`.

        Encoded once per result (cached_property writes ``__dict__``
        directly, which is fine on a frozen dataclass): a memoized
        result is immutable, and the HTTP front-end answers every
        ``GET /result`` for it with these bytes.
        """
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":")).encode("utf-8")

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ScheduleResult":
        return cls.from_dict(loads_document(text, "schedule result"))


