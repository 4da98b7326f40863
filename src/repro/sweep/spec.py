"""Declarative sweep specifications: a grid of scheduling cells.

A :class:`SweepSpec` names a campaign as data: scenarios (Table III ids
and/or inline scenario documents, e.g. from ``scar generate``) crossed
with MCM templates, scheduler policies, objectives and the engine knobs
(``nsplits`` x ``beam``).  :meth:`SweepSpec.requests`
expands the grid into :class:`~repro.api.request.ScheduleRequest`
cells in a deterministic order; each cell's
:meth:`~repro.api.request.ScheduleRequest.cache_key` is its identity in
the JSONL result store (:mod:`repro.sweep.store`), which is what makes
campaigns resumable.  Every axis is part of the problem; how the cells
run (the costing kernel) is the executing
:class:`~repro.api.session.Session`'s business.

The spec itself round-trips through JSON (``kind: "sweep_spec"``), so
campaigns can live in files next to their result stores.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Any, Iterator, Sequence

from repro.api.request import ScheduleRequest
from repro.api.wire import WIRE_VERSION, check_envelope, loads_document
from repro.core.budget import SearchBudget
from repro.errors import ConfigError

_SPEC_KIND = "sweep_spec"


def cell_scenario_label(request: ScheduleRequest) -> str:
    """Short display label for a cell's workload."""
    if request.scenario_id is not None:
        return f"sc{request.scenario_id}"
    return str(request.scenario_spec.get("name", "<inline>"))


@dataclass(frozen=True)
class SweepSpec:
    """One declarative scheduling campaign.

    ``scenarios`` entries are Table III ids (``int``) or inline scenario
    documents (``dict``, the :func:`repro.config.files.scenario_to_dict`
    form).  Every other axis is a tuple of values to cross; ``beams``
    accepts ``None`` entries (exhaustive search).  ``budget`` applies to
    every cell.
    """

    scenarios: tuple[int | dict, ...]
    templates: tuple[str, ...] = ("het_sides_3x3",)
    policies: tuple[str, ...] = ("scar",)
    objectives: tuple[str, ...] = ("edp",)
    nsplits: tuple[int, ...] = (4,)
    beams: tuple[int | None, ...] = (None,)
    budget: SearchBudget = field(default_factory=SearchBudget)

    def __post_init__(self) -> None:
        for axis in ("scenarios", "templates", "policies", "objectives",
                     "nsplits", "beams"):
            values = getattr(self, axis)
            if isinstance(values, (str, int, dict)) \
                    or not isinstance(values, Sequence):
                raise ConfigError(
                    f"sweep axis {axis!r} must be a sequence of values, "
                    f"got {values!r}")
            values = tuple(values)
            if not values:
                raise ConfigError(f"sweep axis {axis!r} is empty")
            object.__setattr__(self, axis, values)
        for entry in self.scenarios:
            if not isinstance(entry, (int, dict)) \
                    or isinstance(entry, bool):
                raise ConfigError(
                    "sweep scenarios must be Table III ids (int) or "
                    f"inline scenario documents (dict), got {entry!r}")

    @property
    def size(self) -> int:
        """Number of cells in the grid."""
        return (len(self.scenarios) * len(self.templates)
                * len(self.policies) * len(self.objectives)
                * len(self.nsplits) * len(self.beams))

    def requests(self) -> tuple[ScheduleRequest, ...]:
        """The grid's cells, in deterministic scenario-major order.

        Building the requests validates every axis value that
        :class:`ScheduleRequest` validates (scenario id, template,
        objective, beam, nsplits); a policy the running session's
        registry lacks is refused when the cells are submitted.
        """
        return tuple(self._iter_requests())

    def _iter_requests(self) -> Iterator[ScheduleRequest]:
        for entry in self.scenarios:
            workload = {"scenario_spec": entry} if isinstance(entry, dict) \
                else {"scenario_id": entry}
            for template in self.templates:
                for policy in self.policies:
                    for objective in self.objectives:
                        for nsplits in self.nsplits:
                            for beam in self.beams:
                                yield ScheduleRequest(
                                    **workload, template=template,
                                    policy=policy, objective=objective,
                                    nsplits=nsplits, beam=beam,
                                    budget=self.budget)

    # -- wire format -------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": _SPEC_KIND,
            "version": WIRE_VERSION,
            "scenarios": list(self.scenarios),
            "templates": list(self.templates),
            "policies": list(self.policies),
            "objectives": list(self.objectives),
            "nsplits": list(self.nsplits),
            "beams": list(self.beams),
            "budget": asdict(self.budget),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "SweepSpec":
        """Rebuild a spec from its wire form.

        v1 specs written while execution settings rode in the request
        may also carry ``backends``, ``eval_modes``, ``jobs`` and the
        evaluator-cache switch.  None of them changes a cell's result,
        so they are ignored (the same translation as
        :meth:`ScheduleRequest.from_dict`).
        """
        check_envelope(data, _SPEC_KIND)
        try:
            return cls(
                scenarios=tuple(data["scenarios"]),
                templates=tuple(data.get("templates",
                                         ("het_sides_3x3",))),
                policies=tuple(data.get("policies", ("scar",))),
                objectives=tuple(data.get("objectives", ("edp",))),
                nsplits=tuple(data.get("nsplits", (4,))),
                beams=tuple(data.get("beams", (None,))),
                budget=SearchBudget(**data["budget"])
                if data.get("budget") is not None else SearchBudget(),
            )
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"malformed sweep spec: {exc}") from exc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SweepSpec":
        return cls.from_dict(loads_document(text, "sweep spec"))
