"""Shared experiment plumbing: strategies, configs and request building.

A *strategy* is the paper's (MCM template x scheduler policy) pair, e.g.
``stand_nvd`` (Standalone scheduler on a homogeneous NVDLA 3x3) or
``het_sides`` (SCAR on the Het-Sides 3x3).  Experiment drivers translate
(scenario, strategy, objective) triples into
:class:`~repro.api.request.ScheduleRequest` values via
:func:`strategy_request` and submit them to a ``Session`` of their
own.  Each CLI command runs one experiment, so two experiments (Table
IV and Fig. 7, say) never share results.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.api.request import ScheduleRequest
from repro.core.budget import QUICK_BUDGET, SearchBudget
from repro.errors import ConfigError
from repro.workloads.model import Scenario

#: strategy name -> (MCM template, scheduler policy)
STRATEGIES: dict[str, tuple[str, str]] = {
    "stand_shi": ("simba_shi_3x3", "standalone"),
    "stand_nvd": ("simba_nvd_3x3", "standalone"),
    "nn_baton": ("simba_nvd_3x3", "nn_baton"),
    "simba_shi": ("simba_shi_3x3", "scar"),
    "simba_nvd": ("simba_nvd_3x3", "scar"),
    "het_cb": ("het_cb_3x3", "scar"),
    "het_sides": ("het_sides_3x3", "scar"),
    # Triangular-NoP variants (Fig. 12).
    "simba_t_shi": ("simba_t_shi", "scar"),
    "simba_t_nvd": ("simba_t_nvd", "scar"),
    "het_t": ("het_t", "scar"),
    # 6x6 variants (Fig. 13) -- paired with evolutionary SEG search.
    "simba6_shi": ("simba_shi_6x6", "scar"),
    "simba6_nvd": ("simba_nvd_6x6", "scar"),
    "het_cross": ("het_cross_6x6", "scar"),
}

#: The Fig. 7 / Table IV strategy set.
CORE_STRATEGIES: tuple[str, ...] = (
    "stand_shi", "stand_nvd", "simba_shi", "simba_nvd", "het_cb",
    "het_sides",
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Runtime knobs shared by every experiment driver.

    ``fast`` presets keep CI benches to seconds/minutes; ``full`` uses the
    paper's defaults (nsplits=4, generous budget).
    """

    budget: SearchBudget = field(default_factory=SearchBudget)
    nsplits: int = 4

    @classmethod
    def fast(cls) -> "ExperimentConfig":
        return cls(budget=QUICK_BUDGET, nsplits=2)

    @classmethod
    def full(cls) -> "ExperimentConfig":
        return cls()

    def with_nsplits(self, nsplits: int) -> "ExperimentConfig":
        return replace(self, nsplits=nsplits)


def strategy_request(scenario: int | Scenario, strategy: str,
                     objective: str = "edp",
                     config: ExperimentConfig | None = None
                     ) -> ScheduleRequest:
    """The :class:`ScheduleRequest` for one paper strategy.

    ``scenario`` is a Table III id (compact request) or an in-memory
    :class:`~repro.workloads.model.Scenario` (inlined into the request
    spec).  6x6 templates run the evolutionary SEG search, as the paper
    pairs them; every other template runs the enumerative one.
    """
    config = config or ExperimentConfig()
    if strategy not in STRATEGIES:
        raise ConfigError(
            f"unknown strategy {strategy!r}; known: "
            f"{sorted(STRATEGIES)}")
    template, policy = STRATEGIES[strategy]
    seg_search = "evolutionary" if template.endswith("6x6") \
        else "enumerative"
    return ScheduleRequest.for_scenario(
        scenario, template=template, policy=policy, objective=objective,
        nsplits=config.nsplits, budget=config.budget,
        seg_search=seg_search)
