"""Figs. 8 and 11: Pareto fronts of the evaluated schedule populations.

Every SCAR run carries its evaluated candidate population
(:meth:`~repro.core.scar.SCARResult.candidate_points`); standalone
baselines contribute single points.  The experiment reports the
(latency, energy) scatter and the non-dominated front per strategy,
normalized to the standalone NVDLA point as in the paper's figures.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api import Session
from repro.experiments.reporting import (
    Point,
    ascii_scatter,
    format_table,
    pareto_front,
)
from repro.experiments.runner import (
    CORE_STRATEGIES,
    ExperimentConfig,
    strategy_request,
)

#: Scenario sets used by the two Pareto figures.
FIG8_SCENARIOS: tuple[int, ...] = (3, 4)
FIG11_SCENARIOS: tuple[int, ...] = (6, 7, 8, 10)


@dataclass(frozen=True)
class ParetoResult:
    """Candidate populations per (scenario, strategy)."""

    points: dict[tuple[int, str], tuple[Point, ...]]
    scenario_ids: tuple[int, ...]
    strategies: tuple[str, ...]
    searches: tuple[str, ...]

    def front(self, scenario_id: int, strategy: str) -> list[Point]:
        return pareto_front(self.points[(scenario_id, strategy)])

    def global_front(self, scenario_id: int) -> list[Point]:
        merged: list[Point] = []
        for strategy in self.strategies:
            merged.extend(self.points[(scenario_id, strategy)])
        return pareto_front(merged)

    def render(self) -> str:
        blocks = []
        for scenario_id in self.scenario_ids:
            rows = []
            for strategy in self.strategies:
                front = self.front(scenario_id, strategy)
                best_lat = min(p[0] for p in front)
                best_energy = min(p[1] for p in front)
                best_edp = min(p[0] * p[1] for p in front)
                rows.append((strategy, len(self.points[(scenario_id,
                                                        strategy)]),
                             best_lat, best_energy, best_edp))
            blocks.append(format_table(
                ("strategy", "points", "best lat (s)", "best E (J)",
                 "best EDP (J.s)"),
                rows, title=f"Pareto summary -- scenario {scenario_id}"))
            series = {strategy: self.front(scenario_id, strategy)
                      for strategy in self.strategies}
            blocks.append(ascii_scatter(
                series, title=f"Pareto fronts -- scenario {scenario_id}"))
        return "\n\n".join(blocks)


def run_pareto(scenario_ids: tuple[int, ...],
               config: ExperimentConfig | None = None,
               strategies: tuple[str, ...] = CORE_STRATEGIES,
               searches: tuple[str, ...] = ("latency", "energy", "edp")
               ) -> ParetoResult:
    """Collect candidate populations across search targets (Fig. 8 / 11)."""
    config = config or ExperimentConfig()
    session = Session()
    points: dict[tuple[int, str], tuple[Point, ...]] = {}
    for scenario_id in scenario_ids:
        for strategy in strategies:
            cell_points: list[Point] = []
            for search in searches:
                run = session.submit(strategy_request(
                    scenario_id, strategy, search, config))
                cell_points.extend(run.candidate_points())
            points[(scenario_id, strategy)] = tuple(cell_points)
    return ParetoResult(points=points, scenario_ids=scenario_ids,
                        strategies=strategies, searches=searches)


def run_fig8(config: ExperimentConfig | None = None) -> ParetoResult:
    """Fig. 8: datacenter scenarios 3 and 4 across all search targets."""
    return run_pareto(FIG8_SCENARIOS, config)


def run_fig11(config: ExperimentConfig | None = None) -> ParetoResult:
    """Fig. 11: AR/VR scenarios 6, 7, 8 and 10 under the EDP search."""
    return run_pareto(FIG11_SCENARIOS, config, searches=("edp",))
