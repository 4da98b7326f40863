"""Table IV and Fig. 7: datacenter (MLPerf) scheduling results, 3x3 MCMs.

Table IV reports latency and EDP of the top candidate per strategy under
the Latency Search and the EDP Search for scenarios 1-5.  Fig. 7 extends
this to the full 3x3 grid (search metric x evaluation metric), normalized
by the standalone NVDLA baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api import ScheduleResult, Session
from repro.experiments.reporting import format_table, normalize
from repro.experiments.runner import (
    CORE_STRATEGIES,
    ExperimentConfig,
    strategy_request,
)
from repro.workloads.scenarios import DATACENTER_IDS

SEARCHES_TABLE4 = ("latency", "edp")
SEARCHES_FIG7 = ("latency", "energy", "edp")
EVAL_METRICS = ("latency", "energy", "edp")


@dataclass(frozen=True)
class DatacenterResult:
    """All (strategy, scenario, search-objective) runs for scenarios 1-5."""

    runs: dict[tuple[str, int, str], ScheduleResult]
    scenario_ids: tuple[int, ...]
    strategies: tuple[str, ...]

    def value(self, strategy: str, scenario_id: int, search: str,
              metric: str) -> float:
        return self.runs[(strategy, scenario_id, search)].value(metric)

    def normalized_grid(self, search: str, metric: str,
                        baseline: str = "stand_nvd") -> dict[str, dict[int, float]]:
        """Fig. 7 cell: per-strategy values normalized by the baseline."""
        grid: dict[str, dict[int, float]] = {s: {} for s in self.strategies}
        for scenario_id in self.scenario_ids:
            values = {s: self.value(s, scenario_id, search, metric)
                      for s in self.strategies}
            normed = normalize(values, baseline)
            for strategy in self.strategies:
                grid[strategy][scenario_id] = normed[strategy]
        return grid

    def render_table4(self) -> str:
        """The Table IV layout: latency & EDP per search per scenario."""
        blocks = []
        for search in SEARCHES_TABLE4:
            rows = []
            for strategy in self.strategies:
                row: list[object] = [strategy]
                for scenario_id in self.scenario_ids:
                    row.append(self.value(strategy, scenario_id, search,
                                          "latency"))
                for scenario_id in self.scenario_ids:
                    row.append(self.value(strategy, scenario_id, search,
                                          "edp"))
                rows.append(row)
            headers = ["strategy"] \
                + [f"lat(s) sc{i}" for i in self.scenario_ids] \
                + [f"EDP(J.s) sc{i}" for i in self.scenario_ids]
            blocks.append(format_table(
                headers, rows, title=f"Table IV -- {search} search"))
        return "\n\n".join(blocks)

    def render_fig7(self) -> str:
        """The Fig. 7 grid, normalized by standalone NVDLA."""
        blocks = []
        for search in SEARCHES_FIG7:
            for metric in EVAL_METRICS:
                grid = self.normalized_grid(search, metric)
                rows = [[s] + [grid[s][i] for i in self.scenario_ids]
                        for s in self.strategies]
                headers = ["strategy"] + [f"sc{i}" for i in self.scenario_ids]
                blocks.append(format_table(
                    headers, rows,
                    title=(f"Fig. 7 -- {search} search, {metric} eval "
                           f"(x stand_nvd)")))
        return "\n\n".join(blocks)


def run_datacenter(config: ExperimentConfig | None = None,
                   scenario_ids: tuple[int, ...] = DATACENTER_IDS,
                   searches: tuple[str, ...] = SEARCHES_FIG7,
                   strategies: tuple[str, ...] = CORE_STRATEGIES
                   ) -> DatacenterResult:
    """Run the datacenter suite (Table IV rows + Fig. 7 grid inputs)."""
    config = config or ExperimentConfig()
    session = Session()
    runs: dict[tuple[str, int, str], ScheduleResult] = {}
    for scenario_id in scenario_ids:
        for search in searches:
            for strategy in strategies:
                runs[(strategy, scenario_id, search)] = session.submit(
                    strategy_request(scenario_id, strategy, search,
                                     config))
    return DatacenterResult(runs=runs, scenario_ids=scenario_ids,
                            strategies=strategies)
