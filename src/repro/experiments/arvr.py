"""Table V and Fig. 10: AR/VR (XRBench) EDP-search results, 3x3 MCMs.

Scenarios 6-10 at the edge operating point (256 PEs/chiplet).  Table V
reports latency and EDP relative to the standalone NVDLA baseline for the
EDP search; Fig. 10 plots the same EDP ratios.
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
from repro.workloads.scenarios import ARVR_IDS


@dataclass(frozen=True)
class ArvrResult:
    """EDP-search runs for scenarios 6-10."""

    runs: dict[tuple[str, int], ScheduleResult]
    scenario_ids: tuple[int, ...]
    strategies: tuple[str, ...]

    def relative(self, metric: str,
                 baseline: str = "stand_nvd") -> dict[str, dict[int, float]]:
        """Per-strategy metric relative to standalone NVDLA (Table V)."""
        grid: dict[str, dict[int, float]] = {s: {} for s in self.strategies}
        for scenario_id in self.scenario_ids:
            values = {s: self.runs[(s, scenario_id)].value(metric)
                      for s in self.strategies}
            normed = normalize(values, baseline)
            for strategy in self.strategies:
                grid[strategy][scenario_id] = normed[strategy]
        return grid

    def average_improvement(self, strategy: str,
                            baseline: str = "stand_nvd") -> float:
        """Mean EDP reduction of ``strategy`` vs ``baseline`` (fraction)."""
        rel = self.relative("edp", baseline)[strategy]
        return 1.0 - sum(rel.values()) / len(rel)

    def render(self) -> str:
        blocks = []
        for metric in ("latency", "edp"):
            grid = self.relative(metric)
            rows = [[s] + [grid[s][i] for i in self.scenario_ids]
                    for s in self.strategies]
            headers = ["strategy"] + [f"sc{i}" for i in self.scenario_ids]
            blocks.append(format_table(
                headers, rows,
                title=(f"Table V -- EDP search, relative {metric} "
                       f"(x stand_nvd)")))
        return "\n\n".join(blocks)


def run_arvr(config: ExperimentConfig | None = None,
             scenario_ids: tuple[int, ...] = ARVR_IDS,
             strategies: tuple[str, ...] = CORE_STRATEGIES) -> ArvrResult:
    """Run the AR/VR suite under the EDP search (Table V / Fig. 10)."""
    config = config or ExperimentConfig()
    session = Session()
    runs: dict[tuple[str, int], ScheduleResult] = {}
    for scenario_id in scenario_ids:
        for strategy in strategies:
            runs[(strategy, scenario_id)] = session.submit(
                strategy_request(scenario_id, strategy, "edp", config))
    return ArvrResult(runs=runs, scenario_ids=scenario_ids,
                      strategies=strategies)
