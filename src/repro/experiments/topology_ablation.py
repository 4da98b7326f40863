"""Fig. 12: triangular-NoP ablation (Sec. V-E).

SCAR generalizes to non-mesh NoPs because it only relies on adjacency;
this experiment repeats the EDP search for scenarios 3 and 4 on the
triangular 3x3 templates (Simba-T Shi / Simba-T NVD / Het-T), normalized
by the standalone NVDLA baseline, as in Fig. 12.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api import ScheduleResult, Session
from repro.experiments.reporting import format_table, normalize
from repro.experiments.runner import ExperimentConfig, strategy_request

TRIANGULAR_STRATEGIES: tuple[str, ...] = ("simba_t_shi", "simba_t_nvd",
                                          "het_t")
FIG12_SCENARIOS: tuple[int, ...] = (3, 4)


@dataclass(frozen=True)
class TopologyResult:
    """EDP-search results on triangular topologies, plus the baseline."""

    runs: dict[tuple[str, int], ScheduleResult]
    scenario_ids: tuple[int, ...]
    strategies: tuple[str, ...]

    def normalized_edp(self, scenario_id: int) -> dict[str, float]:
        values = {s: self.runs[(s, scenario_id)].edp
                  for s in (*self.strategies, "stand_nvd")}
        return normalize(values, "stand_nvd")

    def render(self) -> str:
        rows = []
        for strategy in self.strategies:
            row: list[object] = [strategy]
            for scenario_id in self.scenario_ids:
                row.append(self.normalized_edp(scenario_id)[strategy])
            rows.append(row)
        headers = ["strategy"] + [f"sc{i} EDP (x stand_nvd)"
                                  for i in self.scenario_ids]
        return format_table(headers, rows,
                            title="Fig. 12 -- triangular NoP, EDP search")


def run_fig12(config: ExperimentConfig | None = None,
              scenario_ids: tuple[int, ...] = FIG12_SCENARIOS
              ) -> TopologyResult:
    """Run the triangular-NoP EDP search (Fig. 12)."""
    config = config or ExperimentConfig()
    session = Session()
    runs: dict[tuple[str, int], ScheduleResult] = {}
    for scenario_id in scenario_ids:
        for strategy in (*TRIANGULAR_STRATEGIES, "stand_nvd"):
            runs[(strategy, scenario_id)] = session.submit(
                strategy_request(scenario_id, strategy, "edp", config))
    return TopologyResult(runs=runs, scenario_ids=scenario_ids,
                          strategies=TRIANGULAR_STRATEGIES)
