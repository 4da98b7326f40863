"""Fig. 13: scaling to the full 6x6 Simba MCM with evolutionary SEG search.

Scenario 4 under the EDP search on ``simba_shi_6x6`` / ``simba_nvd_6x6`` /
``het_cross_6x6`` at nsplits in {2, 3}; the SEG module runs the GA
(population 10, generations 4, the paper's settings), which the runner
enables automatically for 6x6 templates.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api import ScheduleResult, Session
from repro.experiments.reporting import format_table
from repro.experiments.runner import ExperimentConfig, strategy_request

STRATEGIES_6X6: tuple[str, ...] = ("simba6_shi", "simba6_nvd", "het_cross")


@dataclass(frozen=True)
class Scale6x6Result:
    """EDP-search runs at each nsplits setting."""

    runs: dict[tuple[str, int], ScheduleResult]
    nsplit_values: tuple[int, ...]
    scenario_id: int

    def reduction_vs(self, strategy: str, baseline: str, nsplits: int,
                     metric: str = "edp") -> float:
        """Factor by which ``baseline`` exceeds ``strategy`` (paper's
        '2.3x reduction' convention)."""
        return (self.runs[(baseline, nsplits)].value(metric)
                / self.runs[(strategy, nsplits)].value(metric))

    def render(self) -> str:
        blocks = []
        for nsplits in self.nsplit_values:
            rows = [
                (s, self.runs[(s, nsplits)].latency_s,
                 self.runs[(s, nsplits)].energy_j,
                 self.runs[(s, nsplits)].edp)
                for s in STRATEGIES_6X6
            ]
            blocks.append(format_table(
                ("strategy", "latency (s)", "energy (J)", "EDP (J.s)"),
                rows,
                title=(f"Fig. 13 -- 6x6 EDP search, scenario "
                       f"{self.scenario_id}, nsplits={nsplits}")))
            blocks.append(
                f"het_cross EDP reduction: "
                f"{self.reduction_vs('het_cross', 'simba6_shi', nsplits):.2f}x"
                f" vs Simba-6 (Shi), "
                f"{self.reduction_vs('het_cross', 'simba6_nvd', nsplits):.2f}x"
                f" vs Simba-6 (NVD)")
        return "\n\n".join(blocks)


def run_fig13(config: ExperimentConfig | None = None,
              scenario_id: int = 4,
              nsplit_values: tuple[int, ...] = (2, 3)) -> Scale6x6Result:
    """Run the 6x6 evolutionary-search experiment (Fig. 13)."""
    base = config or ExperimentConfig()
    session = Session()
    runs: dict[tuple[str, int], ScheduleResult] = {}
    for nsplits in nsplit_values:
        for strategy in STRATEGIES_6X6:
            runs[(strategy, nsplits)] = session.submit(strategy_request(
                scenario_id, strategy, "edp", base.with_nsplits(nsplits)))
    return Scale6x6Result(runs=runs, nsplit_values=nsplit_values,
                          scenario_id=scenario_id)
