"""Sec. V-E ablation studies.

* **Time partitioning** -- EDP of the Het-Sides Scenario-4 search while
  sweeping ``nsplits`` 1..5 (the paper observes diminishing returns after
  4 splits).
* **Rule-based vs exhaustive PROV** -- repeat the EDP search with the
  exhaustive node-composition enumeration for scenarios 3-5.
* **Greedy vs uniform packing** -- Algorithm 1 against the uniform layer
  distribution baseline on Scenario 4 / Het-Sides (paper: 21.8% speedup,
  8.6% energy reduction).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api import ScheduleRequest, Session
from repro.experiments.reporting import format_table
from repro.experiments.runner import ExperimentConfig, strategy_request


def _request(strategy: str, scenario_id: int, config: ExperimentConfig,
             **overrides) -> ScheduleRequest:
    return strategy_request(scenario_id, strategy, "edp",
                            config).replace(**overrides)


@dataclass(frozen=True)
class NsplitsResult:
    """EDP per nsplits value (time-partitioning ablation)."""

    edps: dict[int, float]

    def improvement_rate(self, nsplits: int) -> float:
        """EDP(nsplits-1) / EDP(nsplits): the paper's 'rate of reduction'."""
        return self.edps[nsplits - 1] / self.edps[nsplits]

    def render(self) -> str:
        rows = []
        for nsplits in sorted(self.edps):
            rate = (self.improvement_rate(nsplits)
                    if nsplits - 1 in self.edps else float("nan"))
            rows.append((nsplits, self.edps[nsplits], rate))
        return format_table(
            ("nsplits", "EDP (J.s)", "rate vs previous"), rows,
            title="Ablation -- time partitioning (sc4, het_sides)")


def run_nsplits_ablation(config: ExperimentConfig | None = None,
                         scenario_id: int = 4, strategy: str = "het_sides",
                         values: tuple[int, ...] = (1, 2, 3, 4, 5)
                         ) -> NsplitsResult:
    """Sweep nsplits and record the EDP-search result."""
    config = config or ExperimentConfig()
    session = Session()
    edps = {}
    for nsplits in values:
        request = _request(strategy, scenario_id, config, nsplits=nsplits)
        edps[nsplits] = session.submit(request).metrics.edp
    return NsplitsResult(edps=edps)


@dataclass(frozen=True)
class ProvAblationResult:
    """Uniform-rule vs exhaustive PROV EDPs per (strategy, scenario)."""

    uniform: dict[tuple[str, int], float]
    exhaustive: dict[tuple[str, int], float]

    def render(self) -> str:
        rows = []
        for key in sorted(self.uniform):
            strategy, scenario_id = key
            uni = self.uniform[key]
            exh = self.exhaustive[key]
            rows.append((strategy, scenario_id, uni, exh, uni / exh))
        return format_table(
            ("strategy", "scenario", "uniform EDP", "exhaustive EDP",
             "uniform/exhaustive"),
            rows, title="Ablation -- rule-based vs exhaustive PROV")


def run_prov_ablation(config: ExperimentConfig | None = None,
                      scenario_ids: tuple[int, ...] = (3, 4, 5),
                      strategies: tuple[str, ...] = ("simba_nvd",
                                                     "het_sides"),
                      prov_limit: int = 32) -> ProvAblationResult:
    """Compare Eq. 2's uniform rule against exhaustive compositions."""
    config = config or ExperimentConfig()
    session = Session()
    uniform: dict[tuple[str, int], float] = {}
    exhaustive: dict[tuple[str, int], float] = {}
    for scenario_id in scenario_ids:
        for strategy in strategies:
            uniform[(strategy, scenario_id)] = session.submit(_request(
                strategy, scenario_id, config)).metrics.edp
            exhaustive[(strategy, scenario_id)] = session.submit(_request(
                strategy, scenario_id, config, provisioning="exhaustive",
                prov_limit=prov_limit)).metrics.edp
    return ProvAblationResult(uniform=uniform, exhaustive=exhaustive)


@dataclass(frozen=True)
class PackingAblationResult:
    """Greedy (Alg. 1) vs uniform packing metrics."""

    greedy_latency_s: float
    greedy_energy_j: float
    uniform_latency_s: float
    uniform_energy_j: float

    @property
    def speedup(self) -> float:
        """Greedy's latency advantage (paper reports 21.8%)."""
        return self.uniform_latency_s / self.greedy_latency_s

    @property
    def energy_reduction(self) -> float:
        """Greedy's energy reduction fraction (paper reports 8.6%)."""
        return 1.0 - self.greedy_energy_j / self.uniform_energy_j

    def render(self) -> str:
        rows = [
            ("greedy (Alg. 1)", self.greedy_latency_s,
             self.greedy_energy_j),
            ("uniform", self.uniform_latency_s, self.uniform_energy_j),
        ]
        table = format_table(("packing", "latency (s)", "energy (J)"),
                             rows,
                             title="Ablation -- greedy vs uniform packing")
        return (f"{table}\nspeedup {self.speedup:.3f}x (paper: 1.218x), "
                f"energy reduction {self.energy_reduction * 100:.1f}% "
                f"(paper: 8.6%)")


def run_packing_ablation(config: ExperimentConfig | None = None,
                         scenario_id: int = 4,
                         strategy: str = "het_sides"
                         ) -> PackingAblationResult:
    """Algorithm 1 vs uniform layer distribution (Sec. V-E)."""
    config = config or ExperimentConfig()
    session = Session()
    greedy = session.submit(_request(strategy, scenario_id, config,
                                     packing="greedy")).metrics
    uniform = session.submit(_request(strategy, scenario_id, config,
                                      packing="uniform")).metrics
    return PackingAblationResult(
        greedy_latency_s=greedy.latency_s, greedy_energy_j=greedy.energy_j,
        uniform_latency_s=uniform.latency_s,
        uniform_energy_j=uniform.energy_j)
