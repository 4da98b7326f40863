"""Fig. 9 and Table VI: the top-scoring Het-Sides schedule for Scenario 4.

Reproduces the per-window breakdown table: each model's latency
contribution per window, its ideal (sum-of-windows) latency, layer counts
per window, and the chiplet allocation (the Fig. 9 spatial view is
rendered as text).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api import Session
from repro.experiments.reporting import format_table
from repro.experiments.runner import ExperimentConfig, strategy_request
from repro.workloads.scenarios import scenario


@dataclass(frozen=True)
class BreakdownResult:
    """Per-window, per-model latency/layer breakdown (Table VI layout)."""

    scenario_id: int
    strategy: str
    model_names: tuple[str, ...]
    window_latencies: tuple[float, ...]
    per_model_latency: dict[str, tuple[float, ...]]
    per_model_layers: dict[str, tuple[int, ...]]
    schedule_text: str
    grid_text: str

    @property
    def total_latency_s(self) -> float:
        return sum(self.window_latencies)

    def ideal_latency(self, model: str) -> float:
        """Sum of the model's own window latencies (its 'ideal tot')."""
        return sum(self.per_model_latency[model])

    def render(self) -> str:
        num_windows = len(self.window_latencies)
        headers = ["model"] + [f"W{i}" for i in range(num_windows)] \
            + ["ideal tot", "#layers"]
        rows: list[list[object]] = []
        for name in self.model_names:
            lat = self.per_model_latency[name]
            layers = self.per_model_layers[name]
            rows.append([name, *lat, self.ideal_latency(name),
                         sum(layers)])
        rows.append(["window", *self.window_latencies,
                     self.total_latency_s,
                     sum(sum(self.per_model_layers[n])
                         for n in self.model_names)])
        table = format_table(
            headers, rows,
            title=(f"Table VI -- per-window latency (s), scenario "
                   f"{self.scenario_id}, {self.strategy}"))
        return "\n\n".join((
            table,
            "MCM dataflow pattern:\n" + self.grid_text,
            "Fig. 9 -- schedule:\n" + self.schedule_text,
        ))


def run_breakdown(scenario_id: int = 4, strategy: str = "het_sides",
                  config: ExperimentConfig | None = None,
                  objective: str = "edp") -> BreakdownResult:
    """Run the EDP search and extract the Fig. 9 / Table VI breakdown."""
    config = config or ExperimentConfig()
    session = Session()
    sc = scenario(scenario_id)
    run = session.submit(
        strategy_request(scenario_id, strategy, objective, config))

    model_names = sc.model_names
    num_windows = run.metrics.windows[-1].index + 1
    per_model_latency = {name: [0.0] * num_windows for name in model_names}
    per_model_layers = {name: [0] * num_windows for name in model_names}
    window_latencies = [0.0] * num_windows
    for window_metrics, window in zip(run.metrics.windows,
                                      run.schedule.windows):
        idx = window_metrics.index
        window_latencies[idx] = window_metrics.latency_s
        for entry in window_metrics.per_model:
            per_model_latency[model_names[entry.model]][idx] = \
                entry.latency_s
        for chain in window.chains:
            name = model_names[chain[0].model]
            per_model_layers[name][idx] = sum(seg.num_layers
                                              for seg in chain)

    from repro.mcm import templates
    from repro.experiments.runner import STRATEGIES
    mcm = templates.build(STRATEGIES[strategy][0], sc.use_case)
    return BreakdownResult(
        scenario_id=scenario_id,
        strategy=strategy,
        model_names=model_names,
        window_latencies=tuple(window_latencies),
        per_model_latency={k: tuple(v)
                           for k, v in per_model_latency.items()},
        per_model_layers={k: tuple(v) for k, v in per_model_layers.items()},
        schedule_text=run.schedule.describe(sc),
        grid_text=mcm.grid_diagram(),
    )
