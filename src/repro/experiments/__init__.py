"""Experiment drivers: one module per paper table/figure (see DESIGN.md)."""

from repro.experiments.ablations import (
    run_nsplits_ablation,
    run_packing_ablation,
    run_prov_ablation,
)
from repro.experiments.arvr import ArvrResult, run_arvr
from repro.experiments.datacenter import DatacenterResult, run_datacenter
from repro.experiments.motivational import Fig2Result, run_fig2
from repro.experiments.pareto import (
    ParetoResult,
    run_fig8,
    run_fig11,
    run_pareto,
)
from repro.experiments.reporting import (
    ascii_scatter,
    format_table,
    normalize,
    pareto_front,
)
from repro.experiments.runner import (
    CORE_STRATEGIES,
    STRATEGIES,
    ExperimentConfig,
    strategy_request,
)
from repro.experiments.scale6x6 import Scale6x6Result, run_fig13
from repro.experiments.schedule_detail import BreakdownResult, run_breakdown
from repro.experiments.topology_ablation import TopologyResult, run_fig12

__all__ = [
    "ArvrResult", "BreakdownResult", "CORE_STRATEGIES",
    "DatacenterResult", "ExperimentConfig",
    "Fig2Result", "ParetoResult", "STRATEGIES", "Scale6x6Result",
    "TopologyResult", "ascii_scatter",
    "format_table",
    "normalize", "pareto_front", "run_arvr", "run_breakdown",
    "run_datacenter", "run_fig11", "run_fig12", "run_fig13", "run_fig2",
    "run_fig8", "run_nsplits_ablation", "run_pareto", "run_packing_ablation",
    "run_prov_ablation", "strategy_request",
]
