"""SCAR core: schedule IR, evaluator, engines and the scheduler facade."""

from repro.core.analysis import (
    ChipletUtilization,
    ScheduleReport,
    TrafficBreakdown,
    analyze_schedule,
    gantt,
)
from repro.core.baselines import (
    BaselineResult,
    NNBatonScheduler,
    StandaloneScheduler,
)
from repro.core.budget import QUICK_BUDGET, SearchBudget
from repro.core.evalcache import EvalCache, segment_place_key
from repro.core.evolutionary import EvolutionarySegSearch, GAConfig
from repro.core.metrics import (
    ModelWindowMetrics,
    ScheduleEvaluator,
    ScheduleMetrics,
    WindowMetrics,
)
from repro.core.packing import (
    PackingPlan,
    WindowAssignment,
    expected_layer_energies,
    expected_layer_latencies,
    greedy_pack,
    uniform_pack,
)
from repro.core.provisioner import exhaustive_allocations, uniform_allocation
from repro.core.scar import SCARResult, SCARScheduler
from repro.core.schedule import Schedule, Segment, WindowSchedule
from repro.core.scoring import (
    Objective,
    OptTarget,
    edp_objective,
    energy_objective,
    latency_objective,
    objective_by_name,
)
from repro.core.sched_engine import (
    WindowCandidate,
    build_window_schedule,
    search_window,
)
from repro.core.sched_tree import placements, simple_paths
from repro.core.segmentation import (
    RankedSegmentation,
    enumerate_cut_candidates,
    rank_segmentations,
    segments_from_cuts,
)

__all__ = [
    "BaselineResult", "ChipletUtilization", "EvalCache", "ScheduleReport",
    "TrafficBreakdown", "analyze_schedule", "gantt", "EvolutionarySegSearch", "GAConfig",
    "ModelWindowMetrics", "NNBatonScheduler", "Objective", "OptTarget",
    "PackingPlan", "QUICK_BUDGET", "RankedSegmentation", "SCARResult",
    "SCARScheduler", "Schedule", "ScheduleEvaluator", "ScheduleMetrics",
    "SearchBudget", "Segment", "StandaloneScheduler", "WindowAssignment",
    "WindowCandidate", "WindowMetrics", "WindowSchedule",
    "build_window_schedule", "edp_objective", "energy_objective",
    "enumerate_cut_candidates", "exhaustive_allocations",
    "expected_layer_energies", "expected_layer_latencies", "greedy_pack",
    "latency_objective", "objective_by_name", "placements",
    "rank_segmentations", "search_window", "segment_place_key",
    "segments_from_cuts", "simple_paths", "uniform_allocation",
    "uniform_pack",
]
