"""Baseline schedulers (Sec. V "Baselines and MCM patterns", Sec. II-C).

* **Standalone** -- each model is pinned to its own single chiplet for its
  whole execution; all models run concurrently (spatial multi-tenancy).
  The paper pairs this policy with homogeneous MCMs ("Standalone (Shi)" /
  "Standalone (NVD)").
* **NN-baton-style** -- the single-model scheduler baseline from the
  motivational study: models execute *sequentially*, each on its starting
  chiplet, agnostic to the MCM's heterogeneous composition.
* **Simba-like pipelining** is not a separate class: it is SCAR run on a
  homogeneous MCM template (models may span multiple same-dataflow
  chiplets per window), exactly how the paper constructs that baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.metrics import ScheduleMetrics
from repro.core.schedule import Schedule, Segment, WindowSchedule
from repro.dataflow.database import LayerCostDatabase
from repro.engine.evaluator import CandidateEvaluator
from repro.errors import SchedulingError
from repro.mcm.package import MCM
from repro.workloads.model import Scenario


@dataclass(frozen=True)
class BaselineResult:
    """Schedule and metrics produced by a baseline scheduler."""

    schedule: Schedule
    metrics: ScheduleMetrics


class StandaloneScheduler:
    """One model per chiplet, one segment per model, one time window.

    Chiplets are taken in node order (the MCM is homogeneous in the
    paper's use of this baseline, so the choice is immaterial; on a
    heterogeneous MCM the assignment is still deterministic).
    """

    def __init__(self, mcm: MCM,
                 database: LayerCostDatabase | None = None) -> None:
        self.mcm = mcm
        self.database = database if database is not None \
            else LayerCostDatabase(clock_hz=mcm.clock_hz)

    def schedule(self, scenario: Scenario) -> BaselineResult:
        if len(scenario) > self.mcm.num_chiplets:
            raise SchedulingError(
                f"standalone needs one chiplet per model: {len(scenario)} "
                f"models vs {self.mcm.num_chiplets} chiplets")
        chains = []
        for model, instance in enumerate(scenario):
            segment = Segment(model=model, start=0,
                              stop=instance.num_layers, node=model)
            chains.append((segment,))
        schedule = Schedule(windows=(
            WindowSchedule(index=0, chains=tuple(chains)),))
        evaluator = CandidateEvaluator(scenario, self.mcm, self.database)
        return BaselineResult(schedule=schedule,
                              metrics=evaluator.evaluate(schedule))


class NNBatonScheduler:
    """NN-baton-style sequential single-model scheduling (Sec. II-C).

    Every model runs in its own time window on the starting chiplet
    (node 0), so models serialize end-to-end -- the behaviour the
    motivational study's case (B1) attributes to NN-baton on multi-model
    workloads.
    """

    def __init__(self, mcm: MCM, start_node: int = 0,
                 database: LayerCostDatabase | None = None) -> None:
        self.mcm = mcm
        self.start_node = start_node
        self.database = database if database is not None \
            else LayerCostDatabase(clock_hz=mcm.clock_hz)

    def schedule(self, scenario: Scenario) -> BaselineResult:
        windows = []
        for model, instance in enumerate(scenario):
            segment = Segment(model=model, start=0,
                              stop=instance.num_layers, node=self.start_node)
            windows.append(WindowSchedule(index=model,
                                          chains=((segment,),)))
        schedule = Schedule(windows=tuple(windows))
        evaluator = CandidateEvaluator(scenario, self.mcm, self.database)
        return BaselineResult(schedule=schedule,
                              metrics=evaluator.evaluate(schedule))
