"""Time-window characterization and layer packing (MCM-Reconfig, Alg. 1).

The MCM-Reconfig engine splits the scheduling horizon into ``nsplits + 1``
periodic time windows and packs each model's layers into them with the
paper's first-fit greedy heuristic (Algorithm 1): a layer joins the current
window if its *expected* execution time (Eq. 1) fits in the remaining
slack, otherwise the model's remaining layers defer to the next window.
The final window is unbounded, and windows that receive no layers are
dropped ("dynamically controlling the number of time windows").

A uniform packing baseline (equal layer counts per window) is provided for
the Sec. V-E packing ablation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dataflow.database import LayerCostDatabase
from repro.errors import SchedulingError
from repro.mcm.package import MCM
from repro.workloads.model import Scenario

#: Valid ``packing`` modes: Algorithm 1, or the uniform baseline.
PACKING_MODES = ("greedy", "uniform")

#: Largest ``nsplits`` a request may ask for.  The paper sweeps 1-5
#: (default 4), and at 1,024 scenario 4 already packs into a single
#: window; the horizon is divided by ``nsplits + 1`` as a float, so an
#: integer of hundreds of digits would overflow mid-search.
MAX_NSPLITS = 1024


@dataclass(frozen=True)
class WindowAssignment:
    """Layers each model contributes to one window: (model, start, stop)."""

    index: int
    ranges: tuple[tuple[int, int, int], ...]

    def range_for(self, model: int) -> tuple[int, int] | None:
        for m, start, stop in self.ranges:
            if m == model:
                return (start, stop)
        return None

    @property
    def models(self) -> tuple[int, ...]:
        return tuple(m for m, _, _ in self.ranges)

    @property
    def total_layers(self) -> int:
        return sum(stop - start for _, start, stop in self.ranges)


@dataclass(frozen=True)
class PackingPlan:
    """An ordered, validated window partitioning (Theorem 2 holds)."""

    windows: tuple[WindowAssignment, ...]

    @property
    def num_windows(self) -> int:
        return len(self.windows)

    def validate(self, scenario: Scenario) -> None:
        """Check every model's layers are exactly covered, in order."""
        cursors = [0] * len(scenario)
        for window in self.windows:
            for model, start, stop in window.ranges:
                if start != cursors[model]:
                    raise SchedulingError(
                        f"model {model}: window {window.index} starts at "
                        f"{start}, expected {cursors[model]}")
                if stop <= start:
                    raise SchedulingError(
                        f"model {model}: empty range in window "
                        f"{window.index}")
                cursors[model] = stop
        for model, cursor in enumerate(cursors):
            if cursor != scenario[model].num_layers:
                raise SchedulingError(
                    f"model {model}: covered {cursor} of "
                    f"{scenario[model].num_layers} layers")


def expected_layer_latencies(scenario: Scenario, mcm: MCM,
                             database: LayerCostDatabase) -> list[list[float]]:
    """``E(Lat(l))`` per (model, layer) over the MCM composition (Eq. 1).

    Latencies are at the instance batch size (the unit the greedy packer
    budgets with).
    """
    counts = mcm.dataflow_counts()
    classes = {c.dataflow: c for c in mcm.chiplet_classes()}
    total = mcm.num_chiplets
    expected: list[list[float]] = []
    for instance in scenario:
        row = []
        for layer in instance.layers():
            value = 0.0
            for dataflow, count in counts.items():
                value += (count / total) * database.latency_s(
                    layer, classes[dataflow])
            row.append(value)
        expected.append(row)
    return expected


def expected_layer_energies(scenario: Scenario, mcm: MCM,
                            database: LayerCostDatabase) -> list[list[float]]:
    """Expected per-layer energy over the MCM composition (Eq. 1 analogue)."""
    counts = mcm.dataflow_counts()
    classes = {c.dataflow: c for c in mcm.chiplet_classes()}
    total = mcm.num_chiplets
    expected: list[list[float]] = []
    for instance in scenario:
        row = []
        for layer in instance.layers():
            value = 0.0
            for dataflow, count in counts.items():
                value += (count / total) * database.energy_j(
                    layer, classes[dataflow])
            row.append(value)
        expected.append(row)
    return expected


def _build_plan(per_model_windows: list[list[list[int]]],
                scenario: Scenario) -> PackingPlan:
    """Assemble a plan from per-model per-window layer-index lists."""
    max_windows = max(len(w) for w in per_model_windows)
    windows: list[WindowAssignment] = []
    for win_idx in range(max_windows):
        ranges = []
        for model, model_windows in enumerate(per_model_windows):
            if win_idx >= len(model_windows) or not model_windows[win_idx]:
                continue
            layers = model_windows[win_idx]
            ranges.append((model, layers[0], layers[-1] + 1))
        if ranges:
            windows.append(WindowAssignment(index=len(windows),
                                            ranges=tuple(ranges)))
    if not windows:
        raise SchedulingError("packing produced no windows")
    plan = PackingPlan(windows=tuple(windows))
    plan.validate(scenario)
    return plan


def greedy_pack(scenario: Scenario, expected: list[list[float]],
                nsplits: int) -> PackingPlan:
    """Algorithm 1: first-fit greedy layer packing into periodic windows.

    ``expected[m][l]`` is the Eq. (1) expected latency of layer ``l`` of
    model ``m``.  The horizon is the worst-case (largest) expected model
    latency, cut into ``nsplits + 1`` equal periods; the last window is
    unbounded.
    """
    if nsplits < 0:
        raise SchedulingError(f"nsplits must be >= 0, got {nsplits}")
    num_windows = nsplits + 1
    horizon = max(sum(row) for row in expected)
    period = horizon / num_windows
    boundaries = [period * (i + 1) for i in range(num_windows)]

    per_model: list[list[list[int]]] = []
    for model, row in enumerate(expected):
        model_windows: list[list[int]] = [[] for _ in range(num_windows)]
        win_idx = 0
        used = 0.0
        for layer_idx, cost in enumerate(row):
            while True:
                if win_idx >= num_windows - 1:
                    # Final window: unbounded slack.
                    model_windows[num_windows - 1].append(layer_idx)
                    used += cost
                    break
                slack = boundaries[win_idx] - used
                if cost <= slack:
                    model_windows[win_idx].append(layer_idx)
                    used += cost
                    break
                # Defer to the next window; account the skipped slack.
                used = boundaries[win_idx]
                win_idx += 1
        per_model.append(model_windows)
    return _build_plan(per_model, scenario)


def uniform_pack(scenario: Scenario, nsplits: int) -> PackingPlan:
    """Ablation baseline: equal layer counts per window, per model."""
    if nsplits < 0:
        raise SchedulingError(f"nsplits must be >= 0, got {nsplits}")
    num_windows = nsplits + 1
    per_model: list[list[list[int]]] = []
    for instance in scenario:
        total = instance.num_layers
        base, extra = divmod(total, num_windows)
        model_windows: list[list[int]] = []
        cursor = 0
        for win in range(num_windows):
            size = base + (1 if win < extra else 0)
            model_windows.append(list(range(cursor, cursor + size)))
            cursor += size
        per_model.append(model_windows)
    return _build_plan(per_model, scenario)
