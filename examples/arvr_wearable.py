"""AR/VR wearable: schedule an XRBench scenario on an edge MCM.

Schedules Scenario 9 ("Social": EyeCod gaze estimation b60, hand tracking
b30, sparse-to-dense depth b30) on the 256-PE edge operating point, shows
which chiplet class each model lands on, and prints the per-window
latency breakdown -- the Fig. 9-style view for the AR/VR suite.

Run:  python examples/arvr_wearable.py
"""

from repro import mcm, workloads
from repro.core import QUICK_BUDGET, SCARScheduler
from repro.dataflow import LayerCostDatabase


def main() -> None:
    scenario = workloads.scenario(9)
    hardware = mcm.build("het_sides_3x3", use_case=scenario.use_case)
    print(hardware.summary())
    print(scenario.summary())
    print()

    # Per-model dataflow affinity (what the scheduler exploits).
    database = LayerCostDatabase(clock_hz=hardware.clock_hz)
    classes = {c.dataflow: c for c in hardware.chiplet_classes()}
    print("per-model dataflow affinity (EDP of whole model per class):")
    for instance in scenario:
        scores = {}
        for name, chiplet in classes.items():
            lat = sum(database.latency_s(layer, chiplet)
                      for layer in instance.layers())
            energy = sum(database.energy_j(layer, chiplet)
                         for layer in instance.layers())
            scores[name] = lat * energy
        best = min(scores, key=scores.get)
        ratio = max(scores.values()) / min(scores.values())
        print(f"  {instance.name:10s} -> {best} ({ratio:.2f}x gap)")
    print()

    result = SCARScheduler(hardware, nsplits=2,
                           budget=QUICK_BUDGET).schedule(scenario)
    print(result.schedule.describe(scenario))
    print()
    for window in result.metrics.windows:
        parts = ", ".join(
            f"{scenario[m.model].name}: {m.latency_s * 1e3:.2f} ms "
            f"(b'={m.minibatch}, tiles={m.tile_factor})"
            for m in window.per_model)
        print(f"window {window.index}: "
              f"{window.latency_s * 1e3:.2f} ms | {parts}")
    print()
    print(result.metrics.summary())


if __name__ == "__main__":
    main()
