"""The evaluator's congestion pass against the flow-level reference.

``ScheduleEvaluator._window_congestion`` counts the Sec. III-E static
NoP contention (``delta``) off memoized per-chain flow sets, and both
kernels run it.  The reference is
:func:`repro.mcm.traffic.contention_factors` over the window's
full-batch transfers, built here from batched layers: one
:class:`~repro.mcm.traffic.Flow` per non-empty weight fetch, per head
input, per hand-off and per tail write-back.  The pass leaves out the
zero-size and same-chiplet flows, which the flow path stores at
``1.0``, so the two are compared through ``.get(key, 1.0)``, the only
way the cost model reads them.
"""

from __future__ import annotations

import pytest

from repro.core import QUICK_BUDGET, SCARScheduler
from repro.core.evalcache import EvalCache
from repro.core.metrics import ScheduleEvaluator
from repro.core.schedule import Segment, WindowSchedule
from repro.mcm import templates
from repro.mcm.traffic import Flow, contention_factors
from repro.workloads import scenario
from repro.workloads.layer import Layer

KERNELS = ["scalar", "vector"]

#: (scenario id, template) per search.  Scenario 2 runs resnet50, whose
#: pooling and residual-add layers carry no weights.
SEARCHES = {
    "het_sides_3x3": (1, "het_sides_3x3"),
    "het_t": (1, "het_t"),
    "het_cross_6x6": (1, "het_cross_6x6"),
    "zero_weight_layers": (2, "het_sides_3x3"),
}


def _evaluator(kernel: str, sc, mcm) -> ScheduleEvaluator:
    if kernel == "vector":
        pytest.importorskip("numpy")
        from repro.engine.tensorkernel import TensorEvaluator
        return TensorEvaluator(sc, mcm, cache=EvalCache())
    return ScheduleEvaluator(sc, mcm, cache=EvalCache())


def _reference(sc, mcm, window: WindowSchedule) -> dict[tuple, float]:
    """The window's factors from ``contention_factors`` over its flows."""
    flows: list[Flow] = []
    for chain in window.chains:
        instance = sc[chain[0].model]
        layers = instance.model
        batch = instance.batch
        for pos, segment in enumerate(chain):
            weight_bytes = float(sum(layers[idx].weight_bytes
                                     for idx in segment.layer_indices()))
            if weight_bytes:
                flows.append(Flow(None, segment.node, weight_bytes))
            if pos == 0:
                first = layers[segment.start].with_batch(batch)
                flows.append(Flow(None, segment.node,
                                  float(first.input_bytes)))
            else:
                prev = chain[pos - 1]
                prev_out = layers[prev.stop - 1].with_batch(batch)
                flows.append(Flow(prev.node, segment.node,
                                  float(prev_out.output_bytes)))
        last = chain[-1]
        last_out = layers[last.stop - 1].with_batch(batch)
        flows.append(Flow(last.node, None, float(last_out.output_bytes)))
    congestion: dict[tuple, float] = {}
    for flow, factor in zip(flows, contention_factors(mcm, flows)):
        key = (flow.src, flow.dst)
        congestion[key] = max(congestion.get(key, 1.0), factor)
    return congestion


def _count_layer_builds(monkeypatch) -> list:
    """Record every ``Layer.with_batch`` call from here on."""
    calls: list = []
    real = Layer.with_batch

    def counted(layer, batch):
        calls.append((layer.name, batch))
        return real(layer, batch)

    monkeypatch.setattr(Layer, "with_batch", counted)
    return calls


def _assert_matches_reference(kernel, sc, mcm, windows, monkeypatch):
    expected = [_reference(sc, mcm, window) for window in windows]
    # A model's per-sample layers are built once per process
    # (Model.at_batch); past that, counting congestion builds no layer.
    for instance in sc:
        instance.model.at_batch(1)
    evaluator = _evaluator(kernel, sc, mcm)
    calls = _count_layer_builds(monkeypatch)
    got = [evaluator._window_congestion(window) for window in windows]
    monkeypatch.undo()
    assert calls == []
    for window, want, have in zip(windows, expected, got):
        for key in want.keys() | have.keys():
            assert have.get(key, 1.0) == want.get(key, 1.0), (window, key)


@pytest.fixture(scope="module", params=list(SEARCHES))
def search(request):
    """(scenario, mcm, windows): every candidate window of one search."""
    scenario_id, template = SEARCHES[request.param]
    sc = scenario(scenario_id)
    mcm = templates.build(template, sc.use_case)
    result = SCARScheduler(mcm, nsplits=2,
                           budget=QUICK_BUDGET).schedule(sc)
    windows = [candidate.window for candidates in result.window_candidates
               for candidate in candidates]
    assert windows
    return sc, mcm, windows


@pytest.mark.parametrize("kernel", KERNELS)
def test_search_candidates_match_reference(kernel, search, monkeypatch):
    sc, mcm, windows = search
    _assert_matches_reference(kernel, sc, mcm, windows, monkeypatch)


def _hand_built_windows(sc, mcm) -> list[WindowSchedule]:
    """Windows that pin the edge cases of the flow analysis."""
    io = next(node for node in range(mcm.num_chiplets)
              if mcm.io_hops(node) == 0)
    inner = max(range(mcm.num_chiplets), key=mcm.io_hops)
    gpt, bert, resnet = (len(sc[m].model) for m in range(3))
    weightless = next(idx for idx, layer in enumerate(sc[2].model)
                      if layer.weight_bytes == 0)
    assert mcm.io_hops(inner) > 0
    return [
        # A head on an I/O chiplet: its off-chip routes are empty.
        WindowSchedule(index=0, chains=(
            (Segment(0, 0, gpt, node=io),),
            (Segment(1, 0, bert, node=inner),))),
        # A hand-off that stays on one chiplet.
        WindowSchedule(index=0, chains=(
            (Segment(1, 0, 2, node=inner), Segment(1, 2, bert, node=inner)),)),
        # Two chains sharing a chiplet, and links.
        WindowSchedule(index=0, chains=(
            (Segment(0, 0, 2, node=inner), Segment(0, 2, gpt, node=io)),
            (Segment(1, 0, bert, node=inner),))),
        # A segment of one weightless layer between two that carry weights.
        WindowSchedule(index=0, chains=(
            (Segment(2, 0, weightless, node=io),
             Segment(2, weightless, weightless + 1, node=inner),
             Segment(2, weightless + 1, resnet, node=io)),)),
    ]


@pytest.mark.parametrize("template", ["het_sides_3x3", "het_t"])
@pytest.mark.parametrize("kernel", KERNELS)
def test_hand_built_windows_match_reference(kernel, template, monkeypatch):
    sc = scenario(2)
    mcm = templates.build(template, sc.use_case)
    windows = _hand_built_windows(sc, mcm)
    _assert_matches_reference(kernel, sc, mcm, windows, monkeypatch)
    io = windows[0].chains[0][0].node
    head_on_io = _evaluator(kernel, sc, mcm)._window_congestion(windows[0])
    # The head's off-chip route is empty, so its factor is the window's
    # off-chip flow count: a weight fetch, an input and a write-back
    # for each of the two chains.
    assert head_on_io[(None, io)] == 6.0
