"""Schedule evaluator: the Sec. III-E performance model.

Implements, per time window and model chain::

    Lat(sg)   = sum_l Lat_comp(l) + Lat_ip_com(sg) + Lat_op_com(sg)
    Lat(SG_m) = sum_k Lat(sg_k | b') + (b/b' - 1) * max_k Lat(sg_k | b')
    Lat(tw)   = max_m Lat(SG_m)
    Lat(Sc)   = sum_tw Lat(tw)

with the three-case communication model of :mod:`repro.mcm.comm`, static
NoP contention (``delta``) from :mod:`repro.mcm.traffic`, and energy
aggregation over compute + NoP + DRAM.

Modeling decisions (see DESIGN.md):

* The pipelining mini-batch ``b'`` is searched over the divisors of the
  instance batch; the latency-minimizing value is used.
* Inter-chiplet pipelining additionally streams each mini-batch in ``t``
  spatial tiles (t in ``_TILE_FACTORS``): data-proportional costs divide
  by ``t`` while fixed per-transfer latencies (NoP hops, DRAM access) are
  paid per tile.  This is the paper's fine-grained inter-layer pipelining
  (without it, batch-1 workloads such as U-Net could never benefit from a
  multi-chiplet chain).
* A segment's weights are *resident* when they fit in the chiplet L2 next
  to the activation working set; non-resident weights are re-streamed from
  DRAM every mini-batch (this is what makes mapping a large model onto a
  single chiplet expensive, the paper's core motivation for pipelining).
* Inter-segment activation transfers are attributed to the receiving
  segment (``ip_com``); the final segment pays the off-chip write-back
  (``op_com``).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from repro.core.evalcache import EvalCache, segment_place_key, window_key
from repro.core.schedule import Schedule, Segment, WindowSchedule
from repro.dataflow.database import LayerCostDatabase
from repro.errors import SchedulingError
from repro.mcm.comm import CommModel
from repro.mcm.package import MCM
from repro.mcm.traffic import Flow, contention_factors
from repro.workloads.layer import Layer
from repro.workloads.model import Scenario


@functools.lru_cache(maxsize=None)
def _divisors(value: int) -> tuple[int, ...]:
    """Divisors of ``value`` in ascending order (O(sqrt n) enumeration).

    Memoized: every chain costing of a batch-``b`` model asks for the
    same tuple, and distinct batch sizes per process number a handful.
    """
    small: list[int] = []
    large: list[int] = []
    d = 1
    while d * d <= value:
        if value % d == 0:
            small.append(d)
            if d != value // d:
                large.append(value // d)
        d += 1
    return tuple(small + large[::-1])


#: Spatial tile factors tried for fine-grained inter-chiplet pipelining.
_TILE_FACTORS = (1, 2, 4, 8, 16)


@dataclass(frozen=True)
class ModelWindowMetrics:
    """One model's chain metrics inside one window."""

    model: int
    latency_s: float
    energy_j: float
    minibatch: int
    tile_factor: int
    segment_latencies_s: tuple[float, ...]


@dataclass(frozen=True)
class WindowMetrics:
    """Aggregated metrics of one time window."""

    index: int
    latency_s: float
    energy_j: float
    per_model: tuple[ModelWindowMetrics, ...]

    @functools.cached_property
    def _latency_by_model(self) -> dict[int, float]:
        # cached_property writes instance.__dict__ directly, which works
        # on frozen dataclasses; equality/hash still derive from the
        # declared fields only.
        return {entry.model: entry.latency_s for entry in self.per_model}

    def model_latency(self, model: int) -> float:
        """Latency of a model's chain in this window (0 if absent)."""
        return self._latency_by_model.get(model, 0.0)


@dataclass(frozen=True)
class ScheduleMetrics:
    """Whole-schedule evaluation (the scheduler's optimization surface)."""

    latency_s: float
    energy_j: float
    windows: tuple[WindowMetrics, ...]

    @property
    def edp(self) -> float:
        """Energy-delay product in J*s."""
        return self.latency_s * self.energy_j

    def model_latency(self, model: int) -> float:
        """Cumulative latency of one model across windows."""
        return sum(w.model_latency(model) for w in self.windows)

    def summary(self) -> str:
        return (f"latency {self.latency_s * 1e3:.3f} ms, "
                f"energy {self.energy_j * 1e3:.3f} mJ, "
                f"EDP {self.edp * 1e3:.4f} mJ.s")


@dataclass(frozen=True)
class _SegmentCost:
    """Pre-resolved per-segment quantities reused across mini-batch trials.

    Node-id independent (everything derives from the segment's placement
    class), so instances live in the ``static`` table of the
    :class:`~repro.core.evalcache.EvalCache` and are shared across
    candidates that place the same sub-chain on any same-class chiplet.
    """

    weight_bytes: float
    resident: bool
    weight_load_var_s: float
    weight_load_fix_s: float
    weight_load_j: float

    @property
    def weight_load_s(self) -> float:
        return self.weight_load_var_s + self.weight_load_fix_s


class ScheduleEvaluator:
    """Evaluates :class:`Schedule` instances on one (scenario, MCM) pair.

    One evaluator is created per experiment and shared across the search;
    all per-layer costs come from the memoized
    :class:`~repro.dataflow.database.LayerCostDatabase`.
    """

    def __init__(self, scenario: Scenario, mcm: MCM,
                 database: LayerCostDatabase | None = None,
                 cache: EvalCache | None = None) -> None:
        self.scenario = scenario
        self.mcm = mcm
        self.database = database if database is not None \
            else LayerCostDatabase(clock_hz=mcm.clock_hz)
        self.comm = CommModel(mcm)
        #: Memoized segment/window costs; valid for this (scenario, mcm)
        #: pair only.
        self.cache = cache if cache is not None else EvalCache()
        # io_hops enters every cache key; MCM.io_hops rescans the package
        # per call, so precompute it once for the hot path.
        self._io_hops = tuple(mcm.io_hops(node)
                              for node in range(mcm.num_chiplets))

    # -- public API -------------------------------------------------------

    def evaluate(self, schedule: Schedule, *,
                 validate: bool = True) -> ScheduleMetrics:
        """Evaluate a complete schedule (validates Theorems 1/2 first)."""
        if validate:
            schedule.validate(self.scenario)
        windows = tuple(self.evaluate_window(w) for w in schedule.windows)
        return ScheduleMetrics(
            latency_s=sum(w.latency_s for w in windows),
            energy_j=sum(w.energy_j for w in windows),
            windows=windows,
        )

    def evaluate_window(self, window: WindowSchedule) -> WindowMetrics:
        """Evaluate one time window (``Lat(tw) = max_m Lat(SG_m)``).

        Results are memoized on the window's structure, so duplicate
        placements produced by the search (and the final re-evaluation of
        the winning schedule) are free.
        """
        return self.cache.lookup("window", window_key(window),
                                 lambda: self._evaluate_window(window))

    def _evaluate_window(self, window: WindowSchedule) -> WindowMetrics:
        congestion = self._window_congestion(window)
        per_model = []
        for chain in window.chains:
            per_model.append(self._chain_metrics_cached(chain, congestion))
        latency = max((m.latency_s for m in per_model), default=0.0)
        energy = sum(m.energy_j for m in per_model)
        return WindowMetrics(index=window.index, latency_s=latency,
                             energy_j=energy, per_model=tuple(per_model))

    def _chain_metrics_cached(self, chain: tuple[Segment, ...],
                              congestion: dict[tuple, float]
                              ) -> ModelWindowMetrics:
        """Chain-costing hook: the base evaluator always recomputes.

        :class:`repro.engine.CandidateEvaluator` overrides this with the
        delta-evaluation fast path (memoize by chain structure + the
        congestion factors the chain actually reads), which is
        bit-identical because :meth:`_chain_metrics` is a pure function
        of exactly those inputs.
        """
        return self._chain_metrics(chain, congestion)

    # -- layers and costs ---------------------------------------------------

    def _layer(self, model: int, index: int, batch: int) -> Layer:
        return self.scenario[model].model[index].with_batch(batch)

    def _chiplet_of(self, segment: Segment):
        if segment.node is None:
            raise SchedulingError(f"segment {segment} is unplaced")
        return self.mcm.chiplet(segment.node)

    def _segment_compute(self, segment: Segment,
                         batch: int) -> tuple[float, float]:
        """(latency_s, energy_j) of a segment's compute at ``batch``.

        Cached by placement class rather than node id: the compute terms
        depend only on the chiplet class and the node's distance to its
        off-chip interface, so same-class placements share one entry.
        """
        chiplet = self._chiplet_of(segment)
        assert segment.node is not None
        key = (*segment_place_key(segment, chiplet,
                                  self._io_hops[segment.node]), batch)
        return self.cache.lookup(
            "compute", key,
            lambda: self._segment_compute_uncached(segment, chiplet, batch))

    def _segment_compute_uncached(self, segment: Segment, chiplet,
                                  batch: int) -> tuple[float, float]:
        latency = 0.0
        energy = 0.0
        for idx in segment.layer_indices():
            cost = self.database.cost(
                self._layer(segment.model, idx, batch), chiplet)
            latency += cost.latency_s(self.database.clock_hz)
            energy += cost.energy_j()
            # Intra-layer DRAM re-fetch rounds also pay the off-chip channel.
            if cost.dram_refetch_bytes > 0:
                extra = self.comm.offchip(cost.dram_refetch_bytes,
                                          segment.node)
                latency += extra.latency_s
                energy += extra.energy_j
        return latency, energy

    def _segment_weight_bytes(self, segment: Segment) -> float:
        return float(sum(
            self.scenario[segment.model].model[idx].weight_bytes
            for idx in segment.layer_indices()))

    # -- contention ---------------------------------------------------------

    def _window_flows(self, window: WindowSchedule) -> list[Flow]:
        """All logical transfers active in a window (full-batch sizes)."""
        flows: list[Flow] = []
        for chain in window.chains:
            batch = self.scenario[chain[0].model].batch
            for pos, segment in enumerate(chain):
                weight_bytes = self._segment_weight_bytes(segment)
                if weight_bytes:
                    flows.append(Flow(src=None, dst=segment.node,
                                      size_bytes=weight_bytes))
                first_layer = self._layer(segment.model, segment.start, batch)
                if pos == 0:
                    flows.append(Flow(src=None, dst=segment.node,
                                      size_bytes=float(first_layer.input_bytes)))
                else:
                    prev = chain[pos - 1]
                    prev_out = self._layer(prev.model, prev.stop - 1, batch)
                    flows.append(Flow(src=prev.node, dst=segment.node,
                                      size_bytes=float(prev_out.output_bytes)))
            last = chain[-1]
            last_out = self._layer(last.model, last.stop - 1, batch)
            flows.append(Flow(src=last.node, dst=None,
                              size_bytes=float(last_out.output_bytes)))
        return flows

    def _window_congestion(self, window: WindowSchedule) -> dict[tuple, float]:
        """Map (src, dst) endpoint pairs to their delta congestion factor."""
        flows = self._window_flows(window)
        factors = contention_factors(self.mcm, flows)
        congestion: dict[tuple, float] = {}
        for flow, factor in zip(flows, factors):
            key = (flow.src, flow.dst)
            congestion[key] = max(congestion.get(key, 1.0), factor)
        return congestion

    # -- chain (model-in-window) evaluation ----------------------------------

    def _chain_metrics(self, chain: tuple[Segment, ...],
                       congestion: dict[tuple, float]) -> ModelWindowMetrics:
        model = chain[0].model
        batch = self.scenario[model].batch
        seg_costs = [self._segment_static(seg) for seg in chain]

        best: ModelWindowMetrics | None = None
        for minibatch in _divisors(batch):
            for tile in _TILE_FACTORS:
                candidate = self._chain_at_minibatch(
                    chain, seg_costs, batch, minibatch, tile, congestion)
                if best is None \
                        or candidate.latency_s < best.latency_s - 1e-15:
                    best = candidate
        assert best is not None
        return best

    def _segment_static(self, segment: Segment) -> _SegmentCost:
        """Mini-batch-independent segment quantities (weights, residency)."""
        chiplet = self._chiplet_of(segment)
        assert segment.node is not None
        key = segment_place_key(segment, chiplet,
                                self._io_hops[segment.node])
        return self.cache.lookup(
            "static", key,
            lambda: self._segment_static_uncached(segment, chiplet))

    def _segment_static_uncached(self, segment: Segment,
                                 chiplet) -> _SegmentCost:
        weight_bytes = self._segment_weight_bytes(segment)
        # Activation working set: heaviest single-layer in/out at batch 1
        # (mini-batch streams at least one sample at a time).
        act_bytes = max(
            (self._layer(segment.model, idx, 1).input_bytes
             + self._layer(segment.model, idx, 1).output_bytes
             for idx in segment.layer_indices()),
            default=0)
        resident = weight_bytes + act_bytes <= chiplet.sram_bytes
        var, fix, energy = self.comm.offchip_parts(weight_bytes, segment.node)
        return _SegmentCost(weight_bytes=weight_bytes,
                            resident=resident, weight_load_var_s=var,
                            weight_load_fix_s=fix, weight_load_j=energy)

    def _chain_at_minibatch(self, chain: tuple[Segment, ...],
                            seg_costs: list[_SegmentCost], batch: int,
                            minibatch: int, tile: int,
                            congestion: dict[tuple, float]) -> ModelWindowMetrics:
        """Pipeline latency/energy at a fixed (mini-batch, tile factor).

        Each mini-batch streams through the chain in ``tile`` spatial
        tiles: data-proportional latency (compute, serialization, weight
        re-streaming) divides by ``tile``; fixed per-transfer latency
        (hop propagation, DRAM access) is paid once per tile.  Energy is
        tile-invariant.
        """
        model = chain[0].model
        num_minibatches = batch // minibatch
        per_tile: list[float] = []
        energy = 0.0

        for pos, (segment, static) in enumerate(zip(chain, seg_costs)):
            comp_s, comp_j = self._segment_compute(segment, minibatch)
            energy += comp_j * num_minibatches
            var_s = comp_s
            fix_s = 0.0

            # ip_com: incoming activations (off-chip for the head segment,
            # NoP from the predecessor otherwise).
            if pos == 0:
                first = self._layer(model, segment.start, minibatch)
                v, f, e = self.comm.offchip_parts(
                    float(first.input_bytes), segment.node,
                    congestion.get((None, segment.node), 1.0))
            else:
                prev = chain[pos - 1]
                prev_out = self._layer(model, prev.stop - 1, minibatch)
                v, f, e = self.comm.chiplet_parts(
                    float(prev_out.output_bytes), prev.node, segment.node,
                    congestion.get((prev.node, segment.node), 1.0))
            var_s += v
            fix_s += f
            energy += e * num_minibatches

            # op_com: only the tail segment writes results off-chip.
            if pos == len(chain) - 1:
                out_layer = self._layer(model, segment.stop - 1, minibatch)
                v, f, e = self.comm.offchip_parts(
                    float(out_layer.output_bytes), segment.node,
                    congestion.get((segment.node, None), 1.0))
                var_s += v
                fix_s += f
                energy += e * num_minibatches

            if static.resident:
                energy += static.weight_load_j
            else:
                # Weights re-streamed every mini-batch pass.
                var_s += static.weight_load_var_s
                fix_s += static.weight_load_fix_s
                energy += static.weight_load_j * num_minibatches
            per_tile.append(var_s / tile + fix_s)

        units = num_minibatches * tile
        fill = sum(per_tile)
        # One-time weight pre-load for resident segments (conservative
        # serial fill; no further overlap assumed).
        fill += sum(s.weight_load_s for s in seg_costs if s.resident)
        latency = fill + (units - 1) * max(per_tile)
        return ModelWindowMetrics(
            model=model, latency_s=latency, energy_j=energy,
            minibatch=minibatch, tile_factor=tile,
            segment_latencies_s=tuple(per_tile))
