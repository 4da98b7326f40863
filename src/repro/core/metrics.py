"""Schedule evaluator: the Sec. III-E performance model.

Implements, per time window and model chain::

    Lat(sg)   = sum_l Lat_comp(l) + Lat_ip_com(sg) + Lat_op_com(sg)
    Lat(SG_m) = sum_k Lat(sg_k | b') + (b/b' - 1) * max_k Lat(sg_k | b')
    Lat(tw)   = max_m Lat(SG_m)
    Lat(Sc)   = sum_tw Lat(tw)

with the three-case communication model of :mod:`repro.mcm.comm`, static
NoP contention (``delta``) counted as in :mod:`repro.mcm.traffic`, and
energy aggregation over compute + NoP + DRAM.

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

:class:`ScheduleEvaluator` is the one scalar evaluator every policy
scores with (the vector kernel,
:class:`~repro.engine.tensorkernel.TensorEvaluator`, subclasses it).
Besides the segment memos of :class:`~repro.core.evalcache.EvalCache`
it runs two engine-layer concerns:

* **Delta evaluation.**  Search moves -- a GA cut mutation, the next
  placement in an enumeration -- typically change *one* model's chain
  and leave the sibling chains untouched.  A chain's metrics are a pure
  function of (chain structure, the congestion factors on the chain's
  own links), so the evaluator memoizes per-chain results in the
  ``chain`` table and re-costs only the chains whose cut boundaries,
  placement or relevant congestion actually moved.  Results are
  bit-identical with the memo on or off (``EvalCache(enabled=False)``);
  only the amount of recomputation changes.
* **Per-evaluator statistics.**  :class:`EvaluatorStats` counts how many
  segment costings the searches asked for versus how many were actually
  recomputed; :class:`~repro.core.scar.SCARScheduler` copies them into
  its :class:`repro.perf.PerfReport` (``num_segments``,
  ``num_segments_recosted``), which is what the ``BENCH_engine.json``
  trajectory artifact gates on.
"""

# scar: hot -- allocation-linted kernel module (SCAR010)
from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import accumulate
from typing import Any, Callable, NamedTuple, Sequence

from repro.core.evalcache import EvalCache, segment_place_key
from repro.core.schedule import Schedule, Segment, WindowSchedule
from repro.dataflow.database import LayerCostDatabase
from repro.errors import SchedulingError
from repro.mcm.comm import CommModel
from repro.mcm.package import MCM
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


def _window_metrics(index: int, per_model: list[ModelWindowMetrics]
                    ) -> WindowMetrics:
    """A window's metrics from its chains' metrics.

    ``Lat(tw) = max_m Lat(SG_m)``; energy sums over the chains.
    """
    latency = max((m.latency_s for m in per_model), default=0.0)
    energy = sum(m.energy_j for m in per_model)
    return WindowMetrics(index=index, latency_s=latency, energy_j=energy,
                         per_model=tuple(per_model))


@dataclass(frozen=True)
class ScheduleMetrics:
    """Whole-schedule evaluation (the scheduler's optimization surface)."""

    latency_s: float
    energy_j: float
    windows: tuple[WindowMetrics, ...]

    @classmethod
    def from_windows(cls, windows: Sequence[WindowMetrics]
                     ) -> ScheduleMetrics:
        """A schedule's metrics from its windows' metrics, in order.

        ``Lat(Sc) = sum_tw Lat(tw)``; energy sums over the windows.
        """
        ordered = tuple(windows)
        return cls(latency_s=sum(w.latency_s for w in ordered),
                   energy_j=sum(w.energy_j for w in ordered),
                   windows=ordered)

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


class _ModelBytes(NamedTuple):
    """One model's integer byte counts: weight bytes of layers ``< i``
    (a segment's weights are an exact prefix difference) and each
    layer's activation bytes at batch 1 (``b`` times these at batch
    ``b``, so positive exactly when these are)."""

    weight_prefix: tuple[int, ...]
    input_ps: tuple[int, ...]
    output_ps: tuple[int, ...]


@dataclass
class EvaluatorStats:
    """Segment-costing counters of one :class:`ScheduleEvaluator`.

    ``num_segments`` counts every segment of every chain the evaluator
    was asked to cost, a repeated window's chains included;
    ``num_segments_recosted`` counts the subset that actually ran the
    chain cost model.  The difference is the work the ``chain`` memo
    avoided.
    """

    num_segments: int = 0
    num_segments_recosted: int = 0


def _unplaced(segment: Segment) -> SchedulingError:
    """The error for a segment that names no chiplet."""
    return SchedulingError(f"segment {segment} is unplaced")


def chain_delta_key(chain: tuple[Segment, ...],
                    congestion: dict[tuple, float],
                    structure: tuple | None = None) -> tuple:
    """Exact memo key of one chain's metrics inside a window.

    The chain cost model reads, besides the chain itself, only the
    congestion factors of the chain's own transfers: the off-chip input
    of the head segment, each chiplet-to-chiplet hand-off, and the
    off-chip write-back of the tail.  Two windows whose remaining chains
    differ share this chain's metrics iff these factors coincide, so the
    key is (chain structure, those factors in chain order).  Callers
    that already hold the chain's structure tuple (the evaluator
    memoizes it per chain) can pass it to skip rebuilding it.
    """
    if structure is None:
        structure = tuple((seg.model, seg.start, seg.stop, seg.node)
                          for seg in chain)
    return (structure, chain_factors(chain, congestion))


def chain_factors(chain: tuple[Segment, ...],
                  congestion: dict[tuple, float]) -> tuple[float, ...]:
    """The congestion factors one chain reads, in chain order.

    One per segment for its incoming transfer (the head's off-chip
    input, then each hand-off), then one for the tail's off-chip
    write-back; an absent flow reads ``1.0``.
    """
    factors = [congestion.get((None, chain[0].node), 1.0)]
    for pos in range(1, len(chain)):
        factors.append(congestion.get(
            (chain[pos - 1].node, chain[pos].node), 1.0))
    factors.append(congestion.get((chain[-1].node, None), 1.0))
    return tuple(factors)


class ScheduleEvaluator:
    """Evaluates :class:`Schedule` instances on one (scenario, MCM) pair.

    One evaluator is created per scheduling run and shared across the
    run's window searches; all per-layer costs come from the memoized
    :class:`~repro.dataflow.database.LayerCostDatabase`.  Every chain is
    costed through the ``chain`` memo (delta evaluation, see the module
    docstring) and counted in :attr:`stats`.
    """

    def __init__(self, scenario: Scenario, mcm: MCM,
                 database: LayerCostDatabase | None = None,
                 cache: EvalCache | None = None) -> None:
        self.scenario = scenario
        self.mcm = mcm
        self.database = database if database is not None \
            else LayerCostDatabase(clock_hz=mcm.clock_hz)
        self.comm = CommModel(mcm)
        #: Memoized segment and chain costs; valid for this (scenario,
        #: mcm) pair only.
        self.cache = cache if cache is not None else EvalCache()
        # io_hops enters every cache key; MCM.io_hops rescans the package
        # per call, so precompute it once for the hot path.
        self._io_hops = tuple(mcm.io_hops(node)
                              for node in range(mcm.num_chiplets))
        # The congestion pass's memos, pure functions of their keys and
        # so kept for the evaluator's life (one request): byte counts
        # per model, routes per (src, dst) and flow sets per chain.
        self._bytes_memo: dict[int, _ModelBytes] = {}
        self._route_memo: dict[tuple, tuple] = {}
        self._entries_memo: dict[tuple, list] = {}
        self.stats = EvaluatorStats()
        # Chains (tuples of frozen segments) recur across thousands of
        # window placements; memoize their structure tuples so the delta
        # key build does one dict probe instead of a tuple rebuild.
        self._chain_structures: dict[tuple, tuple] = {}

    # -- public API -------------------------------------------------------

    def evaluate(self, schedule: Schedule) -> ScheduleMetrics:
        """Evaluate a complete schedule (validates Theorems 1/2 first)."""
        schedule.validate(self.scenario)
        return ScheduleMetrics.from_windows(
            [self.evaluate_window(w) for w in schedule.windows])

    def evaluate_window(self, window: WindowSchedule) -> WindowMetrics:
        """Evaluate one time window (``Lat(tw) = max_m Lat(SG_m)``).

        Each chain is costed through the ``chain`` memo: a repeated
        window counts its segments again but re-costs none of them.
        """
        return _window_metrics(window.index, self._lookup_chains(
            window, self._chain_metrics))

    def evaluate_windows(self, windows: Sequence[WindowSchedule]
                         ) -> list[WindowMetrics]:
        """Evaluate windows in order: :meth:`evaluate_window` on each.

        The SCHED engine hands a window search's whole candidate list
        here.  The vector kernel overrides it to score the list's
        recosted chains in one batched pass, with the same results,
        cache counters and evaluator statistics as this loop.
        """
        return [self.evaluate_window(window) for window in windows]

    def _lookup_chains(self, window: WindowSchedule,
                       score: Callable[[tuple[Segment, ...],
                                        dict[tuple, float]], Any]
                       ) -> list[Any]:
        """:meth:`_lookup_chain` on each of the window's chains, in
        order, under the window's congestion."""
        congestion = self._window_congestion(window)
        per_model = []
        for chain in window.chains:
            per_model.append(self._lookup_chain(chain, congestion, score))
        return per_model

    def _lookup_chain(self, chain: tuple[Segment, ...],
                      congestion: dict[tuple, float],
                      score: Callable[[tuple[Segment, ...],
                                       dict[tuple, float]], Any]) -> Any:
        """One chain's metrics through the ``chain`` memo.

        Counts the chain's segments; on a ``chain`` table miss (on every
        call with the cache disabled) counts them as recosted too and
        returns ``score(chain, congestion)``.  The sequential path
        scores with :meth:`_chain_metrics`, a pure function of exactly
        the key's inputs, so a hit is bit-identical to a recost; the
        vector kernel's batch passes a scorer that defers the recost
        (see
        :meth:`~repro.engine.tensorkernel.TensorEvaluator.evaluate_windows`).
        """
        self.stats.num_segments += len(chain)

        def recost():
            self.stats.num_segments_recosted += len(chain)
            return score(chain, congestion)

        structure = self._chain_structures.get(chain)
        if structure is None:
            structure = tuple((seg.model, seg.start, seg.stop, seg.node)
                              for seg in chain)
            self._chain_structures[chain] = structure
        return self.cache.lookup(
            "chain", chain_delta_key(chain, congestion, structure), recost)

    # -- layers and costs ---------------------------------------------------

    def _layer(self, model: int, index: int, batch: int) -> Layer:
        # Rebuilt on every call, unlike Model.at_batch, on purpose: the
        # vector kernel bench gates its speedup against this scalar path
        # (see DESIGN.md, "What is memoized where, and for how long").
        return self.scenario[model].model[index].with_batch(batch)

    def _chiplet_of(self, segment: Segment):
        if segment.node is None:
            raise _unplaced(segment)
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

    def _model_bytes(self, model: int) -> _ModelBytes:
        """The model's integer byte counts (built once per evaluator)."""
        counts = self._bytes_memo.get(model)
        if counts is None:
            layers = self.scenario[model].model
            per_sample = layers.at_batch(1)
            counts = _ModelBytes(
                weight_prefix=(0, *accumulate(
                    layer.weight_bytes for layer in layers)),
                input_ps=tuple(layer.input_bytes for layer in per_sample),
                output_ps=tuple(layer.output_bytes for layer in per_sample))
            self._bytes_memo[model] = counts
        return counts

    def _route_for(self, src: int | None, dst: int | None):
        """Memoized directed route of a flow (``traffic._route_of``)."""
        key = (src, dst)
        route = self._route_memo.get(key)
        if route is None:
            topology = self.mcm.topology
            if src is None:
                route = topology.route(self.mcm.nearest_io(dst), dst)
            elif dst is None:
                route = topology.route(src, self.mcm.nearest_io(src))
            else:
                route = topology.route(src, dst)
            self._route_memo[key] = route
        return route

    def _chain_entries(self, chain) -> list[tuple[tuple, tuple, bool]]:
        """One chain's positive-size flows as ``(key, route, offchip)``.

        The transfers are those the chain cost model pays at full batch:
        each segment's weight fetch, the head's off-chip input, each
        hand-off between chiplets and the tail's off-chip write-back.
        Memoized on the chain tuple itself (segments are frozen value
        objects): the same chains recur across the thousands of window
        placements a search scores, and their flow sets are pure
        functions of the chain.
        """
        entries = self._entries_memo.get(chain)
        if entries is not None:
            return entries
        entries = []
        prefix, input_ps, output_ps = self._model_bytes(chain[0].model)
        for pos, segment in enumerate(chain):
            node = segment.node
            if node is None:
                raise _unplaced(segment)
            fetch = ((None, node), self._route_for(None, node), True)
            if prefix[segment.stop] - prefix[segment.start]:
                entries.append(fetch)
            if pos == 0:
                if input_ps[segment.start]:
                    entries.append(fetch)
            else:
                prev = chain[pos - 1]
                if prev.node != node and output_ps[prev.stop - 1]:
                    entries.append(((prev.node, node),
                                    self._route_for(prev.node, node),
                                    False))
        last = chain[-1]
        if output_ps[last.stop - 1]:
            entries.append(((last.node, None),
                            self._route_for(last.node, None), True))
        self._entries_memo[chain] = entries
        return entries

    def _window_congestion(self, window: WindowSchedule) -> dict[tuple, float]:
        """Map (src, dst) endpoint pairs to their delta congestion factor.

        The factors of :func:`~repro.mcm.traffic.contention_factors` over
        the window's full-batch flows -- same integer link loads, same
        off-chip count, same float conversions -- counted off the
        chains' memoized flow sets, without building
        :class:`~repro.mcm.traffic.Flow` objects or batched layers.
        Zero-size and same-chiplet flows are left out: the flow analysis
        gives them factor ``1.0``, which every congestion read
        (``dict.get(key, 1.0)``) already defaults to, so the factors
        read the same.
        """
        per_chain = [self._chain_entries(chain) for chain in window.chains]
        link_load: dict[tuple[int, int], int] = {}
        num_offchip = 0
        for entries in per_chain:
            for _, route, offchip in entries:
                if offchip:
                    num_offchip += 1
                for link in route:
                    link_load[link] = link_load.get(link, 0) + 1
        offchip_f = float(num_offchip)
        congestion: dict[tuple, float] = {}
        for entries in per_chain:
            for key, route, offchip in entries:
                heaviest = 0
                for link in route:
                    load = link_load[link]
                    if load > heaviest:
                        heaviest = load
                factor = float(heaviest) if route else 1.0
                if offchip and offchip_f > factor:
                    factor = offchip_f
                current = congestion.get(key, 1.0)
                congestion[key] = factor if factor > current else current
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
