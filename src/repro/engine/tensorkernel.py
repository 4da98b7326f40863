"""Vectorized cost kernel: numpy tensor scoring of the Sec. III-E model.

:class:`TensorEvaluator` is a drop-in
:class:`~repro.core.metrics.ScheduleEvaluator` whose chain costing
(:meth:`~repro.core.metrics.ScheduleEvaluator._chain_metrics`, the ~90%
hot path of every search) scores every chain of a batch at every
mini-batch divisor x tile factor in one fixed sequence of numpy passes
instead of the scalar evaluator's nested Python loops.  A window
search hands its whole candidate list to :meth:`evaluate_windows`,
which walks the windows through the same chain memo as the sequential
path and scores the chains that missed it together.
The memos, statistics and the search strategies behave exactly as in
the scalar kernel, so ``num_evaluated`` / ``num_segments`` /
``num_segments_recosted`` report identically in either mode.

Tensor layout
-------------

Each model has one float64 **row store** of shape ``(rows, D)`` (``D``
= divisors of the instance batch): every row is one quantity at every
mini-batch.  It holds a zero row, a ones row and the mini-batch count
row; the exact ``sizes / bandwidth`` serialization rows of every
layer's off-chip input, off-chip output and NoP output; the off-chip
and NoP energy rows per hop count; and, per placement class ``(chiplet
class_key, io_hops)``, the compute latency and energy of every ``(start,
stop)`` sub-chain (``L`` = model layers, ``(L+1)**2`` rows each), DRAM
re-fetch terms included.  Blocks are appended as a search first needs
them.

A chain's *plan* names, per segment, seven rows --
compute latency, input-transfer and output-transfer serialization,
compute energy, input and output transfer energy, and the weight-energy
multiplier (ones when resident, the mini-batch count when re-streamed)
-- plus three scalars: the weight re-stream latency, the weight energy
and the fixed per-tile latency.  A batch groups its chains by ``(model,
K)`` (``K`` = chain length); a group of ``N`` chains is one ``(N, K,
7)`` index array, so one fancy-index gather yields every term of every
segment as ``(N, K, 7, D)`` rows, and the whole group is scored by the
same few dozen numpy calls whatever ``N`` and ``K`` are.

Every table lives as long as its evaluator, which is one request.  The
batched layers the tables are built from do not: they come from
:meth:`~repro.workloads.model.Model.at_batch`, which keeps them on the
model, so a zoo model's layers at a given mini-batch are built once per
process, not once per request.

Exactness contract
------------------

The vector path is **bit-identical** to the scalar path, not
approximately equal: every element of the batch sees the scalar path's
operations in the scalar order.

* Sub-chain tables are built with ``np.cumsum`` over an interleaved
  ``[compute_0, refetch_0, compute_1, refetch_1, ...]`` stream --
  ``cumsum`` accumulates strictly left-to-right, reproducing the scalar
  loop's ``((lat + compute_i) + refetch_i)`` association (a re-fetch term
  of ``0.0`` is an exact no-op on non-negative partial sums).  Plain
  ``np.sum`` is never used: its pairwise reduction changes association.
* A term the scalar path skips or adds as ``0.0`` (no transfer, a
  resident segment's re-stream latency, the output transfer of a
  non-tail segment) is an exact zero row, and every partial sum is
  non-negative, so adding it is a bitwise no-op.  Congestion factors
  multiply every serialization row; a factor of ``1.0`` is the scalar
  path's own ``* max(congestion, 1.0)``.
* Sums across segments (the pipeline fill) and across a chain's energy
  terms (four per segment, in the scalar order) run left to right
  along one axis with ``np.cumsum``; elementwise arithmetic mirrors
  :class:`~repro.mcm.comm.CommModel` operation for operation, and
  IEEE-754 elementwise ops are deterministic per element.  The maximum
  over segments is exact in any order.
* Each chain picks its winning ``(minibatch, tile)`` with the scalar
  loop's ``1e-15`` improvement rule: the row's first minimum is the
  scalar winner when it is the only value within the epsilon band, and
  a near-tie replays the scalar iteration order on that row.

``benchmarks/test_kernel_vector.py`` gates both the parity and the
speedup; the randomized property tests in ``tests/test_tensorkernel.py``
assert ``ScheduleResult.same_payload`` across scenarios, batches and
topologies.  The scalar path remains the default everywhere
(``eval_mode=None`` resolves to ``"scalar"``) and keeps working without
numpy installed: numpy is imported the first time the vector kernel is
asked for, never at module import.  ``eval_mode="vector"`` without numpy
raises :class:`~repro.errors.ConfigError` (wire code ``config_error``,
HTTP 400 through the service).
"""

# scar: hot -- allocation-linted kernel module (SCAR010)
from __future__ import annotations

import mmap
from array import array
from typing import Sequence

from repro.core.evalcache import EvalCache, Pending
from repro.core.metrics import (
    _TILE_FACTORS,
    ModelWindowMetrics,
    ScheduleEvaluator,
    WindowMetrics,
    _divisors,
    _ModelBytes,
    _window_metrics,
    chain_factors,
)
from repro.core.schedule import Segment, WindowSchedule
from repro.dataflow.database import LayerCostDatabase
from repro.errors import ConfigError
from repro.mcm.package import MCM
from repro.workloads.layer import Layer
from repro.workloads.model import Scenario

#: ``_np`` before the first :func:`_numpy` call.
_UNLOADED = object()

#: The numpy module once loaded; ``None`` when it is not installed.
#: numpy is an optional extra and the scalar path never needs it, so it
#: loads on first use, not at import.
_np = _UNLOADED

#: The evaluator modes a Session or SCARScheduler may name (``eval_mode``).
EVAL_MODES = ("scalar", "vector")

#: Fixed rows at the head of every model's row store.
_ZERO_ROW, _ONES_ROW, _NUM_MB_ROW = 0, 1, 2

#: Row-index columns of one segment in a chain plan.
_PLAN_COLUMNS = 7


def _numpy():
    """The numpy module, importing it on first call (``None`` if absent)."""
    global _np
    if _np is _UNLOADED:
        try:
            import numpy
        except ImportError:  # pragma: no cover - exercised via monkeypatch
            _np = None
        else:
            _np = numpy
    return _np


def have_numpy() -> bool:
    """Whether the vector kernel's numpy dependency is importable."""
    return _numpy() is not None


def require_numpy() -> None:
    """Raise a wire-stable :class:`ConfigError` when numpy is missing."""
    if _numpy() is None:
        raise ConfigError(
            "eval_mode='vector' requires numpy, which is not installed; "
            "install the optional extra (pip install 'repro-scar[vector]') "
            "or use eval_mode='scalar'")


def check_eval_mode(eval_mode: str | None) -> str:
    """The kernel ``eval_mode`` names (``None`` = ``"scalar"``).

    The one validation shared by :class:`~repro.api.session.Session` and
    :class:`~repro.core.scar.SCARScheduler`: an unknown name, or
    ``"vector"`` without numpy, raises :class:`ConfigError`.
    """
    mode = "scalar" if eval_mode is None else eval_mode
    if mode not in EVAL_MODES:
        raise ConfigError(f"unknown eval_mode {eval_mode!r}; "
                          f"expected one of {EVAL_MODES}")
    if mode == "vector":
        require_numpy()
    return mode


def _scalar_winner(latencies: list[float]) -> int:
    """Flat index the scalar loop settles on (divisors outer, tiles inner)."""
    best = 0
    best_lat = None
    for index, lat in enumerate(latencies):
        if best_lat is None or lat < best_lat - 1e-15:
            best_lat = lat
            best = index
    return best


class _ModelTables:
    """Per-model mini-batch axis, byte counts and the row store.

    ``rows`` is the ``(capacity, D)`` float64 store the chain kernel
    gathers from (see the module docstring).  Its capacity is the most
    rows the evaluator can ever ask for -- a block per placement class,
    per off-chip hop count and per NoP hop count -- so it never grows
    or moves.  It lives in its own anonymous memory mapping, which
    starts zero-filled and holds in memory only the pages written: the
    capacity of blocks never built costs address space, not memory,
    and all of it returns to the system when the store is dropped (a
    numpy allocation of that size may come from the heap, or from huge
    pages, and hold more).  :meth:`new_block` hands out the next rows.
    The store opens with the zero, ones and mini-batch count rows, then
    the ``L``-row serialization blocks at ``in_var_off`` /
    ``out_var_off`` / ``out_var_nop`` (exact ``minibatch *
    per_sample`` bytes over the package's bandwidth, the congestion
    factor being the only per-window multiplier left).  ``in_e_off`` /
    ``out_e_off`` / ``out_e_nop`` map a hop count to its energy block.

    ``input_sizes`` / ``output_sizes`` are the ``(L, D)`` exact byte
    tables the energy blocks are built from (the integer per-sample
    counts they scale are the evaluator's
    :meth:`~repro.core.metrics.ScheduleEvaluator._model_bytes`).
    ``num_mb_f`` and ``units_m1_f`` pre-convert the integer pipelining
    axes to float64 (exact for these magnitudes).
    """

    __slots__ = ("divisors", "num_layers", "num_mb_f", "units_m1_f",
                 "input_sizes", "output_sizes", "rows", "num_rows",
                 "in_var_off", "out_var_off", "out_var_nop", "in_e_off",
                 "out_e_off", "out_e_nop")

    def __init__(self, divisors, num_mb_f, units_m1_f, input_sizes,
                 output_sizes, offchip_denom, nop_denom, capacity):
        self.divisors = divisors
        self.num_layers = len(input_sizes)
        self.num_mb_f = num_mb_f
        self.units_m1_f = units_m1_f
        self.input_sizes = input_sizes
        self.output_sizes = output_sizes
        self.rows = _np.frombuffer(mmap.mmap(
            -1, capacity * len(divisors) * 8, flags=mmap.MAP_PRIVATE)
        ).reshape(capacity, len(divisors))
        self.num_rows = 0
        _, fixed = self.new_block(3)
        fixed[_ZERO_ROW] = 0.0
        fixed[_ONES_ROW] = 1.0
        fixed[_NUM_MB_ROW] = num_mb_f
        self.in_var_off = self.add_rows(input_sizes / offchip_denom)
        self.out_var_off = self.add_rows(output_sizes / offchip_denom)
        self.out_var_nop = self.add_rows(output_sizes / nop_denom)
        self.in_e_off: dict[int, int] = {}
        self.out_e_off: dict[int, int] = {}
        self.out_e_nop: dict[int, int] = {}

    def new_block(self, count: int):
        """The next ``count`` rows: ``(first row index, writable view)``."""
        first = self.num_rows
        self.num_rows = first + count
        assert self.num_rows <= len(self.rows), "row store capacity"
        return first, self.rows[first:self.num_rows]

    def add_rows(self, block) -> int:
        """Append ``block`` (``(n, D)``); return its first row index."""
        first, rows = self.new_block(len(block))
        rows[:] = block
        return first


class _ChainGroup:
    """The deferred recosts of one ``(model, K)`` batch group.

    ``positions`` are the recosts' indices in the batch; ``rows`` holds
    their plans' row indices and ``values`` their plans' scalars
    followed by their ``K + 1`` congestion factors, flat, chain after
    chain, as machine arrays numpy reads without a copy.
    """

    __slots__ = ("positions", "rows", "values")

    def __init__(self) -> None:
        self.positions: list[int] = []
        self.rows = array("q")
        self.values = array("d")


class TensorEvaluator(ScheduleEvaluator):
    """The schedule evaluator with the vectorized chain cost kernel.

    Construction requires numpy (:func:`require_numpy`); everything else
    -- caches, the chain memo, stats -- behaves exactly like the scalar
    :class:`~repro.core.metrics.ScheduleEvaluator`.  The
    row stores are memoized per evaluator instance (pure functions of
    their block keys), as are the segment statics the kernel reads on
    every recost; the congestion pass and its memos are the base
    evaluator's, shared with the scalar kernel.
    Batched layers are not memoized here: :meth:`_layer` reads the
    model's own :meth:`~repro.workloads.model.Model.at_batch` tuples,
    which outlive the evaluator.
    """

    def __init__(self, scenario: Scenario, mcm: MCM,
                 database: LayerCostDatabase | None = None,
                 cache: EvalCache | None = None) -> None:
        require_numpy()
        super().__init__(scenario, mcm, database, cache=cache)
        self._model_tables: dict[int, _ModelTables] = {}
        self._place_tables: dict[tuple, int] = {}
        self._place_by_node: dict[tuple[int, int], int] = {}
        self._hops_memo: dict[tuple[int, int], int] = {}
        self._static_memo: dict[tuple, object] = {}
        self._tiles_f = _np.array(_TILE_FACTORS, dtype=_np.float64)
        # Row store sizing: one compute block pair per placement class;
        # one energy block per off-chip hop count (input and output) and
        # per NoP hop count, which a simple path keeps below the node
        # count.
        self._num_place_classes = len({
            (mcm.chiplet(node).class_key, self._io_hops[node])
            for node in range(mcm.num_chiplets)})
        self._hop_blocks = (2 * len(set(self._io_hops))
                            + mcm.num_chiplets - 1)
        # Precomputed serialization denominators; same one-product floats
        # the scalar CommModel recomputes per call.
        self._offchip_denom = mcm.offchip_gbps * 1e9
        self._nop_denom = mcm.nop_gbps * 1e9

    # -- batched window evaluation ----------------------------------------

    def evaluate_windows(self, windows: Sequence[WindowSchedule]
                         ) -> list[WindowMetrics]:
        """Evaluate windows in order, scoring their recosts as one batch.

        Walks the windows exactly like repeated :meth:`evaluate_window`
        calls -- the same ``chain`` lookups in the same order, the same
        :class:`~repro.core.metrics.EvaluatorStats` counts -- but each
        chain miss stores a :class:`~repro.core.evalcache.Pending`
        placeholder instead of computing.  A later duplicate chain in
        the batch hits the placeholder as it would have hit the value.
        The deferred chain recosts are then scored by
        :meth:`_score_chains`, the windows assembled, and
        :meth:`EvalCache.settle` fills every stored placeholder in place
        (or drops it, if this call raises).
        """
        recosts: list[tuple[tuple[Segment, ...], dict]] = []
        chain_slots: list[Pending] = []

        def defer_chain(chain, congestion) -> Pending:
            recosts.append((chain, congestion))
            slot = Pending()
            chain_slots.append(slot)
            return slot

        parts_by_window: list[list] = []
        try:
            for window in windows:
                parts_by_window.append(
                    self._lookup_chains(window, defer_chain))
            for slot, metrics in zip(chain_slots,
                                     self._score_chains(recosts)):
                slot.value = metrics
        finally:
            self.cache.settle()
        results: list[WindowMetrics] = []
        for window, parts in zip(windows, parts_by_window):
            for pos, part in enumerate(parts):
                if part.__class__ is Pending:
                    parts[pos] = part.value
            results.append(_window_metrics(window.index, parts))
        return results

    # -- row store --------------------------------------------------------

    def _model_tables_for(self, model: int) -> _ModelTables:
        tables = self._model_tables.get(model)
        if tables is None:
            tables = self._build_model_tables(model)
            self._model_tables[model] = tables
        return tables

    def _build_model_tables(self, model: int) -> _ModelTables:
        instance = self.scenario[model]
        num_layers = len(instance.model)
        divisors = _divisors(instance.batch)
        mb = _np.array(divisors, dtype=_np.int64)
        num_mb = instance.batch // mb
        tiles = _np.array(_TILE_FACTORS, dtype=_np.int64)
        counts = self._model_bytes(model)
        # Integer products (exact, < 2**53) cast to float64 exactly --
        # the same value the scalar path gets from float(layer.*_bytes).
        input_sizes = (_np.array(counts.input_ps, dtype=_np.int64)[:, None]
                       * mb[None, :]).astype(_np.float64)
        output_sizes = (_np.array(counts.output_ps, dtype=_np.int64)
                        [:, None] * mb[None, :]).astype(_np.float64)
        return _ModelTables(
            divisors=divisors, num_mb_f=num_mb.astype(_np.float64),
            units_m1_f=(num_mb[:, None] * tiles[None, :] - 1)
            .astype(_np.float64),
            input_sizes=input_sizes, output_sizes=output_sizes,
            offchip_denom=self._offchip_denom, nop_denom=self._nop_denom,
            capacity=(3 + num_layers * (3 + self._hop_blocks)
                      + self._num_place_classes * 2 * (num_layers + 1) ** 2))

    def _place_rows_for(self, segment: Segment) -> int:
        """First row of the segment's placement-class compute block."""
        assert segment.node is not None
        node_key = (segment.model, segment.node)
        first = self._place_by_node.get(node_key)
        if first is None:
            # Distinct nodes share tables whenever their chiplet class and
            # io distance agree; only the first touch per node pays the
            # class lookup.
            chiplet = self._chiplet_of(segment)
            class_key = (segment.model, chiplet.class_key,
                         self._io_hops[segment.node])
            first = self._place_tables.get(class_key)
            if first is None:
                first = self._build_place_tables(segment.model, chiplet,
                                                 segment.node)
                self._place_tables[class_key] = first
            self._place_by_node[node_key] = first
        return first

    def _build_place_tables(self, model: int, chiplet, node: int) -> int:
        """All ``(start, stop, divisor)`` compute costs of one placement.

        Appends the latency block, then the energy block, to the model's
        row store (row ``start * (L+1) + stop`` of each block is one
        segment at every divisor) and returns the latency block's first
        row.  Each ``start`` row comes from one ``np.cumsum`` over the
        interleaved per-layer ``[compute, refetch]`` stream, so every
        entry carries the scalar loop's exact left-to-right association
        (see the module docstring).
        """
        tables = self._model_tables_for(model)
        num_layers = tables.num_layers
        divisors = tables.divisors
        side = num_layers + 1
        first, block = tables.new_block(2 * side * side)
        # The store starts zero-filled: the entries below are the only
        # ones written, and the rest (stop <= start) are never read.
        place = block.reshape(2, side, side, len(divisors))
        lat, joule = place[0], place[1]
        stream_lat = _np.empty(2 * num_layers)
        stream_j = _np.empty(2 * num_layers)
        # Shifted-stream matrices: row ``start`` holds the stream from
        # layer ``start`` on (zero-padded tail).  One cumsum(axis=1)
        # then accumulates every row left-to-right at once -- identical
        # association per row, 2 cumsum calls per divisor instead of 2L.
        # The pads beyond each row's live prefix never reach the tables.
        mat_lat = _np.zeros((num_layers, 2 * num_layers))
        mat_j = _np.zeros((num_layers, 2 * num_layers))
        clock = self.database.clock_hz
        for d, minibatch in enumerate(divisors):
            for idx in range(num_layers):
                cost = self.database.cost(
                    self._layer(model, idx, minibatch), chiplet)
                extra_lat = extra_j = 0.0
                if cost.dram_refetch_bytes > 0:
                    extra = self.comm.offchip(cost.dram_refetch_bytes,
                                              node)
                    extra_lat = extra.latency_s
                    extra_j = extra.energy_j
                stream_lat[2 * idx] = cost.latency_s(clock)
                stream_lat[2 * idx + 1] = extra_lat
                stream_j[2 * idx] = cost.energy_j()
                stream_j[2 * idx + 1] = extra_j
            for start in range(num_layers):
                live = 2 * (num_layers - start)
                mat_lat[start, :live] = stream_lat[2 * start:]
                mat_j[start, :live] = stream_j[2 * start:]
            odd_lat = _np.cumsum(mat_lat, axis=1)[:, 1::2]
            odd_j = _np.cumsum(mat_j, axis=1)[:, 1::2]
            for start in range(num_layers):
                lat[start, start + 1:, d] = \
                    odd_lat[start, :num_layers - start]
                joule[start, start + 1:, d] = \
                    odd_j[start, :num_layers - start]
        return first

    def _e_off_rows(self, memo: dict, sizes, tables: _ModelTables,
                    hops: int) -> int:
        """First row of the off-chip energy block for one hop count.

        The build expression is :meth:`CommModel.offchip_parts` verbatim
        (same association and operand order), evaluated elementwise over
        the exact byte tables -- so each row is the exact scalar energy
        at every mini-batch.
        """
        first = memo.get(hops)
        if first is None:
            first = tables.add_rows(
                (sizes * self.comm.dram_pj_byte
                 + sizes * self.comm.nop_pj_byte * hops) * 1e-12)
            memo[hops] = first
        return first

    def _e_nop_rows(self, tables: _ModelTables, hops: int) -> int:
        """First row of the NoP hand-off energy block for one hop count."""
        first = tables.out_e_nop.get(hops)
        if first is None:
            first = tables.add_rows(tables.output_sizes
                                    * self.comm.nop_pj_byte * hops * 1e-12)
            tables.out_e_nop[hops] = first
        return first

    # -- table-backed scalar hooks ----------------------------------------

    def _layer(self, model: int, index: int, batch: int) -> Layer:
        # The model's batched layers outlive this evaluator (see
        # Model.at_batch), so the table builders and residency checks
        # rebuild no layer another request already batched.
        return self.scenario[model].model.at_batch(batch)[index]

    def _segment_weight_bytes(self, segment: Segment) -> float:
        # Integer prefix difference == the scalar integer sum, exactly.
        prefix = self._model_bytes(segment.model).weight_prefix
        return float(prefix[segment.stop] - prefix[segment.start])

    def _segment_static(self, segment: Segment):
        # One plain-dict hop in front of the EvalCache lookup: the chain
        # plans read segment statics, and the cache's table dispatch
        # and hit counting cost more than one dict hit.
        key = (segment.model, segment.start, segment.stop, segment.node)
        static = self._static_memo.get(key)
        if static is None:
            static = super()._segment_static(segment)
            self._static_memo[key] = static
        return static

    # -- chain plans ------------------------------------------------------

    def _offchip_in_rows(self, tables: _ModelTables, counts: _ModelBytes,
                         idx: int, node: int) -> tuple[int, int, float]:
        """Serialization row, energy row and fixed latency of layer
        ``idx``'s off-chip input fetch (zero rows for zero bytes)."""
        if counts.input_ps[idx] == 0:
            return _ZERO_ROW, _ZERO_ROW, 0.0
        hops = self._io_hops[node]
        energy = self._e_off_rows(tables.in_e_off, tables.input_sizes,
                                  tables, hops)
        return (tables.in_var_off + idx, energy + idx,
                hops * self.mcm.nop_hop_s + self.mcm.dram_latency_s)

    def _offchip_out_rows(self, tables: _ModelTables, counts: _ModelBytes,
                          idx: int, node: int) -> tuple[int, int, float]:
        """The same for layer ``idx``'s off-chip output write-back."""
        if counts.output_ps[idx] == 0:
            return _ZERO_ROW, _ZERO_ROW, 0.0
        hops = self._io_hops[node]
        energy = self._e_off_rows(tables.out_e_off, tables.output_sizes,
                                  tables, hops)
        return (tables.out_var_off + idx, energy + idx,
                hops * self.mcm.nop_hop_s + self.mcm.dram_latency_s)

    def _chiplet_out_rows(self, tables: _ModelTables, counts: _ModelBytes,
                          idx: int, src: int, dst: int
                          ) -> tuple[int, int, float]:
        """The same for layer ``idx``'s NoP hand-off from ``src``."""
        if src == dst or counts.output_ps[idx] == 0:
            return _ZERO_ROW, _ZERO_ROW, 0.0
        hops = self._hops_memo.get((src, dst))
        if hops is None:
            hops = self.mcm.topology.hops(src, dst)
            self._hops_memo[(src, dst)] = hops
        return (tables.out_var_nop + idx,
                self._e_nop_rows(tables, hops) + idx,
                hops * self.mcm.nop_hop_s)

    def _plan_chain(self, chain: tuple[Segment, ...],
                    group: _ChainGroup) -> None:
        """Append one chain's gather rows and scalars to ``group``.

        Per segment, seven rows of the model's store -- compute
        latency, input and output serialization, compute energy, input
        and output transfer energy, weight-energy multiplier -- and
        three scalars: the weight re-stream latency (``0.0`` when
        resident), the weight load energy and the fixed per-tile
        latency, each built with the scalar path's own expression.  The
        scalars end with the chain's resident weight pre-load.
        """
        tables = self._model_tables_for(chain[0].model)
        counts = self._model_bytes(chain[0].model)
        seg_costs = [self._segment_static(seg) for seg in chain]
        side = tables.num_layers + 1
        square = side * side
        rows = group.rows
        values = group.values
        last = len(chain) - 1
        for pos, (segment, static) in enumerate(zip(chain, seg_costs)):
            lat = (self._place_rows_for(segment)
                   + segment.start * side + segment.stop)
            # ip_com: off-chip input for the head, NoP hand-off otherwise.
            if pos == 0:
                in_var, in_e, fix = self._offchip_in_rows(
                    tables, counts, segment.start, segment.node)
            else:
                prev = chain[pos - 1]
                in_var, in_e, fix = self._chiplet_out_rows(
                    tables, counts, prev.stop - 1, prev.node, segment.node)
            # op_com: only the tail segment writes results off-chip.
            out_var = out_e = _ZERO_ROW
            if pos == last:
                out_var, out_e, out_fix = self._offchip_out_rows(
                    tables, counts, segment.stop - 1, segment.node)
                fix += out_fix
            restream = 0.0
            multiplier = _ONES_ROW
            if not static.resident:
                # Weights re-streamed every mini-batch pass.
                restream = static.weight_load_var_s
                fix += static.weight_load_fix_s
                multiplier = _NUM_MB_ROW
            rows.extend((lat, in_var, out_var, lat + square, in_e, out_e,
                         multiplier))
            values.extend((restream, static.weight_load_j, fix))
        # One-time weight pre-load for resident segments: the scalar
        # path's own expression (same float).
        values.append(sum(s.weight_load_s for s in seg_costs if s.resident))

    # -- the batched chain kernel -----------------------------------------

    def _chain_metrics(self, chain: tuple[Segment, ...],
                       congestion: dict[tuple, float]) -> ModelWindowMetrics:
        """Bit-identical override of the scalar
        :meth:`~repro.core.metrics.ScheduleEvaluator._chain_metrics`:
        a batch of one."""
        return self._score_chains([(chain, congestion)])[0]

    def _score_chains(self, recosts: Sequence[tuple[tuple[Segment, ...],
                                                    dict[tuple, float]]]
                      ) -> list[ModelWindowMetrics]:
        """Score ``(chain, congestion)`` recosts, in order, as one batch.

        Chains are planned in batch order (so segment statics and place
        tables are first touched in the sequential path's order), then
        each ``(model, K)`` group is scored by :meth:`_score_group`.
        """
        groups: dict[tuple[int, int], _ChainGroup] = {}
        for pos, (chain, congestion) in enumerate(recosts):
            key = (chain[0].model, len(chain))
            group = groups.get(key)
            if group is None:
                group = groups[key] = _ChainGroup()
            group.positions.append(pos)
            self._plan_chain(chain, group)
            group.values.extend(chain_factors(chain, congestion))
        out: list = [None] * len(recosts)
        for (model, length), group in groups.items():
            self._score_group(model, length, group, out)
        return out

    def _score_group(self, model: int, length: int, group: _ChainGroup,
                     out: list) -> None:
        """Score one ``(model, K)`` group; write each result to ``out``.

        Bit-identical to the scalar ``_chain_metrics`` +
        ``_chain_at_minibatch`` pair on every chain: each statement
        below applies one scalar statement to every (chain, segment,
        divisor, tile) element at once, in the scalar order (see the
        module docstring).
        """
        tables = self._model_tables[model]
        count = len(group.positions)
        k = length
        gathered = tables.rows[_np.frombuffer(group.rows, dtype=_np.int64)
                               .reshape(count, k, _PLAN_COLUMNS)]
        values = _np.frombuffer(group.values).reshape(count, 4 * k + 2)
        restream, weight_j, fix = (values[:, :3 * k].reshape(count, k, 3)
                                   .transpose(2, 0, 1))
        preload = values[:, 3 * k]
        factors = _np.maximum(values[:, 3 * k + 1:], 1.0)

        # Per segment: var = ((compute + in_com) + out_com) + restream.
        var = gathered[:, :, 0] + gathered[:, :, 1] * factors[:, :k, None]
        var += gathered[:, :, 2] * factors[:, k, None, None]
        var += restream[:, :, None]
        per_tile = var[:, :, :, None] / self._tiles_f
        per_tile += fix[:, :, None, None]

        # Energy: four terms per segment, summed left to right.
        terms = gathered[:, :, 3:]
        terms[:, :, :3] *= tables.num_mb_f
        terms[:, :, 3] *= weight_j[:, :, None]
        energy = _np.cumsum(terms.reshape(count, 4 * k, -1), axis=1)[:, -1]

        # Lat(SG) = fill + (units - 1) * max_k per-tile latency.
        fill = _np.cumsum(per_tile, axis=1)[:, -1]
        fill += preload[:, None, None]
        latency = tables.units_m1_f * per_tile.max(axis=1)
        latency += fill

        # Winner per chain: the first minimum is the scalar winner when
        # it is the only value within the scalar loop's 1e-15 band.
        flat = latency.reshape(count, -1)
        best = flat.argmin(axis=1)
        chains = _np.arange(count)
        best_lat = flat[chains, best]
        ties = (flat <= (best_lat + 1e-15)[:, None]).sum(axis=1) > 1
        if ties.any():
            for row in _np.flatnonzero(ties).tolist():
                best[row] = _scalar_winner(flat[row].tolist())
            best_lat = flat[chains, best]
        best_d, best_t = _np.divmod(best, len(_TILE_FACTORS))
        lats = best_lat.tolist()
        energies = energy[chains, best_d].tolist()
        segment_lats = per_tile[chains, :, best_d, best_t].tolist()
        minibatch = best_d.tolist()
        tile = best_t.tolist()
        divisors = tables.divisors
        for i, pos in enumerate(group.positions):
            out[pos] = ModelWindowMetrics(
                model=model, latency_s=lats[i], energy_j=energies[i],
                minibatch=divisors[minibatch[i]],
                tile_factor=_TILE_FACTORS[tile[i]],
                segment_latencies_s=tuple(segment_lats[i]))
