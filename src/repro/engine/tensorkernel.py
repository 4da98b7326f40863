"""Vectorized cost kernel: numpy tensor scoring of the Sec. III-E model.

:class:`TensorEvaluator` is a drop-in
:class:`~repro.engine.evaluator.CandidateEvaluator` whose chain costing
(:meth:`~repro.core.metrics.ScheduleEvaluator._chain_metrics`, the ~90%
hot path of every search) scores all mini-batch divisors x tile factors
of a chain in a handful of numpy passes instead of the scalar evaluator's
nested Python loops.  Everything above it -- delta costing, statistics,
the window memo, the search strategies -- is inherited unchanged, so
``num_evaluated`` / ``num_segments`` / ``num_segments_recosted`` report
identically in either mode.

Tensor layout
-------------

Per ``(model, chiplet class_key, io_hops)`` placement class, two
``float64`` tables of shape ``(D, L+1, L+1)`` (``D`` = divisors of the
instance batch, ``L`` = model layers) hold the compute latency/energy of
every ``(start, stop)`` sub-chain at every mini-batch, DRAM re-fetch
terms included; ``table[:, start, stop]`` is the all-divisors cost vector
of one segment, one strided read.  Per model, two ``(L, D)`` tables hold
the exact activation byte counts (integer ``minibatch * per_sample``
products, which :class:`~repro.workloads.layer.Layer` guarantees are
linear in batch) feeding the vectorized communication terms.

Every table lives as long as its evaluator, which is one request.  The
batched layers the tables are built from do not: they come from
:meth:`~repro.workloads.model.Model.at_batch`, which keeps them on the
model, so a zoo model's layers at a given mini-batch are built once per
process, not once per request.

Exactness contract
------------------

The vector path is **bit-identical** to the scalar path, not
approximately equal, because every reduction preserves the scalar
evaluation order:

* Sub-chain tables are built with ``np.cumsum`` over an interleaved
  ``[compute_0, refetch_0, compute_1, refetch_1, ...]`` stream --
  ``cumsum`` accumulates strictly left-to-right, reproducing the scalar
  loop's ``((lat + compute_i) + refetch_i)`` association (a re-fetch term
  of ``0.0`` is an exact no-op on non-negative partial sums).  Plain
  ``np.sum`` is never used: its pairwise reduction changes association.
* Elementwise arithmetic mirrors :class:`~repro.mcm.comm.CommModel`
  operation-for-operation (same association, same operand order), and
  IEEE-754 elementwise ops are deterministic per element.
* The winning ``(minibatch, tile)`` is picked by a Python loop over the
  ``(D, T)`` latency grid in the scalar iteration order with the same
  ``1e-15`` improvement epsilon.

``benchmarks/test_kernel_vector.py`` gates both the parity and the
speedup; the randomized property tests in ``tests/test_tensorkernel.py``
assert ``ScheduleResult.same_payload`` across scenarios, batches and
topologies.  The scalar path remains the default everywhere
(``eval_mode=None`` resolves to ``"scalar"``) and keeps working without
numpy installed; ``eval_mode="vector"`` without numpy raises
:class:`~repro.errors.ConfigError` (wire code ``config_error``, HTTP 400
through the service).
"""

# scar: hot -- allocation-linted kernel module (SCAR010)
from __future__ import annotations

from repro.core.evalcache import EvalCache
from repro.core.metrics import _TILE_FACTORS, ModelWindowMetrics, _divisors
from repro.core.schedule import Segment
from repro.dataflow.database import LayerCostDatabase
from repro.engine.evaluator import CandidateEvaluator
from repro.errors import ConfigError
from repro.mcm.package import MCM
from repro.workloads.layer import Layer
from repro.workloads.model import Scenario

try:  # numpy is an optional extra; the scalar path never needs it.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via monkeypatch
    _np = None

#: The evaluator modes a Session or SCARScheduler may name (``eval_mode``).
EVAL_MODES = ("scalar", "vector")


def have_numpy() -> bool:
    """Whether the vector kernel's numpy dependency is importable."""
    return _np is not None


def require_numpy() -> None:
    """Raise a wire-stable :class:`ConfigError` when numpy is missing."""
    if _np is None:
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


class _ModelTables:
    """Per-model mini-batch axis and exact activation byte tables.

    ``input_sizes`` / ``output_sizes`` are ``(L, D)`` float64 tables of
    exact ``minibatch * per_sample`` byte counts; ``input_ps`` /
    ``output_ps`` / ``weight_prefix`` keep the integer per-sample and
    prefix-summed weight bytes for the full-batch flow analysis (integer
    arithmetic, so prefix *differences* are exact).  ``num_mb_f`` and
    ``units_m1_f`` pre-convert the integer pipelining axes to float64
    (exact for these magnitudes) so the chain kernel pays no per-call
    int-to-float conversions.

    The communication terms are hoisted too: ``in_var_off`` /
    ``out_var_off`` / ``out_var_nop`` are ``sizes / bandwidth`` base
    serialization rows (the congestion factor is the only per-window
    multiplier left for the kernel), and ``in_e_off`` / ``out_e_off`` /
    ``out_e_nop`` memoize the hop-dependent energy rows per hop count --
    each built once with the exact scalar expression, so reads are free.
    """

    __slots__ = ("batch", "divisors", "num_mb_f", "units_m1_f",
                 "input_sizes", "output_sizes", "input_ps", "output_ps",
                 "weight_prefix", "in_var_off", "out_var_off",
                 "out_var_nop", "in_e_off", "out_e_off", "out_e_nop")

    def __init__(self, batch, divisors, num_mb_f, units_m1_f,
                 input_sizes, output_sizes, input_ps, output_ps,
                 weight_prefix, in_var_off, out_var_off, out_var_nop):
        self.batch = batch
        self.divisors = divisors
        self.num_mb_f = num_mb_f
        self.units_m1_f = units_m1_f
        self.input_sizes = input_sizes
        self.output_sizes = output_sizes
        self.input_ps = input_ps
        self.output_ps = output_ps
        self.weight_prefix = weight_prefix
        self.in_var_off = in_var_off
        self.out_var_off = out_var_off
        self.out_var_nop = out_var_nop
        self.in_e_off: dict[int, object] = {}
        self.out_e_off: dict[int, object] = {}
        self.out_e_nop: dict[int, object] = {}


class _PlaceTables:
    """Sub-chain compute cost tables of one (model, placement class)."""

    __slots__ = ("lat", "joule")

    def __init__(self, lat, joule):
        self.lat = lat
        self.joule = joule


class TensorEvaluator(CandidateEvaluator):
    """Delta-costing evaluator with the vectorized chain cost kernel.

    Construction requires numpy (:func:`require_numpy`); everything else
    -- caches, stats, the ``delta`` knob -- behaves exactly like the
    scalar :class:`~repro.engine.evaluator.CandidateEvaluator`.  Tensor
    tables are memoized per evaluator instance (pure functions of their
    ``(model, class_key, io_hops)`` key), as are the routes, segment
    statics and per-chain flow sets the kernel reads on every recost.
    Batched layers are not memoized here: :meth:`_layer` reads the
    model's own :meth:`~repro.workloads.model.Model.at_batch` tuples,
    which outlive the evaluator.
    """

    def __init__(self, scenario: Scenario, mcm: MCM,
                 database: LayerCostDatabase | None = None,
                 cache: EvalCache | None = None, *,
                 delta: bool = True) -> None:
        require_numpy()
        super().__init__(scenario, mcm, database, cache=cache, delta=delta)
        self._model_tables: dict[int, _ModelTables] = {}
        self._place_tables: dict[tuple, _PlaceTables] = {}
        self._place_by_node: dict[tuple[int, int], _PlaceTables] = {}
        self._hops_memo: dict[tuple[int, int], int] = {}
        self._route_memo: dict[tuple, tuple] = {}
        self._static_memo: dict[tuple, object] = {}
        self._entries_memo: dict[tuple, list] = {}
        self._tiles_f = _np.array(_TILE_FACTORS, dtype=_np.float64)
        # Precomputed serialization denominators; same one-product floats
        # the scalar CommModel recomputes per call.
        self._offchip_denom = mcm.offchip_gbps * 1e9
        self._nop_denom = mcm.nop_gbps * 1e9

    # -- tensor tables ----------------------------------------------------

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
        per_sample = instance.model.at_batch(1)
        input_ps = [layer.input_bytes for layer in per_sample]
        output_ps = [layer.output_bytes for layer in per_sample]
        weight_prefix = [0]
        for i in range(num_layers):
            weight_prefix.append(weight_prefix[-1]
                                 + instance.model[i].weight_bytes)
        # Integer products (exact, < 2**53) cast to float64 exactly --
        # the same value the scalar path gets from float(layer.*_bytes).
        input_sizes = (_np.array(input_ps, dtype=_np.int64)[:, None]
                       * mb[None, :]).astype(_np.float64)
        output_sizes = (_np.array(output_ps, dtype=_np.int64)[:, None]
                        * mb[None, :]).astype(_np.float64)
        return _ModelTables(
            batch=instance.batch, divisors=divisors,
            num_mb_f=num_mb.astype(_np.float64),
            units_m1_f=(num_mb[:, None] * tiles[None, :] - 1)
            .astype(_np.float64),
            input_sizes=input_sizes, output_sizes=output_sizes,
            input_ps=input_ps, output_ps=output_ps,
            weight_prefix=weight_prefix,
            in_var_off=input_sizes / self._offchip_denom,
            out_var_off=output_sizes / self._offchip_denom,
            out_var_nop=output_sizes / self._nop_denom)

    def _place_tables_for(self, segment: Segment) -> _PlaceTables:
        assert segment.node is not None
        node_key = (segment.model, segment.node)
        tables = self._place_by_node.get(node_key)
        if tables is None:
            # Distinct nodes share tables whenever their chiplet class and
            # io distance agree; only the first touch per node pays the
            # class lookup.
            chiplet = self._chiplet_of(segment)
            class_key = (segment.model, chiplet.class_key,
                         self._io_hops[segment.node])
            tables = self._place_tables.get(class_key)
            if tables is None:
                tables = self._build_place_tables(segment.model, chiplet,
                                                  segment.node)
                self._place_tables[class_key] = tables
            self._place_by_node[node_key] = tables
        return tables

    def _build_place_tables(self, model: int, chiplet,
                            node: int) -> _PlaceTables:
        """All ``(divisor, start, stop)`` compute costs of one placement.

        Each ``start`` row comes from one ``np.cumsum`` over the
        interleaved per-layer ``[compute, refetch]`` stream, so every
        table entry carries the scalar loop's exact left-to-right
        association (see the module docstring).
        """
        instance = self.scenario[model]
        num_layers = len(instance.model)
        divisors = self._model_tables_for(model).divisors
        shape = (len(divisors), num_layers + 1, num_layers + 1)
        lat = _np.zeros(shape)
        joule = _np.zeros(shape)
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
                lat[d, start, start + 1:] = \
                    odd_lat[start, :num_layers - start]
                joule[d, start, start + 1:] = \
                    odd_j[start, :num_layers - start]
        return _PlaceTables(lat=lat, joule=joule)

    # -- table-backed scalar hooks ----------------------------------------

    def _layer(self, model: int, index: int, batch: int) -> Layer:
        # The model's batched layers outlive this evaluator (see
        # Model.at_batch), so the table builders and residency checks
        # rebuild no layer another request already batched.
        return self.scenario[model].model.at_batch(batch)[index]

    def _segment_weight_bytes(self, segment: Segment) -> float:
        # Integer prefix difference == the scalar integer sum, exactly.
        prefix = self._model_tables_for(segment.model).weight_prefix
        return float(prefix[segment.stop] - prefix[segment.start])

    def _segment_static(self, segment: Segment):
        # One plain-dict hop in front of the EvalCache lookup: the chain
        # kernel reads segment statics on every recost, and the shared
        # cache's LRU/statistics machinery costs more than the lookup.
        key = (segment.model, segment.start, segment.stop, segment.node)
        static = self._static_memo.get(key)
        if static is None:
            static = super()._segment_static(segment)
            self._static_memo[key] = static
        return static

    def _route_for(self, src: int | None, dst: int | None):
        """Memoized directed route of a flow (``traffic._route_of``)."""
        key = (src, dst)
        route = self._route_memo.get(key)
        if route is None:
            if src is None:
                assert dst is not None
                route = self.mcm.topology.route(self.mcm.nearest_io(dst),
                                                dst)
            elif dst is None:
                route = self.mcm.topology.route(src,
                                                self.mcm.nearest_io(src))
            else:
                route = self.mcm.topology.route(src, dst)
            self._route_memo[key] = route
        return route

    def _chain_entries(self, chain) -> list[tuple[tuple, tuple, bool]]:
        """One chain's positive-size flows as ``(key, route, offchip)``.

        Memoized on the chain tuple itself (segments are frozen value
        objects): the same chains recur across the thousands of window
        placements a search scores, and their flow sets are pure
        functions of the chain.
        """
        entries = self._entries_memo.get(chain)
        if entries is not None:
            return entries
        entries = []
        tables = self._model_tables_for(chain[0].model)
        prefix = tables.weight_prefix
        for pos, segment in enumerate(chain):
            node = segment.node
            if prefix[segment.stop] - prefix[segment.start]:
                entries.append(((None, node),
                                self._route_for(None, node), True))
            if pos == 0:
                if tables.input_ps[segment.start]:
                    entries.append(((None, node),
                                    self._route_for(None, node), True))
            else:
                prev = chain[pos - 1]
                if (prev.node != node
                        and tables.output_ps[prev.stop - 1]):
                    entries.append(((prev.node, node),
                                    self._route_for(prev.node, node),
                                    False))
        last = chain[-1]
        if tables.output_ps[last.stop - 1]:
            entries.append(((last.node, None),
                            self._route_for(last.node, None), True))
        self._entries_memo[chain] = entries
        return entries

    def _window_congestion(self, window) -> dict[tuple, float]:
        """Fused flow enumeration + contention analysis off the tables.

        Computes the exact factor map of the base
        :meth:`ScheduleEvaluator._window_congestion` /
        :func:`~repro.mcm.traffic.contention_factors` pair -- same
        integer link loads, same off-chip count, same float conversions
        -- without materializing :class:`~repro.mcm.traffic.Flow`
        objects or batched layers.  Zero-size and same-node flows are
        dropped up front: the scalar path assigns them factor ``1.0``,
        which every congestion read (``dict.get(key, 1.0)``) already
        defaults to, so the resulting factors are read-identical.
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

    # -- vectorized communication terms -----------------------------------

    def _e_off_rows(self, memo: dict, sizes, hops: int):
        """Off-chip energy ``(L, D)`` rows for one hop count, memoized.

        The build expression is :meth:`CommModel.offchip_parts` verbatim
        (same association and operand order), evaluated elementwise over
        the exact byte tables -- so each row read afterwards is the exact
        scalar energy at every mini-batch.
        """
        energy = memo.get(hops)
        if energy is None:
            energy = (sizes * self.comm.dram_pj_byte
                      + sizes * self.comm.nop_pj_byte * hops) * 1e-12
            memo[hops] = energy
        return energy

    def _e_nop_rows(self, tables: _ModelTables, hops: int):
        """NoP hand-off energy ``(L, D)`` rows for one hop count."""
        energy = tables.out_e_nop.get(hops)
        if energy is None:
            energy = (tables.output_sizes * self.comm.nop_pj_byte
                      * hops * 1e-12)
            tables.out_e_nop[hops] = energy
        return energy

    def _offchip_in_vec(self, tables: _ModelTables, idx: int, node: int,
                        congestion: float):
        """All-divisors off-chip fetch of layer ``idx`` inputs."""
        if tables.input_ps[idx] == 0:  # zero bytes => zero at every mb
            return None, 0.0, None
        hops = self._io_hops[node]
        base = tables.in_var_off[idx]
        variable = base * congestion if congestion > 1.0 else base
        fixed = hops * self.mcm.nop_hop_s + self.mcm.dram_latency_s
        energy = self._e_off_rows(tables.in_e_off, tables.input_sizes,
                                  hops)
        return variable, fixed, energy[idx]

    def _offchip_out_vec(self, tables: _ModelTables, idx: int, node: int,
                         congestion: float):
        """All-divisors off-chip write-back of layer ``idx`` outputs."""
        if tables.output_ps[idx] == 0:
            return None, 0.0, None
        hops = self._io_hops[node]
        base = tables.out_var_off[idx]
        variable = base * congestion if congestion > 1.0 else base
        fixed = hops * self.mcm.nop_hop_s + self.mcm.dram_latency_s
        energy = self._e_off_rows(tables.out_e_off, tables.output_sizes,
                                  hops)
        return variable, fixed, energy[idx]

    def _chiplet_out_vec(self, tables: _ModelTables, idx: int, src: int,
                         dst: int, congestion: float):
        """All-divisors NoP hand-off of layer ``idx`` outputs."""
        if src == dst or tables.output_ps[idx] == 0:
            return None, 0.0, None
        hops = self._hops_memo.get((src, dst))
        if hops is None:
            hops = self.mcm.topology.hops(src, dst)
            self._hops_memo[(src, dst)] = hops
        base = tables.out_var_nop[idx]
        variable = base * congestion if congestion > 1.0 else base
        fixed = hops * self.mcm.nop_hop_s
        energy = self._e_nop_rows(tables, hops)
        return variable, fixed, energy[idx]

    # -- the vectorized chain kernel --------------------------------------

    def _chain_metrics(self, chain: tuple[Segment, ...],
                       congestion: dict[tuple, float]) -> ModelWindowMetrics:
        """Score every (mini-batch, tile) candidate of one chain at once.

        Bit-identical override of the scalar
        :meth:`~repro.core.metrics.ScheduleEvaluator._chain_metrics` +
        ``_chain_at_minibatch`` pair; every arithmetic statement below
        mirrors a scalar statement in the same order (adding an exact
        ``0.0`` term is the only elision, a bitwise no-op on the
        non-negative quantities involved).
        """
        model = chain[0].model
        tables = self._model_tables_for(model)
        seg_costs = [self._segment_static(seg) for seg in chain]
        num_mb = tables.num_mb_f
        energy = _np.zeros(len(num_mb))
        scratch = _np.empty(len(num_mb))
        per_tile = []
        last = len(chain) - 1
        mul, add = _np.multiply, _np.add
        cget = congestion.get
        tiles = self._tiles_f
        for pos, (segment, static) in enumerate(zip(chain, seg_costs)):
            place = self._place_tables_for(segment)
            var = place.lat[:, segment.start, segment.stop]
            mul(place.joule[:, segment.start, segment.stop],
                num_mb, out=scratch)
            add(energy, scratch, out=energy)
            fix = 0.0

            # ip_com: off-chip input for the head, NoP hand-off otherwise.
            if pos == 0:
                v, f, e = self._offchip_in_vec(
                    tables, segment.start, segment.node,
                    cget((None, segment.node), 1.0))
            else:
                prev = chain[pos - 1]
                v, f, e = self._chiplet_out_vec(
                    tables, prev.stop - 1, prev.node, segment.node,
                    cget((prev.node, segment.node), 1.0))
            if v is not None:
                var = var + v
                fix = fix + f
                mul(e, num_mb, out=scratch)
                add(energy, scratch, out=energy)

            # op_com: only the tail segment writes results off-chip.
            if pos == last:
                v, f, e = self._offchip_out_vec(
                    tables, segment.stop - 1, segment.node,
                    cget((segment.node, None), 1.0))
                if v is not None:
                    var = var + v
                    fix = fix + f
                    mul(e, num_mb, out=scratch)
                    add(energy, scratch, out=energy)

            if static.resident:
                add(energy, static.weight_load_j, out=energy)
            else:
                var = var + static.weight_load_var_s
                fix = fix + static.weight_load_fix_s
                mul(static.weight_load_j, num_mb, out=scratch)
                add(energy, scratch, out=energy)
            per_tile.append(var[:, None] / tiles + fix)

        # In-place accumulation over our own buffers computes the exact
        # functional expressions (same ops, same operand order).
        fill = per_tile[0].copy()
        if last:
            maxseg = per_tile[0].copy()
            for arr in per_tile[1:]:
                add(fill, arr, out=fill)
                _np.maximum(maxseg, arr, out=maxseg)
        else:
            maxseg = per_tile[0]
        # One-time weight pre-load for resident segments; the generator
        # sum is the scalar path's own expression (same float), and
        # adding an exact zero would be a bitwise no-op anyway.
        preload = sum(s.weight_load_s for s in seg_costs if s.resident)
        if preload:
            add(fill, preload, out=fill)
        latency = tables.units_m1_f * maxseg
        add(latency, fill, out=latency)

        # Winner selection.  The scalar loop only ever settles on a
        # candidate within its 1e-15 epsilon of the global minimum, so
        # when exactly one candidate lies in that band the first-minimum
        # index (argmin) IS the scalar winner; only near-ties replay the
        # scalar iteration order (divisors ascending, tiles inner) with
        # the same improvement epsilon.
        flat = latency.ravel()
        best = int(flat.argmin())
        best_lat = flat[best].item()
        if int((flat <= best_lat + 1e-15).sum()) == 1:
            best_d, best_t = divmod(best, len(_TILE_FACTORS))
        else:
            best_lat = None
            best_d = best_t = 0
            for d, row in enumerate(latency.tolist()):
                for t, lat in enumerate(row):
                    if best_lat is None or lat < best_lat - 1e-15:
                        best_lat = lat
                        best_d = d
                        best_t = t
            assert best_lat is not None
        return ModelWindowMetrics(
            model=model, latency_s=best_lat,
            energy_j=energy[best_d].item(),
            minibatch=tables.divisors[best_d],
            tile_factor=_TILE_FACTORS[best_t],
            segment_latencies_s=tuple(arr[best_d, best_t].item()
                                      for arr in per_tile))
