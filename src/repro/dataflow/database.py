"""Offline layer-cost database (the "intra-layer cost database" of Fig. 1).

The paper's MCM-Reconfig engine consumes per-layer latency/energy figures
"offline-analyzed by MAESTRO" for each chiplet dataflow class.  This module
provides that database: a memoized front-end over
:func:`repro.dataflow.cost.compute_layer_cost`, keyed by the *class* of a
chiplet (its resource tuple), plus the Eq. (1) expectation helpers::

    E(Lat(l)) = sum_i (n_dfi / |C|) * Lat(l -> i)
"""

from __future__ import annotations

import os
import threading
from typing import Iterable, Mapping, Protocol

from repro.dataflow.cost import LayerCost, compute_layer_cost
from repro.dataflow.dataflow import Dataflow, by_name
from repro.dataflow.energy import DEFAULT_ENERGY, EnergyTable
from repro.workloads.layer import Layer


class ChipletLike(Protocol):
    """Structural type for anything describing a chiplet class.

    :class:`repro.mcm.chiplet.Chiplet` satisfies this; tests may pass any
    object with these attributes.
    """

    dataflow: str
    num_pes: int
    sram_bytes: int
    noc_gbps: float
    mem_gbps: float


#: Entries one database keeps.  A session's per-clock database lives as
#: long as the session, so it must not grow with every distinct layer it
#: ever costs: at 0.75-0.86 KB an entry this is 12-14 MB, five times the
#: 3,264 distinct costs a 102-request Table III x Fig. 6 search mix
#: needs.  A full table is dropped whole and refills; entries are pure
#: functions of their keys, so a reset never changes a result.
_MAX_ENTRIES = 16_384

#: Serializes misses.  Module-level rather than per instance, so one
#: fork hook covers every database and a database pickles as plain
#: data.  The service's process backend forks pool workers as jobs
#: arrive, and again whenever it replaces a broken pool, while another
#: worker thread may be costing a miss.  The forking thread holds the
#: lock across the fork, so a forked worker never inherits it held by a
#: thread that does not exist in the child.
_MISS_LOCK = threading.Lock()
if hasattr(os, "register_at_fork"):  # POSIX
    os.register_at_fork(before=_MISS_LOCK.acquire,
                        after_in_parent=_MISS_LOCK.release,
                        after_in_child=_MISS_LOCK.release)


def _layer_key(layer: Layer) -> tuple:
    return (layer.op, layer.n, layer.k, layer.c, layer.y, layer.x, layer.r,
            layer.s, layer.stride, layer.bytes_per_element)


class LayerCostDatabase:
    """Memoized per-(layer, chiplet-class) cost store.

    One database instance corresponds to one operating point (clock, energy
    table) and is shared by every engine that runs at it: a
    :class:`~repro.api.session.Session` keeps one per clock domain for
    all its requests, and a scheduler built without one makes its own.
    Lookups after the first are dictionary hits, which is what makes the
    large searches tractable (the paper's "offline analysis" step).

    Safe to share between threads: a hit is one lock-free ``dict.get``;
    a miss takes the module's miss lock, checks again, computes, and
    inserts.  The table holds at most :data:`_MAX_ENTRIES` costs: the
    insert that would pass the cap first rebinds it to a fresh dict, so
    a reader holding the old one still sees a consistent mapping.
    """

    def __init__(self, clock_hz: float = 500e6,
                 energy: EnergyTable = DEFAULT_ENERGY) -> None:
        self.clock_hz = clock_hz
        self.energy = energy
        self._cache: dict[tuple, LayerCost] = {}

    def __len__(self) -> int:
        return len(self._cache)

    def cost(self, layer: Layer, chiplet: ChipletLike) -> LayerCost:
        """Intra-chiplet cost of ``layer`` on ``chiplet``'s class."""
        # The chiplet class is its resource tuple; a plain tuple keeps
        # the hit path free of dataclass construction and hashing.
        key = (_layer_key(layer), (chiplet.dataflow, chiplet.num_pes,
                                    chiplet.sram_bytes, chiplet.noc_gbps,
                                    chiplet.mem_gbps))
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        with _MISS_LOCK:
            cached = self._cache.get(key)
            if cached is None:
                cached = compute_layer_cost(
                    layer, by_name(chiplet.dataflow),
                    num_pes=chiplet.num_pes,
                    sram_bytes=chiplet.sram_bytes,
                    noc_gbps=chiplet.noc_gbps,
                    mem_gbps=chiplet.mem_gbps,
                    clock_hz=self.clock_hz,
                    energy=self.energy,
                )
                if len(self._cache) >= _MAX_ENTRIES:
                    self._cache = {}
                self._cache[key] = cached
        return cached

    def latency_s(self, layer: Layer, chiplet: ChipletLike) -> float:
        """Compute latency of ``layer`` on ``chiplet`` in seconds."""
        return self.cost(layer, chiplet).latency_s(self.clock_hz)

    def energy_j(self, layer: Layer, chiplet: ChipletLike) -> float:
        """Compute energy of ``layer`` on ``chiplet`` in joules."""
        return self.cost(layer, chiplet).energy_j()

    # -- Eq. (1) expectations over a heterogeneous composition ----------

    def expected_latency_s(self, layer: Layer,
                           chiplets: Iterable[ChipletLike]) -> float:
        """``E(Lat(l))`` over the MCM's chiplet composition (Eq. 1)."""
        chiplet_list = list(chiplets)
        if not chiplet_list:
            raise ValueError("expected_latency_s needs at least one chiplet")
        total = sum(self.latency_s(layer, chiplet)
                    for chiplet in chiplet_list)
        return total / len(chiplet_list)

    def expected_energy_j(self, layer: Layer,
                          chiplets: Iterable[ChipletLike]) -> float:
        """Expected energy of ``layer`` over the chiplet composition."""
        chiplet_list = list(chiplets)
        if not chiplet_list:
            raise ValueError("expected_energy_j needs at least one chiplet")
        total = sum(self.energy_j(layer, chiplet)
                    for chiplet in chiplet_list)
        return total / len(chiplet_list)

    def affinity(self, layer: Layer,
                 chiplets_by_class: Mapping[str, ChipletLike]) -> str:
        """Name of the dataflow class with the lowest EDP for ``layer``."""
        best_name = ""
        best_edp = float("inf")
        for name, chiplet in sorted(chiplets_by_class.items()):
            cost = self.cost(layer, chiplet)
            edp = cost.latency_s(self.clock_hz) * cost.energy_j()
            if edp < best_edp:
                best_edp = edp
                best_name = name
        return best_name
