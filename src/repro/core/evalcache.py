"""Memoized segment-cost cache for the schedule evaluator.

Candidates inside one window overwhelmingly share ``(model, start, stop)``
sub-chains -- the SCHED engine re-places the same segmentations over and
over -- and a segment's cost does not depend on *which* chiplet hosts it,
only on the chiplet's **placement class**::

    place_key = (chiplet.class_key, io_hops(node))

``class_key`` fixes the dataflow/resource tuple (compute cycles, SRAM
residency) and ``io_hops`` fixes every off-chip term (DRAM re-fetch,
weight streaming).  Two segments with equal place keys are bit-identical
in cost, so the cache can serve a segment evaluated on node 3 when the
search later tries node 5 of the same class.

Three memo tables live here (hit/miss counters per table, surfaced via
:mod:`repro.perf`):

``compute``   (model, start, stop, place_key, minibatch) -> (lat_s, j)
              The mini-batch is part of the key because intra-layer cost
              is *non-linear* in batch (tiling, stalls, DRAM re-fetch
              rounds change shape); the pipelining tile factor is applied
              *after* lookup as ``var/tile + fix`` -- see DESIGN.md.
``static``    (model, start, stop, place_key) -> weight/residency terms.
``chain``     (chain structure, relevant congestion factors) -> one
              model's :class:`~repro.core.metrics.ModelWindowMetrics`;
              the delta evaluation of
              :class:`~repro.core.metrics.ScheduleEvaluator` serves
              chains whose cut boundaries did not move from here.

Every table is **LRU-bounded** at :data:`MAX_ENTRIES` entries; long
service sessions therefore hold cache memory constant, and evicted
entries simply recompute bit-identically on the next lookup.  Eviction
counts ride along in the per-table :class:`~repro.perf.CacheStats` and
surface through :meth:`snapshot`.

A cache instance is only valid for one (scenario, MCM) pair -- keys do
not include workload or package identity.  ``EvalCache(enabled=False)``,
the one switch, degrades every lookup to a recomputation: the no-memo
reference the parity tests compare cached runs against.

A batch evaluator that scores many entries in one pass (the vector
kernel's :meth:`~repro.engine.tensorkernel.TensorEvaluator.evaluate_windows`)
lets a factory return a :class:`Pending` placeholder.  Later lookups in
the batch hit the placeholder exactly as they would hit the value, and
:meth:`EvalCache.settle` then swaps each stored placeholder for its
value in place, leaving LRU order and counters as a sequential run
would have left them.
"""

# scar: hot -- allocation-linted kernel module (SCAR010)
from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable

from repro.perf import CacheStats

SegmentKey = tuple
"""(model, start, stop, chiplet class_key, io_hops)."""

#: Per-table LRU cap.  Generous enough that single paper-scale runs
#: effectively never evict, small enough that a long-running job service
#: cannot grow per-run caches without bound.
MAX_ENTRIES = 65536

#: Internal sentinel distinguishing "absent" from a cached ``None``.
_MISSING = object()


class Pending:
    """A cache value its evaluator fills in later, within the same call.

    ``value`` stays unset until the evaluator computes it; whoever holds
    the placeholder (a later hit, the batch itself) reads ``value`` once
    the batch is scored.
    """

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: Any = _MISSING


class EvalCache:
    """Hit-counting, LRU-bounded memo tables shared by one evaluator.

    ``lookup(table, key, factory)`` returns the cached value or computes,
    stores and returns ``factory()``.  Unknown table names create a new
    table on first use, so auxiliary memos (e.g. the GA fitness cache)
    can report through the same stats channel via :meth:`record`.

    :data:`MAX_ENTRIES` bounds every table with least-recently-used
    eviction.  Eviction never changes results -- entries are pure
    functions of their keys -- it only trades recomputation for memory.
    """

    def __init__(self, *, enabled: bool = True) -> None:
        self.enabled = enabled
        self._tables: dict[str, OrderedDict[Any, Any]] = {}
        self.stats: dict[str, CacheStats] = {}
        #: ``(table, key, placeholder)`` of every stored :class:`Pending`
        #: not yet settled.
        self._pending: list[tuple[OrderedDict, Any, Pending]] = []

    def _stats(self, table: str) -> CacheStats:
        if table not in self.stats:
            self.stats[table] = CacheStats()
        return self.stats[table]

    def lookup(self, table: str, key: Any,
               factory: Callable[[], Any]) -> Any:
        """Fetch ``key`` from ``table``, computing via ``factory`` on miss."""
        stats = self.stats.get(table)
        if stats is None:
            stats = self._stats(table)
        if not self.enabled:
            stats.record(hit=False)
            return factory()
        store = self._tables.get(table)
        if store is None:
            store = self._tables.setdefault(table, OrderedDict())
        value = store.get(key, _MISSING)
        if value is not _MISSING:
            stats.record(hit=True)
            store.move_to_end(key)  # LRU touch
            return value
        stats.record(hit=False)
        value = factory()
        store[key] = value
        if value.__class__ is Pending:
            self._pending.append((store, key, value))
        while len(store) > MAX_ENTRIES:
            store.popitem(last=False)
            stats.evictions += 1
        return value

    def settle(self) -> None:
        """Replace every stored :class:`Pending` by its value, in place.

        A filled placeholder keeps its LRU position (assigning to an
        existing key does not move it) and no counter moves; one that
        was never filled (its batch raised) is dropped, so no unfinished
        entry stays readable.  A placeholder evicted meanwhile, or
        replaced by a later miss on the same key, is skipped.
        """
        for store, key, pending in self._pending:
            if store.get(key) is pending:
                if pending.value is _MISSING:
                    del store[key]
                else:
                    store[key] = pending.value
        self._pending.clear()

    def record(self, table: str, hit: bool) -> None:
        """Count a hit/miss for a memo managed outside this cache."""
        self._stats(table).record(hit)

    def size(self, table: str) -> int:
        return len(self._tables.get(table, ()))

    def snapshot(self) -> dict[str, CacheStats]:
        """Copy of the per-table counters (a report keeps it as a value)."""
        return {table: CacheStats(hits=s.hits, misses=s.misses,
                                  evictions=s.evictions)
                for table, s in self.stats.items()}


def segment_place_key(segment, chiplet, io_hops: int) -> SegmentKey:
    """Placement-class cache key of one segment (node-id independent)."""
    return (segment.model, segment.start, segment.stop,
            chiplet.class_key, io_hops)

