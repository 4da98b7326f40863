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

A cache lives for one :meth:`~repro.core.scar.SCARScheduler.schedule`
call (or as long as a caller who injects one keeps it), so its tables
are plain dicts: the largest one a paper-scale request builds holds a
few thousand entries, and the whole cache goes when the run ends.

A cache instance is only valid for one (scenario, MCM) pair -- keys do
not include workload or package identity.  ``EvalCache(enabled=False)``,
the one switch, degrades every lookup to a recomputation: the no-memo
reference the parity tests compare cached runs against.

A batch evaluator that scores many entries in one pass (the vector
kernel's :meth:`~repro.engine.tensorkernel.TensorEvaluator.evaluate_windows`)
lets a factory return a :class:`Pending` placeholder.  Later lookups in
the batch hit the placeholder exactly as they would hit the value, and
:meth:`EvalCache.settle` then swaps each stored placeholder for its
value in place, leaving table order and counters as a sequential run
would have left them.
"""

# scar: hot -- allocation-linted kernel module (SCAR010)
from __future__ import annotations

from typing import Any, Callable

from repro.perf import CacheStats

SegmentKey = tuple
"""(model, start, stop, chiplet class_key, io_hops)."""

#: Internal sentinel distinguishing "absent" from a cached ``None``.
_MISSING = object()


class Pending:
    """A cache value its evaluator fills in later, within the same call.

    ``value`` stays unset until the evaluator computes it; whoever holds
    the placeholder (a later hit, the batch itself) reads ``value`` once
    the batch is scored, and :meth:`EvalCache.settle` then stores
    ``value`` in its place.
    """

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: Any = _MISSING


class EvalCache:
    """Hit-counting memo tables shared by one evaluator for one run.

    ``lookup(table, key, factory)`` returns the cached value or computes,
    stores and returns ``factory()``.  Unknown table names create a new
    table on first use, so auxiliary memos (e.g. the GA fitness cache)
    can report through the same stats channel via :meth:`record`.

    Entries are pure functions of their keys, and nothing evicts them:
    a cache is built for one scheduling run and goes with it.
    """

    def __init__(self, *, enabled: bool = True) -> None:
        self.enabled = enabled
        self._tables: dict[str, dict[Any, Any]] = {}
        self.stats: dict[str, CacheStats] = {}
        #: ``(table, key, placeholder)`` of every stored :class:`Pending`
        #: not yet settled.
        self._pending: list[tuple[dict, Any, Pending]] = []

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
            store = self._tables.setdefault(table, {})
        value = store.get(key, _MISSING)
        if value is not _MISSING:
            stats.record(hit=True)
            return value
        stats.record(hit=False)
        value = factory()
        store[key] = value
        if value.__class__ is Pending:
            self._pending.append((store, key, value))
        return value

    def settle(self) -> None:
        """Replace every stored :class:`Pending` by its value, in place.

        A filled placeholder keeps its table position (assigning to an
        existing key does not move it) and no counter moves; one that
        was never filled (its batch raised) is dropped, so no unfinished
        entry stays readable.
        """
        for store, key, pending in self._pending:
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
        return {table: CacheStats(hits=s.hits, misses=s.misses)
                for table, s in self.stats.items()}


def segment_place_key(segment, chiplet, io_hops: int) -> SegmentKey:
    """Placement-class cache key of one segment (node-id independent)."""
    return (segment.model, segment.start, segment.stop,
            chiplet.class_key, io_hops)

