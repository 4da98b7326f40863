"""The candidate-costing kernel shared by every scheduler policy.

:class:`CandidateEvaluator` extends the Sec. III-E cost model
(:class:`~repro.core.metrics.ScheduleEvaluator`) with the engine-layer
concerns the searches used to hand-roll individually:

* **Delta evaluation.**  Search moves -- a GA cut mutation, the next
  placement in an enumeration -- typically change *one* model's chain
  and leave the sibling chains untouched.  A chain's metrics are a pure
  function of (chain structure, the congestion factors on the chain's
  own links), so the evaluator memoizes per-chain results in the
  ``chain`` table of the :class:`~repro.core.evalcache.EvalCache` and
  re-costs only the chains whose cut boundaries, placement or relevant
  congestion actually moved.  Results are bit-identical with the fast
  path on or off; only the amount of recomputation changes.
* **Per-evaluator statistics.**  :class:`EvaluatorStats` counts how many
  segment costings the searches asked for versus how many were actually
  recomputed; :class:`~repro.core.scar.SCARScheduler` copies them into
  its :class:`repro.perf.PerfReport` (``num_segments``,
  ``num_segments_recosted``), which is what the ``BENCH_engine.json``
  trajectory artifact gates on.

Anything accepting a :class:`~repro.core.metrics.ScheduleEvaluator`
accepts a :class:`CandidateEvaluator` -- it *is* one, plus the fast path
and the counters.
"""

# scar: hot -- allocation-linted kernel module (SCAR010)
from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.core.evalcache import EvalCache
from repro.core.metrics import ModelWindowMetrics, ScheduleEvaluator
from repro.core.schedule import Segment
from repro.dataflow.database import LayerCostDatabase
from repro.mcm.package import MCM
from repro.workloads.model import Scenario


@dataclass
class EvaluatorStats:
    """Segment-costing counters of one :class:`CandidateEvaluator`.

    ``num_segments`` counts every segment of every chain the evaluator
    was asked to cost (windows served whole from the ``window`` memo are
    not asked again); ``num_segments_recosted`` counts the subset that
    actually ran the chain cost model.  The difference is the work the
    delta-evaluation fast path avoided.
    """

    num_segments: int = 0
    num_segments_recosted: int = 0


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


class CandidateEvaluator(ScheduleEvaluator):
    """Delta-costing schedule evaluator: the engine's evaluation kernel.

    Drop-in for :class:`~repro.core.metrics.ScheduleEvaluator` (it
    subclasses it), created once per scheduling run and shared across
    the run's window searches.  ``delta=False`` disables the chain-level
    fast path (every chain recomputes; used by the engine bench to
    measure what the fast path saves) -- results are bit-identical
    either way.
    """

    def __init__(self, scenario: Scenario, mcm: MCM,
                 database: LayerCostDatabase | None = None,
                 cache: EvalCache | None = None, *,
                 delta: bool = True) -> None:
        super().__init__(scenario, mcm, database, cache=cache)
        self.delta = delta
        self.stats = EvaluatorStats()
        # Chains (tuples of frozen segments) recur across thousands of
        # window placements; memoize their structure tuples so the delta
        # key build does one dict probe instead of a tuple rebuild.
        self._chain_structures: dict[tuple, tuple] = {}

    def _chain_metrics_cached(self, chain: tuple[Segment, ...],
                              congestion: dict[tuple, float]
                              ) -> ModelWindowMetrics:
        return self._lookup_chain(chain, congestion, self._chain_metrics)

    def _lookup_chain(self, chain: tuple[Segment, ...],
                      congestion: dict[tuple, float],
                      score: Callable[[tuple[Segment, ...],
                                       dict[tuple, float]], Any]) -> Any:
        """One chain's metrics through the delta memo.

        Counts the chain's segments; on a ``chain`` table miss (on every
        call with ``delta=False``) counts them as recosted too and
        returns ``score(chain, congestion)``.  The sequential path
        scores with :meth:`_chain_metrics`; the vector kernel's batch
        passes a scorer that defers the recost (see
        :meth:`~repro.engine.tensorkernel.TensorEvaluator.evaluate_windows`).
        """
        self.stats.num_segments += len(chain)

        def recost():
            self.stats.num_segments_recosted += len(chain)
            return score(chain, congestion)

        if not self.delta:
            return recost()
        structure = self._chain_structures.get(chain)
        if structure is None:
            structure = tuple((seg.model, seg.start, seg.stop, seg.node)
                              for seg in chain)
            self._chain_structures[chain] = structure
        return self.cache.lookup(
            "chain", chain_delta_key(chain, congestion, structure), recost)
