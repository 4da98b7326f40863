"""Performance instrumentation: cache counters and run reports.

The evaluation acceleration layer (see DESIGN.md, "Evaluation
acceleration") surfaces its effect through two small value types:

* :class:`CacheStats` -- hit/miss counters for one memo table of
  :class:`repro.core.evalcache.EvalCache` (or any other memo that wants
  to report, e.g. the evolutionary fitness cache).
* :class:`PerfReport` -- one scheduling run's wall time, evaluation
  counts and merged cache statistics.  ``render()`` is the human-readable
  form printed by ``scar ... --perf-stats``; ``to_dict()`` is the
  machine-readable form written into ``benchmarks/BENCH_*.json``.

Both types merge associatively, so a long run of scheduling calls keeps
one running total rather than a log: :func:`log_report` folds every run
into the process total, and a reader that wants "the work since X"
diffs two snapshots with :func:`diff_reports`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field


@dataclass
class CacheStats:
    """Hit/miss counters of one memo table."""

    hits: int = 0
    misses: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when unused)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def record(self, hit: bool) -> None:
        if hit:
            self.hits += 1
        else:
            self.misses += 1

    def to_dict(self) -> dict:
        return {"hits": self.hits, "misses": self.misses,
                "hit_rate": self.hit_rate}


def merge_stats(*stat_maps: dict[str, CacheStats]) -> dict[str, CacheStats]:
    """Merge per-table stat maps (many runs' counters -> one aggregate)."""
    merged: dict[str, CacheStats] = {}
    for stats in stat_maps:
        for table, entry in stats.items():
            base = merged.setdefault(table, CacheStats())
            base.hits += entry.hits
            base.misses += entry.misses
    return merged


def diff_stats(after: dict[str, CacheStats],
               before: dict[str, CacheStats]) -> dict[str, CacheStats]:
    """Per-table counter delta ``after - before``.

    ``after`` and ``before`` are two snapshots of one running total
    (see :func:`diff_reports`).  Tables absent from ``before`` count
    from zero; negative deltas never occur because counters are
    monotone.
    """
    delta: dict[str, CacheStats] = {}
    for table, entry in after.items():
        base = before.get(table, CacheStats())
        delta[table] = CacheStats(hits=entry.hits - base.hits,
                                  misses=entry.misses - base.misses)
    return delta


@dataclass
class PerfReport:
    """Timing / evaluation statistics of one scheduling run.

    ``num_evaluated``          fully evaluated window candidates.
    ``num_windows``            time windows searched.
    ``cache``                  per-table cache counters.
    ``num_segments``           segment costings the evaluator was asked
                               for (every chain segment of every window
                               the search scored).
    ``num_segments_recosted``  segment costings actually recomputed; the
                               difference is what the evaluator's
                               ``chain`` memo saved (see
                               :class:`repro.core.metrics.ScheduleEvaluator`).
    """

    wall_s: float = 0.0
    num_evaluated: int = 0
    num_windows: int = 0
    cache: dict[str, CacheStats] = field(default_factory=dict)
    num_segments: int = 0
    num_segments_recosted: int = 0

    @property
    def evals_per_s(self) -> float:
        return self.num_evaluated / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def segment_reuse_rate(self) -> float:
        """Fraction of segment costings served by delta-evaluation."""
        if not self.num_segments:
            return 0.0
        return 1.0 - self.num_segments_recosted / self.num_segments

    def cache_table(self, table: str) -> CacheStats:
        """Counters of one memo table (zeroes when the table never ran)."""
        return self.cache.get(table, CacheStats())

    @property
    def overall_hit_rate(self) -> float:
        """Hit rate over every memo table combined."""
        hits = sum(s.hits for s in self.cache.values())
        lookups = sum(s.lookups for s in self.cache.values())
        return hits / lookups if lookups else 0.0

    def render(self) -> str:
        """Human-readable block for ``--perf-stats``."""
        lines = [
            f"wall time      {self.wall_s * 1e3:.1f} ms",
            f"evaluations    {self.num_evaluated} window candidates over "
            f"{self.num_windows} windows ({self.evals_per_s:.0f} evals/s)",
        ]
        if self.num_segments:
            lines.append(
                f"segments       {self.num_segments_recosted}/"
                f"{self.num_segments} re-costed "
                f"({self.segment_reuse_rate:.1%} delta reuse)")
        for table in sorted(self.cache):
            stats = self.cache[table]
            lines.append(
                f"cache[{table:8s}] {stats.hits}/{stats.lookups} hits "
                f"({stats.hit_rate:.1%})")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """Machine-readable form (the ``BENCH_*.json`` payload)."""
        return {
            "wall_s": self.wall_s,
            "num_evaluated": self.num_evaluated,
            "num_windows": self.num_windows,
            "evals_per_s": self.evals_per_s,
            "num_segments": self.num_segments,
            "num_segments_recosted": self.num_segments_recosted,
            "segment_reuse_rate": self.segment_reuse_rate,
            "cache": {table: stats.to_dict()
                      for table, stats in sorted(self.cache.items())},
        }


@dataclass
class TimingSummary:
    """Aggregate of wall-time samples (per-job queue / run times).

    The scheduling service feeds one sample per job into two of these
    (time spent ``QUEUED`` and time spent ``RUNNING``) and surfaces them
    through ``SchedulerService.perf_summary()``.
    """

    count: int = 0
    total_s: float = 0.0
    max_s: float = 0.0

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count if self.count else 0.0

    def add(self, sample_s: float) -> None:
        self.count += 1
        self.total_s += sample_s
        self.max_s = max(self.max_s, sample_s)

    @classmethod
    def from_samples(cls, samples) -> "TimingSummary":
        summary = cls()
        for sample in samples:
            summary.add(sample)
        return summary

    def to_dict(self) -> dict:
        return {"count": self.count, "total_s": self.total_s,
                "mean_s": self.mean_s, "max_s": self.max_s}


def aggregate_reports(reports: list[PerfReport]) -> PerfReport:
    """Merge perf reports of many runs into one summary.

    The result shares no counters with its inputs, so it stays a value.
    """
    return PerfReport(
        wall_s=sum(p.wall_s for p in reports),
        num_evaluated=sum(p.num_evaluated for p in reports),
        num_windows=sum(p.num_windows for p in reports),
        cache=merge_stats(*(p.cache for p in reports)),
        num_segments=sum(p.num_segments for p in reports),
        num_segments_recosted=sum(p.num_segments_recosted
                                  for p in reports),
    )


def diff_reports(after: PerfReport, before: PerfReport) -> PerfReport:
    """The runs folded into a running total between two snapshots.

    ``after`` and ``before`` are snapshots of one running total (see
    :func:`process_total` and ``Session.perf_summary()``); the result
    counts exactly the reports logged in between.  Cache tables that saw
    no lookups in the span are left out.
    """
    cache = diff_stats(after.cache, before.cache)
    return PerfReport(
        wall_s=after.wall_s - before.wall_s,
        num_evaluated=after.num_evaluated - before.num_evaluated,
        num_windows=after.num_windows - before.num_windows,
        cache={table: stats for table, stats in cache.items()
               if stats.lookups},
        num_segments=after.num_segments - before.num_segments,
        num_segments_recosted=after.num_segments_recosted
        - before.num_segments_recosted,
    )


#: Running total of every report :func:`log_report` was given in this
#: process.  ``SCARScheduler.schedule`` logs each run here, so front-ends
#: (``scar ... --perf-stats``) can account for runs that experiment
#: drivers make with schedulers they construct internally.  Replaced,
#: never mutated, so a snapshot a reader holds keeps its value.
_process_total = PerfReport()  # guarded by: _TOTAL_LOCK
_TOTAL_LOCK = threading.Lock()


def log_report(report: PerfReport) -> None:
    """Fold one run's report into the process-wide running total."""
    global _process_total
    with _TOTAL_LOCK:
        _process_total = aggregate_reports([_process_total, report])


def process_total() -> PerfReport:
    """Every report logged in this process so far, summed (a snapshot)."""
    with _TOTAL_LOCK:
        return _process_total
