"""Sweep execution: the grid, one cell at a time.

:func:`run_requests` is the execution layer of every campaign;
``scar sweep`` hands it a :class:`~repro.sweep.spec.SweepSpec` via
:func:`run_sweep`.  Cells already present in the
:class:`~repro.sweep.store.ResultStore` are *skipped* (their stored
results are returned bit-identically); the rest run in grid order
through ``Session.submit`` in the caller's thread, and each is recorded
to the store as soon as it finishes.  So an interrupted campaign
(Ctrl-C, SIGTERM) stops at once and loses only the cell it was
running, and a rerun resumes from the store.  The store is refreshed
before each pending cell, so a cell that another process sharing the
store finished in the meantime is skipped too, not recomputed; two
campaigns that reach the same cell at the same moment still both
compute it (cells are not claimed).

A failing cell does not abort the campaign: its error document is
collected in :attr:`SweepOutcome.failures` and *nothing* is stored, so
a rerun retries exactly the failed cells.  :attr:`SweepOutcome.perf`
aggregates the session's engine counters for this run only -- on a
fully-resumed sweep (every cell skipped) the segment-evaluation
counters stay flat at zero, which is the cheap way to verify no cell
was recomputed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.api.request import ScheduleRequest, ScheduleResult
from repro.api.session import Session
from repro.api.wire import ErrorDocument
from repro.perf import PerfReport, diff_reports
from repro.sweep.spec import SweepSpec
from repro.sweep.store import ResultStore


@dataclass
class SweepOutcome:
    """Everything one sweep run produced.

    ``results`` maps each cell's cache key to its result (stored or
    freshly computed); ``failures`` maps failed cells to their error
    documents.  ``computed``/``skipped``/``failed`` count cells (grid
    duplicates count once per occurrence in ``requests``).
    """

    requests: tuple[ScheduleRequest, ...]
    #: ``requests[i]``'s cache key -- computed once; the key dump of a
    #: request with a large inlined scenario spec is not free.
    keys: tuple[str, ...] = ()
    results: dict[str, ScheduleResult] = field(default_factory=dict)
    failures: dict[str, ErrorDocument] = field(default_factory=dict)
    computed: int = 0
    skipped: int = 0
    perf: PerfReport | None = None

    def __post_init__(self) -> None:
        if not self.keys:
            self.keys = tuple(request.cache_key()
                              for request in self.requests)

    @property
    def failed(self) -> int:
        return sum(1 for key in self.keys if key in self.failures)

    def result_for(self, request: ScheduleRequest) -> ScheduleResult | None:
        """The cell's result, or ``None`` if it failed this run."""
        return self.results.get(request.cache_key())

    def ordered_results(self) -> list[ScheduleResult | None]:
        """Results in request order (``None`` for failed cells)."""
        return [self.results.get(key) for key in self.keys]


def run_requests(requests: Iterable[ScheduleRequest], *,
                 store: ResultStore | None = None,
                 session: Session | None = None) -> SweepOutcome:
    """Run a list of cells in order, skipping any already in ``store``.

    ``session`` lets callers share a memo across campaigns.  Returns a
    :class:`SweepOutcome`; a cell that raises is collected as its error
    document, not raised.  A cell naming a policy the session's
    registry lacks raises :class:`~repro.errors.ConfigError` before any
    cell runs.  ``KeyboardInterrupt`` propagates at once; every cell
    finished before it is already in ``store``.
    """
    requests = tuple(requests)
    session = session if session is not None else Session()
    # outcome.perf covers THIS run only, even on a caller-shared session
    # whose total already holds earlier campaigns.
    perf_before = session.perf_summary()
    outcome = SweepOutcome(requests=requests)

    pending: dict[str, ScheduleRequest] = {}
    for key, request in zip(outcome.keys, requests):
        if key in outcome.results or key in pending:
            continue
        # get() parses the stored payload; a cell whose document no
        # longer loads reports absent and is recomputed below.
        stored = store.get(key) if store is not None else None
        if stored is not None:
            outcome.results[key] = stored
        else:
            pending[key] = request

    for request in pending.values():
        session.registry.get(request.policy)  # unknown: ConfigError
    computed: set[str] = set()
    for key, request in pending.items():
        if store is not None:
            # Another process sharing the store may have finished this
            # cell since the campaign started.
            store.refresh()
            stored = store.get(key)
            if stored is not None:
                outcome.results[key] = stored
                continue
        try:
            result = session.submit(request)
        except Exception as exc:  # one bad cell never aborts a campaign
            outcome.failures[key] = ErrorDocument.from_exception(exc)
            continue
        outcome.results[key] = result
        computed.add(key)
        if store is not None:
            store.record(result, key=key)
    # Counted per grid occurrence: a duplicated cell counts each time.
    outcome.computed = sum(1 for key in outcome.keys if key in computed)
    outcome.skipped = sum(1 for key in outcome.keys
                          if key in outcome.results and key not in computed)
    outcome.perf = diff_reports(session.perf_summary(), perf_before)
    return outcome


def run_sweep(spec: SweepSpec, *,
              store: ResultStore | None = None,
              session: Session | None = None) -> SweepOutcome:
    """Expand a :class:`SweepSpec` grid and run it (see
    :func:`run_requests`)."""
    return run_requests(spec.requests(), store=store, session=session)
