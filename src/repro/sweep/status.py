"""Read-only campaign progress: which cells of a sweep are done.

``scar sweep --status`` answers "how far along is this campaign?"
without running anything: expand the :class:`~repro.sweep.spec.SweepSpec`
grid, check each cell's cache key against the
:class:`~repro.sweep.store.ResultStore`, and report finished / pending
counts plus the pending cells themselves.  Safe to run while another
process is executing the sweep -- the store is only read.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api.request import ScheduleRequest
from repro.sweep.spec import SweepSpec, cell_scenario_label
from repro.sweep.store import ResultStore


@dataclass(frozen=True)
class SweepStatus:
    """Progress snapshot of one (spec, store) pair.

    ``finished``/``pending`` partition the grid's requests in
    expansion order; a cell is finished when its ``cache_key`` is
    present in the store.  ``extra`` counts store entries that are not
    cells of this spec (a shared store, or a spec that shrank).
    """

    spec: SweepSpec
    finished: tuple[ScheduleRequest, ...]
    pending: tuple[ScheduleRequest, ...]
    extra: int

    @property
    def total(self) -> int:
        return len(self.finished) + len(self.pending)

    @property
    def complete(self) -> bool:
        return not self.pending

    def to_document(self) -> dict:
        """Plain-JSON progress document (``kind: "sweep_status"``)."""
        from repro.api.wire import WIRE_VERSION

        def row(request: ScheduleRequest) -> dict:
            return {
                "scenario": cell_scenario_label(request),
                "template": request.template,
                "policy": request.policy,
                "objective": request.objective,
                "nsplits": request.nsplits,
                "beam": request.beam,
                "key": request.cache_key(),
            }

        return {
            "kind": "sweep_status",
            "version": WIRE_VERSION,
            "cells": self.total,
            "finished": len(self.finished),
            "pending": len(self.pending),
            "extra_store_entries": self.extra,
            "complete": self.complete,
            "pending_rows": [row(request) for request in self.pending],
        }

    def render(self) -> str:
        lines = [
            f"sweep status: {len(self.finished)}/{self.total} cells "
            f"finished, {len(self.pending)} pending"
            + (f", {self.extra} unrelated store entries"
               if self.extra else "")
        ]
        for request in self.pending:
            beam = request.beam if request.beam is not None else "-"
            lines.append(
                f"  pending: {cell_scenario_label(request)} "
                f"{request.template} {request.policy} "
                f"{request.objective} nsplits={request.nsplits} "
                f"beam={beam}")
        if self.complete:
            lines.append("  campaign complete")
        return "\n".join(lines)


def sweep_status(spec: SweepSpec,
                 store: ResultStore | None) -> SweepStatus:
    """Snapshot a campaign's progress against its result store.

    ``store=None`` (no ``--store``) means nothing is persisted: every
    cell is pending.
    """
    requests = spec.requests()
    if store is None:
        return SweepStatus(spec=spec, finished=(), pending=requests,
                           extra=0)
    store.refresh()
    finished = []
    pending = []
    spec_keys = set()
    for request in requests:
        key = request.cache_key()
        spec_keys.add(key)
        if key in store:
            finished.append(request)
        else:
            pending.append(request)
    extra = sum(1 for key in store.keys() if key not in spec_keys)
    return SweepStatus(spec=spec, finished=tuple(finished),
                       pending=tuple(pending), extra=extra)
