"""Aggregation and plain-text reporting over sweep outcomes.

Mirrors the experiment drivers' reporting style (aligned ASCII tables,
no plotting dependency): one row per cell with its metrics, a
best-EDP-per-scenario summary, and the run's computed/skipped/failed
tallies -- the operator-facing view of a campaign and of how much a
resume actually skipped.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sweep.runner import SweepOutcome
from repro.sweep.spec import cell_scenario_label


@dataclass(frozen=True)
class SweepReport:
    """Rendered-table view of one :class:`SweepOutcome`."""

    outcome: SweepOutcome

    def summary_line(self) -> str:
        outcome = self.outcome
        return (f"sweep: {len(outcome.requests)} cells, "
                f"{outcome.computed} computed, {outcome.skipped} skipped "
                f"(resumed), {outcome.failed} failed")

    def cell_rows(self) -> list[tuple]:
        rows = []
        for request, key in zip(self.outcome.requests,
                                self.outcome.keys):
            label = cell_scenario_label(request)
            result = self.outcome.results.get(key)
            if result is None:
                error = self.outcome.failures.get(key)
                status = error.code if error is not None else "missing"
                rows.append((label, request.template, request.policy,
                             request.objective, request.nsplits,
                             request.beam if request.beam is not None
                             else "-",
                             status, "-", "-"))
                continue
            rows.append((label, request.template, request.policy,
                         request.objective, request.nsplits,
                         request.beam if request.beam is not None else "-",
                         result.latency_s, result.energy_j, result.edp))
        return rows

    def best_by_scenario(self) -> dict[str, tuple]:
        """Per scenario label: the (request, result) with the lowest EDP."""
        best: dict[str, tuple] = {}
        for request, key in zip(self.outcome.requests,
                                self.outcome.keys):
            result = self.outcome.results.get(key)
            if result is None:
                continue
            label = cell_scenario_label(request)
            if label not in best or result.edp < best[label][1].edp:
                best[label] = (request, result)
        return best

    def to_document(self) -> dict:
        """Plain-JSON report document (``kind: "sweep_report"``).

        Carries the resume-verification facts alongside the cell
        metrics: ``computed``/``skipped``/``failed`` tallies and the
        run's aggregate segment-evaluation counter (``num_segments``),
        which stays flat at 0 when every cell was served from the
        store.
        """
        from repro.api.wire import WIRE_VERSION

        outcome = self.outcome
        cells = []
        for request, key in zip(outcome.requests, outcome.keys):
            result = outcome.results.get(key)
            cell: dict = {
                "scenario": cell_scenario_label(request),
                "template": request.template,
                "policy": request.policy,
                "objective": request.objective,
                "nsplits": request.nsplits,
                "beam": request.beam,
                "key": key,
            }
            if result is None:
                error = outcome.failures.get(key)
                cell["error"] = None if error is None else error.to_dict()
            else:
                cell["latency_s"] = result.latency_s
                cell["energy_j"] = result.energy_j
                cell["edp"] = result.edp
            cells.append(cell)
        return {
            "kind": "sweep_report",
            "version": WIRE_VERSION,
            "cells": len(outcome.requests),
            "computed": outcome.computed,
            "skipped": outcome.skipped,
            "failed": outcome.failed,
            "num_segments": 0 if outcome.perf is None
            else outcome.perf.num_segments,
            "rows": cells,
        }

    def render(self) -> str:
        # Imported lazily: the experiment drivers are themselves sweep
        # consumers, so a module-level import would be circular.
        from repro.experiments.reporting import format_table

        blocks = [self.summary_line()]
        blocks.append(format_table(
            ("scenario", "template", "policy", "objective", "nsplits",
             "beam", "latency (s)", "energy (J)", "EDP (J.s)"),
            self.cell_rows(), title="sweep cells"))
        best = self.best_by_scenario()
        if best:
            rows = [(label, request.template, request.policy,
                     result.edp)
                    for label, (request, result) in sorted(best.items())]
            blocks.append(format_table(
                ("scenario", "template", "policy", "best EDP (J.s)"),
                rows, title="best EDP per scenario"))
        return "\n\n".join(blocks)


def sweep_report(outcome: SweepOutcome) -> SweepReport:
    """The report view of one outcome (``.render()`` for the text)."""
    return SweepReport(outcome)
