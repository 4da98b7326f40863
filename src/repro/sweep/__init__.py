"""Sweep orchestration: declarative, resumable scheduling campaigns.

A declarative :class:`SweepSpec` grid (scenarios x templates x
policies x objectives x ``nsplits`` x ``beam``) expands into
:class:`~repro.api.request.ScheduleRequest` cells, runs them one after
another on one :class:`~repro.api.Session`, and records each in a
resumable JSONL :class:`ResultStore` keyed by the cell's
``cache_key``::

    from repro.sweep import ResultStore, SweepSpec, run_sweep, sweep_report

    spec = SweepSpec(scenarios=(1, 2), policies=("scar", "standalone"))
    store = ResultStore("campaign.jsonl")
    outcome = run_sweep(spec, store=store)
    print(sweep_report(outcome).render())   # rerun: all cells skipped

:func:`run_requests` runs an explicit request list the same way.  See
DESIGN.md ("Scenario generation and sweeps").
"""

from repro.sweep.report import SweepReport, sweep_report
from repro.sweep.runner import SweepOutcome, run_requests, run_sweep
from repro.sweep.spec import SweepSpec, cell_scenario_label
from repro.sweep.status import SweepStatus, sweep_status
from repro.sweep.store import CELL_KIND, ResultStore

__all__ = [
    "CELL_KIND", "ResultStore", "SweepOutcome", "SweepReport",
    "SweepSpec", "SweepStatus", "cell_scenario_label", "run_requests",
    "run_sweep", "sweep_report", "sweep_status",
]
