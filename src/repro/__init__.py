"""SCAR reproduction: multi-model scheduling on heterogeneous MCMs.

Reproduces "SCAR: Scheduling Multi-Model AI Workloads on Heterogeneous
Multi-Chiplet Module Accelerators" (MICRO 2024).  See DESIGN.md for the
system inventory and EXPERIMENTS.md for paper-vs-measured results.

Quickstart::

    from repro import mcm, workloads
    from repro.core import SCARScheduler

    hardware = mcm.build("het_sides_3x3")
    scenario = workloads.scenario(4)
    result = SCARScheduler(hardware).schedule(scenario)
    print(result.metrics.summary())
"""

__version__ = "1.0.0"

from repro import api, core, dataflow, engine, mcm, perf, workloads
from repro.errors import ReproError

# repro.sweep and repro.service are importable as submodules (`from
# repro.sweep import run_sweep`) but not imported here: plain `import
# repro` needs neither, just as the CLI imports them only in the
# commands that use them.

__all__ = ["ReproError", "api", "core", "dataflow", "engine", "mcm",
           "perf", "workloads", "__version__"]
