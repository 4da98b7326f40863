"""The search-engine layer: what every scheduler shares around the evaluator.

Every policy costs its candidates with the one scalar evaluator,
:class:`~repro.core.metrics.ScheduleEvaluator` (segment -> chain ->
window -> schedule, with the ``chain`` memo that re-costs only chains
whose cut boundaries or congestion moved, and per-evaluator statistics
feeding :mod:`repro.perf`).  This package holds the machinery around
it that the schedulers share:

* :mod:`~repro.engine.provisioning` -- the PROV step as engine plumbing
  (expected shares + allocation enumeration) shared by every scheduler.
* :mod:`~repro.engine.candidates` -- the one candidate-point assembly
  used by both the in-process and wire-side Pareto constructions.
* :mod:`~repro.engine.tensorkernel` -- the optional numpy tensor kernel
  (:class:`TensorEvaluator`, ``eval_mode="vector"``): bit-identical to
  the scalar reference, an order of magnitude faster per chain costing.

Policies (:mod:`repro.api.policies`) stay pure strategy objects: they
describe *what* to search; this package owns *how* candidates are
evaluated.
"""

from repro.engine.candidates import assemble_candidate_points
from repro.engine.provisioning import window_allocations, window_shares
from repro.engine.tensorkernel import (
    EVAL_MODES,
    TensorEvaluator,
    have_numpy,
    require_numpy,
)

__all__ = [
    "EVAL_MODES",
    "TensorEvaluator",
    "assemble_candidate_points",
    "have_numpy",
    "require_numpy",
    "window_allocations",
    "window_shares",
]
