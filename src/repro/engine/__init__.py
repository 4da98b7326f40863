"""The unified search-engine layer: one evaluation kernel for every policy.

This package is the single place scheduling candidates are *costed*:

* :class:`CandidateEvaluator` -- the costing kernel every policy routes
  through (segment -> chain -> window -> schedule), with a
  delta-evaluation fast path that re-costs only chains whose cut
  boundaries or congestion moved, and per-evaluator statistics feeding
  :mod:`repro.perf`.
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
from repro.engine.evaluator import (
    CandidateEvaluator,
    EvaluatorStats,
    chain_delta_key,
)
from repro.engine.provisioning import window_allocations, window_shares
from repro.engine.tensorkernel import (
    EVAL_MODES,
    TensorEvaluator,
    have_numpy,
    require_numpy,
)

__all__ = [
    "CandidateEvaluator",
    "EVAL_MODES",
    "EvaluatorStats",
    "TensorEvaluator",
    "assemble_candidate_points",
    "chain_delta_key",
    "have_numpy",
    "require_numpy",
    "window_allocations",
    "window_shares",
]
