"""Search budget knobs shared by the SEG and SCHED engines.

The paper runs an exhaustive search over its heuristic-reduced space for
3x3 MCMs; this reproduction exposes the same heuristics (top-k
segmentation, sampled tree roots) with explicit caps so that experiment
runtime is bounded and deterministic.  Defaults are generous enough that
3x3 searches cover the heuristic space effectively exhaustively.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from repro.errors import ConfigError


@dataclass(frozen=True)
class SearchBudget:
    """Deterministic caps for the per-window search.

    ``top_k_segmentations``        Heuristic 1's k: candidates kept per model.
    ``max_segment_candidates``     segmentations enumerated per model before
                                   ranking (sampled beyond this count).
    ``max_root_combos``            scheduling trees explored (root-position
                                   combinations across models).
    ``max_paths_per_model``        DFS paths kept per model per tree.
    ``max_candidates_per_window``  fully-evaluated window schedules.
    ``seed``                       RNG seed for any sampling.

    Every field is an ``int`` (not a ``bool``) and every cap is ``>= 1``;
    anything else raises :class:`~repro.errors.ConfigError` here, so a
    bad budget in a request document fails when the request is built.
    """

    top_k_segmentations: int = 3
    max_segment_candidates: int = 128
    max_root_combos: int = 24
    max_paths_per_model: int = 12
    max_candidates_per_window: int = 400
    seed: int = 0

    def __post_init__(self) -> None:
        for spec in fields(self):
            value = getattr(self, spec.name)
            cap = spec.name != "seed"
            if not isinstance(value, int) or isinstance(value, bool) \
                    or (cap and value < 1):
                expected = "an integer >= 1" if cap else "an integer"
                raise ConfigError(f"budget {spec.name} must be "
                                  f"{expected}, got {value!r}")

    def fitness_slice(self, num_fitness_evals: int,
                      floor: int = 4) -> "SearchBudget":
        """Per-individual share of the window budget for GA fitness.

        The evolutionary SEG search spends one SCHED-engine run per
        individual; dividing the window's candidate budget across the
        expected ``num_fitness_evals`` keeps the GA's total evaluation
        count comparable to the enumerative engine's.
        """
        share = self.max_candidates_per_window // max(num_fitness_evals, 1)
        return replace(self,
                       max_candidates_per_window=max(floor, share))


#: Reduced budget for quick tests and CI benches.
QUICK_BUDGET = SearchBudget(
    top_k_segmentations=2,
    max_segment_candidates=32,
    max_root_combos=8,
    max_paths_per_model=6,
    max_candidates_per_window=96,
)
