"""The paper's ten multi-model workload scenarios (Table III).

Scenarios 1-5 are the MLPerf-derived datacenter multi-tenancy suites;
scenarios 6-10 are the XRBench AR/VR suites.  Batch sizes follow Table III
exactly.
"""

from __future__ import annotations

from functools import lru_cache

from repro.errors import WorkloadError
from repro.workloads import zoo
from repro.workloads.model import ModelInstance, Scenario

#: scenario id -> (title, use_case, ((model_name, batch), ...))
_SPECS: dict[int, tuple[str, str, tuple[tuple[str, int], ...]]] = {
    1: ("LMs", "datacenter",
        (("gpt_l", 1), ("bert_large", 3))),
    2: ("LMs + Image", "datacenter",
        (("gpt_l", 1), ("bert_large", 3), ("resnet50", 1))),
    3: ("LMs + Image (batched)", "datacenter",
        (("gpt_l", 1), ("bert_large", 3), ("resnet50", 32))),
    4: ("LMs + Segmentation + Image", "datacenter",
        (("gpt_l", 8), ("bert_large", 24), ("unet", 1), ("resnet50", 32))),
    5: ("LMs + Segmentation + Image (wide)", "datacenter",
        (("gpt_l", 8), ("bert_large", 24), ("bert_base", 24), ("unet", 1),
         ("resnet50", 32), ("googlenet", 32))),
    6: ("AR Assistant", "arvr",
        (("d2go", 10), ("planercnn", 15), ("midas", 30), ("emformer", 3),
         ("hrvit", 10))),
    7: ("AR Gaming", "arvr",
        (("planercnn", 15), ("hand_sp", 45), ("midas", 30))),
    8: ("Outdoors", "arvr",
        (("d2go", 30), ("emformer", 3))),
    9: ("Social", "arvr",
        (("eyecod", 60), ("hand_sp", 30), ("sp2dense", 30))),
    10: ("VR Gaming", "arvr",
         (("eyecod", 60), ("hand_sp", 45))),
}

#: The Table III use cases (sorted): the chiplet operating points a
#: scenario can run on.
USE_CASES: tuple[str, ...] = tuple(sorted(
    {case for _, case, _ in _SPECS.values()}))

DATACENTER_IDS: tuple[int, ...] = (1, 2, 3, 4, 5)
ARVR_IDS: tuple[int, ...] = (6, 7, 8, 9, 10)


def scenario_ids() -> tuple[int, ...]:
    """All scenario ids (1..10)."""
    return tuple(sorted(_SPECS))


@lru_cache(maxsize=None)
def scenario(scenario_id: int) -> Scenario:
    """Build scenario ``scenario_id`` exactly as curated in Table III."""
    try:
        title, use_case, models = _SPECS[scenario_id]
    except KeyError:
        raise WorkloadError(
            f"unknown scenario id {scenario_id}; valid: {scenario_ids()}"
        ) from None
    instances = tuple(ModelInstance(zoo.build(name), batch)
                      for name, batch in models)
    return Scenario(name=f"sc{scenario_id}:{title}", instances=instances,
                    use_case=use_case)


def use_case_models(use_case: str) -> tuple[str, ...]:
    """Zoo models Table III pairs with ``use_case`` (sorted, unique).

    The generator's use-case-constrained samplers draw from these pools,
    so generated workloads stay within the model families the paper
    evaluates for that deployment (datacenter MLPerf vs XRBench AR/VR).
    """
    names = {name
             for _, case, models in _SPECS.values() if case == use_case
             for name, _ in models}
    if not names:
        raise WorkloadError(
            f"unknown use case {use_case!r}; known: {USE_CASES}")
    return tuple(sorted(names))


def use_case_batches(use_case: str) -> tuple[int, ...]:
    """Batch sizes Table III runs ``use_case`` models at (sorted, unique)."""
    batches = {batch
               for _, case, models in _SPECS.values() if case == use_case
               for _, batch in models}
    if not batches:
        raise WorkloadError(
            f"unknown use case {use_case!r}; known: {USE_CASES}")
    return tuple(sorted(batches))


def datacenter_scenarios() -> tuple[Scenario, ...]:
    """Scenarios 1-5 (MLPerf datacenter multi-tenancy)."""
    return tuple(scenario(i) for i in DATACENTER_IDS)


def arvr_scenarios() -> tuple[Scenario, ...]:
    """Scenarios 6-10 (XRBench AR/VR)."""
    return tuple(scenario(i) for i in ARVR_IDS)
