"""Seeded scenario generator: deterministic workload families.

The paper evaluates exactly ten hand-curated Table III scenarios; this
module produces arbitrarily many more, deterministically from a seed, so
large scheduling campaigns (:mod:`repro.sweep`) have workloads to run
over:

* :func:`random_mix` -- multi-tenant mixes drawn from the zoo, with
  model and batch pools constrained to the use case's Table III
  families (datacenter MLPerf vs XRBench AR/VR);
* :func:`replicated` -- N tenants of the *same* model at (possibly
  different) batch sizes, the classic scale-out shape;
* :class:`GeneratorSpec` + :func:`generate` -- a declarative, JSON
  round-trippable description of a scenario family, the form ``scar
  generate`` consumes.

Determinism contract: the same spec (same seed) produces bit-identical
scenarios -- equal as dataclasses and exact through the
:func:`repro.config.files.scenario_to_dict` wire round-trip.  RNG
streams are seeded from strings (stable across processes and Python
hash randomization), never from global state.

Repeated tenants follow the ``model#k`` instance-name convention
(``resnet50``, ``resnet50#2``, ...): schedules, lookups and reports key
on tenant-unique instance names, see
:class:`repro.workloads.model.ModelInstance`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Sequence

from repro.errors import ConfigError, WorkloadError
from repro.workloads import zoo
from repro.workloads.model import ModelInstance, Scenario
from repro.workloads.scenarios import use_case_batches, use_case_models

#: Document kind/version of the GeneratorSpec wire form.
SPEC_KIND = "generator_spec"
SPEC_VERSION = 1

_KINDS = ("random_mix", "replicated")


def _instances(pairs: Sequence[tuple[str, int]]) -> tuple[ModelInstance, ...]:
    """Build instances, naming repeated tenants ``model#k``.

    The first tenant of a model keeps the plain model name; the k-th
    (k >= 2) becomes ``model#k``, in draw order, so the naming is a pure
    function of the pair sequence.
    """
    counts: dict[str, int] = {}
    instances = []
    for model_name, batch in pairs:
        counts[model_name] = counts.get(model_name, 0) + 1
        k = counts[model_name]
        instance_name = None if k == 1 else f"{model_name}#{k}"
        instances.append(ModelInstance(zoo.build(model_name), batch,
                                       instance_name=instance_name))
    return tuple(instances)


def random_mix(seed: int, *, tenants: int = 3,
               use_case: str = "datacenter",
               models: Sequence[str] | None = None,
               batches: Sequence[int] | None = None,
               index: int = 0, name: str | None = None) -> Scenario:
    """A seeded random multi-tenant mix drawn from the zoo.

    ``tenants`` models are drawn with replacement from ``models``
    (default: the use case's Table III pool), each at a batch drawn from
    ``batches`` (default: the use case's Table III batch sizes).
    Repeats get ``model#k`` instance names.  ``index`` selects a sibling
    scenario within the same seeded family (used by :func:`generate`).
    """
    if tenants < 1:
        raise WorkloadError(f"tenants must be >= 1, got {tenants}")
    model_pool = tuple(models) if models is not None \
        else use_case_models(use_case)
    batch_pool = tuple(batches) if batches is not None \
        else use_case_batches(use_case)
    for model_name in model_pool:
        zoo.build(model_name)  # validates the pool up front
    rng = random.Random(f"random_mix:{seed}:{index}")
    pairs = [(rng.choice(model_pool), rng.choice(batch_pool))
             for _ in range(tenants)]
    return Scenario(
        name=name or f"gen:mix:{use_case}:s{seed}.{index}",
        instances=_instances(pairs), use_case=use_case)


def replicated(model: str, batches: Sequence[int], *,
               use_case: str = "datacenter",
               name: str | None = None) -> Scenario:
    """N tenants of the same zoo model at the given batch sizes.

    ``replicated("resnet50", (1, 8, 32))`` is three resnet50 tenants
    named ``resnet50`` / ``resnet50#2`` / ``resnet50#3`` at batches 1,
    8 and 32.
    """
    batches = tuple(batches)
    if not batches:
        raise WorkloadError("replicated scenario needs at least one batch")
    pairs = [(model, batch) for batch in batches]
    return Scenario(
        name=name or f"gen:rep:{model}x{len(batches)}",
        instances=_instances(pairs), use_case=use_case)


@dataclass(frozen=True)
class GeneratorSpec:
    """Declarative description of one seeded scenario family.

    ``kind`` selects the sampler (``"random_mix"`` / ``"replicated"``);
    ``count`` scenarios are generated, each from its own seeded RNG
    stream (``seed``, index), so families are reproducible and
    extensible (growing ``count`` keeps earlier scenarios identical).

    ``random_mix`` uses ``tenants``, and optionally ``models`` /
    ``batches`` to override the use-case-constrained pools.
    ``replicated`` requires ``model``; explicit ``batches`` pin the
    tenant batch sizes (then every generated scenario is the same shape
    and ``count`` should be 1), otherwise ``tenants`` batches are drawn
    per scenario from the use-case pool.
    """

    kind: str
    seed: int = 0
    count: int = 1
    use_case: str = "datacenter"
    tenants: int = 3
    model: str | None = None
    models: tuple[str, ...] | None = None
    batches: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ConfigError(
                f"unknown generator kind {self.kind!r}; known: {_KINDS}")
        if self.count < 1:
            raise ConfigError(f"count must be >= 1, got {self.count}")
        if self.tenants < 1:
            raise ConfigError(f"tenants must be >= 1, got {self.tenants}")
        if self.kind == "replicated" and not self.model:
            raise ConfigError("replicated spec requires a model name")
        # Reject kind-irrelevant fields instead of silently ignoring
        # them -- a spec naming both is almost certainly a mistake.
        if self.kind == "random_mix" and self.model is not None:
            raise ConfigError(
                "random_mix ignores 'model'; use 'models' to constrain "
                "the pool (or kind='replicated')")
        if self.kind == "replicated" and self.models is not None:
            raise ConfigError(
                "replicated takes one 'model', not a 'models' pool")
        if self.models is not None:
            object.__setattr__(self, "models", tuple(self.models))
        if self.batches is not None:
            object.__setattr__(self, "batches", tuple(self.batches))

    # -- wire format -------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": SPEC_KIND,
            "version": SPEC_VERSION,
            "generator": self.kind,
            "seed": self.seed,
            "count": self.count,
            "use_case": self.use_case,
            "tenants": self.tenants,
            "model": self.model,
            "models": None if self.models is None else list(self.models),
            "batches": None if self.batches is None else list(self.batches),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "GeneratorSpec":
        # repro.api imports the workloads package, so not at module level.
        from repro.api.wire import check_envelope

        check_envelope(data, SPEC_KIND, (SPEC_VERSION,))
        try:
            return cls(
                kind=data["generator"],
                seed=data.get("seed", 0),
                count=data.get("count", 1),
                use_case=data.get("use_case", "datacenter"),
                tenants=data.get("tenants", 3),
                model=data.get("model"),
                models=None if data.get("models") is None
                else tuple(data["models"]),
                batches=None if data.get("batches") is None
                else tuple(data["batches"]),
            )
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"malformed generator spec: {exc}") from exc


def generate(spec: GeneratorSpec) -> tuple[Scenario, ...]:
    """Materialize a spec's ``count`` scenarios, deterministically.

    Scenario ``i`` depends only on ``(spec, i)``: regenerating with the
    same spec is bit-identical, and growing ``count`` appends without
    disturbing earlier scenarios.
    """
    scenarios = []
    for i in range(spec.count):
        if spec.kind == "random_mix":
            scenarios.append(random_mix(
                spec.seed, tenants=spec.tenants, use_case=spec.use_case,
                models=spec.models, batches=spec.batches, index=i))
        else:  # replicated
            assert spec.model is not None  # __post_init__ guarantees it
            if spec.batches is not None:
                batches: Sequence[int] = spec.batches
            else:
                rng = random.Random(f"replicated:{spec.seed}:{i}")
                pool = use_case_batches(spec.use_case)
                batches = tuple(rng.choice(pool)
                                for _ in range(spec.tenants))
            scenarios.append(replicated(
                spec.model, batches, use_case=spec.use_case,
                name=f"gen:rep:{spec.model}x{len(batches)}:"
                     f"s{spec.seed}.{i}"))
    return tuple(scenarios)
