"""Model and scenario IR (Definitions 1 and the workload side of Sec. III).

A :class:`Model` is a topologically-sorted sequence of :class:`Layer` objects
(the ordering SCAR's SEG engine consumes).  A :class:`ModelInstance` binds a
model to the batch size a scenario runs it at; a :class:`Scenario` is the
multi-model workload ``Sc`` of Definition 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

from repro.errors import WorkloadError
from repro.workloads.layer import Layer


@dataclass(frozen=True)
class Model:
    """A DNN model as an ordered layer sequence.

    ``layers`` must be topologically sorted: layer ``j`` may only consume
    outputs of layers ``< j``.  Skip connections are captured by
    ``skip_edges`` (producer index -> consumer index) purely for
    documentation/traffic accounting; the scheduler treats the sequence as
    the dependency chain, exactly as the paper does ("topologically sorted
    model layers").
    """

    name: str
    layers: tuple[Layer, ...]
    skip_edges: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        if not self.layers:
            raise WorkloadError(f"model {self.name!r} has no layers")
        names = [layer.name for layer in self.layers]
        if len(set(names)) != len(names):
            raise WorkloadError(f"model {self.name!r} has duplicate layer names")
        for src, dst in self.skip_edges:
            if not (0 <= src < dst < len(self.layers)):
                raise WorkloadError(
                    f"model {self.name!r}: skip edge ({src}, {dst}) is not a "
                    "forward edge within range"
                )
        # Not a field: the batched-layer memo stays out of equality,
        # hashing, repr and pickles (see __getstate__).
        object.__setattr__(self, "_batched", {})

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        del state["_batched"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        object.__setattr__(self, "_batched", {})

    def __len__(self) -> int:
        return len(self.layers)

    def __iter__(self) -> Iterator[Layer]:
        return iter(self.layers)

    def __getitem__(self, idx: int) -> Layer:
        return self.layers[idx]

    def at_batch(self, batch: int) -> tuple[Layer, ...]:
        """Every layer with its batch dimension set to ``batch``.

        Built once per batch and kept on the model, so every request
        that schedules this model reads the same tuple; zoo models live
        for the process (:func:`repro.workloads.zoo.build` caches them),
        and a search asks for the same few batches -- an instance's
        batch and its divisors -- hundreds of thousands of times.  Two
        threads that race on a first call build equal tuples and the
        first one stored wins.
        """
        layers = self._batched.get(batch)
        if layers is None:
            layers = self._batched.setdefault(
                batch, tuple(layer.with_batch(batch)
                             for layer in self.layers))
        return layers

    @property
    def total_macs(self) -> int:
        """Total MAC count across all layers (batch 1 as defined)."""
        return sum(layer.macs for layer in self.layers)

    @property
    def total_weight_bytes(self) -> int:
        """Total parameter size of the model."""
        return sum(layer.weight_bytes for layer in self.layers)

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.name}: {len(self.layers)} layers, "
            f"{self.total_macs / 1e9:.2f} GMACs, "
            f"{self.total_weight_bytes / 1e6:.1f} MB weights"
        )


#: Largest batch a :class:`ModelInstance` may run at.  Far above any
#: batch the paper runs (Table III tops out at 60), and small enough
#: that the cost model's per-batch work stays trivial: it enumerates the
#: batch's divisors in O(sqrt(batch)), which for a 21-digit batch alone
#: takes longer than a whole Table III search.
MAX_BATCH = 1 << 16


@dataclass(frozen=True)
class ModelInstance:
    """A model bound to the batch size a scenario executes it with.

    ``instance_name`` makes the tenant addressable when a scenario runs
    several instances of the same model (the ``model#k`` convention of
    generated multi-tenant workloads: ``resnet50``, ``resnet50#2``, ...).
    ``None`` means the instance is simply known by its model's name;
    an explicit name equal to the model name normalizes back to ``None``
    so wire round-trips compare equal.
    """

    model: Model
    batch: int = 1
    instance_name: str | None = None

    def __post_init__(self) -> None:
        # bool is an int subclass: reject it explicitly, then anything
        # non-integral -- a float batch silently poisons total_macs and
        # every batched layer shape downstream.
        if isinstance(self.batch, bool) or not isinstance(self.batch, int):
            raise WorkloadError(
                f"instance of {self.model.name!r}: batch must be an int, "
                f"got {self.batch!r} ({type(self.batch).__name__})"
            )
        if not 1 <= self.batch <= MAX_BATCH:
            raise WorkloadError(
                f"instance of {self.model.name!r}: batch must be in "
                f"[1, {MAX_BATCH}], got {self.batch}"
            )
        if self.instance_name is not None:
            if not isinstance(self.instance_name, str) \
                    or not self.instance_name:
                raise WorkloadError(
                    f"instance of {self.model.name!r}: instance_name must "
                    f"be a non-empty string, got {self.instance_name!r}"
                )
            if self.instance_name == self.model.name:
                object.__setattr__(self, "instance_name", None)

    @property
    def name(self) -> str:
        """The tenant-unique name schedules and lookups key on."""
        return self.instance_name if self.instance_name is not None \
            else self.model.name

    @property
    def num_layers(self) -> int:
        return len(self.model)

    def layer(self, idx: int) -> Layer:
        """Layer ``idx`` with the instance batch applied."""
        return self.model.at_batch(self.batch)[idx]

    def layers(self) -> tuple[Layer, ...]:
        """All layers with the instance batch applied."""
        return self.model.at_batch(self.batch)

    @property
    def total_macs(self) -> int:
        return self.model.total_macs * self.batch


@dataclass(frozen=True)
class Scenario:
    """Multi-model workload scenario ``Sc`` (Definition 1).

    ``use_case`` tags the scenario family ("datacenter" or "arvr"), which
    selects the hardware operating point in the experiment drivers (4096 vs
    256 PEs per chiplet).
    """

    name: str
    instances: tuple[ModelInstance, ...]
    use_case: str = "datacenter"

    def __post_init__(self) -> None:
        if not self.instances:
            raise WorkloadError(f"scenario {self.name!r} has no models")
        names = [inst.name for inst in self.instances]
        if len(set(names)) != len(names):
            raise WorkloadError(
                f"scenario {self.name!r} has duplicate instance names: "
                f"{names}; give repeated tenants unique instance names "
                f"(the 'model#k' convention, e.g. 'resnet50#2')"
            )

    def __len__(self) -> int:
        return len(self.instances)

    def __iter__(self) -> Iterator[ModelInstance]:
        return iter(self.instances)

    def __getitem__(self, idx: int) -> ModelInstance:
        return self.instances[idx]

    @property
    def model_names(self) -> tuple[str, ...]:
        """Tenant-unique instance names, in instance order.

        For single-tenant scenarios these are plain model names; a
        scenario running the same model twice reports e.g.
        ``("resnet50", "resnet50#2")``.
        """
        return tuple(inst.name for inst in self.instances)

    @property
    def total_layers(self) -> int:
        """``L`` of Sec. II-D: total layer count across all models."""
        return sum(inst.num_layers for inst in self.instances)

    def instance(self, model_name: str) -> ModelInstance:
        """Look up a model instance by its (tenant-unique) instance name."""
        for inst in self.instances:
            if inst.name == model_name:
                return inst
        raise WorkloadError(
            f"scenario {self.name!r} has no instance named {model_name!r}; "
            f"instances: {list(self.model_names)}"
        )

    def summary(self) -> str:
        lines = [f"scenario {self.name} ({self.use_case}), "
                 f"{len(self.instances)} models, {self.total_layers} layers"]
        for inst in self.instances:
            lines.append(f"  - {inst.model.summary()} @ batch {inst.batch}")
        return "\n".join(lines)


def scheduling_space_magnitude(scenario: Scenario, num_chiplets: int) -> float:
    """Order-of-magnitude of the raw scheduling space (Sec. II-D).

    ``O(C^L * L! / (L1! L2! ... LN!))`` expressed as a log10 so the 10^56
    figure from the paper is reproducible without overflowing.
    """
    import math

    total = scenario.total_layers
    log10 = total * math.log10(num_chiplets)
    log10 += math.lgamma(total + 1) / math.log(10)
    for inst in scenario.instances:
        log10 -= math.lgamma(inst.num_layers + 1) / math.log(10)
    return log10
