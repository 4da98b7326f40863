"""Seeded tenant event traces: the dynamic-workload input of the sim layer.

A :class:`Trace` is an ordered sequence of :class:`TenantEvent` values --
tenants ARRIVE and DEPART at integer ticks, each arrival carrying the
tenant's model, batch and latency deadline (its SLA).  Replaying a trace
(:mod:`repro.sim.replay`) re-schedules the active tenant set at every
event, which is the paper's setting made dynamic: many tenants sharing
one MCM package, coming and going.

Traces are either written by hand (JSON, ``kind:"trace"``) or generated
from a :class:`TraceSpec` (``kind:"trace_spec"``) via
:func:`generate_trace`.  Two seeded families exist:

* ``"arrivals"`` -- each tenant draws model/batch independently from the
  use-case Table III pools (the :mod:`repro.workloads.generator` shape,
  extended in time);
* ``"uunifast"`` -- the classic UUNIFAST utilization-splitting algorithm
  assigns each tenant a share of a total utilization budget, which maps
  to its batch size (heavier share, larger batch); the real-time
  task-generation idiom, driving load rather than drawing it.

Determinism contract (lint-guarded by SCAR002): the same spec produces a
byte-identical trace JSON.  All randomness flows through string-seeded
``random.Random`` streams -- one per tenant -- so traces are stable
across processes and hash randomization, and growing ``tenants`` keeps
earlier tenants' events identical.

Event ordering is canonical: sorted by ``(tick, kind, tenant)`` with
departures before arrivals at the same tick (capacity frees up first),
so trace identity is a pure function of its events.
"""

from __future__ import annotations

import json
import math
import random
import sys
from dataclasses import dataclass
from typing import Any, Sequence

from repro.api.wire import WIRE_VERSION, check_envelope, loads_document
from repro.errors import ConfigError
from repro.workloads import zoo
from repro.workloads.model import MAX_BATCH
from repro.workloads.scenarios import (
    USE_CASES,
    use_case_batches,
    use_case_models,
)

TRACE_KIND = "trace"
TRACE_SPEC_KIND = "trace_spec"

#: Event kinds, in same-tick execution order (departures free capacity
#: before the tick's arrivals are admitted).
EVENT_KINDS = ("depart", "arrive")

_FAMILIES = ("arrivals", "uunifast")

#: Most tenants one :class:`TraceSpec` may generate.  Each tenant is one
#: model of the scenario a replay schedules, so a spec far beyond this
#: could never be replayed, and generating it would not end.
MAX_TENANTS = 1024


def _is_a(value: Any, kinds: type | tuple[type, ...]) -> bool:
    """``isinstance(value, kinds)``, except that a bool is no number."""
    return isinstance(value, kinds) and not isinstance(value, bool)


def _is_deadline(value: Any) -> bool:
    """A positive number that fits a double.

    A JSON integer can exceed every double: compare, never convert.
    """
    return _is_a(value, (int, float)) \
        and 0 < value <= sys.float_info.max


def _check_use_case(owner: str, use_case: Any) -> None:
    if use_case not in USE_CASES:
        raise ConfigError(
            f"{owner}: use_case must be one of {USE_CASES}, "
            f"got {use_case!r}")


@dataclass(frozen=True)
class TenantEvent:
    """One tenant lifecycle edge.

    ``arrive`` events carry the tenant's workload (``model`` from the
    zoo, ``batch`` in ``[1, MAX_BATCH]``) and its SLA (``deadline_s``:
    the end-to-end latency bound the tenant expects per scheduling
    round, a positive number that fits a double; ``None`` = best
    effort).  ``depart`` events carry only the tenant id -- workload
    fields on a departure are rejected rather than ignored, mirroring
    the generator's kind-irrelevant-field policy.
    """

    tick: int
    kind: str
    tenant: str
    model: str | None = None
    batch: int | None = None
    deadline_s: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ConfigError(
                f"unknown event kind {self.kind!r}; known: {EVENT_KINDS}")
        if not isinstance(self.tick, int) or isinstance(self.tick, bool) \
                or self.tick < 0:
            raise ConfigError(
                f"event tick must be a non-negative int, got {self.tick!r}")
        if not self.tenant or not isinstance(self.tenant, str):
            raise ConfigError(
                f"event tenant must be a non-empty string, "
                f"got {self.tenant!r}")
        if self.kind == "arrive":
            if self.model is None or self.batch is None:
                raise ConfigError(
                    f"arrive event for {self.tenant!r} needs model and "
                    f"batch")
            if self.model not in zoo.model_names():
                raise ConfigError(
                    f"arrive event for {self.tenant!r}: model must be "
                    f"one of {zoo.model_names()}, got {self.model!r}")
            if not _is_a(self.batch, int) \
                    or not 1 <= self.batch <= MAX_BATCH:
                raise ConfigError(
                    f"arrive event for {self.tenant!r}: batch must be "
                    f"an integer in [1, {MAX_BATCH}], got {self.batch!r}")
            if self.deadline_s is not None \
                    and not _is_deadline(self.deadline_s):
                raise ConfigError(
                    f"arrive event for {self.tenant!r}: deadline_s must "
                    f"be None or a positive number that fits a double, "
                    f"got {self.deadline_s!r}")
        else:  # depart
            if self.model is not None or self.batch is not None \
                    or self.deadline_s is not None:
                raise ConfigError(
                    f"depart event for {self.tenant!r} must not carry "
                    f"model/batch/deadline_s")

    def sort_key(self) -> tuple[int, int, str]:
        """The canonical event order (departs first within a tick)."""
        return (self.tick, EVENT_KINDS.index(self.kind), self.tenant)

    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {"tick": self.tick, "kind": self.kind,
                                "tenant": self.tenant}
        if self.kind == "arrive":
            data["model"] = self.model
            data["batch"] = self.batch
            data["deadline_s"] = self.deadline_s
        return data

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "TenantEvent":
        try:
            return cls(tick=data["tick"], kind=data["kind"],
                       tenant=data["tenant"], model=data.get("model"),
                       batch=data.get("batch"),
                       deadline_s=data.get("deadline_s"))
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"malformed tenant event: {exc}") from exc


@dataclass(frozen=True)
class Trace:
    """An ordered tenant event sequence over one use case.

    Validation enforces the replayable invariants up front: a Table III
    use case, events in canonical order, every arrival introduces a
    not-currently-active tenant, every departure names an active one,
    and a re-arriving tenant carries the same workload each time (tenant
    identity means workload identity, so scenario construction is a pure
    function of the active set).  With :class:`TenantEvent`'s own
    checks, a malformed document fails in :meth:`from_dict` with
    :class:`ConfigError`, never at the first replayed event.
    """

    name: str
    events: tuple[TenantEvent, ...]
    use_case: str = "datacenter"

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ConfigError(
                f"trace needs a non-empty string name, got {self.name!r}")
        _check_use_case(f"trace {self.name!r}", self.use_case)
        object.__setattr__(self, "events", tuple(self.events))
        active: set[str] = set()
        seen: dict[str, tuple] = {}
        previous: TenantEvent | None = None
        for event in self.events:
            if previous is not None \
                    and event.sort_key() < previous.sort_key():
                raise ConfigError(
                    f"trace {self.name!r}: events out of canonical order "
                    f"at tick {event.tick} ({event.tenant!r}); sort by "
                    f"(tick, depart-before-arrive, tenant)")
            if event.kind == "arrive":
                if event.tenant in active:
                    raise ConfigError(
                        f"trace {self.name!r}: tenant {event.tenant!r} "
                        f"arrives at tick {event.tick} while already "
                        f"active")
                workload = (event.model, event.batch, event.deadline_s)
                if seen.setdefault(event.tenant, workload) != workload:
                    raise ConfigError(
                        f"trace {self.name!r}: tenant {event.tenant!r} "
                        f"re-arrives with a different workload; tenant "
                        f"ids must map to one (model, batch, deadline)")
                active.add(event.tenant)
            else:
                if event.tenant not in active:
                    raise ConfigError(
                        f"trace {self.name!r}: tenant {event.tenant!r} "
                        f"departs at tick {event.tick} without being "
                        f"active")
                active.discard(event.tenant)
            previous = event

    def tenants(self) -> tuple[str, ...]:
        """All tenant ids that ever arrive, sorted."""
        return tuple(sorted({e.tenant for e in self.events
                             if e.kind == "arrive"}))

    def deadlines(self) -> dict[str, float | None]:
        """Tenant id -> its SLA (validation guarantees one per tenant)."""
        return {e.tenant: e.deadline_s for e in self.events
                if e.kind == "arrive"}

    # -- wire format -------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": TRACE_KIND,
            "version": WIRE_VERSION,
            "name": self.name,
            "use_case": self.use_case,
            "events": [event.to_dict() for event in self.events],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Trace":
        check_envelope(data, TRACE_KIND)
        try:
            return cls(
                name=data["name"],
                use_case=data.get("use_case", "datacenter"),
                events=tuple(TenantEvent.from_dict(entry)
                             for entry in data["events"]),
            )
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"malformed trace: {exc}") from exc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Trace":
        return cls.from_dict(loads_document(text, "trace"))


@dataclass(frozen=True)
class TraceSpec:
    """Declarative description of one seeded trace family.

    ``family`` selects the sampler; ``tenants`` lifecycles are generated
    over ``horizon`` integer ticks, each tenant from its own string-
    seeded RNG stream, so growing ``tenants`` or re-generating is
    bit-identical for existing tenants.

    ``arrivals`` draws each tenant's model and batch uniformly from the
    use-case pools (``models`` / ``batches`` override them).

    ``uunifast`` splits ``utilization`` (total load, in units of "pool-
    maximum batches"; default 0.5 = half the package's heaviest uniform
    load) across the tenants with the UUNIFAST algorithm and maps each
    share to a batch from the sorted pool -- so the *load profile* is
    the seeded quantity, the real-time-systems idiom.  ``batches``
    overrides the pool being mapped onto; a per-tenant ``model`` pool
    is drawn as in ``arrivals``.

    Deadlines are drawn log-uniformly from ``deadline_range`` (seconds);
    ``None`` generates best-effort tenants.

    Counts, pools (``models`` holds zoo model names), ranges, the seed
    and the use case are checked here, so a malformed one fails in
    :meth:`from_dict` with :class:`ConfigError`, not as an untyped
    error in :func:`generate_trace` or at the first replayed event.
    """

    family: str
    seed: int = 0
    tenants: int = 4
    horizon: int = 16
    use_case: str = "datacenter"
    models: tuple[str, ...] | None = None
    batches: tuple[int, ...] | None = None
    utilization: float = 0.5
    deadline_range: tuple[float, float] | None = (0.05, 0.5)
    name: str | None = None

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise ConfigError(
                f"unknown trace family {self.family!r}; "
                f"known: {_FAMILIES}")
        if not _is_a(self.seed, int):
            raise ConfigError(
                f"seed must be an integer, got {self.seed!r}")
        _check_use_case("trace spec", self.use_case)
        if not _is_a(self.tenants, int) \
                or not 1 <= self.tenants <= MAX_TENANTS:
            raise ConfigError(
                f"tenants must be an integer in [1, {MAX_TENANTS}], "
                f"got {self.tenants!r}")
        if not _is_a(self.horizon, int) or self.horizon < 2:
            raise ConfigError(
                f"horizon must be an integer >= 2 ticks, "
                f"got {self.horizon!r}")
        if not _is_a(self.utilization, (int, float)) \
                or not 0.0 < self.utilization <= 1.0:
            raise ConfigError(
                f"utilization must be in (0, 1], got {self.utilization!r}")
        if self.models is not None:
            if not isinstance(self.models, (list, tuple)) or not self.models \
                    or not all(m in zoo.model_names() for m in self.models):
                raise ConfigError(
                    f"models must be None or a non-empty list of names "
                    f"from {zoo.model_names()}, got {self.models!r}")
            object.__setattr__(self, "models", tuple(self.models))
        if self.batches is not None:
            if not isinstance(self.batches, (list, tuple)) \
                    or not self.batches or not all(
                        _is_a(b, int) and 1 <= b <= MAX_BATCH
                        for b in self.batches):
                raise ConfigError(
                    f"batches must be a non-empty pool of ints in "
                    f"[1, {MAX_BATCH}], got {self.batches!r}")
            object.__setattr__(self, "batches", tuple(self.batches))
        if self.deadline_range is not None:
            bounds = self.deadline_range
            if not isinstance(bounds, (list, tuple)) or len(bounds) != 2 \
                    or not all(_is_deadline(b) for b in bounds) \
                    or not bounds[0] <= bounds[1]:
                raise ConfigError(
                    f"deadline_range must be None or two numbers with "
                    f"0 < low <= high and high a finite double, "
                    f"got {bounds!r}")
            object.__setattr__(self, "deadline_range",
                               (float(bounds[0]), float(bounds[1])))
        if self.name is not None and not isinstance(self.name, str):
            raise ConfigError(
                f"name must be None or a string, got {self.name!r}")

    def trace_name(self) -> str:
        return self.name or (f"sim:{self.family}:{self.use_case}:"
                             f"s{self.seed}x{self.tenants}")

    # -- wire format -------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": TRACE_SPEC_KIND,
            "version": WIRE_VERSION,
            "family": self.family,
            "seed": self.seed,
            "tenants": self.tenants,
            "horizon": self.horizon,
            "use_case": self.use_case,
            "models": None if self.models is None else list(self.models),
            "batches": None if self.batches is None
            else list(self.batches),
            "utilization": self.utilization,
            "deadline_range": None if self.deadline_range is None
            else list(self.deadline_range),
            "name": self.name,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "TraceSpec":
        check_envelope(data, TRACE_SPEC_KIND)
        try:
            return cls(
                family=data["family"],
                seed=data.get("seed", 0),
                tenants=data.get("tenants", 4),
                horizon=data.get("horizon", 16),
                use_case=data.get("use_case", "datacenter"),
                models=data.get("models"),
                batches=data.get("batches"),
                utilization=data.get("utilization", 0.5),
                deadline_range=data.get("deadline_range"),
                name=data.get("name"),
            )
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"malformed trace spec: {exc}") from exc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "TraceSpec":
        return cls.from_dict(loads_document(text, "trace spec"))


# -- generation ------------------------------------------------------------


def _uunifast(total: float, count: int,
              rng: random.Random) -> tuple[float, ...]:
    """The UUNIFAST utilization split: ``count`` shares summing to
    ``total``, uniformly distributed over the valid simplex (Bini &
    Buttazzo's algorithm, the standard real-time task generator)."""
    shares = []
    remaining = total
    for i in range(1, count):
        next_remaining = remaining * rng.random() ** (1.0 / (count - i))
        shares.append(remaining - next_remaining)
        remaining = next_remaining
    shares.append(remaining)
    return tuple(shares)


def _lifecycle(rng: random.Random,
               horizon: int) -> tuple[int, int]:
    """(arrive, depart) ticks with at least one tick of residency."""
    arrive = rng.randrange(0, horizon - 1)
    depart = rng.randrange(arrive + 1, horizon)
    return arrive, depart


def _deadline(rng: random.Random,
              deadline_range: tuple[float, float] | None) -> float | None:
    """A log-uniform SLA draw (scale-free across the range)."""
    if deadline_range is None:
        return None
    low, high = deadline_range
    if low == high:
        return low
    return math.exp(rng.uniform(math.log(low), math.log(high)))


def generate_trace(spec: TraceSpec) -> Trace:
    """Materialize a spec's trace, deterministically.

    Tenant ``i`` depends only on ``(spec, i)`` -- its RNG stream is
    seeded ``trace:<family>:<seed>:<i>`` -- except for the ``uunifast``
    utilization split, which by construction couples all shares through
    one stream (``trace:uunifast:<seed>:shares``).
    """
    model_pool = tuple(spec.models) if spec.models is not None \
        else use_case_models(spec.use_case)
    batch_pool = tuple(sorted(spec.batches)) if spec.batches is not None \
        else tuple(sorted(use_case_batches(spec.use_case)))

    shares: tuple[float, ...] | None = None
    if spec.family == "uunifast":
        share_rng = random.Random(
            f"trace:uunifast:{spec.seed}:shares:{spec.tenants}")
        shares = _uunifast(spec.utilization, spec.tenants, share_rng)

    events: list[TenantEvent] = []
    for i in range(spec.tenants):
        rng = random.Random(f"trace:{spec.family}:{spec.seed}:{i}")
        model = rng.choice(model_pool)
        if spec.family == "arrivals":
            batch = rng.choice(batch_pool)
        else:
            assert shares is not None
            # Map the tenant's utilization share onto the sorted batch
            # pool: share/utilization is its fraction of total load.
            fraction = shares[i] / spec.utilization
            index = min(int(fraction * len(batch_pool)),
                        len(batch_pool) - 1)
            batch = batch_pool[index]
        arrive, depart = _lifecycle(rng, spec.horizon)
        deadline = _deadline(rng, spec.deadline_range)
        tenant = f"{model}#t{i}"
        events.append(TenantEvent(tick=arrive, kind="arrive",
                                  tenant=tenant, model=model, batch=batch,
                                  deadline_s=deadline))
        events.append(TenantEvent(tick=depart, kind="depart",
                                  tenant=tenant))
    events.sort(key=TenantEvent.sort_key)
    return Trace(name=spec.trace_name(), events=tuple(events),
                 use_case=spec.use_case)
