"""Configuration files (Fig. 4 "Input Configs"): JSON round-trips.

The paper's framework takes (1) multi-model workload description files and
(2) an MCM hardware description file.  Both are represented here as plain
JSON documents; schedules can also be exported for downstream tooling.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.core.schedule import Schedule, Segment, WindowSchedule
from repro.errors import ConfigError, SchedulingError, WorkloadError
from repro.mcm.chiplet import Chiplet
from repro.mcm.package import MCM
from repro.mcm.topology import Topology
from repro.workloads import zoo
from repro.workloads.layer import Layer, LayerOp
from repro.workloads.model import Model, ModelInstance, Scenario
from repro.workloads.scenarios import USE_CASES

# -- MCM ----------------------------------------------------------------


def mcm_to_dict(mcm: MCM) -> dict[str, Any]:
    """Serialize an MCM hardware description."""
    return {
        "name": mcm.name,
        "topology": {
            "rows": mcm.topology.rows,
            "cols": mcm.topology.cols,
            "kind": mcm.topology.kind,
        },
        "chiplets": [
            {
                "dataflow": c.dataflow,
                "num_pes": c.num_pes,
                "sram_bytes": c.sram_bytes,
                "noc_gbps": c.noc_gbps,
                "mem_gbps": c.mem_gbps,
            }
            for c in mcm.chiplets
        ],
        "offchip_gbps": mcm.offchip_gbps,
        "nop_gbps": mcm.nop_gbps,
        "nop_hop_s": mcm.nop_hop_s,
        "dram_latency_s": mcm.dram_latency_s,
        "clock_hz": mcm.clock_hz,
    }


def mcm_from_dict(data: dict[str, Any]) -> MCM:
    """Rebuild an MCM from its serialized form."""
    try:
        topo = Topology(rows=data["topology"]["rows"],
                        cols=data["topology"]["cols"],
                        kind=data["topology"].get("kind", "mesh"))
        chiplets = tuple(Chiplet(**entry) for entry in data["chiplets"])
        return MCM(name=data["name"], chiplets=chiplets, topology=topo,
                   offchip_gbps=data.get("offchip_gbps", 64.0),
                   nop_gbps=data.get("nop_gbps", 100.0),
                   nop_hop_s=data.get("nop_hop_s", 35e-9),
                   dram_latency_s=data.get("dram_latency_s", 200e-9),
                   clock_hz=data.get("clock_hz", 500e6))
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"malformed MCM config: {exc}") from exc


# -- workloads ------------------------------------------------------------


def _layer_to_dict(layer: Layer) -> dict[str, Any]:
    return {
        "name": layer.name, "op": layer.op.value, "n": layer.n,
        "k": layer.k, "c": layer.c, "y": layer.y, "x": layer.x,
        "r": layer.r, "s": layer.s, "stride": layer.stride,
        "bytes_per_element": layer.bytes_per_element,
    }


def _layer_from_dict(data: dict[str, Any]) -> Layer:
    fields = dict(data)
    fields["op"] = LayerOp(fields["op"])
    return Layer(**fields)


def _rebuilds_from_zoo(model: Model) -> bool:
    """True when ``zoo.build(model.name)`` reproduces ``model`` exactly."""
    try:
        return zoo.build(model.name) == model
    except WorkloadError:
        return False


def scenario_to_dict(scenario: Scenario, *,
                     inline_layers: bool = False) -> dict[str, Any]:
    """Serialize a scenario.

    Models that rebuild bit-identically from the zoo are referenced by
    name (compact, Table III style); custom or modified models have
    their layers inlined automatically so the emitted document always
    loads back through :func:`scenario_from_dict`.  ``inline_layers``
    forces inlining for every model.  Tenants whose instance name
    differs from their model name (the ``model#k`` convention) carry a
    ``"name"`` entry.
    """
    instances = []
    for inst in scenario:
        entry: dict[str, Any] = {"model": inst.model.name,
                                 "batch": inst.batch}
        if inst.instance_name is not None:
            entry["name"] = inst.instance_name
        if inline_layers or not _rebuilds_from_zoo(inst.model):
            entry["layers"] = [_layer_to_dict(layer)
                               for layer in inst.model.layers]
        instances.append(entry)
    return {"name": scenario.name, "use_case": scenario.use_case,
            "models": instances}


def scenario_from_dict(data: dict[str, Any]) -> Scenario:
    """Rebuild a scenario; models resolve from the zoo unless inlined.

    Every malformed-document failure -- missing keys, an unknown zoo
    model, a non-integer batch, a ``use_case`` outside
    :data:`~repro.workloads.scenarios.USE_CASES` -- surfaces as
    :class:`ConfigError`, the same contract as every other config
    loader in this module.
    """
    try:
        instances = []
        for entry in data["models"]:
            if "layers" in entry:
                model = Model(name=entry["model"],
                              layers=tuple(_layer_from_dict(l)
                                           for l in entry["layers"]))
            else:
                model = zoo.build(entry["model"])
            instances.append(ModelInstance(model, entry.get("batch", 1),
                                           instance_name=entry.get("name")))
        use_case = data.get("use_case", "datacenter")
        if use_case not in USE_CASES:
            raise ConfigError("malformed scenario config: use_case must "
                              f"be one of {USE_CASES}, got {use_case!r}")
        return Scenario(name=data["name"], instances=tuple(instances),
                        use_case=use_case)
    except (KeyError, TypeError, ValueError, WorkloadError) as exc:
        raise ConfigError(f"malformed scenario config: {exc}") from exc


# -- schedules ---------------------------------------------------------------


def schedule_to_dict(schedule: Schedule) -> dict[str, Any]:
    """Serialize a schedule (the Fig. 4 'Final Schedule' output)."""
    return {
        "windows": [
            {
                "index": window.index,
                "chains": [
                    [{"model": s.model, "start": s.start, "stop": s.stop,
                      "node": s.node} for s in chain]
                    for chain in window.chains
                ],
            }
            for window in schedule.windows
        ]
    }


def schedule_from_dict(data: dict[str, Any]) -> Schedule:
    """Rebuild a schedule from its serialized form.

    A document that parses but names an invalid schedule (a negative
    segment bound, a non-contiguous chain) fails the
    :class:`Schedule` checks; that is a :class:`ConfigError` here, like
    any other malformed document.
    """
    try:
        windows = []
        for wdata in data["windows"]:
            chains = tuple(
                tuple(Segment(**seg) for seg in chain)
                for chain in wdata["chains"])
            windows.append(WindowSchedule(index=wdata["index"],
                                          chains=chains))
        return Schedule(windows=tuple(windows))
    except (KeyError, TypeError, SchedulingError) as exc:
        raise ConfigError(f"malformed schedule config: {exc}") from exc


# -- file I/O --------------------------------------------------------------------


def save_json(data: dict[str, Any], path: str | Path) -> None:
    """Write a config document with stable formatting."""
    Path(path).write_text(json.dumps(data, indent=2, sort_keys=True))


def load_json(path: str | Path) -> dict[str, Any]:
    """Read a config document."""
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
