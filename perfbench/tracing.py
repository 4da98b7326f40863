"""Outside-in spans: wrap each layer's public functions from outside.

The program has no span recorder of its own yet, so the traced run
patches the functions below -- each where its caller looks it up -- with
a wrapper that records ``(layer, start, end, parent, op)``.  Spans stay
in memory (compact per-thread arrays) and are written once, when the
traced process ends; :func:`aggregate` turns them into per-layer call
counts and self times (a span's duration minus the part covered by its
child spans).

A patch target that no longer exists (a function renamed or moved) does
not crash the run: its layer is reported unavailable with the reason.
"""

from __future__ import annotations

import array
import functools
import importlib
import inspect
import json
import sys
import threading
from time import perf_counter

#: (layer, defining module, qualified name).  Functions are patched in
#: the defining module and in every loaded ``repro`` module that imported
#: the same object by name; methods are patched on their class.
IN_PROCESS_LAYERS = (
    ("api.submit", "repro.api.session", "Session.submit"),
    ("api.cached", "repro.api.session", "Session.cached"),
    ("api.policy_run", "repro.api.registry", "SchedulerRegistry.run"),
    ("workloads.resolve", "repro.api.request",
     "ScheduleRequest.resolve_scenario"),
    ("mcm.build", "repro.mcm.templates", "build"),
    ("dataflow.cost", "repro.dataflow.database", "LayerCostDatabase.cost"),
    ("dataflow.compute", "repro.dataflow.cost", "compute_layer_cost"),
    ("core.pack", "repro.core.packing", "expected_layer_latencies"),
    ("core.pack", "repro.core.packing", "expected_layer_energies"),
    ("core.pack", "repro.core.packing", "greedy_pack"),
    ("core.seg", "repro.core.segmentation", "rank_segmentations"),
    ("core.sched", "repro.core.sched_engine", "search_window"),
    ("engine.prov", "repro.engine.provisioning", "window_shares"),
    ("engine.prov", "repro.engine.provisioning", "window_allocations"),
    ("engine.window_eval", "repro.core.metrics",
     "ScheduleEvaluator.evaluate_window"),
)

#: Inside a ``scar serve`` replica (installed by ``worker.py serve``).
SERVER_LAYERS = (
    ("api.cached", "repro.api.session", "Session.cached"),
    ("api.request_from_dict", "repro.api.request",
     "ScheduleRequest.from_dict"),
    ("api.cache_key", "repro.api.request", "ScheduleRequest.cache_key"),
    ("api.result_to_dict", "repro.api.request", "ScheduleResult.to_dict"),
)

#: In the serve-hits client process.
CLIENT_LAYERS = (
    ("service.client_submit", "repro.service.client",
     "ServiceClient.submit"),
    ("service.client_result", "repro.service.client",
     "ServiceClient.result"),
    ("api.result_from_dict", "repro.api.request",
     "ScheduleResult.from_dict"),
)

#: The layer whose span flag records a memo hit (a non-None return).
_MEMO_PROBE = "api.cached"


class _Buffer:
    """One thread's spans, as parallel arrays (about 37 bytes a span)."""

    def __init__(self) -> None:
        self.layer = array.array("H")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("q")
        self.op = array.array("q")
        self.flag = array.array("b")
        self.stack: list[int] = []

    def columns(self):
        return (self.layer, self.start, self.end, self.parent, self.op,
                self.flag)


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.layers: list[str] = []
        self.unavailable: dict[str, str] = {}
        #: Index of the op in flight; spans carry it as their request id.
        self.op = -1
        self._buffers: list[_Buffer] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _buffer(self) -> _Buffer:
        buffer = getattr(self._local, "buffer", None)
        if buffer is None:
            buffer = self._local.buffer = _Buffer()
            with self._lock:
                self._buffers.append(buffer)
        return buffer

    def _layer_id(self, layer: str) -> int:
        if layer not in self.layers:
            self.layers.append(layer)
        return self.layers.index(layer)

    def wrap(self, layer: str, fn):
        """``fn`` wrapped to record one span per call under ``layer``."""
        layer_id = self._layer_id(layer)
        hit_flag = layer == _MEMO_PROBE
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buffer = tracer._buffer()
            index = len(buffer.start)
            buffer.layer.append(layer_id)
            buffer.parent.append(buffer.stack[-1] if buffer.stack else -1)
            buffer.op.append(tracer.op)
            buffer.flag.append(0)
            buffer.end.append(0.0)
            buffer.stack.append(index)
            buffer.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                buffer.end[index] = perf_counter()
                buffer.stack.pop()
            if hit_flag and result is not None:
                buffer.flag[index] = 1
            return result

        return traced

    def install(self, targets) -> None:
        """Patch every target; record the reason for each one that fails."""
        for layer, module_name, qualname in targets:
            reason = self._patch(layer, module_name, qualname)
            if reason is not None:
                self.unavailable[layer] = reason

    def _patch(self, layer: str, module_name: str,
               qualname: str) -> str | None:
        where = f"{module_name}.{qualname}"
        try:
            module = importlib.import_module(module_name)
        except ImportError as exc:
            return f"{module_name} not importable: {exc}"
        owner_name, _, attr = qualname.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            if owner is None or attr not in vars(owner):
                return f"{where} not found"
            static = inspect.getattr_static(owner, attr)
            if isinstance(static, (classmethod, staticmethod)):
                setattr(owner, attr,
                        type(static)(self.wrap(layer, static.__func__)))
            else:
                setattr(owner, attr, self.wrap(layer, static))
            return None
        original = getattr(module, attr, None)
        if original is None:
            return f"{where} not found"
        traced = self.wrap(layer, original)
        # Patch each place a caller looks the function up: its module and
        # every loaded repro module that imported it by name.
        for loaded in list(sys.modules.values()):
            if getattr(loaded, "__name__", "").startswith("repro") \
                    and vars(loaded).get(attr) is original:
                setattr(loaded, attr, traced)
        return None

    def write(self, path: str) -> None:
        """Write every span: a JSON header line, then raw array bytes."""
        with self._lock:
            buffers = list(self._buffers)
        header = {"layers": self.layers, "unavailable": self.unavailable,
                  "threads": [len(b.start) for b in buffers],
                  "typecodes": [c.typecode for c in buffers[0].columns()]
                  if buffers else []}
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode("utf-8") + b"\n")
            for buffer in buffers:
                for column in buffer.columns():
                    column.tofile(out)


def read_spans(path: str):
    """(header, [per-thread (layer, start, end, parent, op, flag)])."""
    with open(path, "rb") as source:
        header = json.loads(source.readline())
        threads = []
        for count in header["threads"]:
            columns = []
            for typecode in header["typecodes"]:
                column = array.array(typecode)
                column.fromfile(source, count)
                columns.append(column)
            threads.append(tuple(columns))
    return header, threads


def aggregate(header, threads, window=None) -> dict:
    """Per-layer ``{count, self_s, hits, memo_misses}`` over the spans.

    ``window=(start, end)`` keeps only spans inside it (perf_counter is
    the system-wide monotonic clock on Linux, so a client can bound a
    replica's spans).  ``memo_misses`` counts ``api.submit`` spans that
    reached a policy run: everything else a submit did was a memo hit.
    """
    layers = header["layers"]
    stats = {name: {"count": 0, "self_s": 0.0, "hits": 0}
             for name in layers}
    policy = layers.index("api.policy_run") \
        if "api.policy_run" in layers else -1
    submit_misses = 0
    for layer, start, end, parent, _op, flag in threads:
        child = [0.0] * len(start)
        for i in range(len(start)):
            if parent[i] >= 0:
                child[parent[i]] += end[i] - start[i]
        missed = {parent[i] for i in range(len(start))
                  if layer[i] == policy and parent[i] >= 0}
        for i in range(len(start)):
            if window is not None and not (
                    window[0] <= start[i] and end[i] <= window[1]):
                continue
            entry = stats[layers[layer[i]]]
            entry["count"] += 1
            entry["self_s"] += end[i] - start[i] - child[i]
            entry["hits"] += flag[i]
            if i in missed:
                submit_misses += 1
    stats.setdefault("api.submit", {"count": 0, "self_s": 0.0, "hits": 0})
    stats["api.submit"]["hits"] = \
        stats["api.submit"]["count"] - submit_misses
    return stats
