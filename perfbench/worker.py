"""The benchmark's child process: one fresh interpreter per measurement.

Roles (``python perfbench/worker.py <role> ...``; ``run.py`` starts them
with ``src/`` on ``PYTHONPATH``):

``startup WORKLOAD``          import the workload's public API, build what
                              a caller builds before its first op, print
                              ``ready`` -- one ``setup_s`` sample.
``run IN.json OUT.json``      run one workload's op list (optionally
                              traced) and write timings, checks and
                              counters.
``serve SPANS -- ARGS...``    a ``scar serve`` replica with the server-side
                              span wrappers installed; writes its spans
                              when the replica exits (SIGTERM).
"""

from __future__ import annotations

import json
import math
import os
import resource
import sys
from time import perf_counter

import ops
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")

#: Per-op ceiling on a serve-hits round trip (a memo hit takes ~20 ms).
OP_TIMEOUT_S = 60.0
#: Ceiling on one warm-up search in the replica.
WARMUP_TIMEOUT_S = 300.0


def payload(result) -> dict:
    """The deterministic payload of a ``ScheduleResult`` as plain JSON.

    ``same_payload`` minus the request, which differs between the scalar
    run that wrote the expected file and the vector runs checked against
    it only in its execution fields.
    """
    from repro.config.files import schedule_to_dict
    from repro.api.wire import metrics_to_dict

    return {
        "schedule": schedule_to_dict(result.schedule),
        "metrics": metrics_to_dict(result.metrics),
        "window_candidates": [[point.to_dict() for point in window]
                              for window in result.window_candidates],
        "num_evaluated": result.num_evaluated,
    }


def matches(result, digest: str | None) -> bool:
    """True when ``result``'s payload hashes to the expected digest."""
    return digest is not None \
        and ops.payload_digest(payload(result)) == digest


def compact_bytes(result) -> int:
    return len(json.dumps(result.to_dict(), separators=(",", ":")))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as source:
        return json.load(source)


def perf_counters(reports) -> dict:
    """Engine and eval-cache counters summed over per-search reports."""
    counters = {"engine.candidates": 0, "engine.segments": 0,
                "engine.segments_recosted": 0}
    tables: dict[str, list[int]] = {}
    for perf in reports:
        counters["engine.candidates"] += perf.num_evaluated
        counters["engine.segments"] += perf.num_segments
        counters["engine.segments_recosted"] += perf.num_segments_recosted
        for table, stats in perf.cache.items():
            entry = tables.setdefault(table, [0, 0])
            entry[0] += stats.hits
            entry[1] += stats.lookups
    for table, (hits, lookups) in sorted(tables.items()):
        counters[f"core.evalcache.{table}.hits"] = hits
        counters[f"core.evalcache.{table}.lookups"] = lookups
    return counters


# -- startup ---------------------------------------------------------------


def startup(workload: str) -> None:
    if workload == "search-vector":
        from repro.api import Session
        Session(eval_mode="vector")
    elif workload == "replay-warm":
        from repro.api import Session
        import repro.sim  # noqa: F401
        Session(warm_caches=True)
    else:
        raise SystemExit(f"no startup probe for {workload!r}")
    print("ready", flush=True)


# -- workloads -------------------------------------------------------------


def run_search(spec: dict, tracer, expected: dict) -> dict:
    from repro.api import ScheduleRequest, Session

    requests = [ScheduleRequest(**op) for op in spec["ops"]]
    session = Session(eval_mode="vector")
    latencies, failures, log_edp, reports, sizes = [], [], [], [], []
    for index, (op, request) in enumerate(zip(spec["ops"], requests)):
        if tracer is not None:
            tracer.op = index
        start = perf_counter()
        try:
            result = session.submit(request)
        except Exception as exc:  # an op that raises counts as failed
            latencies.append(perf_counter() - start)
            failures.append(f"op {index}: {exc!r}")
            continue
        latencies.append(perf_counter() - start)
        if not matches(result, expected["search"].get(ops.search_key(op))):
            failures.append(f"op {index}: output mismatch "
                            f"({ops.search_key(op)})")
            continue
        log_edp.append(math.log(result.metrics.edp))
        if tracer is not None:
            reports.append(result.perf)
            sizes.append(compact_bytes(result))
    out = {"attempted": len(requests), "failures": failures,
           "latencies_s": latencies,
           "edp_geomean": math.exp(math.fsum(log_edp) / len(log_edp))
           if log_edp else None,
           "peak_rss_mb": peak_rss_mb()}
    if tracer is not None:
        out["counters"] = perf_counters(reports)
        out["result_bytes"] = sum(sizes) / len(sizes) if sizes else 0.0
    return out


def run_replay(spec: dict, tracer, expected: dict) -> dict:
    from repro.sim import TenantEvent, Trace, build_report, replay

    trace = Trace(name=spec["trace"]["name"],
                  use_case=spec["trace"]["use_case"],
                  events=tuple(TenantEvent(**event)
                               for event in spec["trace"]["events"]))
    start = perf_counter()
    outcomes = replay(trace, mode="warm")
    wall = perf_counter() - start
    scheduled = [o for o in outcomes if o.result is not None]
    failures = []
    checked: dict[int, bool] = {}
    for index, outcome in enumerate(scheduled):
        key = ops.set_key(outcome.tenants)
        if id(outcome.result) not in checked:
            checked[id(outcome.result)] = matches(
                outcome.result, expected["replay"].get(key))
        if not checked[id(outcome.result)]:
            failures.append(f"event {index}: output mismatch ({key})")
    out = {"attempted": len(scheduled), "failures": failures,
           "wall_s": wall,
           "deadline_miss_rate":
           build_report(trace, "warm", outcomes).deadline_miss_rate,
           "memo_hits": sum(1 for o in scheduled if o.memo_hit),
           "search_latencies_s": [o.wall_s for o in scheduled
                                  if not o.memo_hit],
           "peak_rss_mb": peak_rss_mb()}
    if tracer is not None:
        searched = [o.result.perf for o in scheduled if not o.memo_hit]
        out["counters"] = perf_counters(searched)
        out["result_bytes"] = sum(compact_bytes(o.result)
                                  for o in scheduled) / len(scheduled)
    return out


def run_serve(spec: dict, tracer, expected: dict) -> dict:
    from repro.api import ScheduleRequest
    from repro.service import ServiceClient

    client = ServiceClient(spec["url"])
    pool = [ScheduleRequest(**entry) for entry in ops.SERVE_POOL]
    # Warm-up, untimed: one search per pool entry fills the replica memo.
    handles = [client.submit(request) for request in pool]
    reference = []
    for entry, handle in zip(ops.SERVE_POOL, handles):
        result = handle.result(timeout=WARMUP_TIMEOUT_S)
        ok = matches(result, expected["search"].get(ops.search_key(entry)))
        reference.append(result if ok else None)

    latencies, failures, job_ids = [], [], []
    window_start = perf_counter()
    for index, entry in enumerate(spec["ops"]):
        if tracer is not None:
            tracer.op = index
        start = perf_counter()
        try:
            handle = client.submit(pool[entry])
            result = handle.result(timeout=OP_TIMEOUT_S)
        except Exception as exc:  # HTTP error, typed error or timeout
            latencies.append(perf_counter() - start)
            failures.append(f"op {index}: {exc!r}")
            continue
        latencies.append(perf_counter() - start)
        job_ids.append(handle.job_id)
        if reference[entry] is None \
                or not result.same_payload(reference[entry]):
            failures.append(f"op {index}: output mismatch "
                            f"({ops.search_key(ops.SERVE_POOL[entry])})")
    window = (window_start, perf_counter())
    out = {"attempted": len(spec["ops"]), "failures": failures,
           "latencies_s": latencies, "window": window}
    if tracer is not None:
        timed = set(job_ids)
        records = [r for r in client.jobs() if r.job_id in timed]
        out["queue_s"] = [r.queue_s for r in records
                          if r.queue_s is not None]
        out["run_s"] = [r.run_s for r in records if r.run_s is not None]
        sizes = [compact_bytes(r) if r is not None else 0
                 for r in reference]
        out["result_bytes"] = sum(sizes[entry] for entry in spec["ops"]) \
            / len(spec["ops"])
    return out


RUNNERS = {"search-vector": (run_search, tracing.IN_PROCESS_LAYERS),
           "replay-warm": (run_replay, tracing.IN_PROCESS_LAYERS),
           "serve-hits": (run_serve, tracing.CLIENT_LAYERS)}


def run(in_path: str, out_path: str) -> None:
    with open(in_path, encoding="utf-8") as source:
        spec = json.load(source)
    runner, layers = RUNNERS[spec["workload"]]
    tracer = None
    if spec.get("spans"):
        tracer = tracing.Tracer()
        tracer.install(layers)
    out = runner(spec, tracer, load_expected())
    if tracer is not None:
        tracer.write(spec["spans"])
    with open(out_path, "w", encoding="utf-8") as sink:
        json.dump(out, sink)


def serve(spans_path: str, argv: list[str]) -> int:
    tracer = tracing.Tracer()
    tracer.install(tracing.SERVER_LAYERS)
    from repro.cli import main

    try:
        return main(["serve", *argv])
    finally:
        tracer.write(spans_path)


if __name__ == "__main__":
    role = sys.argv[1]
    if role == "startup":
        startup(sys.argv[2])
    elif role == "run":
        run(sys.argv[2], sys.argv[3])
    elif role == "serve":
        sys.exit(serve(sys.argv[2], sys.argv[4:]))
    else:
        raise SystemExit(f"unknown role {role!r}")
