"""End-to-end benchmark of the SCAR reproduction: one command, three workloads.

    python3 perfbench/run.py --workload search-vector --seed 1 \\
        --seconds 30 --trace 0

Run from the repository root; the program is imported from ``src/``.
Without ``--workload`` it runs all three workloads in turn.
Each run replays a fixed, seeded op list (never a fixed duration) in
fresh child processes, checks every output against ``expected.json``,
prints a human-readable block and, as its last stdout line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics from untraced runs; ``--trace 1`` reports
the per-layer metrics from a traced run plus the traced/untraced
throughput ratio.  ``--seconds`` is the nominal length of the timed
phase the op lists are sized for on a 2-CPU host; it does not cut a run
short.  See README.md for why each workload exists and what each metric
means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import urllib.request
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import ops  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("search-vector", "serve-hits", "replay-warm")
#: Fresh starts per run; setup_s is their median.
SETUP_STARTS = 5
#: Ops of the traced run (and of its untraced twin): a prefix of the
#: seeded list, so a trace run stays within the time limit.
TRACE_OPS = {"search-vector": 51, "serve-hits": 500, "replay-warm": None}
#: The module a user of each workload imports first.
ENTRY_MODULES = {"search-vector": "repro.api", "serve-hits": "repro.cli",
                 "replay-warm": "repro.sim"}
CHILD_TIMEOUT_S = 170.0
REPLICA_READY_TIMEOUT_S = 60.0
REPLICA_STOP_TIMEOUT_S = 20.0

#: End-to-end metrics reported in the JSON line (name -> unit): the ones
#: every workload has.  The rest are printed only (see README.md).
END_TO_END = {"ops_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

EVALCACHE_TABLES = ("affinity", "chain", "compute", "fitness", "static",
                    "window")
#: Per-layer metrics reported in the JSON line of a traced run.
PER_LAYER = {
    "cli.import_s": "s", "cli.import_numpy_s": "s",
    "cli.import_networkx_s": "s",
    "api.submit_self_s": "s", "api.policy_self_s": "s",
    "api.memo_lookups": "count", "api.memo_hit_rate": "ratio",
    "api.request_from_dict_s": "s", "api.cache_key_s": "s",
    "api.result_to_dict_s": "s", "api.result_from_dict_s": "s",
    "api.result_bytes": "B",
    "service.client_submit_s": "s", "service.client_result_s": "s",
    "service.result_polls_per_op": "ratio",
    "service.queue_p50_ms": "ms", "service.run_p50_ms": "ms",
    "workloads.resolve_s": "s", "mcm.build_s": "s",
    "dataflow.cost_calls": "count", "dataflow.cost_s": "s",
    "dataflow.entries": "count",
    "core.pack_s": "s", "core.seg_s": "s", "core.sched_self_s": "s",
    **{f"core.evalcache.{table}.{kind}": "count"
       for table in EVALCACHE_TABLES for kind in ("hits", "lookups")},
    "engine.prov_s": "s", "engine.window_evals": "count",
    "engine.window_eval_s": "s", "engine.candidates": "count",
    "engine.segments": "count", "engine.segments_recosted": "count",
    "engine.segment_reuse_rate": "ratio",
    "trace.overhead_ratio": "ratio",
}
#: Per-layer prefixes that only serve-hits exercises, and the search
#: layers it never reaches while timed (printed with a note, valued 0).
SERVE_LAYERS = ("service.", "api.request_from_dict", "api.cache_key",
                "api.result_to_dict", "api.result_from_dict")
SEARCH_LAYERS = ("api.submit", "api.policy", "workloads.", "mcm.",
                 "dataflow.", "core.", "engine.")


class BenchError(Exception):
    """The benchmark could not run (missing program, child crashed)."""


class Run:
    """Owns one invocation's scratch files and child processes."""

    def __init__(self, root: str, workload: str, seed: int) -> None:
        self.root = root
        self.workload = workload
        self.seed = seed
        self.scratch = os.path.join(root, ".perfbench",
                                    f"{workload}-{seed}-{os.getpid()}")
        os.makedirs(self.scratch, exist_ok=True)
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + (
            os.pathsep + self.env["PYTHONPATH"]
            if self.env.get("PYTHONPATH") else "")
        self.env["PYTHONUNBUFFERED"] = "1"
        self.children: list[subprocess.Popen] = []
        #: Replicas lead their own process group (with their pool workers).
        self.groups: set[int] = set()
        #: Process-hygiene failures; each makes the run incorrect.
        self.notes: list[str] = []

    def path(self, name: str) -> str:
        return os.path.join(self.scratch, name)

    def spawn(self, argv: list[str], **kwargs) -> subprocess.Popen:
        child = subprocess.Popen(argv, cwd=self.root, env=self.env,
                                 **kwargs)
        self.children.append(child)
        return child

    def worker(self, *args: str) -> list[str]:
        return [sys.executable, os.path.join(HERE, "worker.py"), *args]

    # -- child processes ---------------------------------------------------

    def run_worker(self, spec: dict, name: str) -> dict:
        in_path, out_path = self.path(f"{name}.in.json"), \
            self.path(f"{name}.out.json")
        with open(in_path, "w", encoding="utf-8") as sink:
            json.dump(spec, sink)
        child = self.spawn(self.worker("run", in_path, out_path))
        try:
            code = child.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{name} worker timed out") from None
        if code != 0:
            raise BenchError(f"{name} worker exited with {code}")
        with open(out_path, encoding="utf-8") as source:
            return json.load(source)

    def start_replica(self, spans: str | None = None):
        """Spawn a replica; return (process, url, spawn-to-healthy s)."""
        args = ["--port", "0", "--eval-mode", "vector"]
        argv = self.worker("serve", spans, "--", *args) if spans \
            else [sys.executable, "-m", "repro", "serve", *args]
        start = perf_counter()
        child = self.spawn(argv, stdout=subprocess.PIPE,
                           stderr=subprocess.DEVNULL,
                           start_new_session=True, text=True)
        self.groups.add(child.pid)
        line = child.stdout.readline()
        if "http://" not in line:
            self.stop_replica(child)
            raise BenchError(f"replica did not start: {line!r}")
        url = line.split("http://", 1)[1].split("/v1/", 1)[0]
        url = "http://" + url
        deadline = time.monotonic() + REPLICA_READY_TIMEOUT_S
        while True:
            try:
                with urllib.request.urlopen(url + "/v1/health",
                                            timeout=5) as response:
                    if response.status == 200:
                        break
            except OSError:
                pass
            if time.monotonic() > deadline:
                self.stop_replica(child)
                raise BenchError("replica never became healthy")
            time.sleep(0.005)
        return child, url, perf_counter() - start

    def stop_replica(self, child: subprocess.Popen) -> None:
        """SIGTERM, wait, then SIGKILL the replica's whole group."""
        if child.poll() is None:
            child.send_signal(signal.SIGTERM)
            try:
                child.wait(timeout=REPLICA_STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.notes.append("replica ignored SIGTERM; killed")
        _kill_group(child.pid)
        child.wait()
        if child.stdout is not None:
            child.stdout.close()

    def close(self) -> None:
        """Stop every child still running; note any that outlived the run."""
        for child in self.children:
            if child.poll() is None:
                child.kill()
                child.wait()
            if child.pid in self.groups:
                _kill_group(child.pid)
        # A SIGKILLed process lingers for a moment; give it one second.
        deadline = time.monotonic() + 1.0
        while _leftovers(self.groups) and time.monotonic() < deadline:
            time.sleep(0.05)
        leaked = _leftovers(self.groups)
        if leaked:
            self.notes.append(f"child processes outlived the run: {leaked}")
            for pid in leaked:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        shutil.rmtree(self.scratch, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.scratch))
        except OSError:
            pass  # another run's scratch is still there


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def _leftovers(groups: set[int]) -> list[int]:
    """Live processes descended from this one or in one of ``groups``.

    Replica pool workers orphaned by a killed replica are re-parented
    away from us, but keep the replica's process group.
    """
    table: dict[int, tuple[int, int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as source:
                fields = source.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[0] != "Z":  # zombies hold no resources
            table[int(entry)] = (int(fields[1]), int(fields[2]))
    found = {pid for pid, (_, group) in table.items() if group in groups}
    frontier = [os.getpid()]
    while frontier:
        parent = frontier.pop()
        children = [pid for pid, (ppid, _) in table.items()
                    if ppid == parent]
        found.update(children)
        frontier += children
    return sorted(found)


def _peak_rss_mb(pid: int) -> float:
    """VmHWM of process ``pid`` (which must be alive), in MB."""
    with open(f"/proc/{pid}/status", encoding="utf-8") as source:
        for line in source:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for process {pid}")


# -- end-to-end ------------------------------------------------------------


def measure_setup(run: Run) -> tuple[float, list[float]]:
    """setup_s samples: fresh process -> ready, :data:`SETUP_STARTS` times."""
    samples = []
    for _ in range(SETUP_STARTS):
        start = perf_counter()
        child = run.spawn(run.worker("startup", run.workload),
                          stdout=subprocess.PIPE, text=True)
        line = child.stdout.readline()
        samples.append(perf_counter() - start)
        child.stdout.close()
        if child.wait(timeout=CHILD_TIMEOUT_S) != 0 or line.strip() != "ready":
            raise BenchError("startup probe failed")
    return statistics.median(samples), samples


def serve_pass(run: Run, op_list: list[int], traced: bool) -> dict:
    """One replica and one client worker on ``op_list``."""
    spans = run.path("replica.spans") if traced else None
    replica, url, _ = run.start_replica(spans)
    try:
        out = run.run_worker(
            {"workload": "serve-hits", "url": url, "ops": op_list,
             "spans": run.path("client.spans") if traced else None},
            "client")
    finally:
        run.stop_replica(replica)
    return out


def end_to_end(run: Run) -> tuple[dict, int, list[str], list[str]]:
    """Untraced run: (metrics, attempted, failures, printed lines)."""
    workload = run.workload
    lines = []
    if workload == "serve-hits":
        samples = []
        for _ in range(SETUP_STARTS - 1):
            replica, _, seconds = run.start_replica()
            samples.append(seconds)
            run.stop_replica(replica)
        replica, url, seconds = run.start_replica()
        samples.append(seconds)
        try:
            out = run.run_worker({"workload": workload, "url": url,
                                  "ops": ops.serve_ops(run.seed)}, "client")
            out["peak_rss_mb"] = _peak_rss_mb(replica.pid)
        finally:
            run.stop_replica(replica)
        setup = statistics.median(samples)
    else:
        setup, samples = measure_setup(run)
        spec = {"workload": workload}
        if workload == "search-vector":
            spec["ops"] = ops.search_ops(run.seed)
        else:
            spec["trace"] = ops.replay_trace(run.seed)
        out = run.run_worker(spec, "run")

    attempted = out["attempted"]
    failures = out["failures"]
    completed = attempted - len(failures)
    metrics = {"setup_s": setup, "peak_rss_mb": out["peak_rss_mb"]}
    lines.append(f"setup_s             {setup:.4f} s   (median of "
                 f"{len(samples)} fresh starts)")
    if workload == "replay-warm":
        metrics["ops_per_s"] = completed / out["wall_s"]
        searched = out["search_latencies_s"]
        search_p50 = statistics.median(searched) * 1e3
        lines.append(f"ops_per_s           {metrics['ops_per_s']:.4f} 1/s "
                     f"({completed} scheduled events, {out['memo_hits']} "
                     f"memo hits, {out['wall_s']:.3f} s)")
        lines.append(f"search_p50_ms       {search_p50:.4f} ms  (median of "
                     f"{len(searched)} searched events; hits excluded)")
        lines.append(f"deadline_miss_rate  {out['deadline_miss_rate']:.4f} "
                     f"ratio (per SLA tenant, simulated)")
    else:
        latencies = out["latencies_s"]
        metrics["ops_per_s"] = completed / sum(latencies)
        lines.append(f"ops_per_s           {metrics['ops_per_s']:.4f} 1/s "
                     f"({completed} ops / {sum(latencies):.3f} s timed)")
        for p in (50, 90, 99):
            value = ops.percentile(latencies, p)
            if value is None:
                lines.append(f"latency_p{p}_ms      n/a (needs "
                             f"{ops.MIN_BEYOND} of {len(latencies)} ops "
                             f"beyond it)")
                continue
            lines.append(f"latency_p{p}_ms      {value * 1e3:.4f} ms  "
                         f"(nearest rank, {len(latencies)} ops)")
        if out.get("edp_geomean") is not None:
            lines.append(f"schedule_edp_geomean {out['edp_geomean']:.6e} "
                         f"J.s ({completed} schedules)")
    lines.append(f"peak_rss_mb         {metrics['peak_rss_mb']:.2f} MB")
    lines.append(f"error_rate          {len(failures) / attempted:.4f} "
                 f"ratio ({len(failures)} of {attempted} ops failed)")
    return metrics, attempted, failures, lines


# -- per-layer -------------------------------------------------------------


def import_times(run: Run) -> dict:
    """cli.* from one ``-X importtime`` start of the entry module."""
    module = ENTRY_MODULES[run.workload]
    result = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", f"import {module}"],
        cwd=run.root, env=run.env, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S, check=True)
    cumulative = {}
    for line in result.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            cumulative[parts[2].strip()] = int(parts[1]) / 1e6
    return {"cli.import_s": cumulative.get(module, 0.0),
            "cli.import_numpy_s": cumulative.get("numpy", 0.0),
            "cli.import_networkx_s": cumulative.get("networkx", 0.0)}


def per_layer(run: Run) -> tuple[dict, int, list[str], list[str]]:
    """Traced run plus its untraced twin on the same op prefix."""
    workload = run.workload
    limit = TRACE_OPS[workload]
    stats: dict[str, dict] = {}
    unavailable: dict[str, str] = {}

    def absorb(spans_path: str, window=None) -> None:
        header, threads = tracing.read_spans(spans_path)
        unavailable.update(header["unavailable"])
        for name, entry in tracing.aggregate(header, threads,
                                             window).items():
            total = stats.setdefault(name, {"count": 0, "self_s": 0.0,
                                            "hits": 0})
            for key in total:
                total[key] += entry[key]

    if workload == "serve-hits":
        op_list = ops.serve_ops(run.seed)[:limit]
        plain = serve_pass(run, op_list, traced=False)
        traced = serve_pass(run, op_list, traced=True)
        absorb(run.path("client.spans"))
        absorb(run.path("replica.spans"), traced["window"])
        rate = [len(o["latencies_s"]) / sum(o["latencies_s"])
                for o in (plain, traced)]
    else:
        spec = {"workload": workload}
        if workload == "search-vector":
            spec["ops"] = ops.search_ops(run.seed)[:limit]
        else:
            spec["trace"] = ops.replay_trace(run.seed)
        plain = run.run_worker(spec, "plain")
        traced = run.run_worker({**spec, "spans": run.path("run.spans")},
                                "traced")
        absorb(run.path("run.spans"))
        if workload == "search-vector":
            rate = [len(o["latencies_s"]) / sum(o["latencies_s"])
                    for o in (plain, traced)]
        else:
            rate = [o["attempted"] / o["wall_s"] for o in (plain, traced)]

    def self_s(*names: str) -> float:
        return sum(stats.get(name, {}).get("self_s", 0.0) for name in names)

    def count(name: str) -> int:
        return stats.get(name, {}).get("count", 0)

    op_count = traced["attempted"]
    lookups = count("api.submit") + count("api.cached")
    hits = stats.get("api.submit", {}).get("hits", 0) \
        + stats.get("api.cached", {}).get("hits", 0)
    counters = traced.get("counters", {})
    segments = counters.get("engine.segments", 0)
    metrics = {
        **import_times(run),
        "api.submit_self_s": self_s("api.submit"),
        "api.policy_self_s": self_s("api.policy_run"),
        "api.memo_lookups": lookups,
        "api.memo_hit_rate": hits / lookups if lookups else 0.0,
        "api.request_from_dict_s": self_s("api.request_from_dict"),
        "api.cache_key_s": self_s("api.cache_key"),
        "api.result_to_dict_s": self_s("api.result_to_dict"),
        "api.result_from_dict_s": self_s("api.result_from_dict"),
        "api.result_bytes": traced.get("result_bytes", 0.0),
        "service.client_submit_s": self_s("service.client_submit"),
        "service.client_result_s": self_s("service.client_result"),
        "service.result_polls_per_op":
            count("service.client_result") / op_count,
        "service.queue_p50_ms": _p50_ms(traced.get("queue_s")),
        "service.run_p50_ms": _p50_ms(traced.get("run_s")),
        "workloads.resolve_s": self_s("workloads.resolve"),
        "mcm.build_s": self_s("mcm.build"),
        "dataflow.cost_calls": count("dataflow.cost"),
        "dataflow.cost_s": self_s("dataflow.cost", "dataflow.compute"),
        "dataflow.entries": count("dataflow.compute"),
        "core.pack_s": self_s("core.pack"),
        "core.seg_s": self_s("core.seg"),
        "core.sched_self_s": self_s("core.sched"),
        "engine.prov_s": self_s("engine.prov"),
        "engine.window_evals": count("engine.window_eval"),
        "engine.window_eval_s": self_s("engine.window_eval"),
        "engine.segment_reuse_rate":
            1.0 - counters.get("engine.segments_recosted", 0) / segments
            if segments else 0.0,
        "trace.overhead_ratio": rate[1] / rate[0],
    }
    for name in PER_LAYER:
        if name.startswith(("engine.", "core.evalcache.")) \
                and name not in metrics:
            metrics[name] = counters.get(name, 0)

    failures = plain["failures"] + traced["failures"]
    attempted = plain["attempted"] + op_count
    lines = [f"traced run: {op_count} ops (untraced twin: "
             f"{plain['attempted']} ops); self times in s per run"]
    for name, unit in PER_LAYER.items():
        note = ""
        if name.startswith(SERVE_LAYERS) and workload != "serve-hits":
            note = "  (not on this workload: no HTTP or wire in the loop)"
        elif name.startswith(SEARCH_LAYERS) and workload == "serve-hits":
            note = "  (nothing is searched while timed)"
        lines.append(f"{name:34s} {metrics[name]:.6g} {unit}{note}")
    for layer, reason in sorted(unavailable.items()):
        lines.append(f"unavailable: {layer}: {reason}")
    return metrics, attempted, failures, lines


def _p50_ms(samples) -> float:
    if not samples:
        return 0.0
    value = ops.percentile(samples, 50)
    return 0.0 if value is None else value * 1e3


# -- command ---------------------------------------------------------------


def run_workload(root: str, workload: str, seed: int, trace: bool) -> int:
    """One workload: print its block and JSON line; 0 when all ops pass."""
    run = Run(root, workload, seed)
    allowed = os.sched_getaffinity(0)
    if workload == "serve-hits":
        # The client and the replica (children inherit this) share one
        # CPU: they hand the loop back and forth on one core instead of
        # waking each other across two, which cut the run-to-run spread
        # of ops_per_s from ~17% to ~7%.  The in-process workloads were
        # steadier left to the scheduler.
        os.sched_setaffinity(0, {max(allowed)})
    try:
        if trace:
            metrics, attempted, failures, lines = per_layer(run)
            units = PER_LAYER
        else:
            metrics, attempted, failures, lines = end_to_end(run)
            units = END_TO_END
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        run.close()
        os.sched_setaffinity(0, allowed)
    failures += [f"process hygiene: {note}" for note in run.notes]

    print(f"== perfbench {workload} seed={seed} trace={int(trace)}")
    for line in lines:
        print(line)
    for failure in failures[:20]:
        print(f"FAILED {failure}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": min(len(failures), attempted),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }), flush=True)
    return 0 if not failures else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all three in turn)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro",
                                       "__init__.py")):
        print("perfbench: run from the repository root (no src/repro here)",
              file=sys.stderr)
        return 2
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    codes = [run_workload(root, workload, args.seed, bool(args.trace))
             for workload in workloads]
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
