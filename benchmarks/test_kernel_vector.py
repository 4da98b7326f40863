"""Bench: vectorized cost kernel guard rail (``eval_mode="vector"``).

Runs the evolutionary (GA) segmentation search on the datacenter
workload twice -- once per costing kernel -- and gates the numpy tensor
kernel (:mod:`repro.engine.tensorkernel`) on two promises:

* **Parity.**  The vector run is **bit-identical** to the scalar
  reference: schedule, metrics, candidate population, evaluation count
  and the delta-evaluation accounting (``num_segments`` /
  ``num_segments_recosted``) all match exactly.
* **Throughput.**  Scoring the GA run's own chain workload -- every
  (chain, congestion) costing the search actually performed, replayed
  from cold caches one chain at a time -- must be at least
  :data:`MIN_KERNEL_SPEEDUP` times faster through the tensor kernel
  than through the scalar reference.  The same workload replayed in
  the batches the search scored it in (one per window search) rides
  along in ``BENCH_kernel.json`` as ``batched_kernel_speedup``; it is
  recorded, not gated.

The whole-run wall also rides along in ``BENCH_kernel.json``
(:data:`MIN_SCHEDULE_SPEEDUP` floor): it is a much weaker signal,
because the vector ``schedule()`` spends roughly half its time (54-56%
in three measured runs) in machinery both kernels share -- GA
bookkeeping, packing, cache keys, the congestion pass, candidate
assembly -- which takes the same ~0.28 s on either kernel, keeps the
whole-run ratio far below the kernel's and makes it noisy on loaded CI
runners.  The kernel replay times exactly the Sec. III-E chain
costings, which is what the tensor kernel replaces.
"""

from __future__ import annotations

import time

import pytest

np = pytest.importorskip("numpy")

from repro.core import SCARScheduler, objective_by_name
from repro.core.evalcache import EvalCache
from repro.core.evolutionary import GAConfig
from repro.core.metrics import ScheduleEvaluator
from repro.engine.tensorkernel import TensorEvaluator
from repro.mcm import templates
from repro.workloads import scenario

#: Minimum chain-scoring speedup of the tensor kernel over the scalar
#: reference on the GA workload (the ISSUE-9 acceptance gate; measured
#: ~20x on an idle machine, so 10x leaves 2x headroom for CI noise).
MIN_KERNEL_SPEEDUP = 10.0

#: Sanity floor on the whole ``schedule()`` wall ratio (measured 7-9x;
#: kept loose because the vector run's wall is half shared search
#: machinery, and runners are noisy, see the module docstring).
MIN_SCHEDULE_SPEEDUP = 2.0

#: Datacenter scenario with models long enough for multi-cut mutations
#: (the same GA workload ``BENCH_engine.json`` gates on).
GA_SCENARIO = 4

#: A GA budget big enough to amortize the tensor kernel's one-time
#: table builds the way a real search does (the default quick GA only
#: re-costs a few hundred chains, which under-reports the kernel).
GA_CONFIG = GAConfig(population_size=20, generations=14,
                     crossover_rate=0.7, mutation_rate=0.5, tournament=2)

#: Cold-cache replays per kernel; the minimum wall wins (load spikes on
#: shared runners only ever slow a replay down, never speed it up).
REPLAY_ROUNDS = 3


def _scheduler(config, mcm, eval_mode: str) -> SCARScheduler:
    return SCARScheduler(mcm, objective=objective_by_name("edp"),
                         nsplits=config.nsplits, budget=config.budget,
                         seg_search="evolutionary", ga_config=GA_CONFIG,
                         eval_mode=eval_mode)


def _record_chain_workload(scheduler: SCARScheduler,
                           batches: list) -> None:
    """Capture every (chain, congestion) costing ``schedule()`` runs.

    Wraps the batch entry point of the tensor evaluators the scheduler
    builds, so each delta-cache miss -- the costings that actually
    execute a kernel -- lands in ``batches``, one list per batch, in
    search order (a window search's candidates are one batch; a
    sequential window evaluation is a batch of one per chain).
    Congestion dicts are built fresh per window evaluation and never
    mutated afterwards, so keeping references is safe.
    """
    inner_factory = scheduler.make_evaluator

    def make_evaluator(scenario, cache=None):
        evaluator = inner_factory(scenario, cache=cache)
        score_chains = evaluator._score_chains

        def traced(recosts):
            batches.append(list(recosts))
            return score_chains(recosts)

        evaluator._score_chains = traced
        return evaluator

    scheduler.make_evaluator = make_evaluator


def _replay(cls, sc, mcm, database, workload) -> tuple[float, list]:
    """Best-of-N cold-cache wall for scoring ``workload`` with ``cls``."""
    best = None
    outputs = None
    for _ in range(REPLAY_ROUNDS):
        evaluator = cls(sc, mcm, database, cache=EvalCache())
        start = time.perf_counter()
        outputs = [evaluator._chain_metrics(chain, congestion)
                   for chain, congestion in workload]
        wall = time.perf_counter() - start
        best = wall if best is None else min(best, wall)
    return best, outputs


def _replay_batched(sc, mcm, database, batches) -> tuple[float, list]:
    """Best-of-N cold-cache wall for scoring the recorded batches
    through the tensor kernel's batch entry point."""
    best = None
    outputs = None
    for _ in range(REPLAY_ROUNDS):
        evaluator = TensorEvaluator(sc, mcm, database, cache=EvalCache())
        start = time.perf_counter()
        outputs = [metrics for batch in batches
                   for metrics in evaluator._score_chains(batch)]
        wall = time.perf_counter() - start
        best = wall if best is None else min(best, wall)
    return best, outputs


def test_kernel_vector_parity_and_throughput(benchmark, config,
                                             bench_artifact):
    sc = scenario(GA_SCENARIO)
    mcm = templates.build("het_sides_3x3", sc.use_case)

    batches: list = []
    sched_vector = _scheduler(config, mcm, "vector")
    _record_chain_workload(sched_vector, batches)

    results = {}

    def run_vector():
        results["vector"] = sched_vector.schedule(sc)
        return results["vector"]

    benchmark.pedantic(run_vector, rounds=1, iterations=1)
    vector = results["vector"]
    scalar = _scheduler(config, mcm, "scalar").schedule(sc)

    # Parity gate: the tensor kernel is a reimplementation of the same
    # arithmetic, not an approximation -- not a single result bit moves,
    # including the delta-evaluation accounting.
    assert vector.metrics == scalar.metrics
    assert vector.schedule == scalar.schedule
    assert vector.window_candidates == scalar.window_candidates
    assert vector.num_evaluated == scalar.num_evaluated
    assert vector.perf.num_segments == scalar.perf.num_segments
    assert (vector.perf.num_segments_recosted
            == scalar.perf.num_segments_recosted)
    recorded = [pair for batch in batches for pair in batch]
    assert recorded, "the GA search never costed a chain?"

    # Throughput gate: replay the run's own chain workload through both
    # kernels from cold caches (the shared database stays warm -- both
    # kernels read the same memoized per-layer costs).
    database = sched_vector.database
    scalar_wall, scalar_out = _replay(ScheduleEvaluator, sc, mcm,
                                      database, recorded)
    vector_wall, vector_out = _replay(TensorEvaluator, sc, mcm,
                                      database, recorded)
    assert scalar_out == vector_out  # parity on every replayed costing
    batched_wall, batched_out = _replay_batched(sc, mcm, database,
                                                batches)
    assert batched_out == scalar_out

    kernel_speedup = scalar_wall / vector_wall
    assert kernel_speedup >= MIN_KERNEL_SPEEDUP, (
        f"tensor kernel scored the GA chain workload only "
        f"{kernel_speedup:.1f}x faster than the scalar reference "
        f"(gate: {MIN_KERNEL_SPEEDUP:.0f}x)")

    schedule_speedup = (scalar.perf.evals_per_s
                        / vector.perf.evals_per_s)
    # evals_per_s shares num_evaluated, so this is the inverse wall
    # ratio of the two schedule() calls.
    schedule_speedup = 1.0 / schedule_speedup
    assert schedule_speedup >= MIN_SCHEDULE_SPEEDUP, (
        f"vector schedule() ran only {schedule_speedup:.1f}x faster "
        f"end-to-end (floor: {MIN_SCHEDULE_SPEEDUP:.0f}x)")

    chains = len(recorded)
    data = {
        "scenario": GA_SCENARIO,
        "ga_population": GA_CONFIG.population_size,
        "ga_generations": GA_CONFIG.generations,
        "num_chain_costings": chains,
        "kernel_speedup": kernel_speedup,
        "scalar_chains_per_s": chains / scalar_wall,
        "vector_chains_per_s": chains / vector_wall,
        "num_batches": len(batches),
        "batched_kernel_speedup": scalar_wall / batched_wall,
        "vector_batched_chains_per_s": chains / batched_wall,
        "schedule_speedup": schedule_speedup,
        "scalar": scalar.perf.to_dict(),
        "vector": vector.perf.to_dict(),
        "bit_identical": True,
    }
    print(f"\nGA workload (scenario {GA_SCENARIO}): {chains} chain "
          f"costings replayed; tensor kernel {kernel_speedup:.1f}x "
          f"({chains / vector_wall:.0f} vs {chains / scalar_wall:.0f} "
          f"chains/s), {scalar_wall / batched_wall:.1f}x in the "
          f"search's {len(batches)} batches, schedule() "
          f"{schedule_speedup:.1f}x end-to-end")
    print(vector.perf.render())

    path = bench_artifact("kernel", data)
    print(f"\nwrote {path}")
