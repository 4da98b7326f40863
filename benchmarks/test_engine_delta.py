"""Bench: delta-evaluation guard rail for the evaluator's chain memo.

Runs the evolutionary (GA) segmentation search -- the workload whose
mutation moves the chain memo targets -- with the fast budget, once
memoized (the default everywhere) and once with every memo off
(``EvalCache(enabled=False)``), then

* asserts the two runs are **bit-identical** (schedule, metrics,
  evaluation counts -- the memos are pure memoization) and that the
  unmemoized run re-costs every segment it asks for,
* asserts the chain memo serves at least :data:`MIN_SEGMENT_REDUCTION`
  of the memoized run's segment costings (a key regression that stops
  chains from being reused fails here before it silently slows the 6x6
  experiments down), and
* records the counters into ``benchmarks/BENCH_engine.json``.

The gate reads ``segment_reuse_rate`` of the memoized run: without the
chain memo, a run re-costs exactly the segments the memoized run asks
for, so that rate is the share of re-costings the memo saves.
"""

from __future__ import annotations

from repro.core import SCARScheduler, objective_by_name
from repro.core.evalcache import EvalCache
from repro.mcm import templates
from repro.workloads import scenario

#: Minimum fraction of segment re-costings delta evaluation must save
#: on the GA workload (the ISSUE-4 acceptance criterion is 30%).
MIN_SEGMENT_REDUCTION = 0.3

#: Datacenter scenario with models long enough for multi-cut mutations.
GA_SCENARIO = 4


def _run(config, cache: EvalCache | None = None):
    sc = scenario(GA_SCENARIO)
    mcm = templates.build("het_sides_3x3", sc.use_case)
    scheduler = SCARScheduler(mcm, objective=objective_by_name("edp"),
                              nsplits=config.nsplits,
                              budget=config.budget,
                              seg_search="evolutionary", cache=cache)
    return scheduler.schedule(sc)


def test_engine_delta_evaluation(benchmark, config, bench_artifact):
    results = {}

    def run_memoized():
        results["memoized"] = _run(config)
        return results["memoized"]

    benchmark.pedantic(run_memoized, rounds=1, iterations=1)
    memoized = results["memoized"]
    uncached = _run(config, cache=EvalCache(enabled=False))

    # The memos are pure memoization: not a single result bit moves.
    assert memoized.metrics == uncached.metrics
    assert memoized.schedule == uncached.schedule
    assert memoized.num_evaluated == uncached.num_evaluated

    # Without the memos every segment re-costs.
    off_perf = uncached.perf
    assert off_perf.num_segments_recosted == off_perf.num_segments > 0

    # The gate's premise: with the memos off, a run asks for exactly
    # the segments the memoized run asks for.
    perf = memoized.perf
    assert off_perf.num_segments == perf.num_segments
    reduction = perf.segment_reuse_rate
    assert reduction >= MIN_SEGMENT_REDUCTION, (
        f"delta evaluation saved only {reduction:.1%} of segment "
        f"re-costings (gate: {MIN_SEGMENT_REDUCTION:.0%})")

    chain = perf.cache_table("chain")
    data = {
        "scenario": GA_SCENARIO,
        "memoized": perf.to_dict(),
        "uncached": off_perf.to_dict(),
        "segment_reuse_rate": reduction,
        "chain_hit_rate": chain.hit_rate,
        "bit_identical": True,
    }
    print(f"\nGA workload (scenario {GA_SCENARIO}): "
          f"{perf.num_segments_recosted}/{perf.num_segments} segments "
          f"re-costed ({reduction:.1%} saved, chain hit rate "
          f"{chain.hit_rate:.1%})")
    print(perf.render())

    path = bench_artifact("engine", data)
    print(f"\nwrote {path}")
