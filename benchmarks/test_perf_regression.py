"""Bench: evaluation-acceleration guard rail (segment-cost cache).

Runs the fast Fig. 8 Pareto workload (datacenter scenarios 3 and 4 on the
Het-Sides 3x3), then

* asserts the segment-cost cache keeps the hit rate on cost-model
  lookups at >= 50% (i.e. at least a 2x reduction in cost-model
  recomputations), and
* records evals/sec + per-table hit rates into
  ``benchmarks/BENCH_evalcache.json``.

A hit rate collapse (e.g. an over-wide cache key) fails this bench before
it can silently slow every experiment down.
"""

from __future__ import annotations

from repro.core import SCARScheduler, objective_by_name
from repro.mcm import templates
from repro.workloads import scenario

#: Minimum acceptable hit rate on the ``compute`` (cost-model) table.
MIN_COMPUTE_HIT_RATE = 0.5

FIG8_SCENARIOS = (3, 4)


def _run(scenario_id: int, config):
    sc = scenario(scenario_id)
    mcm = templates.build("het_sides_3x3", sc.use_case)
    scheduler = SCARScheduler(mcm, objective=objective_by_name("edp"),
                              nsplits=config.nsplits,
                              budget=config.budget)
    return scheduler.schedule(sc)


def test_evalcache_regression(benchmark, config, bench_artifact):
    results = {}

    def run_all():
        for scenario_id in FIG8_SCENARIOS:
            results[scenario_id] = _run(scenario_id, config)
        return results

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    data = {}
    for scenario_id in FIG8_SCENARIOS:
        result = results[scenario_id]
        compute = result.perf.cache_table("compute")
        assert compute.lookups > 0
        assert compute.hit_rate >= MIN_COMPUTE_HIT_RATE, (
            f"scenario {scenario_id}: compute cache hit rate "
            f"{compute.hit_rate:.1%} dropped below "
            f"{MIN_COMPUTE_HIT_RATE:.0%}")

        data[f"scenario_{scenario_id}"] = {
            "serial": result.perf.to_dict(),
        }
        print(f"\nscenario {scenario_id}:")
        print(result.perf.render())

    path = bench_artifact("evalcache", data)
    print(f"\nwrote {path}")
