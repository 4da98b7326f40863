"""Seeded stdlib-``random`` property tests for packing/segmentation/cache.

Complements the hypothesis suite in ``test_properties.py`` with
plain-``random`` randomized invariants (no extra dependencies, fully
deterministic under the fixed seeds):

* greedy/uniform packing assigns every layer of every model to exactly
  one window, with windows contiguous and ordered;
* ``segments_from_cuts`` partitions ``[start, stop)`` exactly;
* a cached and an uncached evaluator agree bit-for-bit on hundreds of
  randomized window schedules (the evalcache correctness property);
* the evaluator's chain memo (delta evaluation) agrees bit-for-bit
  with full re-evaluation over long randomized cut-mutation walks (the
  delta-evaluation correctness property).
"""

from __future__ import annotations

import random

from repro.core.evalcache import EvalCache
from repro.core.metrics import ScheduleEvaluator
from repro.core.packing import greedy_pack, uniform_pack
from repro.core.schedule import Segment, WindowSchedule
from repro.core.segmentation import segments_from_cuts
from repro.workloads.layer import conv
from repro.workloads.model import Model, ModelInstance, Scenario


def _random_scenario(rng: random.Random) -> Scenario:
    instances = []
    for m in range(rng.randint(1, 4)):
        layers = tuple(
            conv(f"l{m}_{j}", c=rng.randint(1, 8), k=rng.randint(1, 8),
                 y=4, x=4, r=3)
            for j in range(rng.randint(1, 12)))
        instances.append(ModelInstance(Model(name=f"m{m}", layers=layers),
                                       rng.randint(1, 4)))
    return Scenario(name="rand", instances=tuple(instances))


class TestPackingInvariants:
    def test_every_layer_in_exactly_one_window(self):
        rng = random.Random(12345)
        for _ in range(50):
            scenario = _random_scenario(rng)
            nsplits = rng.randint(0, 5)
            if rng.random() < 0.5:
                expected = [[rng.uniform(0.01, 10.0)
                             for _ in instance.layers()]
                            for instance in scenario]
                plan = greedy_pack(scenario, expected, nsplits)
            else:
                plan = uniform_pack(scenario, nsplits)

            seen: dict[int, list[int]] = {
                m: [] for m in range(len(scenario))}
            for window in plan.windows:
                for model, start, stop in window.ranges:
                    seen[model].extend(range(start, stop))
            for model, layers in seen.items():
                # Exactly once, in order, covering the whole model.
                assert layers == list(
                    range(scenario[model].num_layers))

    def test_windows_contiguous_and_ordered(self):
        rng = random.Random(999)
        for _ in range(50):
            scenario = _random_scenario(rng)
            expected = [[rng.uniform(0.01, 10.0)
                         for _ in instance.layers()]
                        for instance in scenario]
            plan = greedy_pack(scenario, expected, rng.randint(0, 5))
            assert [w.index for w in plan.windows] \
                == list(range(plan.num_windows))
            cursors = [0] * len(scenario)
            for window in plan.windows:
                for model, start, stop in window.ranges:
                    assert start == cursors[model]
                    assert stop > start
                    cursors[model] = stop


class TestSegmentsFromCuts:
    def test_exact_partition(self):
        rng = random.Random(4242)
        for _ in range(300):
            start = rng.randint(0, 40)
            stop = start + rng.randint(1, 30)
            positions = list(range(start + 1, stop))
            rng.shuffle(positions)
            cuts = tuple(sorted(
                positions[:rng.randint(0, len(positions))]))
            ranges = segments_from_cuts(start, stop, cuts)
            # Reassembling the sub-ranges gives back [start, stop).
            covered = [i for s, e in ranges for i in range(s, e)]
            assert covered == list(range(start, stop))
            assert all(e > s for s, e in ranges)
            assert len(ranges) == len(cuts) + 1


class TestCachedVsUncached:
    def _random_window(self, rng: random.Random, scenario: Scenario,
                       num_nodes: int) -> WindowSchedule:
        node_pool = list(range(num_nodes))
        rng.shuffle(node_pool)
        chains = []
        for model, instance in enumerate(scenario):
            stop = instance.num_layers
            positions = list(range(1, stop))
            rng.shuffle(positions)
            max_cuts = min(len(positions), 2)
            cuts = sorted(positions[:rng.randint(0, max_cuts)])
            bounds = [0, *cuts, stop]
            chain = tuple(
                Segment(model=model, start=bounds[i], stop=bounds[i + 1],
                        node=node_pool.pop())
                for i in range(len(bounds) - 1))
            chains.append(chain)
        return WindowSchedule(index=0, chains=tuple(chains))

    def test_cache_agrees_on_200_random_schedules(self, tiny_scenario,
                                                  het_mcm, database):
        cached = ScheduleEvaluator(tiny_scenario, het_mcm, database,
                                   cache=EvalCache())
        uncached = ScheduleEvaluator(tiny_scenario, het_mcm, database,
                                     cache=EvalCache(enabled=False))
        rng = random.Random(7)
        for _ in range(200):
            window = self._random_window(rng, tiny_scenario,
                                         het_mcm.num_chiplets)
            assert cached.evaluate_window(window) \
                == uncached.evaluate_window(window)
        # The shared cache must actually have been exercised.
        stats = cached.cache.stats
        assert stats["compute"].hits > 0
        assert stats["static"].hits > 0
        assert uncached.cache.stats["compute"].hits == 0


class TestDeltaEvaluationParity:
    """Incremental re-costing == full re-evaluation, bit for bit.

    Walks a GA-like mutation chain: each step re-cuts *one* model of the
    previous window (the exact move the delta-evaluation fast path
    targets) and occasionally re-places chains entirely.  At every step
    the delta evaluator must agree with a from-scratch evaluator, and
    over the whole walk the chain memo must have actually saved work.
    """

    def _mutate(self, rng: random.Random, scenario: Scenario,
                window: WindowSchedule, num_nodes: int) -> WindowSchedule:
        chains = list(window.chains)
        model = rng.randrange(len(chains))
        stop = scenario[model].num_layers
        positions = list(range(1, stop))
        rng.shuffle(positions)
        cuts = sorted(positions[:rng.randint(0, min(len(positions), 2))])
        bounds = [0, *cuts, stop]
        # Nodes not used by the *other* chains are free for this one.
        taken = {seg.node for i, chain in enumerate(chains)
                 for seg in chain if i != model}
        free = [n for n in range(num_nodes) if n not in taken]
        rng.shuffle(free)
        chains[model] = tuple(
            Segment(model=model, start=bounds[i], stop=bounds[i + 1],
                    node=free[i])
            for i in range(len(bounds) - 1))
        return WindowSchedule(index=0, chains=tuple(chains))

    def test_mutation_walk_agrees_bit_for_bit(self, tiny_scenario,
                                              het_mcm, database):
        delta = ScheduleEvaluator(tiny_scenario, het_mcm, database)
        full = ScheduleEvaluator(tiny_scenario, het_mcm, database,
                                 cache=EvalCache(enabled=False))
        rng = random.Random(31337)
        window = TestCachedVsUncached()._random_window(
            rng, tiny_scenario, het_mcm.num_chiplets)
        for _ in range(150):
            window = self._mutate(rng, tiny_scenario, window,
                                  het_mcm.num_chiplets)
            assert delta.evaluate_window(window) \
                == full.evaluate_window(window)
        # Full evaluation re-costs every segment every time ...
        assert full.stats.num_segments_recosted == full.stats.num_segments
        # ... while the mutation walk must have let the delta evaluator
        # reuse unchanged sibling chains.
        assert delta.stats.num_segments_recosted \
            < delta.stats.num_segments
        assert delta.cache.stats["chain"].hits > 0


class TestGeneratorProperties:
    """Randomized determinism/round-trip invariants of the scenario
    generator: same seed => identical scenario, tenant-unique instance
    names, exact wire round-trip, pools respected."""

    def test_random_mix_determinism_and_roundtrip(self):
        from repro.config import scenario_from_dict, scenario_to_dict
        from repro.workloads.generator import random_mix
        from repro.workloads.scenarios import (
            use_case_batches,
            use_case_models,
        )

        rng = random.Random(1234)
        for _ in range(50):
            seed = rng.randrange(10 ** 6)
            tenants = rng.randint(1, 8)
            use_case = rng.choice(["datacenter", "arvr"])
            a = random_mix(seed, tenants=tenants, use_case=use_case)
            assert a == random_mix(seed, tenants=tenants,
                                   use_case=use_case)
            assert scenario_from_dict(scenario_to_dict(a)) == a
            assert len(set(a.model_names)) == tenants
            models = set(use_case_models(use_case))
            batches = set(use_case_batches(use_case))
            for inst in a:
                assert inst.model.name in models
                assert inst.batch in batches

    def test_replicated_roundtrip(self):
        from repro.config import scenario_from_dict, scenario_to_dict
        from repro.workloads.generator import replicated
        from repro.workloads.scenarios import use_case_models

        rng = random.Random(99)
        for _ in range(25):
            use_case = rng.choice(["datacenter", "arvr"])
            model = rng.choice(use_case_models(use_case))
            batches = tuple(rng.randint(1, 64)
                            for _ in range(rng.randint(1, 6)))
            sc = replicated(model, batches, use_case=use_case)
            assert sc == replicated(model, batches, use_case=use_case)
            assert scenario_from_dict(scenario_to_dict(sc)) == sc
            assert len(set(sc.model_names)) == len(batches)
