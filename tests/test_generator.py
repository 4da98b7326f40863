"""Tests for the seeded scenario generator (repro.workloads.generator)."""

import pytest

from repro.config import scenario_from_dict, scenario_to_dict
from repro.errors import ConfigError, WorkloadError
from repro.workloads import (
    GeneratorSpec,
    generate,
    random_mix,
    replicated,
    use_case_batches,
    use_case_models,
    zoo,
)


class TestUseCasePools:
    def test_datacenter_pool_matches_table3(self):
        assert use_case_models("datacenter") == (
            "bert_base", "bert_large", "googlenet", "gpt_l", "resnet50",
            "unet")

    def test_arvr_pool_matches_table3(self):
        assert set(use_case_models("arvr")) == {
            "d2go", "planercnn", "midas", "emformer", "hrvit", "hand_sp",
            "eyecod", "sp2dense"}

    def test_batch_pools(self):
        assert use_case_batches("datacenter") == (1, 3, 8, 24, 32)
        assert use_case_batches("arvr") == (3, 10, 15, 30, 45, 60)

    def test_unknown_use_case_rejected(self):
        with pytest.raises(WorkloadError, match="unknown use case"):
            use_case_models("edge")
        with pytest.raises(WorkloadError, match="unknown use case"):
            use_case_batches("edge")


class TestRandomMix:
    def test_same_seed_is_bit_identical(self):
        a = random_mix(42, tenants=5)
        b = random_mix(42, tenants=5)
        assert a == b  # full dataclass equality, layers included

    def test_wire_round_trip_exact(self):
        sc = random_mix(7, tenants=4, use_case="arvr")
        assert scenario_from_dict(scenario_to_dict(sc)) == sc

    def test_different_seeds_differ(self):
        mixes = {random_mix(seed, tenants=4).model_names
                 for seed in range(8)}
        assert len(mixes) > 1

    def test_sibling_index_differs_but_is_deterministic(self):
        assert random_mix(3, index=0) == random_mix(3, index=0)
        assert any(random_mix(3, index=0).model_names
                   != random_mix(3, index=i).model_names
                   or random_mix(3, index=0) != random_mix(3, index=i)
                   for i in range(1, 6))

    def test_use_case_constrains_models_and_batches(self):
        sc = random_mix(11, tenants=6, use_case="arvr")
        assert sc.use_case == "arvr"
        pool = set(use_case_models("arvr"))
        batches = set(use_case_batches("arvr"))
        for inst in sc:
            assert inst.model.name in pool
            assert inst.batch in batches

    def test_repeated_tenants_get_hash_k_names(self):
        sc = random_mix(1, tenants=12)  # 12 draws from a 6-model pool
        names = sc.model_names
        assert len(set(names)) == 12  # tenant-unique
        assert any("#" in name for name in names)

    def test_explicit_pools(self):
        sc = random_mix(5, tenants=3, models=("resnet50",), batches=(4,))
        assert all(inst.model.name == "resnet50" and inst.batch == 4
                   for inst in sc)
        assert sc.model_names == ("resnet50", "resnet50#2", "resnet50#3")

    def test_bad_model_pool_rejected(self):
        with pytest.raises(WorkloadError, match="unknown model"):
            random_mix(0, models=("nonexistent",))

    def test_bad_tenants_rejected(self):
        with pytest.raises(WorkloadError):
            random_mix(0, tenants=0)


class TestReplicated:
    def test_names_and_batches(self):
        sc = replicated("eyecod", (30, 60), use_case="arvr")
        assert sc.model_names == ("eyecod", "eyecod#2")
        assert [inst.batch for inst in sc] == [30, 60]
        assert all(inst.model == zoo.build("eyecod") for inst in sc)

    def test_wire_round_trip_exact(self):
        sc = replicated("resnet50", (1, 8, 32))
        assert scenario_from_dict(scenario_to_dict(sc)) == sc

    def test_empty_batches_rejected(self):
        with pytest.raises(WorkloadError):
            replicated("eyecod", ())


class TestGeneratorSpec:
    def test_generate_is_deterministic(self):
        spec = GeneratorSpec(kind="random_mix", seed=5, count=4)
        assert generate(spec) == generate(spec)

    def test_growing_count_is_a_prefix(self):
        small = GeneratorSpec(kind="random_mix", seed=5, count=2)
        large = GeneratorSpec(kind="random_mix", seed=5, count=4)
        assert generate(large)[:2] == generate(small)

    def test_replicated_requires_model(self):
        with pytest.raises(ConfigError, match="model"):
            GeneratorSpec(kind="replicated")

    def test_replicated_explicit_batches(self):
        spec = GeneratorSpec(kind="replicated", model="eyecod",
                             batches=(30, 60), use_case="arvr")
        (sc,) = generate(spec)
        assert sc.model_names == ("eyecod", "eyecod#2")

    def test_replicated_sampled_batches_deterministic(self):
        spec = GeneratorSpec(kind="replicated", model="hand_sp",
                             tenants=3, use_case="arvr", seed=2, count=2)
        fam = generate(spec)
        assert fam == generate(spec)
        assert all(len(sc) == 3 for sc in fam)
        pool = set(use_case_batches("arvr"))
        assert all(inst.batch in pool for sc in fam for inst in sc)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="unknown generator kind"):
            GeneratorSpec(kind="fancy")

    def test_kind_irrelevant_fields_rejected(self):
        with pytest.raises(ConfigError, match="random_mix ignores"):
            GeneratorSpec(kind="random_mix", model="eyecod")
        with pytest.raises(ConfigError, match="one 'model'"):
            GeneratorSpec(kind="replicated", model="eyecod",
                          models=("eyecod", "midas"))

    def test_scenario_names_are_unique(self):
        spec = GeneratorSpec(kind="random_mix", seed=1, count=5)
        names = [sc.name for sc in generate(spec)]
        assert len(set(names)) == 5
