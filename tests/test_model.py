"""Unit tests for Model / ModelInstance / Scenario."""

import dataclasses
import math
import pickle
import sys
import threading

import pytest

from repro.config.files import scenario_to_dict
from repro.core.metrics import _divisors
from repro.errors import WorkloadError
from repro.workloads import zoo
from repro.workloads.layer import conv
from repro.workloads.model import (
    MAX_BATCH,
    Model,
    ModelInstance,
    Scenario,
    scheduling_space_magnitude,
)
from repro.workloads.scenarios import scenario, scenario_ids


def _model(name="m", n=3):
    return Model(name=name, layers=tuple(
        conv(f"l{i}", c=4, k=4, y=4, x=4) for i in range(n)))


class TestModel:
    def test_len_iter_getitem(self):
        model = _model(n=4)
        assert len(model) == 4
        assert [l.name for l in model] == ["l0", "l1", "l2", "l3"]
        assert model[2].name == "l2"

    def test_empty_model_rejected(self):
        with pytest.raises(WorkloadError, match="no layers"):
            Model(name="m", layers=())

    def test_duplicate_layer_names_rejected(self):
        layer = conv("dup", c=1, k=1, y=1, x=1)
        with pytest.raises(WorkloadError, match="duplicate"):
            Model(name="m", layers=(layer, layer))

    def test_skip_edge_must_be_forward(self):
        layers = tuple(conv(f"l{i}", c=1, k=1, y=1, x=1) for i in range(3))
        Model(name="ok", layers=layers, skip_edges=((0, 2),))
        with pytest.raises(WorkloadError):
            Model(name="bad", layers=layers, skip_edges=((2, 0),))

    def test_totals(self):
        model = _model(n=3)
        assert model.total_macs == 3 * model[0].macs
        assert model.total_weight_bytes == 3 * model[0].weight_bytes

    def test_summary_mentions_name_and_count(self):
        text = _model(name="net", n=2).summary()
        assert "net" in text and "2 layers" in text


def _table3_batches() -> list[tuple[str, int]]:
    """(zoo model, batch) for every divisor batch Table III runs it at:
    the batches a search builds layers at."""
    pairs = {(inst.model.name, minibatch)
             for sid in scenario_ids() for inst in scenario(sid)
             for minibatch in _divisors(inst.batch)}
    return sorted(pairs)


class TestAtBatch:
    @pytest.mark.parametrize("name,batch", _table3_batches())
    def test_equals_with_batch_and_is_built_once(self, name, batch):
        model = zoo.build(name)
        layers = model.at_batch(batch)
        assert layers == tuple(layer.with_batch(batch)
                               for layer in model.layers)
        assert model.at_batch(batch) is layers

    def test_instance_layers_read_the_model_memo(self):
        inst = ModelInstance(_model(), batch=3)
        assert inst.layers() is inst.model.at_batch(3)
        assert inst.layer(1) is inst.model.at_batch(3)[1]

    @pytest.mark.parametrize("model", [_model("net"), zoo.build("unet")],
                             ids=["inline", "zoo"])
    def test_memo_is_not_part_of_the_value(self, model):
        """Equality, hash, repr, the scenario wire form and the pickle
        are those of a model that never batched a layer."""
        fresh = dataclasses.replace(model)
        before = (hash(fresh), repr(fresh), pickle.dumps(fresh),
                  scenario_to_dict(Scenario("s", (ModelInstance(fresh, 4),))))
        for batch in (1, 2, 4):
            fresh.at_batch(batch)
        assert fresh == dataclasses.replace(model)
        assert (hash(fresh), repr(fresh), pickle.dumps(fresh),
                scenario_to_dict(Scenario("s", (ModelInstance(fresh, 4),)))
                ) == before
        clone = pickle.loads(pickle.dumps(fresh))
        assert clone == fresh
        assert clone.at_batch(4) == fresh.at_batch(4)
        assert clone.at_batch(4) is not fresh.at_batch(4)

    def test_bad_batch_rejected(self):
        with pytest.raises(WorkloadError, match="batch"):
            _model().at_batch(0)

    def test_racing_first_calls_share_one_tuple(self):
        """Threads that miss together each build a tuple, but every one
        of them gets the tuple the memo kept."""
        model = _model(n=40)
        batches = (1, 2, 3, 4)
        got: list[tuple[int, tuple]] = []
        start = threading.Barrier(8)

        def worker():
            start.wait(timeout=30)
            for batch in batches:
                got.append((batch, model.at_batch(batch)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(got) == 8 * len(batches)
        for batch, layers in got:
            assert layers is model.at_batch(batch)


class TestModelInstance:
    def test_layer_applies_batch(self):
        inst = ModelInstance(_model(), batch=5)
        assert inst.layer(0).n == 5
        assert inst.layers()[2].n == 5

    def test_total_macs_scale(self):
        model = _model()
        assert ModelInstance(model, 4).total_macs == 4 * model.total_macs

    def test_zero_batch_rejected(self):
        with pytest.raises(WorkloadError):
            ModelInstance(_model(), batch=0)

    def test_batch_is_capped(self):
        """A batch whose divisors alone take minutes to enumerate is a
        WorkloadError, not a search that never ends."""
        assert ModelInstance(_model(), MAX_BATCH).batch == MAX_BATCH
        for batch in (MAX_BATCH + 1, 10**20):
            with pytest.raises(WorkloadError, match="batch must be in"):
                ModelInstance(_model(), batch=batch)

    @pytest.mark.parametrize("batch", [True, False, 2.5, 1.0, "3", None])
    def test_non_int_batch_rejected(self, batch):
        """bool/float/str batches must not poison total_macs (regression:
        ``batch=True`` and ``batch=2.5`` used to be accepted)."""
        with pytest.raises(WorkloadError, match="must be an int"):
            ModelInstance(_model(), batch=batch)

    def test_instance_name_defaults_to_model_name(self):
        inst = ModelInstance(_model("net"))
        assert inst.name == "net" and inst.instance_name is None

    def test_instance_name_overrides(self):
        inst = ModelInstance(_model("net"), 2, instance_name="net#2")
        assert inst.name == "net#2"

    def test_instance_name_equal_to_model_name_normalizes(self):
        """Explicitly naming the instance after its model compares equal
        to the default-named instance (wire round-trip exactness)."""
        assert ModelInstance(_model("net"), 2, instance_name="net") \
            == ModelInstance(_model("net"), 2)

    @pytest.mark.parametrize("name", ["", 7])
    def test_bad_instance_name_rejected(self, name):
        with pytest.raises(WorkloadError, match="instance_name"):
            ModelInstance(_model(), instance_name=name)


class TestScenario:
    def test_lookup_by_name(self):
        sc = Scenario(name="s", instances=(
            ModelInstance(_model("a")), ModelInstance(_model("b"))))
        assert sc.instance("b").name == "b"
        with pytest.raises(WorkloadError):
            sc.instance("missing")

    def test_duplicate_model_names_rejected(self):
        with pytest.raises(WorkloadError, match="duplicate"):
            Scenario(name="s", instances=(
                ModelInstance(_model("a")), ModelInstance(_model("a"))))

    def test_repeated_model_with_instance_names_allowed(self):
        """Multi-tenant scenarios: same model twice under model#k names."""
        sc = Scenario(name="s", instances=(
            ModelInstance(_model("a"), 1),
            ModelInstance(_model("a"), 8, instance_name="a#2")))
        assert sc.model_names == ("a", "a#2")
        assert sc.instance("a#2").batch == 8
        assert sc.instance("a").batch == 1

    def test_duplicate_instance_names_rejected(self):
        with pytest.raises(WorkloadError, match="duplicate"):
            Scenario(name="s", instances=(
                ModelInstance(_model("a"), instance_name="x"),
                ModelInstance(_model("b"), instance_name="x")))

    def test_empty_scenario_rejected(self):
        with pytest.raises(WorkloadError):
            Scenario(name="s", instances=())

    def test_total_layers(self):
        sc = Scenario(name="s", instances=(
            ModelInstance(_model("a", 3)), ModelInstance(_model("b", 5))))
        assert sc.total_layers == 8

    def test_summary_lists_models(self):
        sc = Scenario(name="s", instances=(ModelInstance(_model("a")),))
        assert "a" in sc.summary()


class TestSpaceMagnitude:
    def test_paper_two_model_magnitude(self):
        """ResNet-50 + UNet on 36 chiplets reaches ~O(10^56) (Sec. II-D)."""
        from repro.workloads import zoo
        sc = Scenario(name="s", instances=(
            ModelInstance(zoo.build("resnet50")),
            ModelInstance(zoo.build("unet"))))
        magnitude = scheduling_space_magnitude(sc, 36)
        # The paper quotes 10^56 for L1=50, L2=23; our layer counts are
        # larger, so the magnitude must be at least that.
        assert magnitude >= 56

    def test_single_layer_single_chiplet(self):
        sc = Scenario(name="s", instances=(ModelInstance(_model(n=1)),))
        assert scheduling_space_magnitude(sc, 1) == pytest.approx(0.0)

    def test_monotone_in_chiplets(self):
        sc = Scenario(name="s", instances=(ModelInstance(_model(n=4)),))
        assert scheduling_space_magnitude(sc, 9) \
            > scheduling_space_magnitude(sc, 4)
