"""Unit tests for the offline layer-cost database (Eq. 1)."""

import os
import pickle
import threading

import pytest

import repro.dataflow.database as database_module
from repro.dataflow.cost import compute_layer_cost
from repro.dataflow.database import LayerCostDatabase
from repro.dataflow.dataflow import by_name
from repro.mcm.chiplet import arvr_chiplet, datacenter_chiplet
from repro.workloads.layer import conv, gemm


@pytest.fixture
def db():
    return LayerCostDatabase(clock_hz=500e6)


NVD = datacenter_chiplet("nvdla")
SHI = datacenter_chiplet("shidiannao")


class TestMemoization:
    def test_cache_grows_once_per_key(self, db):
        layer = conv("c", c=8, k=8, y=8, x=8)
        db.cost(layer, NVD)
        assert len(db) == 1
        db.cost(layer, NVD)
        assert len(db) == 1
        db.cost(layer, SHI)
        assert len(db) == 2

    def test_same_dims_different_name_share_entry(self, db):
        db.cost(conv("a", c=8, k=8, y=8, x=8), NVD)
        db.cost(conv("b", c=8, k=8, y=8, x=8), NVD)
        assert len(db) == 1

    def test_batch_is_part_of_key(self, db):
        layer = conv("a", c=8, k=8, y=8, x=8)
        db.cost(layer, NVD)
        db.cost(layer.with_batch(2), NVD)
        assert len(db) == 2

    def test_chiplet_class_not_identity(self, db):
        layer = conv("a", c=8, k=8, y=8, x=8)
        db.cost(layer, datacenter_chiplet("nvdla"))
        db.cost(layer, datacenter_chiplet("nvdla"))
        assert len(db) == 1
        db.cost(layer, arvr_chiplet("nvdla"))
        assert len(db) == 2


class TestCap:
    def test_full_table_resets_and_costs_stay_exact(self, db, monkeypatch):
        monkeypatch.setattr(database_module, "_MAX_ENTRIES", 4)
        layers = [conv(f"c{i}", c=8, k=8 + i, y=8, x=8) for i in range(10)]
        costs = [db.cost(layer, NVD) for layer in layers]
        assert len(db) <= 4
        for layer, cost in zip(layers, costs):
            assert cost == compute_layer_cost(
                layer, by_name(NVD.dataflow), num_pes=NVD.num_pes,
                sram_bytes=NVD.sram_bytes, noc_gbps=NVD.noc_gbps,
                mem_gbps=NVD.mem_gbps, clock_hz=db.clock_hz,
                energy=db.energy)

    def test_pickles_with_its_entries(self, db):
        """A database pickles as plain data, entries included."""
        layer = conv("c", c=8, k=8, y=8, x=8)
        cost = db.cost(layer, NVD)
        clone = pickle.loads(pickle.dumps(db))
        assert len(clone) == 1
        assert clone.cost(layer, NVD) == cost

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_forked_child_can_miss_while_a_thread_holds_the_lock(self, db):
        """A fork taken while another thread computes a miss must not
        hand the child a lock that no thread of the child will release."""
        import multiprocessing

        holding, release = threading.Event(), threading.Event()

        def hold():
            with database_module._MISS_LOCK:
                holding.set()
                release.wait(timeout=10)

        thread = threading.Thread(target=hold)
        thread.start()
        assert holding.wait(timeout=10)
        # The fork waits for the holder, so let it go shortly after.
        threading.Timer(0.2, release.set).start()
        child = multiprocessing.get_context("fork").Process(
            target=db.cost, args=(conv("c", c=8, k=8, y=8, x=8), NVD))
        child.start()
        child.join(timeout=30)
        hung = child.is_alive()
        if hung:
            child.kill()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert not hung
        assert child.exitcode == 0


class TestQueries:
    def test_latency_and_energy_consistent_with_cost(self, db):
        layer = gemm("g", m=16, n_out=128, k_in=128)
        cost = db.cost(layer, NVD)
        assert db.latency_s(layer, NVD) == pytest.approx(
            cost.latency_s(db.clock_hz))
        assert db.energy_j(layer, NVD) == pytest.approx(cost.energy_j())

    def test_expected_latency_is_composition_mean(self, db):
        layer = gemm("g", m=16, n_out=512, k_in=512)
        lat_nvd = db.latency_s(layer, NVD)
        lat_shi = db.latency_s(layer, SHI)
        expected = db.expected_latency_s(layer, [NVD, NVD, SHI])
        assert expected == pytest.approx((2 * lat_nvd + lat_shi) / 3)

    def test_expected_energy_is_composition_mean(self, db):
        layer = conv("c", c=16, k=16, y=16, x=16)
        e_nvd = db.energy_j(layer, NVD)
        e_shi = db.energy_j(layer, SHI)
        assert db.expected_energy_j(layer, [NVD, SHI]) == pytest.approx(
            (e_nvd + e_shi) / 2)

    def test_expected_requires_chiplets(self, db):
        with pytest.raises(ValueError):
            db.expected_latency_s(conv("c", c=1, k=1, y=1, x=1), [])

    def test_affinity_picks_lower_edp_class(self, db):
        gemm_layer = gemm("g", m=128, n_out=5120, k_in=1280)
        stem = conv("s", c=3, k=64, y=112, x=112, r=7, stride=2)
        classes = {"nvdla": NVD, "shidiannao": SHI}
        assert db.affinity(gemm_layer, classes) == "nvdla"
        assert db.affinity(stem, classes) == "shidiannao"
