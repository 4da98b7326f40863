"""Unit tests for the Sec. III-E schedule evaluator."""

import pytest

from repro.core.metrics import ScheduleEvaluator, _divisors
from repro.core.schedule import Schedule, Segment, WindowSchedule
from repro.errors import SchedulingError


def _single_window(*chains):
    return Schedule(windows=(WindowSchedule(index=0, chains=chains),))


@pytest.fixture
def evaluator(tiny_scenario, het_mcm, database):
    return ScheduleEvaluator(tiny_scenario, het_mcm, database)


class TestEvaluation:
    def test_standalone_style_schedule(self, evaluator, tiny_scenario):
        schedule = _single_window(
            (Segment(0, 0, 4, node=0),),
            (Segment(1, 0, 3, node=2),),
        )
        metrics = evaluator.evaluate(schedule)
        assert metrics.latency_s > 0
        assert metrics.energy_j > 0
        assert metrics.edp == pytest.approx(
            metrics.latency_s * metrics.energy_j)

    def test_window_latency_is_max_over_models(self, evaluator):
        schedule = _single_window(
            (Segment(0, 0, 4, node=0),),
            (Segment(1, 0, 3, node=2),),
        )
        window = evaluator.evaluate(schedule).windows[0]
        per_model = [m.latency_s for m in window.per_model]
        assert window.latency_s == pytest.approx(max(per_model))

    def test_window_energy_is_sum_over_models(self, evaluator):
        schedule = _single_window(
            (Segment(0, 0, 4, node=0),),
            (Segment(1, 0, 3, node=2),),
        )
        window = evaluator.evaluate(schedule).windows[0]
        assert window.energy_j == pytest.approx(
            sum(m.energy_j for m in window.per_model))

    def test_schedule_latency_sums_windows(self, evaluator):
        schedule = Schedule(windows=(
            WindowSchedule(index=0, chains=(
                (Segment(0, 0, 2, node=0),),
                (Segment(1, 0, 3, node=2),))),
            WindowSchedule(index=1, chains=(
                (Segment(0, 2, 4, node=0),),)),
        ))
        metrics = evaluator.evaluate(schedule)
        assert metrics.latency_s == pytest.approx(
            sum(w.latency_s for w in metrics.windows))

    def test_invalid_schedule_rejected_by_default(self, evaluator):
        partial = _single_window((Segment(0, 0, 2, node=0),),
                                 (Segment(1, 0, 3, node=2),))
        with pytest.raises(Exception):
            evaluator.evaluate(partial)
        # but window-level evaluation works standalone
        evaluator.evaluate_window(partial.windows[0])

    @pytest.mark.parametrize("kernel", ["scalar", "vector"])
    def test_unplaced_segment_rejected(self, kernel, tiny_scenario,
                                       het_mcm, database):
        """Both kernels reject an unplaced segment with a typed error,
        not an ``AssertionError`` or ``TypeError`` from routing it."""
        if kernel == "vector":
            pytest.importorskip("numpy")
            from repro.engine.tensorkernel import TensorEvaluator
            evaluator = TensorEvaluator(tiny_scenario, het_mcm, database)
        else:
            evaluator = ScheduleEvaluator(tiny_scenario, het_mcm, database)
        schedule = _single_window(
            (Segment(0, 0, 4),),
            (Segment(1, 0, 3, node=2),),
        )
        with pytest.raises(SchedulingError, match="unplaced"):
            evaluator.evaluate(schedule)

    def test_model_latency_accessor(self, evaluator):
        schedule = _single_window(
            (Segment(0, 0, 4, node=0),),
            (Segment(1, 0, 3, node=2),),
        )
        metrics = evaluator.evaluate(schedule)
        assert metrics.model_latency(0) \
            == metrics.windows[0].model_latency(0)
        assert metrics.windows[0].model_latency(9) == 0.0


class TestPipelining:
    def test_pipelined_chain_beats_serial_on_latency(
            self, evaluator, het_mcm):
        """A batched model split across chiplets must pipeline."""
        serial = _single_window(
            (Segment(0, 0, 4, node=0),),
            (Segment(1, 0, 3, node=2),),
        )
        pipelined = _single_window(
            (Segment(0, 0, 2, node=0), Segment(0, 2, 4, node=3)),
            (Segment(1, 0, 3, node=2),),
        )
        lat_serial = evaluator.evaluate(serial).windows[0].model_latency(0)
        lat_pipe = evaluator.evaluate(pipelined).windows[0].model_latency(0)
        assert lat_pipe < lat_serial

    def test_minibatch_divides_batch(self, evaluator):
        schedule = _single_window(
            (Segment(0, 0, 2, node=0), Segment(0, 2, 4, node=3)),
            (Segment(1, 0, 3, node=2),),
        )
        window = evaluator.evaluate(schedule).windows[0]
        for entry in window.per_model:
            batch = evaluator.scenario[entry.model].batch
            assert batch % entry.minibatch == 0
            assert entry.tile_factor >= 1

    def test_chain_comm_adds_energy(self, evaluator):
        serial = _single_window(
            (Segment(0, 0, 4, node=0),),
            (Segment(1, 0, 3, node=2),),
        )
        split = _single_window(
            (Segment(0, 0, 2, node=0), Segment(0, 2, 4, node=3)),
            (Segment(1, 0, 3, node=2),),
        )
        # Splitting introduces NoP transfers; compute energy may shift
        # between chiplet classes, so compare same-dataflow nodes (0, 3
        # are both NVDLA on het-sides).
        e_serial = evaluator.evaluate(serial).windows[0].per_model[0]
        e_split = evaluator.evaluate(split).windows[0].per_model[0]
        assert e_split.energy_j > 0
        assert e_split.segment_latencies_s != e_serial.segment_latencies_s


class TestPlacementSensitivity:
    def test_gemm_model_prefers_nvdla_chiplet(self, evaluator, het_mcm):
        """Model 1 (GEMM) on an NVDLA node beats a Shi node."""
        on_nvd = _single_window(
            (Segment(0, 0, 4, node=7),),
            (Segment(1, 0, 3, node=0),),  # node 0 = NVDLA
        )
        on_shi = _single_window(
            (Segment(0, 0, 4, node=7),),
            (Segment(1, 0, 3, node=1),),  # node 1 = Shi
        )
        lat_nvd = evaluator.evaluate(on_nvd).windows[0].model_latency(1)
        lat_shi = evaluator.evaluate(on_shi).windows[0].model_latency(1)
        assert lat_nvd < lat_shi

    def test_offchip_distance_affects_latency(
            self, tiny_scenario, nvd_mcm, database):
        """Center chiplets pay extra hops to reach DRAM."""
        evaluator = ScheduleEvaluator(tiny_scenario, nvd_mcm, database)
        corner = _single_window(
            (Segment(0, 0, 4, node=0),),
            (Segment(1, 0, 3, node=2),))
        center = _single_window(
            (Segment(0, 0, 4, node=4),),
            (Segment(1, 0, 3, node=2),))
        lat_corner = evaluator.evaluate(corner).windows[0].model_latency(0)
        lat_center = evaluator.evaluate(center).windows[0].model_latency(0)
        assert lat_corner <= lat_center


class TestDivisors:
    """The O(sqrt n) divisor enumeration used for mini-batch search."""

    def test_one(self):
        assert _divisors(1) == (1,)

    @pytest.mark.parametrize("prime", (2, 3, 5, 7, 97, 7919))
    def test_primes(self, prime):
        assert _divisors(prime) == (1, prime)

    @pytest.mark.parametrize("square", (4, 9, 16, 36, 144, 10201))
    def test_perfect_squares_no_duplicate_root(self, square):
        divisors = _divisors(square)
        assert len(divisors) == len(set(divisors))
        root = int(square ** 0.5)
        assert root in divisors

    @pytest.mark.parametrize("value", list(range(1, 200)) + [1024, 5040])
    def test_matches_naive_scan(self, value):
        naive = tuple(d for d in range(1, value + 1) if value % d == 0)
        assert _divisors(value) == naive
