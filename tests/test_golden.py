"""Golden determinism snapshots for the SCAR scheduler.

These pin the end-to-end numeric behaviour of the full search pipeline on
``tiny_scenario`` for the four engine-mode combinations (packing x
provisioning x seg_search), so that refactors of the evaluation hot path
-- the segment-cost cache, chain-level delta evaluation -- provably change
nothing numerically.  If an intentional model change shifts these values,
regenerate them with the snippet in each failure message and review the
diff in the PR.
"""

from __future__ import annotations

import pytest

from repro.core.budget import SearchBudget
from repro.core.scar import SCARScheduler

#: (packing, provisioning, seg_search) -> (latency_s, energy_j, edp).
#: Regenerate: run SCARScheduler on tiny_scenario with GOLDEN_BUDGET,
#: nsplits=1, on het_sides_3x3 and print metrics with repr().
GOLDEN = {
    ("greedy", "uniform", "enumerative"):
        (5.571568e-05, 0.00021417920256000002, 1.1933139912488141e-08),
    ("uniform", "uniform", "enumerative"):
        (5.769968e-05, 0.00022271901184, 1.285081571308421e-08),
    ("greedy", "exhaustive", "enumerative"):
        (5.4435679999999996e-05, 0.00021271739904, 1.1579416264573746e-08),
    ("greedy", "uniform", "evolutionary"):
        (5.4435679999999996e-05, 0.00021271739904, 1.1579416264573746e-08),
}

GOLDEN_BUDGET = SearchBudget(top_k_segmentations=2,
                             max_segment_candidates=16,
                             max_root_combos=4, max_paths_per_model=4,
                             max_candidates_per_window=40, seed=1)


@pytest.mark.parametrize("packing,provisioning,seg_search",
                         sorted(GOLDEN))
def test_golden_snapshot(tiny_scenario, het_mcm, packing, provisioning,
                         seg_search):
    result = SCARScheduler(het_mcm, nsplits=1, budget=GOLDEN_BUDGET,
                           packing=packing, provisioning=provisioning,
                           seg_search=seg_search).schedule(tiny_scenario)
    latency, energy, edp = GOLDEN[(packing, provisioning, seg_search)]
    assert result.metrics.latency_s == pytest.approx(latency, abs=1e-9,
                                                     rel=1e-9)
    assert result.metrics.energy_j == pytest.approx(energy, abs=1e-9,
                                                    rel=1e-9)
    assert result.metrics.edp == pytest.approx(edp, abs=1e-9, rel=1e-9)


class TestGeneratedReplicatedParity:
    """The multi-tenant extension of the determinism contract: a seeded
    generated scenario running the *same* zoo model twice (``model#k``
    instance names) schedules bit-identically end to end -- through the
    wire file form, serially, and on the pooled job service."""

    def _request(self, tmp_path):
        from repro.api import ScheduleRequest
        from repro.config import (
            load_json,
            save_json,
            scenario_from_dict,
            scenario_to_dict,
        )
        from repro.workloads import replicated

        scenario = replicated("eyecod", (30, 60), use_case="arvr")
        path = tmp_path / "scenario.json"
        save_json(scenario_to_dict(scenario), path)
        loaded = scenario_from_dict(load_json(path))
        assert loaded == scenario  # the file round-trip is exact
        return loaded, ScheduleRequest.for_scenario(
            loaded, template="het_sides_3x3", nsplits=1,
            budget=GOLDEN_BUDGET)

    def test_serial_vs_pooled_service(self, tmp_path):
        from repro.api import Session
        from repro.service import SchedulerService

        loaded, request = self._request(tmp_path)
        serial = Session().submit(request)
        # The duplicated-tenant schedule is a valid layer partition.
        serial.schedule.validate(loaded)
        assert serial.request.resolve_scenario() == loaded

        with SchedulerService(Session(), workers=2) as service:
            pooled = service.submit(request).result()
        assert pooled.same_payload(serial)
