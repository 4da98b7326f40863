"""Bench: warm incremental rescheduling over a dynamic tenant trace.

Replays a periodic AR/VR tenant trace (two resident tenants plus two
recurring bursty ones -- recurring active sets are exactly the workload
the warm session's result memo answers without a search), once warm
and once cold, then

* asserts every event's warm result is **bit-identical** to its cold
  counterpart (:meth:`ScheduleResult.same_payload` -- the sim layer's
  parity contract: warmth must never change results),
* asserts the warm replay re-costs at least
  :data:`MIN_RECOST_REDUCTION` fewer segments than the cold replay (the
  acceptance gate for the incremental-rescheduling machinery), and
* records both replays' sim reports into ``benchmarks/BENCH_sim.json``.
"""

from __future__ import annotations

from repro.sim import TenantEvent, Trace, build_report, replay_parity

#: Minimum fraction of segment re-costings the warm replay must save
#: versus cold on the periodic trace (the ISSUE-8 acceptance criterion
#: is 40%; the trace below measures ~47% at the fast budget).
MIN_RECOST_REDUCTION = 0.4


def _arrive(tick, tenant, model, batch, deadline_s=None):
    return TenantEvent(tick=tick, kind="arrive", tenant=tenant,
                       model=model, batch=batch, deadline_s=deadline_s)


def _depart(tick, tenant):
    return TenantEvent(tick=tick, kind="depart", tenant=tenant)


def periodic_trace() -> Trace:
    """Two resident tenants, two periodically recurring bursty ones.

    The residents' pair set recurs every time a burst ends, and each
    burst re-arrives with its original workload, so 6 of the 11
    non-empty events revisit an already-scheduled tenant set.
    """
    base_eye, base_hand = "eyecod#base", "hand_sp#base"
    burst_eye, burst_emf = "eyecod#burst", "emformer#burst"
    events = sorted([
        _arrive(0, base_eye, "eyecod", 2, deadline_s=0.4),
        _arrive(0, base_hand, "hand_sp", 1),
        _arrive(1, burst_eye, "eyecod", 4, deadline_s=0.6),
        _depart(2, burst_eye),
        _arrive(3, burst_emf, "emformer", 2, deadline_s=0.3),
        _depart(4, burst_emf),
        _arrive(5, burst_eye, "eyecod", 4, deadline_s=0.6),
        _depart(6, burst_eye),
        _arrive(7, burst_emf, "emformer", 2, deadline_s=0.3),
        _depart(8, burst_emf),
        _depart(9, base_eye),
        _depart(9, base_hand),
    ], key=TenantEvent.sort_key)
    return Trace(name="sim:periodic:arvr", events=tuple(events),
                 use_case="arvr")


def test_sim_warm_replay(benchmark, config, bench_artifact):
    trace = periodic_trace()
    results = {}

    def run_both():
        results["warm"], results["cold"], results["parity"] = \
            replay_parity(trace, template="het_sides_3x3",
                          nsplits=config.nsplits, budget=config.budget)
        return results["parity"]

    benchmark.pedantic(run_both, rounds=1, iterations=1)
    warm, cold, parity = \
        results["warm"], results["cold"], results["parity"]

    # Parity: warmth is pure memoization, event by event.
    assert parity == [True] * len(trace.events), (
        f"warm replay diverged from cold at events "
        f"{[i for i, ok in enumerate(parity) if not ok]}")

    warm_report = build_report(trace, "warm", warm)
    cold_report = build_report(trace, "cold", cold)
    assert warm_report.memo_hits > 0
    assert cold_report.memo_hits == 0
    assert cold_report.total_segments_recosted > 0

    reduction = 1 - (warm_report.total_segments_recosted
                     / cold_report.total_segments_recosted)
    assert reduction >= MIN_RECOST_REDUCTION, (
        f"warm replay saved only {reduction:.1%} of segment "
        f"re-costings (gate: {MIN_RECOST_REDUCTION:.0%})")

    data = {
        "trace": trace.to_dict(),
        "warm": warm_report.to_dict(),
        "cold": cold_report.to_dict(),
        "recost_reduction": reduction,
        "memo_hits": warm_report.memo_hits,
        "bit_identical": True,
    }
    print(f"\nperiodic trace ({len(trace.events)} events): warm "
          f"{warm_report.total_segments_recosted}/"
          f"{cold_report.total_segments_recosted} cold segments "
          f"re-costed ({reduction:.1%} saved, "
          f"{warm_report.memo_hits} memo hits), "
          f"deadline misses {warm_report.deadline_miss_rate:.1%}")
    path = bench_artifact("sim", data)
    print(f"artifact: {path}")
