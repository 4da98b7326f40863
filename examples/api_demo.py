"""repro.api smoke demo: typed requests, batch sessions, the wire format.

Builds three declarative :class:`~repro.api.ScheduleRequest` jobs (SCAR
under two objectives plus the standalone baseline), runs them through one
:class:`~repro.api.Session`, round-trips a result through its JSON wire
document and prints the session's running perf total.

Run:  python examples/api_demo.py
"""

from repro.api import ScheduleRequest, ScheduleResult, Session
from repro.core import QUICK_BUDGET


def main() -> None:
    session = Session()
    scar = ScheduleRequest(scenario_id=1, template="het_sides_3x3",
                           policy="scar", objective="edp",
                           budget=QUICK_BUDGET, nsplits=1)
    requests = [
        scar,
        scar.replace(objective="latency"),
        scar.replace(template="simba_nvd_3x3", policy="standalone"),
    ]

    results = [session.submit(request) for request in requests]
    for request, result in zip(requests, results):
        print(f"{request.policy:10s} {request.objective:8s} "
              f"{result.metrics.summary()}")

    # The JSON wire format: results (and requests) serialize losslessly.
    document = results[0].to_json()
    restored = ScheduleResult.from_json(document)
    assert restored == results[0]
    assert restored.metrics.edp == results[0].metrics.edp
    print(f"\nwire round-trip OK ({len(document)} bytes, "
          f"{len(restored.candidate_points())} candidate points)")

    # Memoization: identical requests are free the second time.
    assert session.submit(scar) is results[0]

    print("\naggregate perf over the batch:")
    print(session.perf_summary().render())


if __name__ == "__main__":
    main()
